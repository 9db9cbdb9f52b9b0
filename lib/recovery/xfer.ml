open Ariesrh_types
open Ariesrh_wal

(* Restart resolution of cross-shard transfers, run by the [Sharded]
   router after every shard's own [Db.recover] has finished (so each
   log's corrupt tail is already amputated and every durable [Xfer_in]
   has been redone by the forward pass).

   An [Xfer_out] with no [Xfer_end] on the same log is in doubt. The
   commit point of a transfer is the durable presence of the matching
   [Xfer_in] on the target shard: if it is there, the transfer happened
   and the intent rolls forward; if it is not, the crash beat the
   target-side force and the intent rolls back. Either way resolution
   appends the missing [Xfer_end] through the reserved log headroom —
   idempotent, because a resolved intent is no longer in doubt and the
   target-side evidence never changes. *)

type resolution = { rolled_forward : int; rolled_back : int }

type rebuild = {
  homes : (int, int) Hashtbl.t;
  next_xfer_id : int;
  last_hops : (int, int) Hashtbl.t;
  last_ins : (int, int * Lsn.t) Hashtbl.t;
}

let close_intent (env : Env.t) ~xfer_id ~oid ~committed =
  let log = env.Env.log in
  let lsn =
    Log_store.append_reserved log
      (Record.mk_system (Record.Xfer_end { xfer_id; oid; committed }))
  in
  Log_store.flush log ~upto:lsn

(* Resolve every in-doubt intent, then reconstruct the volatile routing
   state from the durable logs alone. Transfers of one object are
   serialized — only its current home ever initiates the next hop — so
   the {e highest committed hop} alone determines where the object lives
   now: its target is the current home. A hop counts as committed when
   its intent carries a committed end, or when the target-side [Xfer_in]
   survives; either record names the target, so the reconstruction
   tolerates the other side's log having been truncated. (The router's
   external truncation pin keeps each migrated object's latest [Xfer_in]
   readable, so the highest committed hop is always visible on at least
   one log.) *)
let recover shards ~base =
  (* durable transfer-ins: (shard, xfer_id) *)
  let ins : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* one walk per shard over the log's control index, which never reads
     the records between transfer records; oldest first *)
  let logs =
    List.map
      (fun (shard, (env : Env.t)) ->
        let log = env.Env.log and acc = ref [] in
        Log_store.iter_control log ~kind:Log_store.Transfer
          ~from:(Log_store.truncated_below log) ~upto:(Log_store.durable log)
          (fun lsn { Record.body; _ } ->
            (match body with
            | Record.Xfer_in { xfer_id; _ } ->
                Hashtbl.replace ins (shard, xfer_id) ()
            | _ -> ());
            acc := (lsn, body) :: !acc);
        (shard, env, List.rev !acc))
      shards
  in
  (* oid -> (best committed hop, its target) *)
  let best : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  (* oid -> (shard, lsn) of the Xfer_in of the best committed hop *)
  let best_in : (int, int * (int * Lsn.t)) Hashtbl.t = Hashtbl.create 16 in
  let last_hops : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let note_committed ~oid ~hop ~target =
    match Hashtbl.find_opt best oid with
    | Some (h, _) when h >= hop -> ()
    | _ -> Hashtbl.replace best oid (hop, target)
  in
  let note_hop ~oid ~hop =
    match Hashtbl.find_opt last_hops oid with
    | Some h when h >= hop -> ()
    | _ -> Hashtbl.replace last_hops oid hop
  in
  let max_id = ref 0 and forward = ref 0 and back = ref 0 in
  List.iter
    (fun (shard, env, records) ->
      (* intents on this shard: the in-doubt ones (xfer_id -> (oid,
         target)) and the verdicts of the ended ones *)
      let open_outs : (int, Oid.t * int) Hashtbl.t = Hashtbl.create 4 in
      let ends : (int, bool) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (function
          | _, Record.Xfer_out { xfer_id; oid; target; _ } ->
              Hashtbl.replace open_outs xfer_id (oid, target)
          | _, Record.Xfer_end { xfer_id; committed; _ } ->
              Hashtbl.remove open_outs xfer_id;
              Hashtbl.replace ends xfer_id committed
          | _ -> ())
        records;
      Hashtbl.iter
        (fun xfer_id (oid, target) ->
          let committed = Hashtbl.mem ins (target, xfer_id) in
          close_intent env ~xfer_id ~oid ~committed;
          Hashtbl.replace ends xfer_id committed;
          if committed then incr forward else incr back)
        open_outs;
      List.iter
        (function
          | _, Record.Xfer_out { xfer_id; hop; oid; target; _ } ->
              max_id := max !max_id xfer_id;
              let oid = Oid.to_int oid in
              note_hop ~oid ~hop;
              if Option.value ~default:false (Hashtbl.find_opt ends xfer_id)
              then note_committed ~oid ~hop ~target
          | lsn, Record.Xfer_in { xfer_id; hop; oid; _ } -> (
              max_id := max !max_id xfer_id;
              let oid = Oid.to_int oid in
              note_hop ~oid ~hop;
              note_committed ~oid ~hop ~target:shard;
              match Hashtbl.find_opt best_in oid with
              | Some (h, _) when h >= hop -> ()
              | _ -> Hashtbl.replace best_in oid (hop, (shard, lsn)))
          | _ -> ())
        records)
    logs;
  let homes = Hashtbl.create 16 and last_ins = Hashtbl.create 16 in
  Hashtbl.iter
    (fun oid (_, target) ->
      if target <> base (Oid.of_int oid) then Hashtbl.replace homes oid target)
    best;
  Hashtbl.iter (fun oid (_, at) -> Hashtbl.replace last_ins oid at) best_in;
  ( { rolled_forward = !forward; rolled_back = !back },
    { homes; next_xfer_id = !max_id + 1; last_hops; last_ins } )
