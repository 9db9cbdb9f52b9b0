open Ariesrh_types
open Ariesrh_wal
open Ariesrh_txn
module Obs = Ariesrh_obs

(* Only live update records move. A compensated update is dead history:
   moving it without its CLR would make the delegatee undo it again, and
   moving the CLR would carry an undo_next pointer into the delegator's
   chain. Both stay put; the delegator's own chain walk skips them. The
   walk sees CLRs before the updates they compensate (they are newer),
   so a set of compensated LSNs collected on the way down suffices. *)
let moves_with record tor oid ~compensated ~at =
  match record.Record.xid with
  | Some w when Xid.equal w tor -> (
      match record.Record.body with
      | Record.Update u ->
          Oid.equal u.oid oid && not (Hashtbl.mem compensated (Lsn.to_int at))
      | _ -> false)
  | _ -> false

(* --- surgery plans --- *)

type patch = { target : Lsn.t; before : Record.t; after : Record.t }

type plan = {
  patches : patch list;  (* ascending target LSN, one per touched record *)
  moved : Lsn.t list;  (* update records re-attributed to the delegatee *)
  tor_last : Lsn.t;
  tee_last : Lsn.t;
}

(* Compute the chain surgery without touching the log or the transaction
   table: the walk from the old [eager_delegate] runs against an overlay
   of pending patches, so the plan can be logged (and crash-recovered)
   before a single byte of stable history changes. *)
let plan_eager (env : Env.t) ~tor_info ~tee_info oid =
  let log = env.Env.log in
  let tor = tor_info.Txn_table.xid and tee = tee_info.Txn_table.xid in
  let overlay : (int, Record.t) Hashtbl.t = Hashtbl.create 8 in
  let originals : (int, Record.t) Hashtbl.t = Hashtbl.create 8 in
  let read lsn =
    match Hashtbl.find_opt overlay (Lsn.to_int lsn) with
    | Some r -> r
    | None -> Log_store.read log lsn
  in
  (* [current] is the record's content just before this patch: the
     original image is captured on first touch, without a re-read *)
  let patch lsn ~current r =
    let k = Lsn.to_int lsn in
    if not (Hashtbl.mem originals k) then Hashtbl.replace originals k current;
    Hashtbl.replace overlay k r
  in
  let moved = ref [] in
  let tor_last = ref tor_info.Txn_table.last_lsn in
  let tee_last = ref tee_info.Txn_table.last_lsn in
  (* most recent record retained on the delegator's chain, whose pointer
     must be patched when the record below it moves away *)
  let succ_tor : (Lsn.t * Record.t) option ref = ref None in
  (* lowest-LSN record visited so far on the delegatee's chain; the next
     insertion happens directly below it *)
  let tee_succ : (Lsn.t * Record.t) option ref = ref None in
  (* advance the delegatee-side cursor until the position below it is < k *)
  let rec advance_tee k =
    let below =
      match !tee_succ with
      | None -> !tee_last
      | Some (_, r) -> Record.prev_for r tee
    in
    if (not (Lsn.is_nil below)) && Lsn.(below > k) then begin
      tee_succ := Some (below, read below);
      advance_tee k
    end
  in
  let compensated = Hashtbl.create 8 in
  let k = ref !tor_last in
  while not (Lsn.is_nil !k) do
    let record = read !k in
    let next = Record.prev_for record tor in
    (match record.Record.body with
    | Record.Clr { undone; _ } ->
        Hashtbl.replace compensated (Lsn.to_int undone) ()
    | _ -> ());
    if moves_with record tor oid ~compensated ~at:!k then begin
      (* detach from the delegator's chain *)
      (match !succ_tor with
      | None -> tor_last := next
      | Some (sl, sr) ->
          let sr' = Record.set_prev_for sr tor next in
          patch sl ~current:sr sr';
          succ_tor := Some (sl, sr'));
      (* splice into the delegatee's chain, keeping it LSN-ordered *)
      advance_tee !k;
      let below =
        match !tee_succ with
        | None -> !tee_last
        | Some (_, r) -> Record.prev_for r tee
      in
      let after = Record.set_prev_for (Record.set_writer record tee) tee below in
      patch !k ~current:record after;
      moved := !k :: !moved;
      (match !tee_succ with
      | None -> tee_last := !k
      | Some (sl, sr) ->
          patch sl ~current:sr (Record.set_prev_for sr tee !k));
      tee_succ := Some (!k, after)
    end
    else succ_tor := Some (!k, record);
    k := next
  done;
  let patches =
    Hashtbl.fold
      (fun k before acc ->
        { target = Lsn.of_int k; before; after = Hashtbl.find overlay k }
        :: acc)
      originals []
    |> List.sort (fun a b -> Lsn.compare a.target b.target)
  in
  {
    patches;
    moved = List.sort Lsn.compare !moved;
    tor_last = !tor_last;
    tee_last = !tee_last;
  }

let apply_plan (env : Env.t) patches =
  List.iter
    (fun { target; after; _ } -> Log_store.rewrite env.Env.log target after)
    patches;
  List.length patches

(* --- the rewrite system transaction --- *)

let clr_of p =
  Record.mk_system
    (Record.Rewrite_clr
       {
         target = p.target;
         before = Record.encode p.before;
         after = Record.encode p.after;
       })

let surgery_cost ?deleg patches =
  let begin_r =
    Record.mk_system
      (Record.Rewrite_begin
         { deleg; targets = List.map (fun p -> p.target) patches })
  in
  let end_r =
    Record.mk_system (Record.Rewrite_end { begin_lsn = Lsn.nil; committed = true })
  in
  let bytes =
    List.fold_left
      (fun acc p -> acc + Record.encoded_size (clr_of p))
      (Record.encoded_size begin_r + Record.encoded_size end_r)
      patches
  in
  (bytes, 2 + List.length patches)

(* Append and force the intent record and the per-target CLRs. After
   this returns, a crash at any later point is recoverable: restart sees
   an un-ended surgery and restores every before-image. The caller must
   have secured log space (all appends bypass admission). *)
let surgery_begin (env : Env.t) ?deleg patches =
  let log = env.Env.log in
  let begin_lsn =
    Log_store.append_reserved log
      (Record.mk_system
         (Record.Rewrite_begin
            { deleg; targets = List.map (fun p -> p.target) patches }))
  in
  List.iter (fun p -> ignore (Log_store.append_reserved log (clr_of p))) patches;
  Log_store.flush log ~upto:(Log_store.head log);
  begin_lsn

(* Close the system transaction. [committed = true] callers append any
   records that must live or die with the surgery (anchors, delegation
   bookkeeping) before calling this: the closing force hardens them and
   the end record as one unit. *)
let surgery_end (env : Env.t) ~begin_lsn ~committed =
  let log = env.Env.log in
  ignore
    (Log_store.append_reserved log
       (Record.mk_system (Record.Rewrite_end { begin_lsn; committed })));
  Log_store.flush log ~upto:(Log_store.head log)

(* --- restart surgery recovery --- *)

exception Surgery_corrupt of string

type surgery = {
  s_begin : Lsn.t;
  mutable s_clrs : (Lsn.t * string * string) list;  (* target, before, after *)
  mutable s_end : bool option;  (* None = un-ended; Some committed *)
}

(* Roll an interrupted rewrite system transaction back (or a completed
   one forward) from its durable intent record. Runs after tail
   amputation and before the forward scan on every engine. Idempotent:
   restoring a before-image (or re-applying an after-image) over
   identical bytes is a no-op, so a crash anywhere inside this pass is
   survived by running it again.

   Only the newest surgery can need work — an earlier surgery was ended
   and forced before the next began, and its in-place rewrites hit the
   stable log synchronously before its end record was written. An
   un-ended surgery that is not the newest means the protocol was
   violated; that is surfaced as corruption, not silently repaired.

   The scan is bounded by the master checkpoint: a surgery completes
   inside one engine operation and a checkpoint inside another, so they
   never interleave — any surgery whose intent record sits at or below
   the master's checkpoint-end record ended before that checkpoint was
   taken. Restart therefore only looks at the same tail window analysis
   will, and reads nothing in it but the surgery records, through the
   log's control index. (The full-log bracketing invariants are the
   self-audit's job.) *)
let recover_surgeries (env : Env.t) =
  let log = env.Env.log in
  let surgeries = ref [] in
  let current = ref None in
  let master = Log_store.master log in
  let from =
    let base = Log_store.truncated_below log in
    if Lsn.is_nil master then base else Lsn.max base (Lsn.next master)
  in
  Log_store.iter_control log ~kind:Log_store.Surgery ~from (fun lsn record ->
      match record.Record.body with
      | Record.Rewrite_begin _ ->
          (match !current with
          | Some s when s.s_end = None ->
              raise
                (Surgery_corrupt
                   (Format.asprintf
                      "rewrite surgery at %a begins inside the un-ended \
                       surgery at %a"
                      Lsn.pp lsn Lsn.pp s.s_begin))
          | _ -> ());
          let s = { s_begin = lsn; s_clrs = []; s_end = None } in
          current := Some s;
          surgeries := s :: !surgeries
      | Record.Rewrite_clr { target; before; after } -> (
          match !current with
          | Some s when s.s_end = None ->
              s.s_clrs <- (target, before, after) :: s.s_clrs
          | _ ->
              raise
                (Surgery_corrupt
                   (Format.asprintf
                      "orphaned rewrite CLR at %a (no open surgery)" Lsn.pp lsn)))
      | Record.Rewrite_end { begin_lsn; committed } -> (
          match !current with
          | Some s when s.s_end = None && Lsn.equal s.s_begin begin_lsn ->
              s.s_end <- Some committed
          | _ ->
              raise
                (Surgery_corrupt
                   (Format.asprintf
                      "rewrite end at %a does not close an open surgery \
                       (begin=%a)"
                      Lsn.pp lsn Lsn.pp begin_lsn)))
      | _ -> ());
  let rolled_back = ref 0 and rolled_forward = ref 0 in
  let install which (target, before, after) =
    let image = match which with `Before -> before | `After -> after in
    (* a target above the durable head died with the volatile tail (the
       surgery never forced it — impossible under the protocol, but a
       relic guard keeps recovery total); below the truncation point it
       was reclaimed and no future scan will read it *)
    let i = Lsn.to_int target in
    if
      i >= Lsn.to_int (Log_store.truncated_below log)
      && i <= Lsn.to_int (Log_store.head log)
    then begin
      match Record.decode image with
      | Ok r -> Log_store.rewrite log target r
      | Error e ->
          raise
            (Surgery_corrupt
               (Format.asprintf "undecodable %s image for target %a (%a)"
                  (match which with `Before -> "before" | `After -> "after")
                  Lsn.pp target Record.pp_decode_error e))
    end
  in
  (match !surgeries with
  | [] -> ()
  | newest :: older ->
      List.iter
        (fun s ->
          if s.s_end = None then
            raise
              (Surgery_corrupt
                 (Format.asprintf
                    "un-ended rewrite surgery at %a is not the newest" Lsn.pp
                    s.s_begin)))
        older;
      let clrs = List.rev newest.s_clrs in
      (match newest.s_end with
      | None ->
          (* The crash hit inside the surgery window. Pick the direction
             from the durable target state: in-place rewrites are
             synchronous durable I/O, so if every retained target already
             holds its after-image the apply phase completed and only the
             closing force died — the surgery's dependent records (chain
             anchors, appended before the end record) may be durable, so
             history must move forward with them. Any target still
             holding its before-image means the apply was interrupted and
             nothing after it exists: restore every before-image. Either
             way, close the system transaction so later restarts see a
             resolved surgery. *)
          let retained (target, _, _) =
            let i = Lsn.to_int target in
            i >= Lsn.to_int (Log_store.truncated_below log)
            && i <= Lsn.to_int (Log_store.head log)
          in
          let holds_after (target, _, after) =
            String.equal (Record.encode (Log_store.read log target)) after
          in
          let completed =
            clrs <> []
            && List.for_all
                 (fun c -> (not (retained c)) || holds_after c)
                 clrs
          in
          if completed then begin
            List.iter (install `After) clrs;
            surgery_end env ~begin_lsn:newest.s_begin ~committed:true;
            incr rolled_forward
          end
          else begin
            List.iter (install `Before) clrs;
            surgery_end env ~begin_lsn:newest.s_begin ~committed:false;
            incr rolled_back
          end
      | Some true ->
          (* committed: roll forward from the intent record (idempotent
             re-application of the after-images) *)
          List.iter (install `After) clrs;
          incr rolled_forward
      | Some false ->
          (* rolled back before the crash; re-restoring is idempotent *)
          List.iter (install `Before) clrs;
          incr rolled_forward));
  env.Env.surgery_rolled_back <-
    env.Env.surgery_rolled_back + !rolled_back;
  env.Env.surgery_rolled_forward <-
    env.Env.surgery_rolled_forward + !rolled_forward;
  (!rolled_back, !rolled_forward)

(* --- legacy entry points --- *)

(* The raw splice, sans system transaction: [Db.delegate] drives the
   crash-atomic protocol itself; tests and figures that call this
   directly get the bare (non-atomic) §3.2 behaviour. *)
let eager_delegate (env : Env.t) ~tor_info ~tee_info oid =
  let plan = plan_eager env ~tor_info ~tee_info oid in
  let n = apply_plan env plan.patches in
  tor_info.Txn_table.last_lsn <- plan.tor_last;
  tee_info.Txn_table.last_lsn <- plan.tee_last;
  n

let attribute_only (env : Env.t) ~tor ~tee oid ~from =
  let log = env.Env.log in
  let count = ref 0 in
  let k = ref from in
  while not (Lsn.is_nil !k) do
    let record = Log_store.read log !k in
    (match (record.Record.xid, record.Record.body) with
    | Some w, Record.Update u when Xid.equal w tor && Oid.equal u.oid oid ->
        Log_store.rewrite log !k (Record.set_writer record tee);
        incr count
    | _ -> ());
    k :=
      (match record.Record.xid with
      | Some w when Xid.equal w tor -> Record.prev_for record tor
      | _ -> if Lsn.equal !k Lsn.first then Lsn.nil else Lsn.prev !k)
  done;
  !count
