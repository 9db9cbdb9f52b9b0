open Ariesrh_types
open Ariesrh_wal
open Ariesrh_txn
module Heap = Ariesrh_util.Heap
module Obs = Ariesrh_obs

type walk = Chains | Scopes of { splice : bool }

let mode = function
  | Chains -> Forward.Conventional
  | Scopes { splice = false } -> Forward.Rh
  | Scopes { splice = true } -> Forward.Rh_rewritten

type on_undo = Txn_table.info -> undone:Lsn.t -> Record.update -> unit

(* Append the CLR compensating [undone] to [info]'s chain, after the
   caller's hook has run. The append bypasses admission: rollback and
   restart draw on reserved space, and a bounded log must never refuse
   the records that make it recoverable. *)
let write_clr (env : Env.t) ~(on_undo : on_undo) (info : Txn_table.info)
    ~invoker ~undone ~undo_next upd =
  on_undo info ~undone upd;
  let clr =
    Record.mk info.xid ~prev:info.last_lsn
      (Record.Clr { upd; undone; invoker; undo_next })
  in
  let lsn = Log_store.append_reserved env.log clr in
  info.last_lsn <- lsn;
  info.undo_next <- undo_next;
  (clr, lsn)

let emit_clr (env : Env.t) (info : Txn_table.info) ~invoker ~undone lsn
    (upd : Record.update) =
  if Obs.Ring.enabled env.ring then
    Obs.Ring.emit env.ring
      (Obs.Event.Clr { xid = info.xid; invoker; oid = upd.oid; lsn; undone })

(* Eager rewriting makes each transaction's chain the authority on what
   it must undo: surgery splices delegated-in records onto it (even below
   its begin record) and takes delegated-away ones off. So a chain walk
   starts at the chain head and follows [prev_for] all the way down; it
   never dereferences a CLR's [undo_next], which may name a record that
   has since moved to another chain. An update still needs undoing
   unless a CLR higher up on the same chain compensated it; [pending]
   remembers the CLRs it passes and answers for the updates. *)
let pending compensated lsn (record : Record.t) =
  match record.body with
  | Record.Update u when not (Hashtbl.mem compensated (Lsn.to_int lsn)) ->
      Some u
  | Record.Clr { undone; _ } ->
      Hashtbl.replace compensated (Lsn.to_int undone) ();
      None
  | _ -> None

(* Many losers are merged by LSN, largest first. *)
let chains ?(floor = Lsn.nil) (env : Env.t) ~on_undo losers =
  let stats = Scope_sweep.zero () in
  let compensated = Hashtbl.create 32 in
  let heap = Heap.create ~leq:(fun (a, _) (b, _) -> Lsn.(a <= b)) in
  let push lsn info = if Lsn.(lsn > floor) then Heap.push heap (lsn, info) in
  List.iter (fun (info : Txn_table.info) -> push info.last_lsn info) losers;
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some (lsn, (info : Txn_table.info)) ->
        stats.examined <- stats.examined + 1;
        let record = Log_store.read env.log lsn in
        (match pending compensated lsn record with
        | Some u ->
            let inv = { u with op = Apply.inverse u.op } in
            let _, clr_lsn =
              write_clr env ~on_undo info ~invoker:info.xid ~undone:lsn
                ~undo_next:record.prev inv
            in
            emit_clr env info ~invoker:info.xid ~undone:lsn clr_lsn inv;
            Apply.force env clr_lsn inv;
            stats.undone <- stats.undone + 1
        | None -> ());
        push (Record.prev_for record info.xid) info;
        loop ()
  in
  loop ();
  stats

let chain_objects (env : Env.t) (info : Txn_table.info) =
  let compensated = Hashtbl.create 8 in
  let rec go lsn acc =
    if Lsn.is_nil lsn then acc
    else
      let record = Log_store.read env.log lsn in
      let acc =
        match pending compensated lsn record with
        | Some u -> Oid.Set.add u.oid acc
        | None -> acc
      in
      go (Record.prev_for record info.xid) acc
  in
  go info.last_lsn Oid.Set.empty

(* The lazy engine's restart rewrite, installed as one rewrite system
   transaction after the sweep: intent + before/after images forced,
   then the in-place rewrites, then the end record. A crash before the
   closing force rolls the whole batch back at the next restart
   (all-logical history, which [Rh_rewritten] analysis replays); after
   it, roll-forward re-installs it (all-physical). Never a half-spliced
   mix where a record and its CLR disagree. *)
let install (env : Env.t) = function
  | [] -> ()
  | splices ->
      let patches =
        List.concat_map (fun (a, b) -> [ a; b ]) (List.rev splices)
        |> List.sort (fun a b -> Lsn.compare a.Rewrite.target b.Rewrite.target)
      in
      Obs.Ring.emit env.ring (Obs.Event.Restart_enter Obs.Event.Surgery);
      Obs.Profiler.time env.prof "restart.splice" (fun () ->
          let begin_lsn = Rewrite.surgery_begin env patches in
          ignore (Rewrite.apply_plan env patches);
          Rewrite.surgery_end env ~begin_lsn ~committed:true);
      Obs.Profiler.count env.prof "restart.splice" "patches"
        (List.length patches);
      Obs.Ring.emit env.ring (Obs.Event.Restart_leave Obs.Event.Surgery)

(* The ARIES/RH cluster sweep (§3.5 abort, §3.6.2 backward pass) over
   the losers' scopes. With [splice], each undone update invoked by
   someone other than its owner is re-attributed to the owner, and its
   CLR's invoker flipped to agree (or a later restart's trim misses and
   the update is undone twice) — the rewrite the lazy algorithm defers
   to restart. *)
let scopes ?floor ?(naive = false) ~splice (env : Env.t) ~on_undo losers =
  let tagged =
    List.concat_map
      (fun (info : Txn_table.info) ->
        List.map (fun s -> (info, s)) (Ob_list.all_scopes info.ob_list))
      losers
  in
  let splices = ref [] in
  let on_undo ~(owner : Txn_table.info) ~invoker ~undone ~undo_next upd =
    let clr, lsn =
      write_clr env ~on_undo owner ~invoker ~undone ~undo_next upd
    in
    if splice && not (Xid.equal owner.xid invoker) then begin
      let original = Log_store.read env.log undone in
      let clr' =
        {
          clr with
          Record.body =
            Record.Clr { upd; undone; invoker = owner.xid; undo_next };
        }
      in
      splices :=
        ( {
            Rewrite.target = undone;
            before = original;
            after = Record.set_writer original owner.xid;
          },
          { Rewrite.target = lsn; before = clr; after = clr' } )
        :: !splices
    end;
    emit_clr env owner ~invoker ~undone lsn upd;
    lsn
  in
  let stats =
    if naive then Scope_sweep.sweep_naive env ~scopes:tagged ~on_undo
    else Scope_sweep.sweep ?floor env ~scopes:tagged ~on_undo
  in
  install env !splices;
  stats

let run ?floor ?naive walk env ~on_undo losers =
  match walk with
  | Chains -> chains ?floor env ~on_undo losers
  | Scopes { splice } -> scopes ?floor ?naive ~splice env ~on_undo losers

let finish (env : Env.t) tt (info : Txn_table.info) =
  let append body =
    info.last_lsn <-
      Log_store.append_reserved env.log
        (Record.mk info.xid ~prev:info.last_lsn body)
  in
  if info.status = Txn_table.Active then append Record.Abort;
  append Record.End;
  Txn_table.remove tt info.xid
