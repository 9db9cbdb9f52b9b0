open Ariesrh_types
open Ariesrh_wal
open Ariesrh_txn
module Trace = Ariesrh_obs.Trace
module Obs = Ariesrh_obs

type mode = Conventional | Rh | Rh_rewritten

type passes = Merged | Separate

type result = {
  tt : Txn_table.t;
  winners : Xid.Set.t;
  forward_records : int;
  redo_applied : int;
  amputated : int;
  dpt : Lsn.t Page_id.Tbl.t;
}

let trim_scope info ~oid ~invoker ~undone =
  Ob_list.trim_covering info.Txn_table.ob_list ~oid ~invoker undone;
  (* mirror normal processing: after a compensation the open scope on
     this object is closed, so a later update record opens a fresh scope
     instead of stretching back across the compensated range *)
  info.ob_list <- Ob_list.close_open info.Txn_table.ob_list oid

let scan ?(passes = Merged) ?(apply_redo = true) (env : Env.t) ~mode
    ~amputated =
  let tt = Txn_table.create () in
  let winners = ref Xid.Set.empty in
  let forward_records = ref 0 in
  let redo_applied = ref 0 in
  (* the dirty page table, rebuilt ARIES-style: seeded from the
     checkpoint, extended by every update/CLR seen. An update whose LSN
     is below its page's recLSN is already on disk — skipped without
     even fetching the page. *)
  let dpt : Lsn.t Page_id.Tbl.t = Page_id.Tbl.create 64 in
  let master = Log_store.master env.log in
  (* restore from the checkpoint, if any *)
  let redo_start, analysis_start =
    if Lsn.is_nil master then (Lsn.first, Lsn.first)
    else begin
      let ck =
        match (Log_store.read env.log master).Record.body with
        | Record.Ckpt_end ck -> ck
        | _ -> failwith "Forward.run: master does not point at a checkpoint end"
      in
      List.iter (fun (p, rec_lsn) -> Page_id.Tbl.replace dpt p rec_lsn) ck.ck_dpt;
      List.iter
        (fun (c : Record.ckpt_txn) ->
          let info = Txn_table.restore tt c in
          if info.status = Txn_table.Committed then
            winners := Xid.Set.add info.xid !winners)
        ck.ck_txns;
      if mode <> Conventional then
        List.iter
          (fun (ob : Record.ckpt_ob) ->
            let info = Txn_table.find_exn tt ob.ck_owner in
            info.ob_list <- Ob_list.of_ckpt_entry info.ob_list ob)
          ck.ck_obs;
      let redo_start =
        List.fold_left
          (fun acc (_, rec_lsn) -> Lsn.min acc rec_lsn)
          (Lsn.next master) ck.ck_dpt
      in
      (redo_start, Lsn.next master)
    end
  in
  (* [authoritative] = the record predates the checkpoint, whose DPT is
     exact: a page absent from it was clean, every earlier update is on
     disk, no fetch needed. Past the checkpoint the table only grows
     conservatively, so an absent page must be fetched and checked. *)
  let redo ~authoritative lsn (u : Record.update) =
    let fetch_needed =
      match Page_id.Tbl.find_opt dpt u.page with
      | None ->
          if authoritative then false
          else begin
            Page_id.Tbl.replace dpt u.page lsn;
            true
          end
      | Some rec_lsn -> Lsn.(lsn >= rec_lsn)
    in
    (* with [apply_redo] off (on-demand restart) the sweep is pure
       analysis: the DPT above still records each dirty page's recLSN —
       the slice the lazy per-page redo will replay — but no page is
       fetched or written here *)
    if fetch_needed && apply_redo && Apply.redo env lsn u then
      incr redo_applied
  in
  (* A record may mention a transaction before its begin record: eager
     rewriting attributes older records to the delegatee. Analysis adds
     unknown transactions on first sight, as ARIES does. *)
  let lookup xid =
    match Txn_table.find tt xid with
    | Some info -> info
    | None -> Txn_table.add tt xid
  in
  let redo_sweep ~from ?upto () =
    Log_store.iter_forward env.log ~from ?upto (fun lsn record ->
        incr forward_records;
        let authoritative = Lsn.(lsn <= master) in
        match record.Record.body with
        | Record.Update u -> redo ~authoritative lsn u
        | Record.Clr { upd; _ } -> redo ~authoritative lsn upd
        | Record.Xfer_in { oid; page; before; value; _ } ->
            redo ~authoritative lsn
              { Record.oid; page; op = Record.Set { before; after = value } }
        | _ -> ())
  in
  (* with merged passes, records below the analysis window still need
     their redo sweep first; with separate passes one redo sweep covers
     everything after the analysis below *)
  (* analysis-only mode needs no pre-analysis sweep: every page dirtied
     below the checkpoint sits in the seeded DPT with its exact recLSN,
     which is where the on-demand slice redo starts *)
  if apply_redo && passes = Merged && Lsn.(redo_start < analysis_start) then
    redo_sweep ~from:redo_start ~upto:(Lsn.prev analysis_start) ();
  (* analysis (+ redo when merged; DPT maintenance always) *)
  let redo_here = passes = Merged || not apply_redo in
  Log_store.iter_forward env.log ~from:analysis_start (fun lsn record ->
      incr forward_records;
      match record.Record.body with
      | Record.Begin ->
          let info = lookup (Record.writer_exn record) in
          if Lsn.(info.last_lsn < lsn) then info.last_lsn <- lsn
      | Record.Update u ->
          let info = lookup (Record.writer_exn record) in
          info.last_lsn <- lsn;
          info.undo_next <- lsn;
          if mode <> Conventional then
            info.ob_list <-
              Ob_list.note_update info.ob_list ~owner:info.xid ~oid:u.oid lsn;
          if redo_here then redo ~authoritative:false lsn u
      | Record.Clr { upd; undone; invoker; undo_next } ->
          let info = lookup (Record.writer_exn record) in
          info.last_lsn <- lsn;
          info.undo_next <- undo_next;
          if mode <> Conventional then
            trim_scope info ~oid:upd.oid ~invoker ~undone;
          if redo_here then redo ~authoritative:false lsn upd
      | Record.Commit ->
          let info = lookup (Record.writer_exn record) in
          info.last_lsn <- lsn;
          info.status <- Txn_table.Committed;
          winners := Xid.Set.add info.xid !winners
      | Record.Abort ->
          let info = lookup (Record.writer_exn record) in
          info.last_lsn <- lsn;
          info.status <- Txn_table.Rolling_back
      | Record.End -> Txn_table.remove tt (Record.writer_exn record)
      | Record.Delegate { tee; tee_prev = _; oid; op } -> (
          match mode with
          | Conventional ->
              failwith "ARIES (conventional): delegate record in the log"
          | Rh | Rh_rewritten -> (
              let tor = Record.writer_exn record in
              let tor_info = lookup tor in
              let tee_info = lookup tee in
              tor_info.last_lsn <- lsn;
              tee_info.last_lsn <- lsn;
              (* Under [Rh_rewritten], a missing delegator scope means a
                 prior lazy restart already re-attributed the delegated
                 records in place: the delegate record is a no-op relic.
                 Under [Rh] nothing rewrites the log, so the scope must
                 be there — a miss is corruption. *)
              match op with
              | Some (op_lsn, invoker) -> (
                  (* operation granularity: split the covering scope *)
                  match
                    Ob_list.split_out tor_info.ob_list ~oid ~invoker op_lsn
                  with
                  | None, _ when mode = Rh_rewritten -> ()
                  | None, _ ->
                      failwith
                        "ARIES/RH forward pass: operation delegation by a \
                         non-responsible transaction"
                  | Some moved, rest ->
                      tor_info.ob_list <- rest;
                      tee_info.ob_list <-
                        Ob_list.receive tee_info.ob_list ~oid ~from_:tor
                          [ moved ])
              | None -> (
                  match Ob_list.take tor_info.ob_list oid with
                  | None when mode = Rh_rewritten -> ()
                  | None ->
                      failwith
                        "ARIES/RH forward pass: delegation by a \
                         non-responsible transaction"
                  | Some (entry, rest) ->
                      tor_info.ob_list <- rest;
                      tee_info.ob_list <-
                        Ob_list.receive tee_info.ob_list ~oid ~from_:tor
                          (Ob_list.entry_scopes entry))))
      | Record.Anchor ->
          let info = lookup (Record.writer_exn record) in
          info.last_lsn <- lsn
      (* a durable cross-shard transfer-in is a system-written page
         update: redo it like one (page-LSN conditioned, all modes) so
         adopting the value and recording the adoption stay atomic *)
      | Record.Xfer_in { oid; page; before; value; _ } ->
          if redo_here then
            redo ~authoritative:false lsn
              { Record.oid; page; op = Record.Set { before; after = value } }
      (* rewrite system-transaction records are resolved by
         [Rewrite.recover_surgeries] before any scan runs; transfer
         intent/end records by [Xfer.recover] after per-shard recovery;
         to analysis and redo they are inert bookkeeping *)
      | Record.Ckpt_begin | Record.Ckpt_end _ | Record.Rewrite_begin _
      | Record.Rewrite_clr _ | Record.Rewrite_end _ | Record.Xfer_out _
      | Record.Xfer_end _ -> ());
  if apply_redo && passes = Separate then redo_sweep ~from:redo_start ();
  {
    tt;
    winners = !winners;
    forward_records = !forward_records;
    redo_applied = !redo_applied;
    amputated;
    dpt;
  }

let run ?passes ?apply_redo (env : Env.t) ~mode =
  (* Restart preamble, before any scan: amputate the corrupt stable
     tail — in the failure model only the last record of the crashing
     flush can be torn, and ARIES treats the first corrupt record as
     end-of-log. (Torn data pages need no sweep here: every page fetch
     goes through the buffer pool's checksum gate, so redo, undo, or a
     later normal read repairs a torn page on demand — see Repair.)
     Amputation is idempotent, so a crash anywhere in restart is
     survived by running restart again. *)
  Obs.Ring.emit env.ring (Obs.Event.Restart_enter Obs.Event.Amputate);
  let amputated =
    Obs.Profiler.time env.prof "restart.amputate" (fun () ->
        Log_store.recover_tail env.log)
  in
  Obs.Profiler.count env.prof "restart.amputate" "records"
    (List.length amputated);
  Obs.Ring.emit env.ring (Obs.Event.Restart_leave Obs.Event.Amputate);
  List.iter
    (fun (lsn, e) ->
      Trace.Log.info (fun m ->
          m "restart: corrupt stable tail at %a (%a); treating as end of log"
            Lsn.pp lsn Record.pp_decode_error e))
    amputated;
  (* resolve rewrite system transactions before any scan: an eager
     delegation interrupted mid-splice is rolled back to its
     before-images (or rolled forward if its end record is durable), so
     the scans below only ever see pre- or post-surgery history *)
  Obs.Ring.emit env.ring (Obs.Event.Restart_enter Obs.Event.Surgery);
  let rolled_back, rolled_forward =
    Obs.Profiler.time env.prof "restart.surgery" (fun () ->
        Rewrite.recover_surgeries env)
  in
  Obs.Profiler.count env.prof "restart.surgery" "rolled_back" rolled_back;
  Obs.Profiler.count env.prof "restart.surgery" "rolled_forward"
    rolled_forward;
  if rolled_back > 0 || rolled_forward > 0 then
    Obs.Ring.emit env.ring
      (Obs.Event.Surgery_resolved { rolled_back; rolled_forward });
  Obs.Ring.emit env.ring (Obs.Event.Restart_leave Obs.Event.Surgery);
  Obs.Ring.emit env.ring (Obs.Event.Restart_enter Obs.Event.Forward);
  let result =
    Obs.Profiler.time env.prof "restart.forward" (fun () ->
        scan ?passes ?apply_redo env ~mode ~amputated:(List.length amputated))
  in
  Obs.Profiler.count env.prof "restart.forward" "records"
    result.forward_records;
  Obs.Profiler.count env.prof "restart.forward" "redo_applied"
    result.redo_applied;
  Obs.Ring.emit env.ring (Obs.Event.Restart_leave Obs.Event.Forward);
  result

let losers result =
  Txn_table.fold result.tt ~init:[] ~f:(fun acc info ->
      match info.status with
      | Txn_table.Committed -> acc
      | Txn_table.Active | Txn_table.Rolling_back -> info :: acc)
