open Ariesrh_types

type t = {
  winners : Xid.Set.t;
  losers : Xid.Set.t;
  forward_records : int;
  redo_applied : int;
  backward_examined : int;
  backward_skipped : int;
  clusters : int;
  undos : int;
  amputated : int;
  repaired_pages : int;
  surgery_rolled_back : int;
  surgery_rolled_forward : int;
  log_io : Ariesrh_wal.Log_stats.t;
  profile : Ariesrh_obs.Profiler.t;
}

let pp ppf t =
  Format.fprintf ppf
    "@[<v>winners=%d losers=%d@ forward_records=%d redo_applied=%d@ \
     backward: examined=%d skipped=%d clusters=%d undos=%d@ faults: \
     amputated=%d repaired_pages=%d@ surgery: rolled_back=%d \
     rolled_forward=%d@ log_io: %a@ profile:@ %a@]"
    (Xid.Set.cardinal t.winners)
    (Xid.Set.cardinal t.losers)
    t.forward_records t.redo_applied t.backward_examined t.backward_skipped
    t.clusters t.undos t.amputated t.repaired_pages t.surgery_rolled_back
    t.surgery_rolled_forward Ariesrh_wal.Log_stats.pp t.log_io
    Ariesrh_obs.Profiler.pp t.profile

let measure (env : Env.t) run =
  env.prof <- Ariesrh_obs.Profiler.create ();
  let log_stats () = Ariesrh_wal.Log_store.stats env.log in
  let io = Ariesrh_wal.Log_stats.copy (log_stats ()) in
  let repairs = env.repairs in
  let rolled_back = env.surgery_rolled_back in
  let rolled_forward = env.surgery_rolled_forward in
  let (fwd : Forward.result), losers, (undo : Scope_sweep.stats), x = run () in
  ( {
      winners = fwd.winners;
      losers =
        List.fold_left
          (fun s (i : Ariesrh_txn.Txn_table.info) -> Xid.Set.add i.xid s)
          Xid.Set.empty losers;
      forward_records = fwd.forward_records;
      redo_applied = fwd.redo_applied;
      backward_examined = undo.examined;
      backward_skipped = undo.skipped;
      clusters = undo.clusters;
      undos = undo.undone;
      amputated = fwd.amputated;
      repaired_pages = env.repairs - repairs;
      surgery_rolled_back = env.surgery_rolled_back - rolled_back;
      surgery_rolled_forward = env.surgery_rolled_forward - rolled_forward;
      log_io = Ariesrh_wal.Log_stats.diff (log_stats ()) io;
      profile = env.prof;
    },
    x )
