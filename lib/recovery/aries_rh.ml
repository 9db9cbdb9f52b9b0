open Ariesrh_types
open Ariesrh_wal
open Ariesrh_txn
module Trace = Ariesrh_obs.Trace
module Obs = Ariesrh_obs

exception Interrupted

let run ?(naive_sweep = false) ?(passes = Forward.Merged) ?fuel
    ?(walk = Undo.Scopes { splice = false }) (env : Env.t) =
  fst
  @@ Report.measure env
  @@ fun () ->
  let fwd = Forward.run ~passes env ~mode:(Undo.mode walk) in
  let losers = Forward.losers fwd in
  Trace.Log.debug (fun m ->
      m "analysis done: %d records, %d redone, %d winners, %d losers"
        fwd.forward_records fwd.redo_applied
        (Xid.Set.cardinal fwd.winners)
        (List.length losers));
  let undos = ref 0 in
  let on_undo _ ~undone:_ _ =
    (match fuel with
    | Some n when !undos >= n ->
        (* simulate a crash in the middle of the backward pass: the CLRs
           written so far are made durable, then the machine dies *)
        Log_store.flush env.log ~upto:(Log_store.head env.log);
        raise Interrupted
    | _ -> ());
    incr undos
  in
  Obs.Ring.emit env.ring (Obs.Event.Restart_enter Obs.Event.Backward);
  let undo =
    Obs.Profiler.time env.prof "restart.backward" (fun () ->
        Undo.run ~naive:naive_sweep walk env ~on_undo losers)
  in
  List.iter
    (fun (key, n) -> Obs.Profiler.count env.prof "restart.backward" key n)
    [
      ("clusters", undo.clusters);
      ("examined", undo.examined);
      ("skipped", undo.skipped);
      ("undos", undo.undone);
    ];
  Obs.Ring.emit env.ring (Obs.Event.Restart_leave Obs.Event.Backward);
  Obs.Ring.emit env.ring (Obs.Event.Restart_enter Obs.Event.Finish);
  Obs.Profiler.time env.prof "restart.finish" (fun () ->
      List.iter (Undo.finish env fwd.tt)
        (Txn_table.fold fwd.tt ~init:[] ~f:(fun acc info -> info :: acc));
      Log_store.flush env.log ~upto:(Log_store.head env.log));
  Obs.Ring.emit env.ring (Obs.Event.Restart_leave Obs.Event.Finish);
  Obs.Ring.emit env.ring
    (Obs.Event.Recovered
       {
         winners = Xid.Set.cardinal fwd.winners;
         losers = List.length losers;
         undos = undo.undone;
       });
  (fwd, losers, undo, ())

let recover ?passes ?fuel ?walk env = run ?passes ?fuel ?walk env
let recover_naive_sweep env = run ~naive_sweep:true env
let recover_physical env = run ~walk:(Undo.Scopes { splice = true }) env
