(* On-demand ("instant") restart: analysis-only recovery that opens for
   traffic immediately, serves clean objects after a bounded page-slice
   redo, refuses loser-covered objects with the typed retryable error,
   drains the backlog in the background (the governor is the sweeper),
   and converges to exactly the state offline recovery would produce —
   checked by the recovery storm at every crash point, on all three
   engines and both backends. *)

open Ariesrh_types
open Ariesrh_core
open Ariesrh_workload
module Governor = Ariesrh_maintenance.Governor
module Metrics = Ariesrh_obs.Metrics

let oid = Oid.of_int

let scratch = ref 0

let fresh_dir tag =
  incr scratch;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ariesrh-od-%d-%s-%d" (Unix.getpid ()) tag !scratch)
  in
  Ariesrh_storage.Backend.remove_tree d;
  d

let mk ?(impl = Config.Rh) () =
  Driver.fresh_db ~impl ~audit:true ~recovery_mode:Config.On_demand
    ~n_objects:32 ()

(* One durable loser (uncommitted write made durable by a later commit's
   log force) plus one durable winner: the smallest history where the
   servability rule must both refuse and serve. *)
let crash_with_loser db =
  let a = Db.begin_txn db in
  Db.write db a (oid 0) 7;
  let b = Db.begin_txn db in
  Db.write db b (oid 1) 5;
  Db.commit db b;
  Db.crash db;
  ignore (Db.recover db)

(* --- the deterministic pin ------------------------------------------ *)

let refused_then_served impl () =
  let db = mk ~impl () in
  crash_with_loser db;
  Alcotest.(check bool) "open while recovering" true (Db.recovering db);
  Alcotest.(check bool) "backlog exposed" true (Db.recovery_backlog db > 0);
  let p = Db.begin_txn db in
  (match Db.read db p (oid 0) with
  | v -> Alcotest.failf "read of loser-held object served %d" v
  | exception Errors.Recovering { oid = o; backlog } ->
      Alcotest.(check bool) "refusal names the object" true (o = oid 0);
      Alcotest.(check bool) "refusal carries the backlog" true (backlog > 0));
  Alcotest.(check int) "clean object served degraded" 5 (Db.read db p (oid 1));
  Db.commit db p;
  Alcotest.(check bool) "degraded serves counted" true
    (Db.recovery_served_degraded db > 0);
  Db.await_recovery db;
  Alcotest.(check bool) "backlog drained" false (Db.recovering db);
  let q = Db.begin_txn db in
  Alcotest.(check int) "loser write undone after the sweep" 0
    (Db.read db q (oid 0));
  Alcotest.(check int) "winner write survived" 5 (Db.read db q (oid 1));
  Db.commit db q;
  Alcotest.(check (list string)) "audit clean" [] (Db.audit db);
  Db.close db

(* --- maintenance gates while recovering ----------------------------- *)

let gates_while_recovering () =
  let db = mk () in
  crash_with_loser db;
  Alcotest.(check bool) "recovering" true (Db.recovering db);
  Alcotest.(check int) "truncation refused (nothing dropped)" 0
    (Db.truncate_log db);
  Db.checkpoint db;
  Alcotest.(check bool) "checkpoint was a no-op, still recovering" true
    (Db.recovering db);
  (match Db.backup db with
  | _ -> Alcotest.fail "backup during on-demand recovery must refuse"
  | exception Errors.Recovery_incomplete { backlog } ->
      Alcotest.(check bool) "refusal carries the backlog" true (backlog > 0));
  let backlog_gauge () =
    match
      List.find_opt
        (fun s -> s.Metrics.name = "ariesrh_recovery_backlog")
        (Metrics.snapshot (Db.metrics db))
    with
    | Some { Metrics.value = Metrics.Int n; _ } -> n
    | _ -> Alcotest.fail "ariesrh_recovery_backlog gauge missing"
  in
  Alcotest.(check bool) "backlog gauge positive" true (backlog_gauge () > 0);
  Db.await_recovery db;
  Alcotest.(check bool) "drained" false (Db.recovering db);
  Alcotest.(check int) "backlog gauge back to zero" 0 (backlog_gauge ());
  Db.checkpoint db;
  Db.close db

(* --- the governor is the background sweeper ------------------------- *)

let governor_drains_backlog () =
  let db = mk () in
  crash_with_loser db;
  let gov =
    Governor.create
      ~config:{ Governor.default_config with Governor.tick_every = 1 }
      db
  in
  let guard = ref 0 in
  while Db.recovering db && !guard < 10_000 do
    incr guard;
    Governor.tick gov
  done;
  Alcotest.(check bool) "governor drained the backlog" false
    (Db.recovering db);
  Alcotest.(check bool) "sweeper steps counted" true
    ((Governor.stats gov).Governor.recovery_steps > 0);
  Alcotest.(check int) "loser write undone" 0 (Db.peek db (oid 0));
  Alcotest.(check (list string)) "audit clean" [] (Db.audit db);
  Db.close db

(* --- recovery storms: every crash point, every engine, both backends *)

let storm ?(file = false) ?(shards = 1) ?(crash_step = 1) ~n_steps impl () =
  let config =
    {
      Crash_storm.default_config with
      Storm.crash_step;
      shards;
      backend_root = (if file then Some (fresh_dir "od-storm") else None);
    }
  in
  let spec = { Gen.default with Gen.n_steps; n_objects = 12 } in
  let outcome = Recovery_storm.run_script ~config ~impl spec in
  if not (Storm.ok outcome) then
    Alcotest.failf "recovery storm failed:@ %a" Recovery_storm.pp_outcome
      outcome;
  Alcotest.(check bool)
    (Printf.sprintf "offline twins checked (%d)"
       outcome.Storm.twin_checks)
    true
    (outcome.Storm.twin_checks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "opened with backlog at least once (%d)"
       outcome.Storm.instant_opens)
    true
    (outcome.Storm.instant_opens > 0)

let storm_crashes_in_drain () =
  let config = { Crash_storm.default_config with Storm.crash_step = 1 } in
  let spec = { Gen.default with Gen.n_steps = 36; n_objects = 12 } in
  let outcome = Recovery_storm.run_script ~config spec in
  if not (Storm.ok outcome) then
    Alcotest.failf "recovery storm failed:@ %a" Recovery_storm.pp_outcome
      outcome;
  Alcotest.(check bool)
    (Printf.sprintf "nested crashes hit the drain (%d)"
       outcome.Storm.nested_crashes)
    true
    (outcome.Storm.nested_crashes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "probes refused or served (%d/%d)"
       outcome.Storm.refusals outcome.Storm.degraded_serves)
    true
    (outcome.Storm.refusals + outcome.Storm.degraded_serves
    > 0)

let impl_name = function
  | Config.Rh -> "rh"
  | Config.Eager -> "eager"
  | Config.Lazy -> "lazy"

let engines = [ Config.Rh; Config.Eager; Config.Lazy ]

let suite =
  List.map
    (fun impl ->
      Alcotest.test_case
        (Printf.sprintf "refused then served after sweep [%s]" (impl_name impl))
        `Quick (refused_then_served impl))
    engines
  @ [
      Alcotest.test_case "maintenance gates while recovering" `Quick
        gates_while_recovering;
      Alcotest.test_case "governor drains the backlog" `Quick
        governor_drains_backlog;
      Alcotest.test_case "storm exercises drain races" `Quick
        storm_crashes_in_drain;
    ]
  @ List.map
      (fun impl ->
        Alcotest.test_case
          (Printf.sprintf "recovery storm [%s, sim]" (impl_name impl))
          `Quick
          (storm ~n_steps:30 impl))
      engines
  @ List.map
      (fun impl ->
        Alcotest.test_case
          (Printf.sprintf "recovery storm [%s, file]" (impl_name impl))
          `Quick
          (storm ~file:true ~n_steps:22 impl))
      engines
  @ [
      Alcotest.test_case "recovery storm [rh, 4 shards]" `Quick
        (storm ~shards:4 ~crash_step:3 ~n_steps:28 Config.Rh);
    ]
