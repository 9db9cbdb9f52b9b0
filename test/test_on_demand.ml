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
open Ariesrh_wal
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

(* --- eager on-demand restart undoes by chain ------------------------ *)

(* Two crash points of [recovery-storm --engine eager --seed 2] (CLI
   defaults otherwise) that failed while the eager drain swept the
   scopes Rh analysis rebuilt: at crash_io 34 it undid ob20's +5 a
   second time (the first CLR lay below a checkpoint that persisted the
   untrimmed scope); at 42 t11's uncommitted [set 769->107] on ob19
   survived (the scopes missed a record eager surgery had spliced onto
   its chain). The sweep starts at its step, so each point runs first. *)
let eager_seed2_pin crash_io () =
  let config =
    { Storm.default_config with
      Storm.seed = 2L; crash_step = crash_io; time_travel = false }
  in
  let spec =
    { Gen.default with Gen.n_objects = 24; n_steps = 120; p_delegate = 0.2 }
  in
  let outcome = Recovery_storm.run_script ~config ~impl:Config.Eager spec in
  if not (Storm.ok outcome) then
    Alcotest.failf "recovery storm failed:@ %a" Recovery_storm.pp_outcome
      outcome

(* The objects of the losers' uncompensated updates, read off the
   durable log. On eager every record sits on its writer's chain, so
   these are exactly the objects the chain drain will undo. *)
let loser_objects db losers =
  let log = Db.log_store db in
  let compensated = Hashtbl.create 16 in
  let writes = ref [] in
  Log_store.iter_forward log ~from:(Log_store.truncated_below log)
    (fun lsn r ->
      match r.Record.body with
      | Record.Update u when Xid.Set.mem (Record.writer_exn r) losers ->
          writes := (lsn, u.Record.oid) :: !writes
      | Record.Clr { undone; _ } -> Hashtbl.replace compensated undone ()
      | _ -> ());
  List.filter_map
    (fun (lsn, oid) -> if Hashtbl.mem compensated lsn then None else Some oid)
    !writes
  |> List.sort_uniq Oid.compare

(* The eager guard reads the chain the drain undoes: every object a
   loser still holds an uncompensated write on is refused until that
   loser drains, and once served it stays served. Every crash point of
   a few delegation-heavy scripts; the scopes Rh analysis rebuilds miss
   spliced records here and served some of these objects. *)
let eager_guard_follows_chain () =
  let n_objects = 16 in
  let held_total = ref 0 in
  for seed = 0 to 40 do
    let script =
      Gen.generate
        { Gen.default with Gen.n_objects; n_steps = 60; p_delegate = 0.2 }
        ~seed:(Int64.of_int seed)
    in
    for at = 1 to List.length script do
      let db =
        Driver.fresh_db ~impl:Config.Eager ~recovery_mode:Config.On_demand
          ~n_objects ()
      in
      let report = Driver.run_to_crash db script ~crash_at:at in
      let held = loser_objects db report.Ariesrh_recovery.Report.losers in
      held_total := !held_total + List.length held;
      let refused oid =
        let x = Db.begin_txn db in
        let refused =
          match Db.read db x oid with
          | _ -> false
          | exception Errors.Recovering _ -> true
        in
        Db.abort db x;
        refused
      in
      let served = ref [] in
      let check () =
        List.iter
          (fun oid ->
            match (List.mem oid !served, refused oid) with
            | true, true ->
                Alcotest.failf "seed %d, crash at %d: ob%d refused again"
                  seed at (Oid.to_int oid)
            | false, false -> served := oid :: !served
            | _ -> ())
          held
      in
      if Db.recovering db then begin
        List.iter
          (fun oid ->
            if not (refused oid) then
              Alcotest.failf
                "seed %d, crash at %d: ob%d served while a loser holds it"
                seed at (Oid.to_int oid))
          held;
        while Db.recovery_step db do
          check ()
        done
      end
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "losers held objects (%d)" !held_total)
    true (!held_total > 0)

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
      Alcotest.test_case "eager seed 2 pinned at crash_io 34" `Quick
        (eager_seed2_pin 34);
      Alcotest.test_case "eager seed 2 pinned at crash_io 42" `Quick
        (eager_seed2_pin 42);
      Alcotest.test_case "eager guard follows the loser chain" `Quick
        eager_guard_follows_chain;
    ]
