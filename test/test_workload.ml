(* Workload machinery: the conflict-free generator, the semantic oracle,
   and the shared client loop run to quota under lock contention. *)

open Ariesrh_core
open Ariesrh_workload

(* --- generator --- *)

let generator_scripts_replay_cleanly =
  QCheck.Test.make ~count:200
    ~name:"generated scripts never conflict at replay"
    (QCheck.make ~print:Int64.to_string
       QCheck.Gen.(map Int64.of_int (int_bound 1_000_000)))
    (fun seed ->
      let script = Gen.generate { Gen.default with n_steps = 120 } ~seed in
      let db = Driver.fresh_db ~n_objects:Gen.default.n_objects () in
      (* Driver.run raises on any Conflict *)
      Driver.run db script;
      true)

let generator_deterministic () =
  let s1 = Gen.generate Gen.default ~seed:99L in
  let s2 = Gen.generate Gen.default ~seed:99L in
  Alcotest.(check bool) "same seed, same script" true (s1 = s2);
  let s3 = Gen.generate Gen.default ~seed:100L in
  Alcotest.(check bool) "different seed, different script" false (s1 = s3)

let generator_respects_delegation_rate () =
  let count_delegates s =
    List.length
      (List.filter (function Script.Delegate _ -> true | _ -> false) s)
  in
  let none =
    Gen.generate { Gen.spec_no_delegation with n_steps = 500 } ~seed:5L
  in
  let some =
    Gen.generate { Gen.default with n_steps = 500; p_delegate = 0.3 } ~seed:5L
  in
  Alcotest.(check int) "rate 0 yields none" 0 (count_delegates none);
  Alcotest.(check bool) "rate 0.3 yields plenty" true (count_delegates some > 10)

let script_stats_and_txns () =
  let s =
    [
      Script.Begin 0; Script.Write (0, 1, 5); Script.Add (0, 2, 1);
      Script.Begin 1; Script.Delegate (0, 1, 1); Script.Commit 1;
      Script.Abort 0; Script.Checkpoint;
    ]
  in
  Alcotest.(check int) "two txns" 2 (Script.txns s);
  Alcotest.(check string) "summary"
    "begin=2 read=0 write=1 add=1 delegate=1 savepoint=0 rollback=0 commit=1 \
     abort=1 ckpt=1"
    (Script.stats s)

let serialization_roundtrip =
  QCheck.Test.make ~count:100 ~name:"script serialization roundtrips"
    (QCheck.make ~print:Int64.to_string
       QCheck.Gen.(map Int64.of_int (int_bound 1_000_000)))
    (fun seed ->
      let script = Gen.generate { Gen.default with n_steps = 150 } ~seed in
      Script.of_string (Script.to_string script) = Ok script)

let serialization_reports_bad_lines () =
  (match Script.of_string "begin 0\nfrobnicate 7\n" with
  | Error e ->
      Alcotest.(check bool) "error is informative" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Script.of_string "# comment\n\nbegin 0\ncommit 0\n" with
  | Ok [ Script.Begin 0; Script.Commit 0 ] -> ()
  | _ -> Alcotest.fail "comments and blanks should be skipped"

(* --- oracle --- *)

let oracle_basic () =
  let s =
    [
      Script.Begin 0; Script.Write (0, 0, 5); Script.Commit 0;
      Script.Begin 1; Script.Write (1, 1, 7); Script.Abort 1;
      Script.Begin 2; Script.Add (2, 2, 3);
      (* 2 never terminates: loser at crash *)
    ]
  in
  let v = Oracle.expected ~n_objects:4 s in
  Alcotest.(check (array int)) "only committed survive" [| 5; 0; 0; 0 |] v;
  Alcotest.(check (list int)) "winners" [ 0 ] (Oracle.winners s)

let oracle_delegation_chain () =
  let s =
    [
      Script.Begin 0; Script.Begin 1; Script.Begin 2;
      Script.Add (0, 0, 10);
      Script.Delegate (0, 1, 0);
      Script.Delegate (1, 2, 0);
      Script.Abort 0; Script.Abort 1; Script.Commit 2;
    ]
  in
  Alcotest.(check (array int)) "final delegatee decides" [| 10; 0 |]
    (Oracle.expected ~n_objects:2 s)

let oracle_crash_prefix () =
  let s =
    [
      Script.Begin 0; Script.Write (0, 0, 5); Script.Commit 0;
      Script.Begin 1; Script.Write (1, 0, 9); Script.Commit 1;
    ]
  in
  Alcotest.(check (array int)) "before the second commit" [| 5 |]
    (Oracle.expected ~n_objects:1 ~crash_at:5 s);
  Alcotest.(check (array int)) "after it" [| 9 |]
    (Oracle.expected ~n_objects:1 ~crash_at:6 s)

let oracle_split_responsibility () =
  (* same transaction's updates to one object split across delegatees *)
  let s =
    [
      Script.Begin 0; Script.Begin 1; Script.Begin 2;
      Script.Add (0, 0, 100);
      Script.Delegate (0, 1, 0);
      Script.Add (0, 0, 10);
      Script.Delegate (0, 2, 0);
      Script.Commit 1; Script.Abort 2; Script.Abort 0;
    ]
  in
  Alcotest.(check (array int)) "example 2 semantics" [| 100 |]
    (Oracle.expected ~n_objects:1 s)

(* --- the client loop run to quota --- *)

module Sharded = Ariesrh_shard.Sharded

(* [Storm.contended] clients run to [txns] transactions each on a
   one-shard engine of [db_objects] objects. *)
let sim ?fault ?(db_objects = 32) ?(load = Storm.contended) ~txns seed =
  let sh =
    Sharded.create ?fault
      (Config.make ~n_objects:db_objects ~buffer_capacity:16 ())
  in
  let outcome = Storm.fresh_outcome () in
  let clients =
    Storm.Clients.create outcome sh ~load ~rng:(Ariesrh_util.Prng.create seed)
  in
  let ok = Storm.Clients.run clients ~txns in
  (sh, ok, outcome, clients)

let sim_state_consistent () =
  let _, ok, _, clients =
    sim ~load:{ Storm.contended with clients = 6 } ~txns:40 1L
  in
  Alcotest.(check bool) "state matches committed increments" true ok;
  Alcotest.(check int) "all transactions eventually commit" (6 * 40)
    (Storm.Clients.tally clients).committed

let sim_latency_histograms () =
  (* a live (if never armed) injector: the latency clock is the fault
     layer's logical I/O counter, which a [Fault.none] db keeps at 0 *)
  let fault = Ariesrh_fault.Fault.create ~seed:1L () in
  let sh, _, _, clients =
    sim ~fault ~load:{ Storm.contended with clients = 6 } ~txns:40 7L
  in
  let committed = (Storm.Clients.tally clients).committed in
  (* the distribution is exported through the metrics registry, one
     series per txn class, every commit observed exactly once *)
  let hists =
    List.filter_map
      (fun (s : Ariesrh_obs.Metrics.sample) ->
        match s.value with
        | Ariesrh_obs.Metrics.Hist h when s.name = "ariesrh_sim_txn_latency_ios"
          ->
            Some h
        | _ -> None)
      (Ariesrh_obs.Metrics.snapshot (Db.metrics (Sharded.db sh 0)))
  in
  Alcotest.(check int) "one histogram per txn class" 3 (List.length hists);
  Alcotest.(check int) "one latency sample per commit" committed
    (List.fold_left (fun a h -> a + Ariesrh_obs.Metrics.hist_count h) 0 hists);
  Alcotest.(check bool) "latency ticks accumulated" true
    (List.exists (fun (h : Ariesrh_obs.Metrics.hist) -> h.sum > 0) hists)

let sim_contention_happens () =
  let _, ok, outcome, _ =
    sim ~db_objects:4 ~load:{ Storm.contended with n_objects = 4 } ~txns:30 2L
  in
  Alcotest.(check bool) "waits occurred under contention" true
    (outcome.waits > 0);
  Alcotest.(check bool) "state still consistent" true ok

let sim_deadlocks_resolved () =
  (* few objects + many clients + reads mixed with adds: cycles form *)
  let found = ref false in
  let seed = ref 0 in
  while (not !found) && !seed < 20 do
    incr seed;
    let _, ok, outcome, clients =
      sim ~db_objects:3
        ~load:{ Storm.contended with n_objects = 3; ops_per_txn = 5 }
        ~txns:20 (Int64.of_int !seed)
    in
    if outcome.deadlocks > 0 then begin
      found := true;
      Alcotest.(check bool) "victims aborted" true
        ((Storm.Clients.tally clients).aborted > 0);
      Alcotest.(check bool) "state consistent despite deadlocks" true ok
    end
  done;
  Alcotest.(check bool) "deadlocks eventually provoked" true !found

let sim_delegation_under_contention () =
  let _, ok, _, clients =
    sim ~db_objects:8
      ~load:
        { Storm.contended with clients = 6; n_objects = 8; p_delegate = 0.5 }
      ~txns:40 3L
  in
  Alcotest.(check bool) "delegations happened" true
    ((Storm.Clients.tally clients).delegations > 0);
  Alcotest.(check bool) "state consistent with delegation" true ok

let sim_survives_crash_after () =
  let sh, ok, _, _ =
    sim ~db_objects:16
      ~load:{ Storm.contended with clients = 4; n_objects = 16 }
      ~txns:25 4L
  in
  Alcotest.(check bool) "pre-crash state ok" true ok;
  let before = Sharded.peek_all sh in
  Sharded.crash sh;
  ignore (Sharded.recover sh);
  Alcotest.(check bool) "everything was committed: crash changes nothing" true
    (Sharded.peek_all sh = before)

let suite =
  [
    QCheck_alcotest.to_alcotest generator_scripts_replay_cleanly;
    QCheck_alcotest.to_alcotest serialization_roundtrip;
    Alcotest.test_case "serialization errors and comments" `Quick
      serialization_reports_bad_lines;
    Alcotest.test_case "generator deterministic" `Quick generator_deterministic;
    Alcotest.test_case "generator respects delegation rate" `Quick
      generator_respects_delegation_rate;
    Alcotest.test_case "script stats" `Quick script_stats_and_txns;
    Alcotest.test_case "oracle basic" `Quick oracle_basic;
    Alcotest.test_case "oracle delegation chain" `Quick oracle_delegation_chain;
    Alcotest.test_case "oracle crash prefix" `Quick oracle_crash_prefix;
    Alcotest.test_case "oracle split responsibility" `Quick
      oracle_split_responsibility;
    Alcotest.test_case "sim state consistent" `Quick sim_state_consistent;
    Alcotest.test_case "sim latency histograms" `Quick sim_latency_histograms;
    Alcotest.test_case "sim contention happens" `Quick sim_contention_happens;
    Alcotest.test_case "sim deadlocks resolved" `Quick sim_deadlocks_resolved;
    Alcotest.test_case "sim delegation under contention" `Quick
      sim_delegation_under_contention;
    Alcotest.test_case "sim survives crash after" `Quick sim_survives_crash_after;
  ]
