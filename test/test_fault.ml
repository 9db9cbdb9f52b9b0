(* Fault injection and hardened restart: typed decode errors, torn log
   tails, truncate x crash boundaries, demand-driven torn-page repair,
   obliteration under a corrupt tail (§4.1), and crash-storm smoke. *)

open Ariesrh_types
open Ariesrh_wal
open Ariesrh_core
open Ariesrh_workload
module Fault = Ariesrh_fault.Fault

let xid = Xid.of_int
let oid = Oid.of_int
let lsn = Lsn.of_int

let mk ?fault ?backend ?(impl = Config.Rh) ?(buffer_capacity = 8) () =
  Db.create ?fault ?backend
    (Config.make ~n_objects:64 ~objects_per_page:4 ~buffer_capacity ~impl
       ~locking:true ())

(* --- typed decode errors ------------------------------------------- *)

let decode_typed_errors () =
  let r =
    Record.mk (xid 1) ~prev:Lsn.nil
      (Record.Update
         {
           oid = oid 3;
           page = Page_id.of_int 0;
           op = Record.Set { before = 0; after = 42 };
         })
  in
  let s = Record.encode r in
  (match Record.decode "" with
  | Error Record.Truncated -> ()
  | _ -> Alcotest.fail "empty string should decode as Truncated");
  (match Record.decode (String.sub s 0 (String.length s / 2)) with
  | Error (Record.Truncated | Record.Checksum_mismatch) -> ()
  | Ok _ -> Alcotest.fail "half a record decoded"
  | Error e ->
      Alcotest.failf "unexpected error %a" Record.pp_decode_error e);
  let b = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
  (match Record.decode (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bit flip went undetected")

(* --- torn log tail at the store level ------------------------------ *)

let append_updates log n =
  for i = 1 to n do
    ignore
      (Log_store.append log
         (Record.mk (xid i) ~prev:Lsn.nil
            (Record.Update
               {
                 oid = oid i;
                 page = Page_id.of_int 0;
                 op = Record.Add i;
               })))
  done

let tail_tear_amputates backend () =
  let fault = Fault.create ~seed:3L () in
  let log = Log_store.create ~fault ~backend:(backend "fault-wal") () in
  append_updates log 3;
  Log_store.flush log ~upto:(lsn 3);
  append_updates log 1;
  Fault.set_tear_log_on_crash fault true;
  Fault.arm_crash_in fault 1;
  (try
     Log_store.flush log ~upto:(lsn 4);
     Alcotest.fail "armed flush did not crash"
   with Fault.Injected_crash _ -> ());
  Log_store.crash log;
  (* the record made it to "disk" but its tail page write was torn *)
  Alcotest.(check int) "durable before amputation" 4
    (Lsn.to_int (Log_store.durable log));
  (match Log_store.read_result log (lsn 4) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn tail record decoded");
  let dropped = Log_store.recover_tail log in
  Alcotest.(check int) "one record amputated" 1 (List.length dropped);
  Alcotest.(check int) "amputated_total counts it" 1
    (Log_store.amputated_total log);
  Alcotest.(check int) "durable after amputation" 3
    (Lsn.to_int (Log_store.durable log));
  (* the freed LSN is reused as if the record had never been flushed *)
  append_updates log 1;
  Alcotest.(check int) "LSN reused" 4 (Lsn.to_int (Log_store.head log));
  Alcotest.(check bool) "intact prefix scans clean" true
    (Log_store.iter_valid_forward log ~from:Lsn.first (fun _ _ -> ())
    = None)

(* --- truncate x crash / flush boundaries --------------------------- *)

let truncate_then_crash () =
  let log = Log_store.create () in
  append_updates log 5;
  Log_store.flush log ~upto:(lsn 5);
  Log_store.set_master log (lsn 4);
  Alcotest.(check int) "two reclaimed" 2
    (Log_store.truncate log ~below:(lsn 3));
  Log_store.crash log;
  Alcotest.(check int) "truncation point survives crash" 3
    (Lsn.to_int (Log_store.truncated_below log));
  Alcotest.(check int) "master survives crash" 4
    (Lsn.to_int (Log_store.master log));
  Alcotest.(check bool) "clean tail after crash" true
    (Log_store.recover_tail log = []);
  (try
     ignore (Log_store.read log (lsn 1));
     Alcotest.fail "reading a reclaimed LSN should raise"
   with Invalid_argument _ -> ());
  ignore (Log_store.read log (lsn 3));
  append_updates log 1;
  Alcotest.(check int) "LSNs never renumbered" 6
    (Lsn.to_int (Log_store.head log))

let truncate_with_unflushed_tail () =
  let log = Log_store.create () in
  append_updates log 3;
  Log_store.flush log ~upto:(lsn 2);
  Log_store.set_master log (lsn 2);
  (* guard rails: reclaiming into the volatile tail or past the master
     checkpoint must be refused *)
  (try
     ignore (Log_store.truncate log ~below:(lsn 3));
     Alcotest.fail "truncate past master should raise"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "one reclaimed" 1
    (Log_store.truncate log ~below:(lsn 2));
  Log_store.crash log;
  Alcotest.(check int) "unflushed tail gone" 2
    (Lsn.to_int (Log_store.head log));
  Alcotest.(check bool) "nothing to amputate" true
    (Log_store.recover_tail log = []);
  ignore (Log_store.read log (lsn 2));
  (try
     ignore (Log_store.read log (lsn 1));
     Alcotest.fail "reclaimed LSN readable after crash"
   with Invalid_argument _ -> ())

(* --- torn data pages: detect by checksum, repair on demand --------- *)

let torn_page_repaired_on_fetch backend () =
  let fault = Fault.create ~seed:11L () in
  let db = mk ~fault ~backend:(backend "fault-torn") ~buffer_capacity:4 () in
  Fault.set_tear_data_every fault 1;
  let t = Db.begin_txn db in
  for i = 0 to 15 do
    Db.write db t (oid i) (100 + i)
  done;
  Db.commit db t;
  Db.shutdown db;
  (* every page write above was torn; stop tearing so repairs stick *)
  Fault.set_tear_data_every fault 0;
  Db.crash db;
  ignore (Db.recover db);
  for i = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "object %d repaired" i)
      (100 + i)
      (Db.peek db (oid i))
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some pages were repaired (%d)" (Db.repairs_total db))
    true
    (Db.repairs_total db > 0);
  Alcotest.(check bool) "engine invariants hold" true
    (Db.validate db = Ok ())

(* --- §4.1 obliteration: a corrupt commit tail must not resurrect a
       delegated update ---------------------------------------------- *)

let obliteration_script db fault ~tear =
  let t0 = Db.begin_txn db in
  let t1 = Db.begin_txn db in
  Db.add db t0 (oid 0) 5;
  Db.delegate db ~from_:t0 ~to_:t1 (oid 0);
  Fault.set_tear_log_on_crash fault tear;
  Fault.arm_crash_in fault 1;
  (try
     Db.commit db t1;
     Alcotest.fail "commit force did not crash"
   with Fault.Injected_crash _ -> ());
  Fault.disarm_crash fault;
  Db.crash db;
  (t1, Db.recover db)

let corrupt_tail_obliterates_commit backend () =
  let fault = Fault.create ~seed:5L () in
  let db = mk ~fault ~backend:(backend "fault-obl") () in
  let t1, report = obliteration_script db fault ~tear:true in
  Alcotest.(check bool) "commit record amputated" true
    (Log_store.amputated_total (Db.log_store db) > 0);
  Alcotest.(check bool) "delegatee is a loser" true
    (Xid.Set.mem t1 report.losers);
  Alcotest.(check int) "delegated update obliterated" 0
    (Db.peek db (oid 0))

let intact_tail_preserves_commit backend () =
  let fault = Fault.create ~seed:5L () in
  let db = mk ~fault ~backend:(backend "fault-keep") () in
  let t1, report = obliteration_script db fault ~tear:false in
  Alcotest.(check int) "nothing amputated" 0
    (Log_store.amputated_total (Db.log_store db));
  Alcotest.(check bool) "delegatee is a winner" true
    (Xid.Set.mem t1 report.winners);
  Alcotest.(check int) "delegated update durable" 5 (Db.peek db (oid 0))

(* --- crash-storm smoke --------------------------------------------- *)

let small_spec = { Gen.default with Gen.n_steps = 48; n_objects = 16 }

let scripted_storm_clean () =
  let outcome = Crash_storm.run_script small_spec in
  if not (Storm.ok outcome) then
    Alcotest.failf "scripted storm failed:@ %a" Crash_storm.pp_outcome
      outcome;
  Alcotest.(check bool)
    (Printf.sprintf "faults actually fired (%d)" outcome.fault_points)
    true
    (outcome.fault_points > 0);
  Alcotest.(check bool)
    (Printf.sprintf "nested crashes fired (%d)" outcome.nested_crashes)
    true
    (outcome.nested_crashes > 0)

let sim_storm_clean () =
  let sim = { Crash_storm.default_sim with steps = 250 } in
  let outcome = Crash_storm.run_sim ~sim () in
  if not (Storm.ok outcome) then
    Alcotest.failf "sim storm failed:@ %a" Crash_storm.pp_outcome outcome;
  Alcotest.(check bool) "crashes fired" true (outcome.crashes > 0);
  Alcotest.(check bool) "recoveries completed" true
    (outcome.recoveries > 0)

(* Recovery stays idempotent and oracle-true whatever the seed: a tiny
   scripted storm per seed, every engine. *)
let storm_any_seed =
  QCheck.Test.make ~count:6 ~name:"storm passes for any seed"
    QCheck.(pair small_int (oneofl [ Config.Rh; Config.Eager; Config.Lazy ]))
    (fun (seed, impl) ->
      let config =
        {
          Crash_storm.default_config with
          seed = Int64.of_int (seed + 1);
          crash_step = 5;
        }
      in
      let spec = { Gen.default with Gen.n_steps = 24; n_objects = 12 } in
      let outcome = Crash_storm.run_script ~config ~impl spec in
      Storm.ok outcome)

let per_backend =
  List.concat_map
    (fun (bname, backend) ->
      List.map
        (fun (name, f) ->
          Alcotest.test_case
            (Printf.sprintf "%s [%s]" name bname)
            `Quick (f backend))
        [
          ("torn log tail is amputated", tail_tear_amputates);
          ("torn pages repaired on fetch", torn_page_repaired_on_fetch);
          ("corrupt tail obliterates delegated commit",
           corrupt_tail_obliterates_commit);
          ("intact tail preserves delegated commit",
           intact_tail_preserves_commit);
        ])
    Test_backend.backends

let suite =
  [
    Alcotest.test_case "decode surfaces typed errors" `Quick
      decode_typed_errors;
    Alcotest.test_case "truncate then crash" `Quick truncate_then_crash;
    Alcotest.test_case "truncate with unflushed tail" `Quick
      truncate_with_unflushed_tail;
    Alcotest.test_case "scripted crash storm" `Quick scripted_storm_clean;
    Alcotest.test_case "sim crash storm" `Quick sim_storm_clean;
    QCheck_alcotest.to_alcotest storm_any_seed;
  ]
  @ per_backend
