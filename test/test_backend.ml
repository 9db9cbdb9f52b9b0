(* The file backend: WAL and page files survive reopen, torn tails are
   amputated identically to the simulated devices, and the two backends
   are semantically indistinguishable — same states, same logical record
   sequences, byte-identical forensic dumps — under the same seed. *)

open Ariesrh_types
open Ariesrh_core
open Ariesrh_workload
module Backend = Ariesrh_storage.Backend
module Page = Ariesrh_storage.Page
module Page_device = Ariesrh_storage.Page_device
module Log_store = Ariesrh_wal.Log_store
module Record = Ariesrh_wal.Record
module Fault = Ariesrh_fault.Fault

let xid = Xid.of_int
let oid = Oid.of_int
let lsn = Lsn.of_int

(* Every test gets a private scratch directory; no cleanup between
   assertions so a failure leaves the files behind for inspection. *)
let scratch = ref 0

let fresh_dir tag =
  incr scratch;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ariesrh-test-%d-%s-%d" (Unix.getpid ()) tag !scratch)
  in
  Backend.remove_tree d;
  d

let file_backend tag = Backend.File { dir = fresh_dir tag }

(* Backends to parameterize sibling suites over: a fresh file backend
   per call, or the sim backend. *)
let backends : (string * (string -> Backend.t)) list =
  [ ("sim", fun _ -> Backend.Sim); ("file", file_backend) ]

let append_updates log n =
  for i = 1 to n do
    ignore
      (Log_store.append log
         (Record.mk (xid i) ~prev:Lsn.nil
            (Record.Update
               { oid = oid i; page = Page_id.of_int 0; op = Record.Add i })))
  done

let record_strings log =
  let out = ref [] in
  Log_store.iter_forward log ~from:(Log_store.truncated_below log)
    (fun l r ->
      out := Format.asprintf "%d %a" (Lsn.to_int l) Record.pp r :: !out);
  List.rev !out

(* --- WAL file roundtrip -------------------------------------------- *)

let wal_reopen_roundtrip () =
  let dir = fresh_dir "walrt" in
  let backend = Backend.File { dir } in
  let log = Log_store.create ~backend () in
  append_updates log 10;
  Log_store.flush log ~upto:(lsn 10);
  Log_store.set_master log (lsn 6);
  Alcotest.(check int) "reclaim below 3" 2
    (Log_store.truncate log ~below:(lsn 3));
  let before = record_strings log in
  Log_store.close log;
  let re = Log_store.create ~backend () in
  Alcotest.(check int) "durable survives reopen" 10
    (Lsn.to_int (Log_store.durable re));
  Alcotest.(check int) "master survives reopen" 6
    (Lsn.to_int (Log_store.master re));
  Alcotest.(check int) "truncation point survives reopen" 3
    (Lsn.to_int (Log_store.truncated_below re));
  Alcotest.(check (list string)) "records identical after reopen" before
    (record_strings re);
  Alcotest.(check bool) "clean scan" true
    (Log_store.iter_valid_forward re ~from:(Log_store.truncated_below re)
       (fun _ _ -> ())
    = None);
  Alcotest.(check bool) "nothing to amputate" true
    (Log_store.recover_tail re = [])

(* Small segments force rollover and whole-segment unlink on truncate. *)
let wal_segment_rollover () =
  let dir = fresh_dir "walseg" in
  let backend = Backend.File { dir } in
  let log = Log_store.create ~backend () in
  (* records are ~50 bytes; the default segment is 64KiB, so grow past
     several segment boundaries via many records *)
  for i = 1 to 2000 do
    ignore
      (Log_store.append log
         (Record.mk
            (xid (1 + (i mod 7)))
            ~prev:Lsn.nil
            (Record.Update
               {
                 oid = oid (i mod 64);
                 page = Page_id.of_int 0;
                 op = Record.Add i;
               })))
  done;
  Log_store.flush log ~upto:(lsn 2000);
  let segs dir =
    List.length
      (List.filter
         (fun f -> Filename.check_suffix f ".wal")
         (Array.to_list (Sys.readdir dir)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "several segments on disk (%d)" (segs dir))
    true (segs dir > 1);
  Log_store.set_master log (lsn 1999);
  ignore (Log_store.truncate log ~below:(lsn 1500));
  Log_store.close log;
  let re = Log_store.create ~backend () in
  Alcotest.(check int) "durable after rollover reopen" 2000
    (Lsn.to_int (Log_store.durable re));
  Alcotest.(check int) "low after rollover reopen" 1500
    (Lsn.to_int (Log_store.truncated_below re));
  Alcotest.(check bool) "clean scan after rollover" true
    (Log_store.iter_valid_forward re ~from:(Log_store.truncated_below re)
       (fun _ _ -> ())
    = None)

(* --- torn tail across a process boundary --------------------------- *)

let wal_torn_tail_reopen () =
  let dir = fresh_dir "waltorn" in
  let backend = Backend.File { dir } in
  let fault = Fault.create ~seed:3L () in
  let log = Log_store.create ~fault ~backend () in
  append_updates log 3;
  Log_store.flush log ~upto:(lsn 3);
  append_updates log 1;
  Fault.set_tear_log_on_crash fault true;
  Fault.arm_crash_in fault 1;
  (try
     Log_store.flush log ~upto:(lsn 4);
     Alcotest.fail "armed flush did not crash"
   with Fault.Injected_crash _ -> ());
  (* abandon the handle without crash/close: the dead process's view.
     The torn frame is already in the file — a torn flush is a power
     failure mid-write. *)
  let re1 = Log_store.create ~backend () in
  Alcotest.(check int) "torn record loaded verbatim" 4
    (Lsn.to_int (Log_store.durable re1));
  (match Log_store.read_result re1 (lsn 4) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn frame decoded after reopen");
  Alcotest.(check int) "reopen amputates the torn tail" 1
    (List.length (Log_store.recover_tail re1));
  Alcotest.(check int) "durable after amputation" 3
    (Lsn.to_int (Log_store.durable re1));
  (* the amputation wasn't persisted (nothing flushed since): another
     cold reopen must re-amputate identically *)
  let re2 = Log_store.create ~backend () in
  Alcotest.(check int) "re-amputation is idempotent" 1
    (List.length (Log_store.recover_tail re2));
  (* reusing the freed LSN truncates the dead bytes for real *)
  append_updates re2 1;
  Log_store.flush re2 ~upto:(lsn 4);
  Log_store.close re2;
  let re3 = Log_store.create ~backend () in
  Alcotest.(check bool) "healed tail scans clean" true
    (Log_store.iter_valid_forward re3 ~from:Lsn.first (fun _ _ -> ())
    = None);
  Alcotest.(check bool) "no further amputation" true
    (Log_store.recover_tail re3 = [])

(* --- page file: doublewrite discipline over a real torn write ------ *)

let page_file_torn_write () =
  let dir = fresh_dir "pagetorn" in
  let dev = Page_device.create ~dir ~pages:2 ~slots_per_page:2 in
  let p = Page.create ~slots:2 in
  Page.set p 0 7;
  Page.set p 1 7;
  Page.set_page_lsn p (lsn 5);
  Page.seal p;
  Page_device.write_main dev 0 p;
  Page_device.write_shadow dev 0 p;
  Page_device.sync dev;
  (* a genuinely partial write of the next image: slot 0 reaches the
     platter, slot 1 keeps the old bytes, checksum is the new image's *)
  let q = Page.create ~slots:2 in
  Page.set q 0 9;
  Page.set q 1 9;
  Page.set_page_lsn q (lsn 8);
  Page.seal q;
  Page_device.write_main_torn dev 0 q ~keep:1;
  Page_device.close dev;
  let dev2 = Page_device.create ~dir ~pages:2 ~slots_per_page:2 in
  (match Page_device.load dev2 with
  | None -> Alcotest.fail "file device must load"
  | Some (main, shadow) ->
      Alcotest.(check bool) "torn main image fails verify" false
        (Page.verify main.(0));
      Alcotest.(check int) "torn image holds the partial write" 9
        (Page.get main.(0) 0);
      Alcotest.(check int) "torn image keeps old tail bytes" 7
        (Page.get main.(0) 1);
      Alcotest.(check bool) "shadow verifies" true (Page.verify shadow.(0));
      Alcotest.(check int) "shadow holds the before-image" 7
        (Page.get shadow.(0) 1);
      Alcotest.(check bool) "untouched page verifies" true
        (Page.verify main.(1)));
  Page_device.close dev2

(* --- a whole database survives reopen ------------------------------ *)

let db_reopen_continues () =
  let dir = fresh_dir "dbreopen" in
  let backend = Backend.File { dir } in
  let spec = { Gen.default with Gen.n_steps = 60; n_objects = 16 } in
  let script = Gen.generate spec ~seed:9L in
  let db = Driver.fresh_db ~backend ~n_objects:16 () in
  Driver.run db script;
  Db.shutdown db;
  Db.close db;
  let expected = Oracle.expected ~n_objects:16 script in
  let re = Driver.fresh_db ~backend ~n_objects:16 () in
  ignore (Db.recover re);
  Alcotest.(check (array int)) "reopened state matches the oracle" expected
    (Db.peek_all re);
  Alcotest.(check bool) "invariants hold after reopen" true
    (Db.validate re = Ok ());
  (* the reopened database must keep allocating fresh xids past the
     dead process's — a new transaction's work must recover too *)
  let t = Db.begin_txn re in
  Db.write re t (oid 0) 4242;
  Db.commit re t;
  Db.crash re;
  ignore (Db.recover re);
  Alcotest.(check int) "post-reopen commit durable" 4242 (Db.peek re (oid 0));
  Alcotest.(check bool) "invariants still hold" true (Db.validate re = Ok ());
  Db.close re

(* --- in-process storms on the file backend -------------------------- *)

let file_backend_storm () =
  let config =
    {
      Crash_storm.default_config with
      backend_root = Some (fresh_dir "storm");
    }
  in
  let spec = { Gen.default with Gen.n_steps = 40; n_objects = 16 } in
  let outcome = Crash_storm.run_script ~config spec in
  if not (Storm.ok outcome) then
    Alcotest.failf "file-backend storm failed:@ %a" Crash_storm.pp_outcome
      outcome;
  Alcotest.(check bool) "faults fired" true (outcome.fault_points > 0)

(* --- the external kill -9 storm ------------------------------------ *)

let external_storm_smoke () =
  let config =
    {
      Supervisor.default_config with
      kill_step = 11;
      max_kills = 4;
      root = fresh_dir "extstorm";
    }
  in
  let spec = { Gen.default with Gen.n_steps = 36; n_objects = 12 } in
  let outcome = Supervisor.run ~config spec in
  if not (Storm.ok outcome) then
    Alcotest.failf "external storm failed:@ %a" Crash_storm.pp_outcome outcome;
  Alcotest.(check bool)
    (Printf.sprintf "children actually got killed (%d)" outcome.crashes)
    true (outcome.crashes > 0);
  Alcotest.(check bool) "recoveries ran" true (outcome.recoveries > 0)

(* --- parity: the backends are indistinguishable --------------------- *)

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.add_string b (String.sub s !i (String.length s - !i));
  Buffer.contents b

(* Run the same seeded crash-recover episode on a backend; return the
   recovered state, the logical record sequence, and the forensic dump
   (with the backend label normalised away). *)
let episode backend ~impl ~script ~n_objects ~seed ~crash_at =
  let fault = Fault.create ~seed:(Int64.of_int seed) () in
  Fault.set_tear_log_on_crash fault true;
  Fault.set_tear_data_on_crash fault true;
  Fault.set_tear_data_every fault 5;
  Fault.arm_crash_at fault crash_at;
  let db = Driver.fresh_db ~fault ~backend ~impl ~tracing:true ~n_objects () in
  (try Driver.run db script with Fault.Injected_crash _ -> ());
  Db.crash db;
  Fault.set_enabled fault false;
  ignore (Db.recover db);
  let state = Db.peek_all db in
  let records = record_strings (Db.log_store db) in
  let dump =
    Ariesrh_obs.Json.to_string
      (Forensics.dump ~kind:"parity" ~seed:(Int64.of_int seed)
         ~failures:[ "none" ] db)
  in
  Db.close db;
  (state, records, replace_all ~sub:{|: "file"|} ~by:{|: "sim"|} dump)

let backend_parity =
  QCheck.Test.make ~count:9 ~name:"sim and file backends are byte-identical"
    QCheck.(
      pair small_int (oneofl [ Config.Rh; Config.Eager; Config.Lazy ]))
    (fun (seed, impl) ->
      let spec = { Gen.default with Gen.n_steps = 30; n_objects = 12 } in
      let script = Gen.generate spec ~seed:(Int64.of_int seed) in
      let crash_at = 5 + (seed mod 23) in
      let run backend =
        episode backend ~impl ~script ~n_objects:12 ~seed ~crash_at
      in
      let s_state, s_recs, s_dump = run Backend.Sim in
      let f_state, f_recs, f_dump = run (file_backend "parity") in
      if s_state <> f_state then
        QCheck.Test.fail_report "states differ between backends";
      if s_recs <> f_recs then
        QCheck.Test.fail_report "logical record sequences differ";
      if s_dump <> f_dump then
        QCheck.Test.fail_report "forensic dumps differ";
      true)

let suite =
  [
    Alcotest.test_case "WAL file roundtrip across reopen" `Quick
      wal_reopen_roundtrip;
    Alcotest.test_case "WAL segment rollover and truncation" `Quick
      wal_segment_rollover;
    Alcotest.test_case "torn WAL tail amputated across reopen" `Quick
      wal_torn_tail_reopen;
    Alcotest.test_case "page file doublewrite vs torn write" `Quick
      page_file_torn_write;
    Alcotest.test_case "database survives reopen and continues" `Quick
      db_reopen_continues;
    Alcotest.test_case "in-process storm on the file backend" `Quick
      file_backend_storm;
    Alcotest.test_case "external kill -9 storm smoke" `Quick
      external_storm_smoke;
    QCheck_alcotest.to_alcotest backend_parity;
  ]
