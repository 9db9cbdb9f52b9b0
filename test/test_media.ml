(* Media resilience: the durable archive, continuous WAL archiving,
   silent-corruption injection, the scrubber's detect/quarantine/heal
   cycle, and cold restore after total media loss. *)

open Ariesrh_types
open Ariesrh_storage
open Ariesrh_wal
open Ariesrh_core
open Ariesrh_workload
module Fault = Ariesrh_fault.Fault

let oid = Oid.of_int

let scratch = ref 0

let fresh_dir tag =
  incr scratch;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ariesrh-media-%d-%s-%d" (Unix.getpid ()) tag !scratch)
  in
  Backend.remove_tree d;
  d

let commit_write db o v =
  let x = Db.begin_txn db in
  Db.write db x (oid o) v;
  Db.commit db x

(* --- pp_exn totality ------------------------------------------------ *)

(* Every typed exception the engine can raise must render as prose, not
   fall through to [Printexc]. The table is the contract: adding an
   exception without teaching [Errors.pp_exn] about it fails here. *)
let pp_exn_total () =
  let x = Xid.of_int 3 and l = Lsn.of_int 7 in
  let table =
    [
      (Errors.Conflict { requester = x; holders = [ Xid.of_int 4 ] },
       "lock conflict");
      (Errors.No_such_txn x, "no such transaction");
      (Errors.Txn_not_active x, "not active");
      (Errors.Not_responsible { xid = x; oid = oid 1 }, "not responsible");
      (Errors.Overloaded { xid = None; reason = Errors.Begin_refused },
       "overloaded");
      (Errors.Overloaded { xid = Some x; reason = Errors.Delegation_refused },
       "delegations refused");
      (Errors.Log_truncated_past_backup { backup = l; retained = Lsn.of_int 9 },
       "truncated past the backup");
      (Errors.Unsupported_by_engine { op = "delegate_update"; impl = "eager" },
       "not supported");
      (Errors.Archive_lagging { durable = Lsn.of_int 40; archived = l },
       "archiving lagging");
      (Errors.Media_unhealable { target = "page"; id = 2 },
       "unhealable media corruption");
      (Errors.History_unavailable
         { lsn = Lsn.of_int 2; available_from = l;
           available_upto = Lsn.of_int 40 },
       "history unavailable");
      (Archive.Archive_corrupt { path = "pages.arc"; what = "bad crc" },
       "media archive corrupt");
      (Log_store.Log_full
         { dimension = Log_store.Records; need = 3; used = 9; reserved = 2;
           capacity = 10 },
       "log full");
      (Log_store.Corrupt_record { lsn = l; error = Record.Checksum_mismatch },
       "corrupt log record");
      (Buffer_pool.Torn_page (Page_id.of_int 1), "torn data page");
      (Backend.Io_error { op = "pwrite"; path = "wal.0"; error = Unix.ENOSPC },
       "I/O error");
      (Log_device.Wal_frame_corrupt { offset = 128; expected = 1; got = 2 },
       "WAL frame corrupt");
      (Fault.Injected_crash { io = 12; site = Fault.Disk_write },
       "injected crash");
      (Ariesrh_recovery.Audit.Audit_failed [ "page 0 stale" ],
       "self-audit failed");
      (Errors.Xfer_refused { oid = oid 1; holders = [ x ] },
       "cross-shard transfer");
      (Ariesrh_recovery.Rewrite.Surgery_corrupt "orphan intent",
       "surgery protocol violated");
      (Errors.Recovering { oid = oid 1; backlog = 3 }, "still recovering");
      (Errors.Recovery_incomplete { backlog = 2 }, "recovery incomplete");
    ]
  in
  List.iter
    (fun (e, want) ->
      let got = Format.asprintf "%a" Errors.pp_exn e in
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s
                       && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      if not (contains got want) then
        Alcotest.failf "pp_exn for %s: %S does not mention %S"
          (Printexc.to_string e) got want;
      if contains got (Printexc.to_string e) then
        Alcotest.failf "pp_exn fell through to Printexc for %s"
          (Printexc.to_string e))
    table;
  (* unknown exceptions still render *)
  Alcotest.(check bool) "fallback is total" true
    (String.length (Format.asprintf "%a" Errors.pp_exn Exit) > 0)

(* --- the archive on its own ----------------------------------------- *)

let archive_dir_roundtrip () =
  let dir = fresh_dir "arc" in
  let a = Archive.create ~dir ~n_objects:8 ~objects_per_page:4 ~impl_tag:0 () in
  let frames = [ "alpha-record"; "beta-record"; "gamma-record" ] in
  List.iteri (fun i s -> Archive.append_wal a ~idx:i s) frames;
  let pages =
    Array.init 2 (fun _ ->
        let p = Page.create ~slots:4 in
        Page.seal p;
        p)
  in
  Archive.put_snapshot a ~pages ~complete_upto:(Lsn.of_int 3)
    ~master:(Lsn.of_int 1);
  Archive.sync a;
  Archive.close a;
  let b = Archive.open_dir dir in
  let g = Archive.geometry b in
  Alcotest.(check int) "n_objects survives" 8 g.Archive.n_objects;
  Alcotest.(check int) "archived_upto survives" 3 (Archive.archived_upto b);
  Alcotest.(check (option string)) "frame bytes survive" (Some "beta-record")
    (Archive.wal_get b ~idx:1);
  (match Archive.snapshot b with
  | None -> Alcotest.fail "snapshot lost on reopen"
  | Some s ->
      Alcotest.(check int) "complete_upto survives" 3
        (Lsn.to_int s.Archive.complete_upto));
  Archive.close b;
  Backend.remove_tree dir

let archive_detects_and_heals_rot () =
  let a = Archive.create ~n_objects:8 ~objects_per_page:4 ~impl_tag:0 () in
  Archive.append_wal a ~idx:0 "first";
  Archive.append_wal a ~idx:1 "second";
  Archive.bitrot_wal a ~idx:1;
  let _, bad_wal = Archive.check a in
  Alcotest.(check (list int)) "rot detected" [ 1 ] bad_wal;
  Archive.heal_wal a ~idx:1 "second";
  let bad_pages, bad_wal = Archive.check a in
  Alcotest.(check (list int)) "healed" [] bad_wal;
  Alcotest.(check (list int)) "pages untouched" [] bad_pages;
  Alcotest.(check (option string)) "healed bytes" (Some "second")
    (Archive.wal_get a ~idx:1)

let archive_appends_must_be_consecutive () =
  let a = Archive.create ~n_objects:8 ~objects_per_page:4 ~impl_tag:0 () in
  Archive.append_wal a ~idx:0 "first";
  Alcotest.check_raises "gap refused"
    (Invalid_argument "Archive.append_wal: idx 5, expected 1") (fun () ->
      Archive.append_wal a ~idx:5 "gap")

(* --- injected silent corruption, healed by the scrubber -------------- *)

(* At-rest bitrot timestamps itself on the I/O clock; with an archive
   attached every victim (page or archived WAL record) has an intact
   redundant source, so a full scrub must end with an empty quarantine
   and the exact committed state after a crash-restart. *)
let bitrot_is_healed () =
  let fault = Fault.create ~seed:42L () in
  let db = Driver.fresh_db ~fault ~n_objects:32 () in
  ignore (Db.attach_archive db);
  for i = 0 to 15 do
    commit_write db i (100 + i)
  done;
  ignore (Db.archive_catchup db);
  let ios = (Fault.stats fault).Fault.ios in
  Fault.arm_bitrot fault ~at:(ios + 1);
  Fault.arm_bitrot fault ~at:(ios + 4);
  for i = 0 to 7 do
    commit_write db i (200 + i)
  done;
  Alcotest.(check int) "both rots fired" 2 (Fault.stats fault).Fault.bitrots;
  let expected = Db.peek_all db in
  let o = Db.scrub db in
  Alcotest.(check int) "nothing unhealable" 0 o.Db.unhealable;
  Alcotest.(check (list (pair string int))) "quarantine empty" []
    (Db.quarantined db);
  Db.crash db;
  ignore (Db.scrub db);
  ignore (Db.recover db);
  Alcotest.(check (array int)) "state intact after rot + crash" expected
    (Db.peek_all db)

(* A lost write leaves a stale but checksum-valid main image; only the
   main/shadow disagreement betrays it. *)
let lost_write_is_healed () =
  let fault = Fault.create ~seed:7L () in
  let db = Driver.fresh_db ~fault ~n_objects:32 () in
  for i = 0 to 15 do
    commit_write db i (10 + i)
  done;
  Db.shutdown db;
  for i = 0 to 15 do
    commit_write db i (50 + i)
  done;
  let expected = Db.peek_all db in
  Fault.arm_lost_write fault ~at:(Fault.stats fault).Fault.ios;
  Db.shutdown db;
  Alcotest.(check int) "lost write fired" 1
    (Fault.stats fault).Fault.lost_writes;
  let o = Db.scrub db in
  Alcotest.(check bool) "divergence caught" true (o.Db.corrupt >= 1);
  Alcotest.(check int) "healed from shadow + replay" o.Db.corrupt o.Db.healed;
  Db.crash db;
  ignore (Db.scrub db);
  ignore (Db.recover db);
  Alcotest.(check (array int)) "no stale page survives" expected
    (Db.peek_all db)

let misdirected_write_is_healed () =
  let fault = Fault.create ~seed:11L () in
  let db = Driver.fresh_db ~fault ~n_objects:32 () in
  for i = 0 to 15 do
    commit_write db i (10 + i)
  done;
  Db.shutdown db;
  for i = 0 to 15 do
    commit_write db i (70 + i)
  done;
  let expected = Db.peek_all db in
  Fault.arm_misdirected_write fault ~at:(Fault.stats fault).Fault.ios;
  Db.shutdown db;
  Alcotest.(check int) "misdirect fired" 1
    (Fault.stats fault).Fault.misdirected_writes;
  let o = Db.scrub db in
  Alcotest.(check bool) "victim and target both caught" true (o.Db.corrupt >= 1);
  Alcotest.(check int) "all healed" 0 o.Db.unhealable;
  Db.crash db;
  ignore (Db.scrub db);
  ignore (Db.recover db);
  Alcotest.(check (array int)) "no foreign image survives" expected
    (Db.peek_all db)

(* Per-record WAL checksums detect rot; the archived copy heals it. *)
let wal_rot_healed_from_archive () =
  let db = Driver.fresh_db ~n_objects:32 () in
  ignore (Db.attach_archive db);
  for i = 0 to 15 do
    commit_write db i (10 + i)
  done;
  ignore (Db.archive_catchup db);
  let ls = Db.log_store db in
  let idx = Lsn.to_int (Log_store.durable ls) / 2 in
  Log_store.bitrot_record ls ~idx;
  Alcotest.(check bool) "rot detectable" false (Log_store.record_intact ls ~idx);
  let o = Db.scrub_wal db in
  Alcotest.(check int) "one record corrupt" 1 o.Db.corrupt;
  Alcotest.(check int) "healed from the archive" 1 o.Db.healed;
  Alcotest.(check bool) "bytes restored verbatim" true
    (Log_store.record_intact ls ~idx);
  Db.crash db;
  ignore (Db.recover db);
  Alcotest.(check int) "replay clean over healed record" 20
    (Db.peek db (oid 10))

(* --- archiving keeps up, or admission pushes back -------------------- *)

let archive_lagging_backpressure () =
  let db =
    Db.create
      (Config.make ~n_objects:32 ~objects_per_page:4 ~buffer_capacity:8
         ~max_archive_lag:4 ())
  in
  ignore (Db.attach_archive db);
  let raised = ref false in
  (try
     for i = 0 to 19 do
       commit_write db (i mod 32) i
     done
   with Errors.Archive_lagging _ -> raised := true);
  Alcotest.(check bool) "lag bound enforced at begin" true !raised;
  ignore (Db.archive_catchup db);
  (* caught up: admission resumes *)
  commit_write db 0 999;
  Alcotest.(check int) "admitted after catchup" 999 (Db.peek db (oid 0))

(* Truncation must never reclaim records the archive has not copied:
   the archive pin holds reclamation back, the catchup releases it. *)
let truncation_never_outruns_archive () =
  let db = Driver.fresh_db ~n_objects:32 () in
  let a = Db.attach_archive db in
  ignore (Db.backup_to_archive db);
  for i = 0 to 31 do
    commit_write db i i
  done;
  Db.shutdown db;
  Db.checkpoint db;
  ignore (Db.truncate_log db);
  let ls = Db.log_store db in
  Alcotest.(check bool) "reclaimed prefix fully archived" true
    (Db.archived_upto db >= Lsn.to_int (Log_store.truncated_below ls) - 1);
  (* and therefore the archive still rebuilds the exact state cold *)
  ignore (Db.archive_catchup db);
  let expected = Db.peek_all db in
  let db2 = Db.create (Db.config db) in
  ignore (Db.restore_from_archive db2 a);
  Alcotest.(check (array int)) "cold restore exact across truncation" expected
    (Db.peek_all db2);
  Alcotest.(check (list string)) "restored state audits clean" []
    (Db.audit db2)

(* The explicit page-image backup pins reclamation the same way. *)
let backup_pin_blocks_truncation () =
  let db = Driver.fresh_db ~n_objects:16 () in
  commit_write db 0 1;
  let b = Db.backup db in
  for i = 0 to 15 do
    commit_write db i (2 * i)
  done;
  let expected = Db.peek_all db in
  Db.shutdown db;
  Db.checkpoint db;
  ignore (Db.truncate_log db);
  let ls = Db.log_store db in
  Alcotest.(check bool) "log retained back to the backup point" true
    (Lsn.to_int (Log_store.truncated_below ls)
    <= Lsn.to_int (Db.backup_pin db));
  Db.media_failure db;
  ignore (Db.restore_media db b);
  Alcotest.(check (array int)) "pin kept the restore possible" expected
    (Db.peek_all db);
  (* operator discards the backup: the pin lifts and the typed error
     becomes reachable again *)
  Db.release_backup_pin db;
  commit_write db 0 5;
  Db.shutdown db;
  Db.checkpoint db;
  ignore (Db.truncate_log db);
  Db.media_failure db;
  match Db.restore_media db b with
  | _ -> Alcotest.fail "restore past truncation must raise"
  | exception Errors.Log_truncated_past_backup _ -> ()

(* --- cold restore after total media loss ----------------------------- *)

let cold_restore backend_dir archive_dir () =
  let backend =
    match backend_dir with
    | None -> Backend.Sim
    | Some d -> Backend.File { dir = d }
  in
  let db = Driver.fresh_db ~backend ~n_objects:32 () in
  let a = Db.attach_archive ?dir:archive_dir db in
  for i = 0 to 15 do
    commit_write db i (i * 3)
  done;
  ignore (Db.backup_to_archive db);
  for i = 8 to 23 do
    commit_write db i (i * 5)
  done;
  ignore (Db.archive_catchup db);
  let expected = Db.peek_all db in
  Db.close db;
  (* total media loss: only the archive survives *)
  (match backend_dir with Some d -> Backend.remove_tree d | None -> ());
  let cold =
    match archive_dir with None -> a | Some d -> Archive.open_dir d
  in
  let db2 = Db.create (Db.config db) in
  ignore (Db.restore_from_archive db2 cold);
  Alcotest.(check (array int)) "exact committed state rebuilt" expected
    (Db.peek_all db2);
  Alcotest.(check (list string)) "audit clean" [] (Db.audit db2);
  (match Db.validate db2 with
  | Ok () -> ()
  | Error m -> Alcotest.failf "restored state invalid: %s" m);
  Db.close db2;
  (match archive_dir with Some d -> Backend.remove_tree d | None -> ())

let cold_restore_sim () = cold_restore None None ()

let cold_restore_file () =
  cold_restore (Some (fresh_dir "cold-db")) (Some (fresh_dir "cold-arc")) ()

(* --- restore is all-or-typed-error, whatever got truncated ----------- *)

(* Whatever interleaving of commits, checkpoints, truncations and pin
   releases follows a backup, restoring from it either reproduces the
   full committed state or raises the typed error — never a partial
   restore. *)
let prop_restore_total =
  QCheck.Test.make ~count:100
    ~name:"restore after truncate interleavings is all-or-typed-error"
    QCheck.(make Gen.(list_size (int_bound 14) (int_bound 3)))
    (fun ops ->
      let db = Driver.fresh_db ~n_objects:16 () in
      commit_write db 0 1;
      let b = Db.backup db in
      let v = ref 1 in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              incr v;
              commit_write db (!v mod 16) !v
          | 1 ->
              Db.shutdown db;
              Db.checkpoint db
          | 2 -> ignore (Db.truncate_log db)
          | _ -> Db.release_backup_pin db)
        ops;
      let expected = Db.peek_all db in
      Db.media_failure db;
      match Db.restore_media db b with
      | _ -> Db.peek_all db = expected
      | exception Errors.Log_truncated_past_backup _ -> true)

(* --- the media-storm, small ------------------------------------------ *)

let storm_config =
  {
    Media_storm.default_config with
    Media_storm.rounds = 4;
    steps_per_round = 40;
    load =
      { Media_storm.default_config.load with clients = 3; n_objects = 32 };
    crash_every_rounds = 2;
  }

let storm_smoke impl () =
  let out = Media_storm.run ~config:storm_config ~impl () in
  if not (Media_storm.ok out) then
    Alcotest.failf "media-storm failed:@ %a" Media_storm.pp_outcome out;
  Alcotest.(check int) "nothing unhealable" 0 out.Media_storm.unhealable;
  Alcotest.(check bool) "corruption was actually injected" true
    (out.Media_storm.injected_bitrot + out.Media_storm.injected_lost
     + out.Media_storm.injected_misdirected
     + out.Media_storm.injected_archive_rot
    > 0);
  Alcotest.(check int) "cold restore ran" 1 out.Media_storm.cold_restores

(* [media-storm --engine eager --clients 8 --objects 32 --seed 8 --seeds 1]
   (its one storm runs seed 9): an armed bitrot rots the live copy of
   record 880 before round 8 draws its archive rot, and the first draw
   lands on the same record. Drawn again, the archive rot leaves one
   intact copy, so the full scrub heals both and the run passes. *)
let storm_keeps_one_intact_copy () =
  let d = Media_storm.default_config in
  let config =
    { d with
      Media_storm.seed = 9L;
      load = { d.load with clients = 8; n_objects = 32 } }
  in
  let out = Media_storm.run ~config ~impl:Config.Eager () in
  if not (Media_storm.ok out) then
    Alcotest.failf "media-storm failed:@ %a" Media_storm.pp_outcome out;
  Alcotest.(check int) "nothing unhealable" 0 out.Media_storm.unhealable

(* A record rotted beyond healing: the storm's checks that read the log
   report it as a failure, never raise it. The expected state is off on
   object 1, so the check also describes that object's history. *)
let storm_reports_corrupt_record () =
  let module Sharded = Ariesrh_shard.Sharded in
  let fault = Fault.create ~seed:1L () in
  let sh = Sharded.create ~fault (Config.make ~n_objects:4 ()) in
  let x = Sharded.begin_txn sh ~shard:0 in
  Sharded.write sh x (oid 1) 5;
  Sharded.commit sh x;
  let log = Db.log_store (Sharded.db sh 0) in
  Log_store.flush log ~upto:(Log_store.head log);
  (* slot 1: the update after its Begin *)
  Log_store.bitrot_record log ~idx:1;
  let out = Storm.fresh_outcome () in
  Storm.check out ~label:"rot" ~idempotence:false fault sh [| 0; 6; 0; 0 |];
  Alcotest.(check bool) "the storm fails" false (Storm.ok out);
  Alcotest.(check bool) "a failure names record 2" true
    (List.exists
       (fun m -> Test_known_bugs.contains m "corrupt log record at 2")
       out.Storm.failures)

let storm_smoke_file () =
  let config =
    {
      storm_config with
      Media_storm.rounds = 3;
      backend_root = Some (fresh_dir "storm-db");
      archive_root = Some (fresh_dir "storm-arc");
    }
  in
  let out = Media_storm.run ~config ~impl:Config.Rh () in
  if not (Media_storm.ok out) then
    Alcotest.failf "file-backed media-storm failed:@ %a" Media_storm.pp_outcome
      out

let suite =
  [
    Alcotest.test_case "pp_exn renders every typed error" `Quick pp_exn_total;
    Alcotest.test_case "archive dir round-trip" `Quick archive_dir_roundtrip;
    Alcotest.test_case "archive detects and heals rot" `Quick
      archive_detects_and_heals_rot;
    Alcotest.test_case "archive appends must be consecutive" `Quick
      archive_appends_must_be_consecutive;
    Alcotest.test_case "bitrot healed, state exact" `Quick bitrot_is_healed;
    Alcotest.test_case "lost write healed from shadow" `Quick
      lost_write_is_healed;
    Alcotest.test_case "misdirected write healed" `Quick
      misdirected_write_is_healed;
    Alcotest.test_case "WAL rot healed from archive" `Quick
      wal_rot_healed_from_archive;
    Alcotest.test_case "archive lag engages backpressure" `Quick
      archive_lagging_backpressure;
    Alcotest.test_case "truncation never outruns the archive" `Quick
      truncation_never_outruns_archive;
    Alcotest.test_case "backup pin blocks truncation" `Quick
      backup_pin_blocks_truncation;
    Alcotest.test_case "cold restore (sim)" `Quick cold_restore_sim;
    Alcotest.test_case "cold restore (file)" `Quick cold_restore_file;
    QCheck_alcotest.to_alcotest prop_restore_total;
    Alcotest.test_case "media-storm smoke (rh)" `Quick (storm_smoke Config.Rh);
    Alcotest.test_case "media-storm smoke (eager)" `Quick
      (storm_smoke Config.Eager);
    Alcotest.test_case "media-storm smoke (lazy)" `Quick
      (storm_smoke Config.Lazy);
    Alcotest.test_case "media-storm smoke (file backend)" `Quick
      storm_smoke_file;
    Alcotest.test_case "media-storm reports a corrupt record" `Quick
      storm_reports_corrupt_record;
    Alcotest.test_case "media-storm keeps one intact copy of each record"
      `Quick storm_keeps_one_intact_copy;
  ]
