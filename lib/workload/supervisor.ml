open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Backend = Ariesrh_storage.Backend

type config = {
  seed : int64;
  kill_step : int;
  max_kills : int;
  tear_data_every : int;
  tear_data_on_crash : bool;
  tear_log_on_crash : bool;
  group_commit : int;
  record_cache : int;
  audit : bool;
  root : string;
  forensic_dir : string option;
  keep_dirs : bool;
}

let default_config =
  {
    seed = 1L;
    kill_step = 1;
    max_kills = max_int;
    tear_data_every = 7;
    tear_data_on_crash = true;
    tear_log_on_crash = true;
    group_commit = 0;
    record_cache = Config.default.Config.record_cache;
    audit = true;
    root = Filename.concat (Filename.get_temp_dir_name ()) "ariesrh-storm";
    forensic_dir = None;
    keep_dirs = false;
  }

(* --- progress protocol ---

   The child reports the count of fully completed actions by rewriting
   an 8-byte little-endian integer at offset 0 of [dir/progress] after
   every action. The write is a single small [write(2)] at a fixed
   offset, and the kill is the child killing itself synchronously at a
   fault point inside an engine operation — never between an action
   completing and its progress write — so the parent always reads the
   exact count. No fsync: SIGKILL does not drop the OS page cache. *)

let progress_path dir = Filename.concat dir "progress"
let finished_path dir = Filename.concat dir "finished"
let error_path dir = Filename.concat dir "child_error"

let write_progress fd i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  ignore (Unix.write fd b 0 8)

let read_progress dir =
  match open_in_bin (progress_path dir) with
  | ic ->
      let n = in_channel_length ic in
      let v =
        if n < 8 then 0
        else begin
          let b = Bytes.create 8 in
          really_input ic b 0 8;
          Int64.to_int (Bytes.get_int64_le b 0)
        end
      in
      close_in ic;
      v
  | exception Sys_error _ -> 0

let write_text path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- the child ---

   Runs in the forked process and never returns: it replays the script
   on the file backend with the injector in [Kill_process] mode, so the
   armed crash point delivers a real SIGKILL mid-syscall-sequence
   instead of an exception. Exits via [Unix._exit] in every path —
   the parent's buffered channels must not be flushed twice. *)

let child_run config ~impl ~script ~n_objects ~dir ~kill_at =
  let code =
    try
      let pfd =
        Unix.openfile (progress_path dir)
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
          0o644
      in
      write_progress pfd 0;
      let fault =
        Storm.make_fault
          ~seed:(Int64.add config.seed (Int64.of_int kill_at))
          ~tear_data_every:config.tear_data_every
          ~tear_data_on_crash:config.tear_data_on_crash
          ~tear_log_on_crash:config.tear_log_on_crash
      in
      Fault.set_crash_mode fault Fault.Kill_process;
      Fault.arm_crash_at fault kill_at;
      let db =
        Driver.fresh_db ~fault
          ~backend:(Backend.File { dir })
          ~impl ~group_commit:config.group_commit
          ~record_cache:config.record_cache ~audit:false ~n_objects ()
      in
      Driver.run ~on_action:(fun i -> write_progress pfd (i + 1)) db script;
      (* the whole script survived: the scheduled kill lies beyond its
         I/O count. Shut down cleanly so the parent can verify the
         no-crash end state too. *)
      Db.shutdown db;
      Db.close db;
      write_text (finished_path dir) "";
      0
    with e ->
      (* a SIGKILL is not an exception — anything caught here is a
         harness or engine bug, reported to the parent via a marker *)
      (try write_text (error_path dir) (Printexc.to_string e) with _ -> ());
      2
  in
  Unix._exit code

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* Rebuild the symbolic-txn -> xid mapping the dead child had: a fresh
   database hands out xids sequentially from 1, one per executed
   [Begin], and nothing else consumes them — so replaying the script
   prefix reproduces the child's mapping exactly. *)
let replay_xids script ~executed =
  let map = Hashtbl.create 16 in
  let next = ref 1 in
  List.iteri
    (fun i a ->
      if i < executed then
        match a with
        | Script.Begin t ->
            Hashtbl.replace map t (Xid.of_int !next);
            incr next
        | _ -> ())
    script;
  map

let peek_all db n =
  Array.init n (fun i -> Db.peek db (Oid.of_int i))

(* Post-mortem verification in the parent: reopen the database over
   whatever files the dead process left behind, recover, and hold the
   result against the oracle — then prove restart idempotence twice,
   once in-process (crash + bare restart) and once the hard way (close
   the handle and reopen the directory from scratch, as the next
   process would). Returns the db currently holding the directory so
   the caller can dump forensics / clean up. *)
let verify ~config ~(outcome : Storm.outcome) ~impl ~script ~n_objects
    ~dir ~label ~executed =
  let db =
    Driver.fresh_db
      ~backend:(Backend.File { dir })
      ~impl ~group_commit:config.group_commit
      ~record_cache:config.record_cache ~audit:config.audit
      ~tracing:(config.forensic_dir <> None)
      ~n_objects ()
  in
  let commits = Storm.durable_commits (Db.log_store db) in
  let xid_map = replay_xids script ~executed in
  let committed t =
    match Hashtbl.find_opt xid_map t with
    | Some x -> Xid.Set.mem x commits
    | None -> false
  in
  let expected =
    Oracle.expected_for ~n_objects ~committed ~crash_at:executed script
  in
  let amputated_before = Log_store.amputated_total (Db.log_store db) in
  match Db.recover db with
  | exception e ->
      Storm.fail outcome
        (Printf.sprintf "%s: restart over dead process's files raised %s"
           label (Printexc.to_string e));
      (db, expected)
  | _report -> (
      outcome.recoveries <- outcome.recoveries + 1;
      outcome.amputated <-
        outcome.amputated
        + Log_store.amputated_total (Db.log_store db)
        - amputated_before;
      outcome.repaired_pages <- outcome.repaired_pages + Db.repairs_total db;
      outcome.checks <- outcome.checks + 1;
      let actual = peek_all db n_objects in
      if actual <> expected then
        Storm.fail outcome
          (Printf.sprintf "%s: state mismatch: got [%s] want [%s]" label
             (Storm.pp_arr actual) (Storm.pp_arr expected));
      (match Db.validate db with
      | Ok () -> ()
      | Error msg ->
          Storm.fail outcome (Printf.sprintf "%s: invariants: %s" label msg));
      (* in-process idempotence: crash + bare restart *)
      (match
         Db.crash db;
         Db.recover db
       with
      | _ ->
          outcome.recoveries <- outcome.recoveries + 1;
          let again = peek_all db n_objects in
          if again <> expected then
            Storm.fail outcome
              (Printf.sprintf "%s: restart not idempotent: got [%s] want [%s]"
                 label (Storm.pp_arr again) (Storm.pp_arr expected))
      | exception e ->
          Storm.fail outcome
            (Printf.sprintf "%s: re-restart raised %s" label
               (Printexc.to_string e)));
      (* cross-process idempotence: abandon this handle and reopen the
         directory cold, exactly as yet another process would find it
         after the recovered process also died *)
      Db.close db;
      let db2 =
        Driver.fresh_db
          ~backend:(Backend.File { dir })
          ~impl ~group_commit:config.group_commit
          ~record_cache:config.record_cache ~audit:config.audit
          ~tracing:(config.forensic_dir <> None)
          ~n_objects ()
      in
      match Db.recover db2 with
      | exception e ->
          Storm.fail outcome
            (Printf.sprintf "%s: second-process restart raised %s" label
               (Printexc.to_string e));
          (db2, expected)
      | _ ->
          outcome.recoveries <- outcome.recoveries + 1;
          let cold = peek_all db2 n_objects in
          if cold <> expected then
            Storm.fail outcome
              (Printf.sprintf
                 "%s: second-process restart diverged: got [%s] want [%s]"
                 label (Storm.pp_arr cold) (Storm.pp_arr expected));
          (db2, expected))

let maybe_dump ~config ~(outcome : Storm.outcome) ~fail_before ~kill_at
    ~expected db =
  Storm.dump ~forensic_dir:config.forensic_dir ~seed:config.seed
    ~kind:"external" ~crash_io:kill_at ~expected ~fail_before
    ~failures:outcome.failures db

let run ?(config = default_config) ?(impl = Config.Rh) spec =
  let outcome = Storm.fresh_outcome () in
  let script = Gen.generate spec ~seed:config.seed in
  let n_objects = spec.Gen.n_objects in
  let total_actions = List.length script in
  let kill_at = ref (max 1 config.kill_step) in
  let continue = ref true in
  Backend.mkdir_p config.root;
  while !continue do
    outcome.runs <- outcome.runs + 1;
    let dir = Filename.concat config.root (Printf.sprintf "io%d" !kill_at) in
    Backend.remove_tree dir;
    Backend.mkdir_p dir;
    (match Unix.fork () with
    | 0 -> child_run config ~impl ~script ~n_objects ~dir ~kill_at:!kill_at
    | pid -> (
        let status = waitpid_retry pid in
        let executed = read_progress dir in
        outcome.actions <- outcome.actions + executed;
        let label = Printf.sprintf "kill -9 at io=%d" !kill_at in
        let finished = Sys.file_exists (finished_path dir) in
        match status with
        | Unix.WSIGNALED s when s = Sys.sigkill && not finished ->
            outcome.crashes <- outcome.crashes + 1;
            outcome.fault_points <- outcome.fault_points + 1;
            let fail_before = List.length outcome.failures in
            let db, expected =
              verify ~config ~outcome ~impl ~script ~n_objects ~dir ~label
                ~executed
            in
            maybe_dump ~config ~outcome ~fail_before ~kill_at:!kill_at
              ~expected db;
            Db.close db;
            if not config.keep_dirs then Backend.remove_tree dir
        | Unix.WEXITED 0 when finished ->
            (* the scheduled kill lies beyond the script's I/O count:
               every I/O has had its turn as a kill point. Verify the
               clean end state and stop. *)
            continue := false;
            let fail_before = List.length outcome.failures in
            let db, expected =
              verify ~config ~outcome ~impl ~script ~n_objects ~dir
                ~label:"clean finish" ~executed:total_actions
            in
            maybe_dump ~config ~outcome ~fail_before ~kill_at:!kill_at
              ~expected db;
            Db.close db;
            if not config.keep_dirs then Backend.remove_tree dir
        | status ->
            let detail =
              match status with
              | Unix.WEXITED c ->
                  let err =
                    match open_in_bin (error_path dir) with
                    | ic ->
                        let n = in_channel_length ic in
                        let s = really_input_string ic (min n 512) in
                        close_in ic;
                        ": " ^ s
                    | exception Sys_error _ -> ""
                  in
                  Printf.sprintf "child exited %d%s" c err
              | Unix.WSIGNALED s -> Printf.sprintf "child died on signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "child stopped on signal %d" s
            in
            Storm.fail outcome (Printf.sprintf "%s: %s" label detail);
            continue := false));
    if outcome.runs >= config.max_kills then continue := false;
    kill_at := !kill_at + max 1 config.kill_step
  done;
  if not config.keep_dirs then (try Unix.rmdir config.root with _ -> ());
  outcome
