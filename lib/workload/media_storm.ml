open Ariesrh_types
open Ariesrh_core
open Ariesrh_storage
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Prng = Ariesrh_util.Prng
module Scrubber = Ariesrh_maintenance.Scrubber

(* The media-storm: a seeded workload interleaved with silent-corruption
   injections (bitrot, lost writes, misdirected writes, archive rot) and
   crashes, with the scrubber healing as it goes. Every round asserts
   that all corruption found was healed and the recovered state matches
   the oracle; the final phase destroys {e all} media and proves a cold
   [restore_from_archive] rebuilds the exact committed state. *)

type config = {
  seed : int64;
  rounds : int;  (* corruption/crash rounds *)
  steps_per_round : int;
  clients : int;
  ops_per_txn : int;
  n_objects : int;
  p_delegate : float;
  crash_every_rounds : int;  (* arm a crash every n-th round; 0 = never *)
  scrub_batch : int;  (* incremental scrubber batch riding the workload *)
  group_commit : int;
  audit : bool;
  backend_root : string option;
  archive_root : string option;  (* mirror the archive to disk *)
  forensic_dir : string option;
}

let default_config =
  {
    seed = 1L;
    rounds = 12;
    steps_per_round = 80;
    clients = 4;
    ops_per_txn = 6;
    n_objects = 48;
    p_delegate = 0.2;
    crash_every_rounds = 3;
    scrub_batch = 8;
    group_commit = 0;
    audit = true;
    backend_root = None;
    archive_root = None;
    forensic_dir = None;
  }

type outcome = {
  mutable rounds_run : int;
  mutable actions : int;
  mutable crashes : int;
  mutable recoveries : int;
  mutable injected_bitrot : int;
  mutable injected_lost : int;
  mutable injected_misdirected : int;
  mutable injected_archive_rot : int;
  mutable detected : int;  (* corruption the scrubber quarantined *)
  mutable healed : int;
  mutable unhealable : int;
  mutable scrub_checked : int;
  mutable archived : int;  (* WAL records copied into the archive *)
  mutable cold_restores : int;
  mutable checks : int;
  mutable failures : string list;
}

let fresh_outcome () =
  {
    rounds_run = 0;
    actions = 0;
    crashes = 0;
    recoveries = 0;
    injected_bitrot = 0;
    injected_lost = 0;
    injected_misdirected = 0;
    injected_archive_rot = 0;
    detected = 0;
    healed = 0;
    unhealable = 0;
    scrub_checked = 0;
    archived = 0;
    cold_restores = 0;
    checks = 0;
    failures = [];
  }

let ok o = o.failures = []

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>rounds=%d actions=%d crashes=%d recoveries=%d@ \
     injected: bitrot=%d lost=%d misdirected=%d archive_rot=%d@ \
     scrub: checked=%d detected=%d healed=%d unhealable=%d@ \
     archived=%d cold_restores=%d checks=%d failures=%d%a@]"
    o.rounds_run o.actions o.crashes o.recoveries o.injected_bitrot
    o.injected_lost o.injected_misdirected o.injected_archive_rot
    o.scrub_checked o.detected o.healed o.unhealable o.archived
    o.cold_restores o.checks
    (List.length o.failures) Storm.pp_failures o.failures

let merge a b =
  {
    rounds_run = a.rounds_run + b.rounds_run;
    actions = a.actions + b.actions;
    crashes = a.crashes + b.crashes;
    recoveries = a.recoveries + b.recoveries;
    injected_bitrot = a.injected_bitrot + b.injected_bitrot;
    injected_lost = a.injected_lost + b.injected_lost;
    injected_misdirected = a.injected_misdirected + b.injected_misdirected;
    injected_archive_rot = a.injected_archive_rot + b.injected_archive_rot;
    detected = a.detected + b.detected;
    healed = a.healed + b.healed;
    unhealable = a.unhealable + b.unhealable;
    scrub_checked = a.scrub_checked + b.scrub_checked;
    archived = a.archived + b.archived;
    cold_restores = a.cold_restores + b.cold_restores;
    checks = a.checks + b.checks;
    failures = b.failures @ a.failures;
  }

let fail o msg = o.failures <- msg :: o.failures

let archive_dir_of config ~tag =
  match config.archive_root with
  | None -> None
  | Some root ->
      let dir = Filename.concat root tag in
      Backend.remove_tree dir;
      Some dir

type client = {
  mutable xid : Xid.t option;
  mutable ops_left : int;
  mutable touched : int list;
}

let run ?(config = default_config) ?(impl = Config.Rh) () =
  let outcome = fresh_outcome () in
  let fault = Fault.create ~seed:config.seed () in
  let tag =
    Printf.sprintf "media-%s-%Ld"
      (match impl with
      | Config.Rh -> "rh"
      | Config.Eager -> "eager"
      | Config.Lazy -> "lazy")
      config.seed
  in
  let db =
    Driver.fresh_db ~fault
      ~backend:(Storm.fresh_backend config.backend_root ~tag)
      ~impl ~group_commit:config.group_commit ~audit:config.audit
      ~tracing:(config.forensic_dir <> None)
      ~n_objects:config.n_objects ()
  in
  let archive = Db.attach_archive ?dir:(archive_dir_of config ~tag) db in
  let scrubber = Scrubber.create ~batch:config.scrub_batch db in
  let rng = Prng.create (Int64.add config.seed 0xA5C11BL) in
  let clients =
    Array.init config.clients (fun _ ->
        { xid = None; ops_left = 0; touched = [] })
  in
  let ledger = Storm.Ledger.create () in
  (* Truncation reclaims old commit records, but a commit once durable
     is committed forever: accumulate the set across the storm instead
     of re-deriving it from whatever prefix the log still retains. *)
  let known_commits = ref Xid.Set.empty in
  let expected () =
    known_commits :=
      Xid.Set.union !known_commits
        (Storm.durable_commits (Db.log_store db));
    Storm.Ledger.state ledger ~n_objects:config.n_objects (fun x ->
        Xid.Set.mem x !known_commits)
  in
  let reset_clients () =
    Array.iter
      (fun c ->
        c.xid <- None;
        c.ops_left <- 0;
        c.touched <- [])
      clients
  in
  let other_active self =
    let cands = ref [] in
    Array.iteri
      (fun i c ->
        match c.xid with
        | Some x when i <> self -> cands := (i, x) :: !cands
        | _ -> ())
      clients;
    match !cands with
    | [] -> None
    | l -> Some (List.nth l (Prng.int rng (List.length l)))
  in
  let step self =
    let c = clients.(self) in
    match c.xid with
    | None ->
        let x = Db.begin_txn db in
        c.xid <- Some x;
        c.ops_left <- 1 + Prng.int rng config.ops_per_txn;
        c.touched <- []
    | Some x when c.ops_left > 0 -> (
        c.ops_left <- c.ops_left - 1;
        let delegate_now =
          c.touched <> [] && Prng.float rng 1.0 < config.p_delegate
        in
        match (if delegate_now then other_active self else None) with
        | Some (yi, y) ->
            let o =
              List.nth c.touched (Prng.int rng (List.length c.touched))
            in
            Db.delegate db ~from_:x ~to_:y (Oid.of_int o);
            Storm.Ledger.move ledger ~from_:x ~to_:y o;
            c.touched <- List.filter (fun o' -> o' <> o) c.touched;
            clients.(yi).touched <- o :: clients.(yi).touched
        | None ->
            let o = Prng.int rng config.n_objects in
            let d = 1 + Prng.int rng 9 in
            Db.add db x (Oid.of_int o) d;
            Storm.Ledger.add ledger x o d;
            if not (List.mem o c.touched) then c.touched <- o :: c.touched)
    | Some x ->
        if Prng.int rng 10 = 0 then Db.abort db x else Db.commit db x;
        c.xid <- None;
        c.touched <- []
  in
  (* Finish every open transaction so a state check compares committed
     state only — the ledger oracle knows nothing about in-flight adds. *)
  let settle () =
    Array.iter
      (fun c ->
        (match c.xid with
        | Some x -> if Prng.int rng 10 = 0 then Db.abort db x else Db.commit db x
        | None -> ());
        c.xid <- None;
        c.ops_left <- 0;
        c.touched <- [])
      clients
  in
  (* A scrub never counts as detection failure by itself; what the storm
     asserts after every full sweep is that nothing stayed quarantined —
     each corruption had an intact redundant source. *)
  let full_scrub ~label =
    let out = Db.scrub db in
    (match Db.quarantined db with
    | [] -> ()
    | q ->
        fail outcome
          (Printf.sprintf "%s: %d unhealable: %s" label (List.length q)
             (String.concat ","
                (List.map (fun (t, i) -> Printf.sprintf "%s/%d" t i) q))));
    out
  in
  let check_state ~label =
    Fault.set_enabled fault false;
    outcome.checks <- outcome.checks + 1;
    let want = expected () in
    let got =
      Array.init config.n_objects (fun i -> Db.peek db (Oid.of_int i))
    in
    if got <> want then
      fail outcome
        (Printf.sprintf "%s: state mismatch: got [%s] want [%s]" label
           (Storm.pp_arr got) (Storm.pp_arr want));
    (match Db.validate db with
    | Ok () -> ()
    | Error msg -> fail outcome (Printf.sprintf "%s: invariants: %s" label msg));
    Fault.set_enabled fault true
  in
  (* Crash handling: scrub {e before} recovery — a rotted durable record
     would otherwise kill the restart scan, and a lost write would
     survive as a stale checksum-valid page; both heal from the shadow /
     archive first, then ordinary restart recovery runs. *)
  (* The heal protocol is scrub-then-recover: corruption that lands
     {e during} the restart scan itself is outside any detector's reach,
     so pending media arms stay parked until recovery is done (they fire
     at the next ordinary I/O instead). *)
  let recover_quiet () =
    Fault.set_enabled fault false;
    Fun.protect
      ~finally:(fun () -> Fault.set_enabled fault true)
      (fun () -> Db.recover db)
  in
  let handle_crash ~label =
    outcome.crashes <- outcome.crashes + 1;
    Db.crash db;
    Fault.disarm_crash fault;
    ignore (full_scrub ~label:(label ^ " pre-recovery scrub"));
    (match recover_quiet () with
    | _ -> outcome.recoveries <- outcome.recoveries + 1
    | exception e ->
        fail outcome
          (Printf.sprintf "%s: recovery raised %s" label (Format.asprintf "%a" Errors.pp_exn e)));
    check_state ~label;
    reset_clients ()
  in
  (* seed the archive with an initial full backup so page heals always
     have a snapshot of last resort *)
  ignore (Db.backup_to_archive db);
  for round = 1 to config.rounds do
    outcome.rounds_run <- outcome.rounds_run + 1;
    let label = Printf.sprintf "%s round %d" tag round in
    (* arm one silent corruption at a near-future I/O point *)
    let ios = (Fault.stats fault).Fault.ios in
    let at = ios + 1 + Prng.int rng 40 in
    (match Prng.int rng 3 with
    | 0 -> Fault.arm_bitrot fault ~at
    | 1 -> Fault.arm_lost_write fault ~at
    | _ -> Fault.arm_misdirected_write fault ~at);
    if
      config.crash_every_rounds > 0
      && round mod config.crash_every_rounds = 0
    then Fault.arm_crash_in fault (10 + Prng.int rng 30);
    (* run the round's workload, the incremental scrubber riding along *)
    (try
       for i = 1 to config.steps_per_round do
         outcome.actions <- outcome.actions + 1;
         step (i mod config.clients);
         if i mod 8 = 0 then ignore (Scrubber.step scrubber)
       done;
       settle ()
     with Fault.Injected_crash _ -> handle_crash ~label);
    (* rot the archive's own media: one archived frame still covered by
       the retained live log (so a heal source exists) *)
    let low = Lsn.to_int (Log_store.truncated_below (Db.log_store db)) - 1 in
    let durable = Lsn.to_int (Log_store.durable (Db.log_store db)) in
    let hi = min (Db.archived_upto db) durable in
    if round mod 2 = 0 && hi > low then begin
      Archive.bitrot_wal archive ~idx:(low + Prng.int rng (hi - low));
      outcome.injected_archive_rot <- outcome.injected_archive_rot + 1
    end;
    (* full sweep: everything injected so far must come back healed *)
    ignore (full_scrub ~label);
    check_state ~label;
    (* exercise the governor's side of the contract: checkpoint and
       truncate — the archive pin must keep every unarchived or
       restore-critical record *)
    (* an armed crash that outlived the workload steps can fire here,
       nested into the maintenance work itself — a checkpoint or backup
       dying mid-flight is exactly the kind of history the storm wants *)
    (try
       if round mod 3 = 0 then begin
         Db.shutdown db;
         Db.checkpoint db;
         ignore (Db.truncate_log db)
       end;
       if round mod 4 = 0 then ignore (Db.backup_to_archive db)
     with Fault.Injected_crash _ ->
       handle_crash ~label:(label ^ " maintenance"))
  done;
  Fault.disarm_crash fault;
  (* settle in-flight work, take a final full backup, remember the
     committed state *)
  Db.crash db;
  ignore (full_scrub ~label:"final scrub");
  (match recover_quiet () with
  | _ -> outcome.recoveries <- outcome.recoveries + 1
  | exception e ->
      fail outcome
        (Printf.sprintf "final recovery raised %s" (Format.asprintf "%a" Errors.pp_exn e)));
  check_state ~label:"final";
  Fault.set_enabled fault false;
  ignore (Db.backup_to_archive db);
  let committed =
    Array.init config.n_objects (fun i -> Db.peek db (Oid.of_int i))
  in
  (* total media loss: both devices gone. A cold restore from the
     archive alone — reopened from its own files when mirrored — must
     reproduce the exact committed state. *)
  let db2 =
    Db.create
      ~backend:
        (Storm.fresh_backend config.backend_root ~tag:(tag ^ "-restored"))
      (Db.config db)
  in
  (* when the archive is mirrored to disk, restore from a {e cold open}
     of its files — nothing in-memory survives the "loss" *)
  let cold_archive =
    match config.archive_root with
    | Some root -> Archive.open_dir (Filename.concat root tag)
    | None -> archive
  in
  (match Db.restore_from_archive db2 cold_archive with
  | _ ->
      outcome.cold_restores <- outcome.cold_restores + 1;
      let got =
        Array.init config.n_objects (fun i -> Db.peek db2 (Oid.of_int i))
      in
      if got <> committed then
        fail outcome
          (Printf.sprintf "cold restore diverged: got [%s] want [%s]"
             (Storm.pp_arr got) (Storm.pp_arr committed));
      (match Db.validate db2 with
      | Ok () -> ()
      | Error msg -> fail outcome (Printf.sprintf "cold restore invariants: %s" msg));
      (match Db.audit db2 with
      | [] -> ()
      | vs ->
          fail outcome
            (Printf.sprintf "cold restore audit: %s" (String.concat "; " vs)))
  | exception e ->
      fail outcome
        (Printf.sprintf "cold restore raised %s" (Format.asprintf "%a" Errors.pp_exn e)));
  (* absorb the tallies *)
  let s = Fault.stats fault in
  outcome.injected_bitrot <- outcome.injected_bitrot + s.Fault.bitrots;
  outcome.injected_lost <- outcome.injected_lost + s.Fault.lost_writes;
  outcome.injected_misdirected <-
    outcome.injected_misdirected + s.Fault.misdirected_writes;
  let checked, detected, healed, unhealable = Db.media_counters db in
  outcome.scrub_checked <- outcome.scrub_checked + checked;
  outcome.detected <- outcome.detected + detected;
  outcome.healed <- outcome.healed + healed;
  outcome.unhealable <- outcome.unhealable + unhealable;
  outcome.archived <- outcome.archived + Db.archived_upto db;
  if outcome.unhealable > 0 then
    fail outcome
      (Printf.sprintf "%d corruptions had no intact source" outcome.unhealable);
  Storm.dump ~forensic_dir:config.forensic_dir ~seed:config.seed ~kind:"media"
    ~tag ~fail_before:0 ~failures:outcome.failures db;
  Storm.close_and_remove db2;
  Storm.close_and_remove db;
  (match config.archive_root with
  | Some root -> Backend.remove_tree (Filename.concat root tag)
  | None -> ());
  outcome

(* Sweep: several seeds on one engine, merged. *)
let run_seeds ?(config = default_config) ?(impl = Config.Rh) ~seeds () =
  let out = ref (fresh_outcome ()) in
  for s = 1 to seeds do
    let config = { config with seed = Int64.add config.seed (Int64.of_int s) } in
    out := merge !out (run ~config ~impl ())
  done;
  !out
