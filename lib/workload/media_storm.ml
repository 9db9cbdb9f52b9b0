open Ariesrh_types
open Ariesrh_core
open Ariesrh_storage
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Prng = Ariesrh_util.Prng
module Scrubber = Ariesrh_maintenance.Scrubber
module Sharded = Ariesrh_shard.Sharded

(* The media-storm: a seeded workload interleaved with silent-corruption
   injections (bitrot, lost writes, misdirected writes, archive rot) and
   crashes, with the scrubber healing as it goes. Every round asserts
   that all corruption found was healed and the recovered state matches
   the oracle; the final phase destroys {e all} media and proves a cold
   [restore_from_archive] rebuilds the exact committed state. *)

type config = {
  seed : int64;
  load : Storm.load;
  rounds : int;  (* corruption/crash rounds *)
  steps_per_round : int;
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
    load = { clients = 4; ops_per_txn = 6; n_objects = 48; p_delegate = 0.2;
             p_read = 0.; p_op = 0. };
    rounds = 12;
    steps_per_round = 80;
    crash_every_rounds = 3;
    scrub_batch = 8;
    group_commit = 0;
    audit = true;
    backend_root = None;
    archive_root = None;
    forensic_dir = None;
  }

(* The storm core's settings: the shared fields above, and this storm's
   fixed fault plan — the corruption comes from the media injections
   alone (no torn pages or log tails, no crash during recovery), no
   time-travel reader, one shard. *)
let storm_config (c : config) =
  {
    Storm.seed = c.seed;
    tear_data_every = 0;
    tear_data_on_crash = false;
    tear_log_on_crash = false;
    crash_step = 1;
    recovery_crash_depth = 0;
    recovery_crash_gap = 0;
    group_commit = c.group_commit;
    record_cache = Config.default.Config.record_cache;
    audit = c.audit;
    time_travel = false;
    forensic_dir = c.forensic_dir;
    backend_root = c.backend_root;
    shards = 1;
  }

type outcome = {
  storm : Storm.outcome;
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
}

let fresh_outcome () =
  {
    storm = Storm.fresh_outcome ();
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
  }

let ok o = Storm.ok o.storm

let pp_outcome ppf o =
  let s = o.storm in
  Format.fprintf ppf
    "@[<v>rounds=%d actions=%d crashes=%d recoveries=%d@ \
     injected: bitrot=%d lost=%d misdirected=%d archive_rot=%d@ \
     scrub: checked=%d detected=%d healed=%d unhealable=%d@ \
     archived=%d cold_restores=%d checks=%d failures=%d%a@]"
    s.runs s.actions s.crashes s.recoveries o.injected_bitrot o.injected_lost
    o.injected_misdirected o.injected_archive_rot o.scrub_checked o.detected
    o.healed o.unhealable o.archived o.cold_restores s.checks
    (List.length s.failures) Storm.pp_failures s.failures

let archive_dir_of config ~tag =
  match config.archive_root with
  | None -> None
  | Some root ->
      let dir = Filename.concat root tag in
      Backend.remove_tree dir;
      Some dir

(* One storm, its counters added into [o]. *)
let run_into o ~(config : config) ~impl =
  let c = storm_config config in
  let outcome = o.storm in
  let fail_before = List.length outcome.failures in
  let fail = Storm.fail outcome in
  let n_objects = config.load.n_objects in
  let tag = Printf.sprintf "media-%s-%Ld" (Forensics.engine_name impl) c.seed in
  Storm.with_engine c ~impl ~tag ~salt:0 ~n_objects @@ fun fault sh ->
  let db = Sharded.db sh 0 in
  let archive = Db.attach_archive ?dir:(archive_dir_of config ~tag) db in
  let scrubber = Scrubber.create ~batch:config.scrub_batch db in
  let rng = Prng.create (Int64.add c.seed 0xA5C11BL) in
  let clients = Storm.Clients.create outcome sh ~load:config.load ~rng in
  (* Truncation reclaims old commit records, but a commit once durable
     is committed forever: accumulate the set across the storm instead
     of re-deriving it from whatever prefix the log still retains. *)
  let known_commits = ref Xid.Set.empty in
  let expected () =
    known_commits :=
      Xid.Set.union !known_commits
        (Storm.durable_commits (Db.log_store db));
    Storm.Clients.state clients (fun fx ->
        Xid.Set.mem fx.Sharded.txn !known_commits)
  in
  (* A scrub never counts as detection failure by itself; what the storm
     asserts after every full sweep is that nothing stayed quarantined —
     each corruption had an intact redundant source. *)
  let full_scrub ~label =
    ignore (Db.scrub db);
    match Db.quarantined db with
    | [] -> ()
    | q ->
        fail
          (Printf.sprintf "%s: %d unhealable: %s" label (List.length q)
             (String.concat ","
                (List.map (fun (t, i) -> Printf.sprintf "%s/%d" t i) q)))
  in
  (* Crash handling: scrub {e before} recovery — a rotted durable record
     would otherwise kill the restart scan, and a lost write would
     survive as a stale checksum-valid page; both heal from the shadow /
     archive first, then ordinary restart recovery runs. The heal
     protocol is scrub-then-recover: corruption that lands {e during}
     the restart scan itself is outside any detector's reach, so pending
     media arms stay parked until recovery is done (they fire at the
     next ordinary I/O instead). The check compares committed state
     only, without the idempotence restart. *)
  let restart_and_check ~label =
    ignore
      (Storm.restart_and_check c outcome ~label ~idempotence:false fault sh
         ~expected ~restart:(fun o sh ->
           full_scrub ~label:(label ^ " pre-recovery scrub");
           Fault.set_enabled fault false;
           Fun.protect
             ~finally:(fun () -> Fault.set_enabled fault true)
             (fun () -> Storm.offline o sh)))
  in
  let handle_crash ~label =
    outcome.crashes <- outcome.crashes + 1;
    restart_and_check ~label;
    Storm.Clients.reset clients
  in
  (* seed the archive with an initial full backup so page heals always
     have a snapshot of last resort *)
  ignore (Db.backup_to_archive db);
  for round = 1 to config.rounds do
    outcome.runs <- outcome.runs + 1;
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
    (* run the round's workload, the incremental scrubber riding along;
       settle it so the check compares committed state only *)
    (try
       for i = 1 to config.steps_per_round do
         outcome.actions <- outcome.actions + 1;
         Storm.Clients.step clients ~now:i (i mod config.load.clients);
         if i mod 8 = 0 then ignore (Scrubber.step scrubber)
       done;
       Storm.Clients.settle clients ~now:config.steps_per_round
     with Fault.Injected_crash _ -> handle_crash ~label);
    (* rot the archive's own media: one archived frame still covered by
       the retained live log, whose live copy is intact (so a heal source
       exists). A frame whose live copy an armed bitrot already rotted is
       drawn again; a round without that collision draws exactly once. *)
    let live = Db.log_store db in
    let low = Lsn.to_int (Log_store.truncated_below live) - 1 in
    let durable = Lsn.to_int (Log_store.durable live) in
    let hi = min (Db.archived_upto db) durable in
    let intact idx = Log_store.record_intact live ~idx in
    let rec draw () =
      let idx = low + Prng.int rng (hi - low) in
      if intact idx then Some idx
      else if List.exists intact (List.init (hi - low) (( + ) low)) then draw ()
      else None
    in
    if round mod 2 = 0 && hi > low then
      Option.iter
        (fun idx ->
          Archive.bitrot_wal archive ~idx;
          o.injected_archive_rot <- o.injected_archive_rot + 1)
        (draw ());
    (* full sweep: everything injected so far must come back healed *)
    full_scrub ~label;
    Storm.check outcome ~label ~idempotence:false fault sh (expected ());
    (* exercise the governor's side of the contract: checkpoint and
       truncate — the archive pin must keep every unarchived or
       restore-critical record *)
    (* an armed crash that outlived the workload steps can fire here,
       nested into the maintenance work itself — a checkpoint or backup
       dying mid-flight is exactly the kind of history the storm wants *)
    (try
       if round mod 3 = 0 then begin
         Sharded.shutdown sh;
         Sharded.checkpoint sh;
         ignore (Sharded.truncate_log sh)
       end;
       if round mod 4 = 0 then ignore (Db.backup_to_archive db)
     with Fault.Injected_crash _ ->
       handle_crash ~label:(label ^ " maintenance"))
  done;
  Fault.disarm_crash fault;
  (* settle in-flight work, take a final full backup, remember the
     committed state *)
  restart_and_check ~label:"final";
  Fault.set_enabled fault false;
  ignore (Db.backup_to_archive db);
  let committed = Sharded.peek_all sh in
  (* total media loss: both devices gone. A cold restore from the
     archive alone — reopened from its own files when mirrored — must
     reproduce the exact committed state on a fresh engine. *)
  let restored = Sharded.create (Sharded.config sh) in
  let db2 = Sharded.db restored 0 in
  let cold_archive =
    match config.archive_root with
    | Some root -> Archive.open_dir (Filename.concat root tag)
    | None -> archive
  in
  (match Db.restore_from_archive db2 cold_archive with
  | _ ->
      o.cold_restores <- o.cold_restores + 1;
      let got = Sharded.peek_all restored in
      if got <> committed then
        fail
          (Printf.sprintf "cold restore diverged: got [%s] want [%s]"
             (Storm.pp_arr got) (Storm.pp_arr committed));
      (match Db.validate db2 with
      | Ok () -> ()
      | Error msg -> fail (Printf.sprintf "cold restore invariants: %s" msg));
      (match Db.audit db2 with
      | [] -> ()
      | vs ->
          fail
            (Printf.sprintf "cold restore audit: %s" (String.concat "; " vs)))
  | exception e ->
      fail
        (Printf.sprintf "cold restore raised %s"
           (Format.asprintf "%a" Errors.pp_exn e)));
  (* absorb the tallies *)
  let s = Fault.stats fault in
  o.injected_bitrot <- o.injected_bitrot + s.Fault.bitrots;
  o.injected_lost <- o.injected_lost + s.Fault.lost_writes;
  o.injected_misdirected <- o.injected_misdirected + s.Fault.misdirected_writes;
  let checked, detected, healed, unhealable = Db.media_counters db in
  o.scrub_checked <- o.scrub_checked + checked;
  o.detected <- o.detected + detected;
  o.healed <- o.healed + healed;
  o.unhealable <- o.unhealable + unhealable;
  o.archived <- o.archived + Db.archived_upto db;
  if unhealable > 0 then
    fail (Printf.sprintf "%d corruptions had no intact source" unhealable);
  Storm.Clients.expect_no_refusals clients ~label:tag;
  Storm.dump_engine c outcome ~fail_before ~kind:"media" ~tag fault sh;
  Sharded.close restored;
  Option.iter
    (fun root -> Backend.remove_tree (Filename.concat root tag))
    config.archive_root

let run ?(config = default_config) ?(impl = Config.Rh) () =
  let o = fresh_outcome () in
  run_into o ~config ~impl;
  o

(* Sweep: several seeds on one engine, counters summed. *)
let run_seeds ?(config = default_config) ?(impl = Config.Rh) ~seeds () =
  let o = fresh_outcome () in
  for s = 1 to seeds do
    run_into o
      ~config:{ config with seed = Int64.add config.seed (Int64.of_int s) }
      ~impl
  done;
  o
