open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Prng = Ariesrh_util.Prng
module Governor = Ariesrh_maintenance.Governor
module Sharded = Ariesrh_shard.Sharded

type config = {
  seed : int64;
  impl : Config.delegation_impl;
  load : Storm.load;
  steps : int;
  capacity_bytes : int;
  crash_every : int;
  recovery_crash_depth : int;
  recovery_crash_gap : int;
  squeeze_every : int;
  squeeze_keep : float;
  max_squeezes : int;
  governor : Governor.config;
  backoff_base : int;
  max_backoff : int;
  max_retries : int;
  group_commit : int;
  record_cache : int;
  audit : bool;
  time_travel : bool;
  forensic_dir : string option;
  backend_root : string option;
}

let default_config =
  {
    seed = 1L;
    impl = Config.Rh;
    load = { clients = 4; ops_per_txn = 6; n_objects = 48; p_delegate = 0.25;
             p_read = 0.; p_op = 0. };
    steps = 800;
    capacity_bytes = 6144;
    crash_every = 40;
    recovery_crash_depth = 1;
    recovery_crash_gap = 3;
    squeeze_every = 120;
    squeeze_keep = 0.9;
    max_squeezes = 3;
    governor = Governor.default_config;
    backoff_base = 4;
    max_backoff = 64;
    max_retries = 10;
    group_commit = 0;
    record_cache = Config.default.Config.record_cache;
    audit = true;
    time_travel = true;
    forensic_dir = None;
    backend_root = None;
  }

(* The storm core's settings: the shared fields above, and this storm's
   fixed fault plan — torn log tails on crash, no torn pages, one
   shard. *)
let storm_config (c : config) =
  {
    Storm.seed = c.seed;
    tear_data_every = 0;
    tear_data_on_crash = false;
    tear_log_on_crash = true;
    crash_step = 1;
    recovery_crash_depth = c.recovery_crash_depth;
    recovery_crash_gap = c.recovery_crash_gap;
    group_commit = c.group_commit;
    record_cache = c.record_cache;
    audit = c.audit;
    time_travel = c.time_travel;
    forensic_dir = c.forensic_dir;
    backend_root = c.backend_root;
    shards = 1;
  }

type outcome = {
  storm : Storm.outcome;
  clients : Storm.tally;
  squeezes : int;
  drain_commits : int;
  governor : Governor.stats;
  reservations : int;
  admission_rejects : int;
  peak_pressure : float;
}

let ok o = Storm.ok o.storm

let pp_outcome ppf o =
  let s = o.storm and c = o.clients and g = o.governor in
  Format.fprintf ppf
    "@[<v>steps=%d committed=%d aborted=%d delegations=%d@ overloads=%d \
     log_fulls=%d backoffs=%d abandoned=%d victimized=%d@ crashes=%d \
     nested=%d recoveries=%d squeezes=%d checks=%d drain_commits=%d@ \
     governor: ticks=%d checkpoints=%d truncations=%d records_truncated=%d \
     victims=%d@ log: reservations=%d admission_rejects=%d \
     peak_pressure=%.2f@ tt_reads=%d tt_refused=%d failures=%d%a@]"
    s.actions c.committed c.aborted c.delegations c.overloads c.log_fulls
    c.backoffs c.abandoned c.victimized s.crashes s.nested_crashes
    s.recoveries o.squeezes s.checks o.drain_commits g.Governor.ticks
    g.Governor.checkpoints g.Governor.truncations g.Governor.records_truncated
    g.Governor.victims o.reservations o.admission_rejects o.peak_pressure
    s.tt_reads s.tt_refused (List.length s.failures) Storm.pp_failures
    s.failures

let run ?(config = default_config) () =
  let c = storm_config config in
  let outcome = Storm.fresh_outcome () in
  Storm.with_engine c ~impl:config.impl
    ~log_capacity_bytes:config.capacity_bytes ~tag:"pressure-storm" ~salt:0
    ~n_objects:config.load.n_objects
  @@ fun fault sh ->
  let db = Sharded.db sh 0 in
  let log = Db.log_store db in
  let gov = Governor.create ~config:config.governor db in
  let clients =
    Storm.Clients.create outcome sh ~load:config.load
      ~rng:(Prng.create (Int64.add c.seed 1031L))
      ~backoff_base:config.backoff_base ~max_backoff:config.max_backoff
      ~max_retries:config.max_retries
  in
  let committed_set = ref Xid.Set.empty in
  (* A commit enters the set exactly when its commit record hardens: the
     hook fires synchronously inside [Db.commit] without group commit,
     and at the shared (or any covering) force with it — always before
     the governor could truncate the record away. Commits whose group
     dies with a crash never fire and roll back, so the set stays the
     exact durable-commit oracle either way. *)
  Db.set_commit_durable_hook db
    (Some (fun x -> committed_set := Xid.Set.add x !committed_set));
  (* Transactions whose commit records are durable. Unlike the crash
     storm, the governor truncates the log while the storm runs, so
     commit records disappear; the set accumulates monotonically (a scan
     before every restart + the hook above) instead of being re-derived
     from the log each time. *)
  let absorb_commits () =
    committed_set := Xid.Set.union !committed_set (Storm.durable_commits log)
  in
  let expected () =
    Storm.Clients.state clients (fun fx ->
        Xid.Set.mem fx.Sharded.txn !committed_set)
  in
  let peak_pressure = ref 0. in
  let now = ref 0 in
  let fatal = ref false in
  (* crash, restart under fire (absorbing the durable commits before
     each restart: a nested crash can harden more), the check battery
     and the time-travel reader; a dump of whatever failed *)
  let restart_and_check ?failed ~label ~tag () =
    let fail_before = List.length outcome.failures in
    let up =
      Storm.restart_and_check c outcome ~label ?failed
        ~restart:(fun o sh ->
          absorb_commits ();
          Storm.offline o sh)
        fault sh
        ~expected:(fun () ->
          absorb_commits ();
          expected ())
    in
    if up then
      Storm.time_travel c outcome ~label ~sample:(Storm.strided ~limit:6)
        ~expected_at:(Storm.Clients.state clients) fault sh;
    Storm.dump_engine c outcome ~fail_before ~kind:"pressure" ~tag
      ~expected:(expected ()) fault sh;
    up
  in
  let handle_crash () =
    outcome.crashes <- outcome.crashes + 1;
    let label = Printf.sprintf "crash #%d" outcome.crashes in
    let tag = Printf.sprintf "crash%d" outcome.crashes in
    if restart_and_check ~label ~tag () then begin
      Governor.note_crash gov;
      Storm.Clients.reset clients;
      if config.crash_every > 0 then Fault.arm_crash_in fault config.crash_every
    end
    else (* the db never came back up — nothing after this is meaningful *)
      fatal := true
  in
  let maybe_arm_squeeze () =
    if
      config.squeeze_every > 0
      && (Fault.stats fault).Fault.squeezes < config.max_squeezes
      && not (Fault.squeeze_armed fault)
    then
      Fault.arm_squeeze_in fault ~appends:config.squeeze_every
        ~keep:config.squeeze_keep
  in
  let run_steps ~label ~drain n =
    let i = ref 0 in
    let drained () = drain && Storm.Clients.active clients = [] in
    while (not !fatal) && !i < n && not (drained ()) do
      incr i;
      incr now;
      outcome.actions <- outcome.actions + 1;
      maybe_arm_squeeze ();
      (try
         Governor.tick gov;
         Storm.Clients.step clients ~allow_begin:(not drain) ~now:!now
           (!now mod config.load.clients);
         peak_pressure := Float.max !peak_pressure (Db.log_pressure db)
       with
      | Fault.Injected_crash _ -> handle_crash ()
      | Log_store.Log_full _ ->
          (* every legitimate Log_full is handled by the clients; one
             escaping to here means reserved-space accounting is broken *)
          Storm.fail outcome
            (Printf.sprintf "%s step %d: unhandled Log_full" label !now);
          fatal := true
      | e ->
          Storm.fail outcome
            (Format.asprintf "%s step %d: unhandled %a" label !now
               Errors.pp_exn e);
          fatal := true)
    done
  in
  let tally = Storm.Clients.tally clients in
  if config.crash_every > 0 then Fault.arm_crash_in fault config.crash_every;
  run_steps ~label:"storm" ~drain:false config.steps;
  (* drain: crashes disarmed, governor still running — surviving work
     must be able to commit through backoff-retry *)
  Fault.disarm_crash fault;
  let before_drain = tally.committed in
  run_steps ~label:"drain" ~drain:true
    (config.steps + (100 * config.load.clients));
  let drain_commits = tally.committed - before_drain in
  List.iter
    (fun x ->
      if Sharded.is_active sh x then
        Storm.fail outcome
          (Format.asprintf "drain left %a unresolved" Sharded.pp_xid x))
    (Storm.Clients.active clients);
  (* final clean crash + restart + reconciliation *)
  if not !fatal then
    ignore
      (restart_and_check ~label:"final" ~failed:"final restart" ~tag:"final"
         ());
  let ls = Log_store.stats log in
  {
    storm = outcome;
    clients = tally;
    squeezes = (Fault.stats fault).Fault.squeezes;
    drain_commits;
    governor = Governor.stats gov;
    reservations = ls.Ariesrh_wal.Log_stats.reservations;
    admission_rejects = ls.Ariesrh_wal.Log_stats.admission_rejects;
    peak_pressure = !peak_pressure;
  }
