open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Prng = Ariesrh_util.Prng
module Governor = Ariesrh_maintenance.Governor
module Temporal = Ariesrh_temporal.Temporal

type config = {
  seed : int64;
  impl : Config.delegation_impl;
  clients : int;
  steps : int;
  ops_per_txn : int;
  n_objects : int;
  p_delegate : float;
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
    clients = 4;
    steps = 800;
    ops_per_txn = 6;
    n_objects = 48;
    p_delegate = 0.25;
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

type outcome = {
  mutable steps_run : int;
  mutable committed : int;
  mutable aborted : int;
  mutable delegations : int;
  mutable overloads : int;
  mutable log_fulls : int;
  mutable backoffs : int;
  mutable abandoned : int;
  mutable victimized : int;
  mutable crashes : int;
  mutable nested_crashes : int;
  mutable recoveries : int;
  mutable squeezes : int;
  mutable checks : int;
  mutable drain_commits : int;
  mutable gov_ticks : int;
  mutable gov_checkpoints : int;
  mutable gov_truncations : int;
  mutable gov_records_truncated : int;
  mutable gov_victims : int;
  mutable reservations : int;
  mutable admission_rejects : int;
  mutable peak_pressure : float;
  mutable tt_reads : int;
  mutable tt_refused : int;
  mutable failures : string list;
}

let fresh_outcome () =
  {
    steps_run = 0;
    committed = 0;
    aborted = 0;
    delegations = 0;
    overloads = 0;
    log_fulls = 0;
    backoffs = 0;
    abandoned = 0;
    victimized = 0;
    crashes = 0;
    nested_crashes = 0;
    recoveries = 0;
    squeezes = 0;
    checks = 0;
    drain_commits = 0;
    gov_ticks = 0;
    gov_checkpoints = 0;
    gov_truncations = 0;
    gov_records_truncated = 0;
    gov_victims = 0;
    reservations = 0;
    admission_rejects = 0;
    peak_pressure = 0.;
    tt_reads = 0;
    tt_refused = 0;
    failures = [];
  }

let ok o = o.failures = []
let fail o msg = o.failures <- msg :: o.failures

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>steps=%d committed=%d aborted=%d delegations=%d@ overloads=%d \
     log_fulls=%d backoffs=%d abandoned=%d victimized=%d@ crashes=%d \
     nested=%d recoveries=%d squeezes=%d checks=%d drain_commits=%d@ \
     governor: ticks=%d checkpoints=%d truncations=%d records_truncated=%d \
     victims=%d@ log: reservations=%d admission_rejects=%d \
     peak_pressure=%.2f@ tt_reads=%d tt_refused=%d failures=%d%a@]"
    o.steps_run o.committed o.aborted o.delegations o.overloads o.log_fulls
    o.backoffs o.abandoned o.victimized o.crashes o.nested_crashes
    o.recoveries o.squeezes o.checks o.drain_commits o.gov_ticks
    o.gov_checkpoints o.gov_truncations o.gov_records_truncated o.gov_victims
    o.reservations o.admission_rejects o.peak_pressure o.tt_reads o.tt_refused
    (List.length o.failures) Storm.pp_failures o.failures

type client = {
  mutable xid : Xid.t option;
  mutable ops_left : int;
  mutable touched : int list;
  mutable backoff_until : int;
  mutable attempts : int;
}

let run ?(config = default_config) () =
  let outcome = fresh_outcome () in
  let fault = Fault.create ~seed:config.seed () in
  Fault.set_tear_log_on_crash fault true;
  let db =
    Db.create ~fault
      ~backend:(Storm.fresh_backend config.backend_root ~tag:"pressure-storm")
      ~tracing:(config.forensic_dir <> None)
      (Config.make ~n_objects:config.n_objects ~objects_per_page:8
         ~buffer_capacity:(max 4 (config.n_objects / 32))
         ~impl:config.impl ~locking:true
         ~log_capacity_bytes:config.capacity_bytes
         ~group_commit:config.group_commit ~record_cache:config.record_cache
         ~audit:config.audit ())
  in
  let log = Db.log_store db in
  let gov = Governor.create ~config:config.governor db in
  let rng = Prng.create (Int64.add config.seed 1031L) in
  let clients =
    Array.init config.clients (fun _ ->
        { xid = None; ops_left = 0; touched = []; backoff_until = 0;
          attempts = 0 })
  in
  let ledger = Storm.Ledger.create () in
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
     at every crash + the hook above) instead of being re-derived from
     the log each time. *)
  let absorb_commits () =
    committed_set := Xid.Set.union !committed_set (Storm.durable_commits log)
  in
  let expected () =
    Storm.Ledger.state ledger ~n_objects:config.n_objects (fun x ->
        Xid.Set.mem x !committed_set)
  in
  let note_pressure () =
    let p = Db.log_pressure db in
    if p > outcome.peak_pressure then outcome.peak_pressure <- p
  in
  let now = ref 0 in
  (* bounded deterministic retry, as in [Sim] *)
  let backoff c =
    c.attempts <- c.attempts + 1;
    if c.attempts > config.max_retries then begin
      outcome.abandoned <- outcome.abandoned + 1;
      c.attempts <- 0
    end
    else begin
      outcome.backoffs <- outcome.backoffs + 1;
      c.backoff_until <-
        !now
        + min config.max_backoff
            (config.backoff_base * (1 lsl min 16 (c.attempts - 1)))
    end
  in
  (* rollback must never die of log pressure: a [Log_full] out of abort
     is precisely the storm's failure condition *)
  let abort_checked x =
    match Db.abort db x with
    | () -> outcome.aborted <- outcome.aborted + 1
    | exception Log_store.Log_full _ ->
        fail outcome
          (Printf.sprintf "step %d: rollback of %s raised Log_full" !now
             (Format.asprintf "%a" Xid.pp x))
    | exception (Errors.No_such_txn _ | Errors.Txn_not_active _) ->
        outcome.victimized <- outcome.victimized + 1
  in
  let drop_txn c = c.xid <- None; c.touched <- [] in
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
  let step ~allow_begin self =
    let c = clients.(self) in
    if !now >= c.backoff_until then
      match c.xid with
      | None when not allow_begin -> ()
      | None -> (
          match Db.begin_txn db with
          | x ->
              c.xid <- Some x;
              c.ops_left <- 1 + Prng.int rng config.ops_per_txn;
              c.touched <- []
          | exception Errors.Overloaded _ ->
              outcome.overloads <- outcome.overloads + 1;
              backoff c
          | exception Log_store.Log_full _ ->
              outcome.log_fulls <- outcome.log_fulls + 1;
              backoff c)
      | Some x when c.ops_left > 0 -> (
          c.ops_left <- c.ops_left - 1;
          let delegate_now =
            c.touched <> [] && Prng.float rng 1.0 < config.p_delegate
          in
          match (if delegate_now then other_active self else None) with
          | Some (yi, y) -> (
              let o =
                List.nth c.touched (Prng.int rng (List.length c.touched))
              in
              match Db.delegate db ~from_:x ~to_:y (Oid.of_int o) with
              | () ->
                  outcome.delegations <- outcome.delegations + 1;
                  Storm.Ledger.move ledger ~from_:x ~to_:y o;
                  c.touched <- List.filter (fun o' -> o' <> o) c.touched;
                  clients.(yi).touched <- o :: clients.(yi).touched
              | exception Errors.Overloaded _ ->
                  (* optional work refused under backpressure: keep the
                     responsibility and move on *)
                  outcome.overloads <- outcome.overloads + 1
              | exception Log_store.Log_full _ ->
                  outcome.log_fulls <- outcome.log_fulls + 1
              | exception (Errors.No_such_txn _ | Errors.Txn_not_active _) ->
                  (* this txn or the target was victimized *)
                  outcome.victimized <- outcome.victimized + 1;
                  if not (Db.is_active db x) then drop_txn c;
                  backoff c)
          | None -> (
              let o = Prng.int rng config.n_objects in
              let d = 1 + Prng.int rng 9 in
              match Db.add db x (Oid.of_int o) d with
              | () ->
                  Storm.Ledger.add ledger x o d;
                  if not (List.mem o c.touched) then c.touched <- o :: c.touched
              | exception Log_store.Log_full _ ->
                  outcome.log_fulls <- outcome.log_fulls + 1;
                  abort_checked x;
                  drop_txn c;
                  backoff c
              | exception (Errors.No_such_txn _ | Errors.Txn_not_active _) ->
                  outcome.victimized <- outcome.victimized + 1;
                  drop_txn c;
                  backoff c))
      | Some x -> (
          match
            if Prng.int rng 10 = 0 then `Aborted (abort_checked x)
            else `Committed (Db.commit db x)
          with
          | `Committed () ->
              outcome.committed <- outcome.committed + 1;
              c.attempts <- 0;
              drop_txn c
          | `Aborted () -> drop_txn c
          | exception (Errors.No_such_txn _ | Errors.Txn_not_active _) ->
              outcome.victimized <- outcome.victimized + 1;
              drop_txn c;
              backoff c)
  in
  let reset_clients () =
    Array.iter
      (fun c ->
        c.xid <- None;
        c.ops_left <- 0;
        c.touched <- [];
        c.backoff_until <- 0;
        c.attempts <- 0)
      clients
  in
  (* restart under continued fault injection, with nested re-crashes *)
  let recover_until_stable () =
    let rec go depth =
      if depth < config.recovery_crash_depth then
        Fault.arm_crash_in fault config.recovery_crash_gap
      else Fault.disarm_crash fault;
      match Db.recover db with
      | _report ->
          Fault.disarm_crash fault;
          outcome.recoveries <- outcome.recoveries + 1;
          Ok ()
      | exception Fault.Injected_crash _
        when depth <= config.recovery_crash_depth ->
          outcome.nested_crashes <- outcome.nested_crashes + 1;
          Db.crash db;
          absorb_commits ();
          go (depth + 1)
      | exception e ->
          (* restart must survive a bounded log: Log_full (or anything
             else) escaping recovery fails the storm *)
          Error (Printexc.to_string e)
    in
    go 0
  in
  (* Analytic time-travel readers over the pressure-governed log. Two
     regimes, decided by {!Temporal.coverage}: while the governor has
     not truncated yet, every [Temporal.snapshot_at] at a durable commit
     LSN must equal the responsibility ledger filtered by commit-LSN
     (same soundness argument as the crash storm: a ledger entry's
     holder at L either committed at or below L on both sides, or
     delegated onward above L and is excluded on both sides). Once the
     governor truncates — no archive is ever attached here — every read
     must refuse with the typed [History_unavailable], never return a
     silently partial reconstruction. Caller has faults gated off. *)
  let time_travel_check ~label =
    match Temporal.coverage db with
    | exception e ->
        fail outcome
          (Printf.sprintf "%s: tt coverage raised %s" label
             (Printexc.to_string e))
    | cov when Lsn.compare cov.Temporal.from_ Lsn.first > 0 ->
        List.iter
          (fun l ->
            outcome.tt_reads <- outcome.tt_reads + 1;
            match Temporal.snapshot_at db l with
            | (_ : int array) ->
                fail outcome
                  (Printf.sprintf
                     "%s: tt read at %s answered despite truncated \
                      unbridged history"
                     label
                     (Format.asprintf "%a" Lsn.pp l))
            | exception Errors.History_unavailable _ ->
                outcome.tt_refused <- outcome.tt_refused + 1
            | exception e ->
                fail outcome
                  (Printf.sprintf "%s: tt read at %s raised %s" label
                     (Format.asprintf "%a" Lsn.pp l)
                     (Printexc.to_string e)))
          [ Lsn.first; cov.Temporal.upto ]
    | _ ->
        let cps = Temporal.commit_points db in
        let commit_lsn = Xid.Tbl.create 64 in
        List.iter
          (fun (l, x) ->
            if not (Xid.Tbl.mem commit_lsn x) then Xid.Tbl.add commit_lsn x l)
          cps;
        let expected_at l =
          Storm.Ledger.state ledger ~n_objects:config.n_objects (fun x ->
              match Xid.Tbl.find_opt commit_lsn x with
              | Some cl -> Lsn.compare cl l <= 0
              | None -> false)
        in
        let n = List.length cps in
        let limit = 6 in
        let stride = if n <= limit then 1 else (n + limit - 1) / limit in
        List.iteri
          (fun i (l, _) ->
            if i mod stride = 0 || i = n - 1 then begin
              outcome.tt_reads <- outcome.tt_reads + 1;
              let want = expected_at l in
              match Temporal.snapshot_at db l with
              | got ->
                  if got <> want then
                    fail outcome
                      (Printf.sprintf
                         "%s: tt state at %s: got [%s] want [%s]" label
                         (Format.asprintf "%a" Lsn.pp l)
                         (Storm.pp_arr got) (Storm.pp_arr want))
              | exception e ->
                  fail outcome
                    (Printf.sprintf "%s: tt read at %s raised %s" label
                       (Format.asprintf "%a" Lsn.pp l)
                       (Printexc.to_string e))
            end)
          cps
  in
  let check_state label =
    Fault.set_enabled fault false;
    outcome.checks <- outcome.checks + 1;
    let want = expected () in
    let peek () =
      Array.init config.n_objects (fun i -> Db.peek db (Oid.of_int i))
    in
    let got = peek () in
    if got <> want then
      fail outcome
        (Printf.sprintf "%s: state mismatch: got [%s] want [%s]" label
           (Storm.pp_arr got) (Storm.pp_arr want));
    (match Db.validate db with
    | Ok () -> ()
    | Error msg -> fail outcome (Printf.sprintf "%s: invariants: %s" label msg));
    (match Db.crash db; Db.recover db with
    | _ ->
        outcome.recoveries <- outcome.recoveries + 1;
        if peek () <> want then
          fail outcome (Printf.sprintf "%s: restart not idempotent" label)
    | exception e ->
        fail outcome
          (Printf.sprintf "%s: re-restart raised %s" label
             (Printexc.to_string e)));
    if config.time_travel then time_travel_check ~label;
    Fault.set_enabled fault true
  in
  let maybe_dump ~fail_before ~tag =
    Storm.dump ~fault ~forensic_dir:config.forensic_dir ~seed:config.seed
      ~kind:"pressure" ~tag ~expected:(expected ()) ~fail_before
      ~failures:outcome.failures db
  in
  let fatal = ref false in
  let handle_crash () =
    outcome.crashes <- outcome.crashes + 1;
    Db.crash db;
    absorb_commits ();
    let fail_before = List.length outcome.failures in
    (match recover_until_stable () with
    | Error msg ->
        (* the db never came back up — nothing after this is meaningful *)
        fail outcome (Printf.sprintf "crash #%d: %s" outcome.crashes msg);
        fatal := true
    | Ok () ->
        absorb_commits ();
        check_state (Printf.sprintf "crash #%d" outcome.crashes);
        Governor.note_crash gov;
        reset_clients ();
        if config.crash_every > 0 then
          Fault.arm_crash_in fault config.crash_every);
    maybe_dump ~fail_before ~tag:(Printf.sprintf "crash%d" outcome.crashes)
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
    let drained () =
      drain && Array.for_all (fun c -> c.xid = None) clients
    in
    while (not !fatal) && !i < n && not (drained ()) do
      incr i;
      incr now;
      outcome.steps_run <- outcome.steps_run + 1;
      maybe_arm_squeeze ();
      (try
         Governor.tick gov;
         step ~allow_begin:(not drain) (!now mod config.clients);
         note_pressure ()
       with
      | Fault.Injected_crash _ -> handle_crash ()
      | Log_store.Log_full _ ->
          (* every legitimate Log_full is handled inside [step]; one
             escaping to here means reserved-space accounting is broken *)
          fail outcome
            (Printf.sprintf "%s step %d: unhandled Log_full" label !now);
          fatal := true
      | e ->
          fail outcome
            (Printf.sprintf "%s step %d: unhandled %s" label !now
               (Printexc.to_string e));
          fatal := true)
    done
  in
  if config.crash_every > 0 then Fault.arm_crash_in fault config.crash_every;
  run_steps ~label:"storm" ~drain:false config.steps;
  (* drain: crashes disarmed, governor still running — surviving work
     must be able to commit through backoff-retry *)
  Fault.disarm_crash fault;
  let before_drain = outcome.committed in
  run_steps ~label:"drain" ~drain:true
    (config.steps + (100 * config.clients));
  outcome.drain_commits <- outcome.committed - before_drain;
  Array.iter
    (fun c ->
      match c.xid with
      | Some x when Db.is_active db x ->
          fail outcome
            (Printf.sprintf "drain left %s unresolved"
               (Format.asprintf "%a" Xid.pp x))
      | _ -> ())
    clients;
  (* final clean crash + restart + reconciliation *)
  if not !fatal then begin
    Db.crash db;
    absorb_commits ();
    let fail_before = List.length outcome.failures in
    (match recover_until_stable () with
    | Error msg -> fail outcome (Printf.sprintf "final restart: %s" msg)
    | Ok () ->
        absorb_commits ();
        check_state "final");
    maybe_dump ~fail_before ~tag:"final"
  end;
  let gs = Governor.stats gov in
  outcome.gov_ticks <- gs.Governor.ticks;
  outcome.gov_checkpoints <- gs.Governor.checkpoints;
  outcome.gov_truncations <- gs.Governor.truncations;
  outcome.gov_records_truncated <- gs.Governor.records_truncated;
  outcome.gov_victims <- gs.Governor.victims;
  outcome.squeezes <- (Fault.stats fault).Fault.squeezes;
  let ls = Log_store.stats log in
  outcome.reservations <- ls.Ariesrh_wal.Log_stats.reservations;
  outcome.admission_rejects <- ls.Ariesrh_wal.Log_stats.admission_rejects;
  Storm.close_and_remove db;
  outcome
