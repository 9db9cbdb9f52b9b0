open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Record = Ariesrh_wal.Record
module Backend = Ariesrh_storage.Backend
module Sharded = Ariesrh_shard.Sharded
module Prng = Ariesrh_util.Prng
module Temporal = Ariesrh_temporal.Temporal
module Deadlock = Ariesrh_lock.Deadlock
module Metrics = Ariesrh_obs.Metrics

(* The storm core: one engine handle (a [Sharded.t], one shard being a
   plain [Db] byte for byte), one escalating crash-point sweep, one
   seeded client loop, one restart-under-fire loop, one check battery,
   one time-travel reader and one forensic writer. A storm is a fault
   plan over these: which restart it drives, which extra checks it runs
   per iteration, which dumps it writes. *)

type config = {
  seed : int64;
  tear_data_every : int;
  tear_data_on_crash : bool;
  tear_log_on_crash : bool;
  crash_step : int;
  recovery_crash_depth : int;
  recovery_crash_gap : int;
  group_commit : int;
  record_cache : int;
  audit : bool;
  time_travel : bool;
  forensic_dir : string option;
  backend_root : string option;
  shards : int;
}

let default_config =
  {
    seed = 1L;
    tear_data_every = 7;
    tear_data_on_crash = true;
    tear_log_on_crash = true;
    crash_step = 1;
    recovery_crash_depth = 2;
    recovery_crash_gap = 3;
    group_commit = 0;
    record_cache = Config.default.Config.record_cache;
    audit = true;
    time_travel = true;
    forensic_dir = None;
    backend_root = None;
    shards = 1;
  }

type outcome = {
  mutable runs : int;
  mutable actions : int;
  mutable crashes : int;
  mutable nested_crashes : int;
  mutable recoveries : int;
  mutable torn_writes : int;
  mutable torn_flushes : int;
  mutable amputated : int;
  mutable repaired_pages : int;
  mutable fault_points : int;
  mutable checks : int;
  mutable tt_reads : int;
  mutable tt_refused : int;
  mutable migrations : int;
  mutable migration_refusals : int;
  mutable xfers_resolved : int;
  mutable instant_opens : int;
  mutable drain_steps : int;
  mutable refusals : int;
  mutable degraded_serves : int;
  mutable foreground_repairs : int;
  mutable twin_checks : int;
  mutable waits : int;
  mutable deadlocks : int;
  mutable failures : string list;
}

let fresh_outcome () =
  {
    runs = 0;
    actions = 0;
    crashes = 0;
    nested_crashes = 0;
    recoveries = 0;
    torn_writes = 0;
    torn_flushes = 0;
    amputated = 0;
    repaired_pages = 0;
    fault_points = 0;
    checks = 0;
    tt_reads = 0;
    tt_refused = 0;
    migrations = 0;
    migration_refusals = 0;
    xfers_resolved = 0;
    instant_opens = 0;
    drain_steps = 0;
    refusals = 0;
    degraded_serves = 0;
    foreground_repairs = 0;
    twin_checks = 0;
    waits = 0;
    deadlocks = 0;
    failures = [];
  }

let ok o = o.failures = []
let fail o msg = o.failures <- msg :: o.failures

let merge a b =
  {
    runs = a.runs + b.runs;
    actions = a.actions + b.actions;
    crashes = a.crashes + b.crashes;
    nested_crashes = a.nested_crashes + b.nested_crashes;
    recoveries = a.recoveries + b.recoveries;
    torn_writes = a.torn_writes + b.torn_writes;
    torn_flushes = a.torn_flushes + b.torn_flushes;
    amputated = a.amputated + b.amputated;
    repaired_pages = a.repaired_pages + b.repaired_pages;
    fault_points = a.fault_points + b.fault_points;
    checks = a.checks + b.checks;
    tt_reads = a.tt_reads + b.tt_reads;
    tt_refused = a.tt_refused + b.tt_refused;
    migrations = a.migrations + b.migrations;
    migration_refusals = a.migration_refusals + b.migration_refusals;
    xfers_resolved = a.xfers_resolved + b.xfers_resolved;
    instant_opens = a.instant_opens + b.instant_opens;
    drain_steps = a.drain_steps + b.drain_steps;
    refusals = a.refusals + b.refusals;
    degraded_serves = a.degraded_serves + b.degraded_serves;
    foreground_repairs = a.foreground_repairs + b.foreground_repairs;
    twin_checks = a.twin_checks + b.twin_checks;
    waits = a.waits + b.waits;
    deadlocks = a.deadlocks + b.deadlocks;
    failures = b.failures @ a.failures;
  }

let pp_failures ppf = function
  | [] -> ()
  | fs -> List.iter (fun f -> Format.fprintf ppf "@   FAIL %s" f) (List.rev fs)

let pp_arr a = String.concat ";" (Array.to_list (Array.map string_of_int a))

(* --- helpers every storm shares, on one [Db] or many --- *)

(* Ground truth for "who committed": the transactions whose commit
   records are durable and decode — exactly what any restart will see.
   Called after a crash, when only the stable prefix (with its
   possibly-torn tail) remains. *)
let durable_commits log =
  let s = ref Xid.Set.empty in
  ignore
    (Log_store.iter_valid_forward log ~from:(Log_store.truncated_below log)
       (fun _ r ->
         match r.Record.body with
         | Record.Commit -> s := Xid.Set.add (Record.writer_exn r) !s
         | _ -> ()));
  !s

let make_fault ~seed ~tear_data_every ~tear_data_on_crash ~tear_log_on_crash =
  let fault = Fault.create ~seed () in
  Fault.set_tear_data_every fault tear_data_every;
  Fault.set_tear_data_on_crash fault tear_data_on_crash;
  Fault.set_tear_log_on_crash fault tear_log_on_crash;
  fault

(* Best-effort forensic dump of the failures a check round added (see
   {!Forensics}): faults gated off, and never allowed to take the storm
   down — the db may be wedged mid-restart. *)
let dump ?fault ~forensic_dir ~seed ~kind ?crash_io ?tag ?expected
    ~fail_before ~failures db =
  match forensic_dir with
  | Some dir when List.length failures > fail_before ->
      let gate b = Option.iter (fun f -> Fault.set_enabled f b) fault in
      gate false;
      let fresh =
        List.filteri
          (fun i _ -> i < List.length failures - fail_before)
          failures
      in
      (try
         ignore
           (Forensics.write ~dir ~kind ~seed ?crash_io ?tag ?expected
              ~failures:fresh db)
       with _ -> ());
      gate true
  | _ -> ()

(* The responsibility ledger: holder -> the increments it is currently
   responsible for, each as (object, delta, update LSN). Entries move on
   delegation and never otherwise — a whole object's entries together,
   or one update's alone; the expected state sums the entries of the
   holders that count (durably committed, or committed at or below some
   LSN). A commit record's force covers every earlier delegate record,
   so a durable commit implies its delegated-in entries' transfers are
   durable too. *)
module Ledger = struct
  type 'x t = ('x, (int * int * Lsn.t) list) Hashtbl.t

  let create () : 'x t = Hashtbl.create 64
  let entries t x = Option.value ~default:[] (Hashtbl.find_opt t x)
  let add t x o d lsn = Hashtbl.replace t x ((o, d, lsn) :: entries t x)

  (* Move the entries [moves] selects: an object's, or one update's. *)
  let move t ~from_ ~to_ moves =
    let moved, kept = List.partition moves (entries t from_) in
    Hashtbl.replace t from_ kept;
    Hashtbl.replace t to_ (moved @ entries t to_)

  let state t ~n_objects counts =
    let v = Array.make n_objects 0 in
    Hashtbl.iter
      (fun x es ->
        if counts x then List.iter (fun (o, d, _) -> v.(o) <- v.(o) + d) es)
      t;
    v
end

(* --- the engine handle --- *)

(* Labels name shards only when there are several, so one-shard labels
   are a single database's. *)
let shards_label config =
  if config.shards > 1 then Printf.sprintf " shards=%d" config.shards else ""

(* Durable commits per shard: raw xids collide across logs, so the
   committed test pairs each façade xid with its shard. *)
let committed_in sh =
  let sets =
    Array.map (fun db -> durable_commits (Db.log_store db)) (Sharded.dbs sh)
  in
  fun fx -> Xid.Set.mem fx.Sharded.txn sets.(fx.Sharded.shard)

(* A fresh engine in a fresh backend scope: every shard's backend is its
   own subdirectory of [backend_root/tag], removed again as [f] returns.
   One shared injector keeps the single logical I/O clock. *)
let with_engine config ?(impl = Config.Rh) ?recovery_mode ?log_capacity_bytes
    ~tag ~salt ?crash_io ~n_objects f =
  let scope k =
    match config.backend_root with
    | None -> k ()
    | Some root ->
        let dir = Filename.concat root tag in
        Backend.remove_tree dir;
        let next = ref 0 in
        Db.set_backend_factory
          (Some
             (fun () ->
               (* an existing directory would be the reopen path *)
               let dir = Filename.concat dir (Printf.sprintf "shard%d" !next) in
               incr next;
               Backend.remove_tree dir;
               Backend.File { dir }));
        Fun.protect
          ~finally:(fun () ->
            Db.set_backend_factory None;
            Backend.remove_tree dir)
          k
  in
  scope (fun () ->
      let fault =
        make_fault
          ~seed:(Int64.add config.seed (Int64.of_int salt))
          ~tear_data_every:config.tear_data_every
          ~tear_data_on_crash:config.tear_data_on_crash
          ~tear_log_on_crash:config.tear_log_on_crash
      in
      Option.iter (Fault.arm_crash_at fault) crash_io;
      let sh =
        Shard_driver.fresh ~fault ~impl ~group_commit:config.group_commit
          ~record_cache:config.record_cache ~audit:config.audit ?recovery_mode
          ?log_capacity_bytes ~tracing:(config.forensic_dir <> None)
          ~shards:config.shards ~n_objects ()
      in
      let r = f fault sh in
      Sharded.close sh;
      r)

let absorb outcome fault sh =
  let s = Fault.stats fault in
  outcome.torn_writes <- outcome.torn_writes + s.Fault.torn_writes;
  outcome.torn_flushes <- outcome.torn_flushes + s.Fault.torn_flushes;
  outcome.fault_points <- outcome.fault_points + Fault.fault_points fault;
  let c = Sharded.counters sh in
  outcome.migrations <- outcome.migrations + c.Sharded.migrations;
  outcome.migration_refusals <-
    outcome.migration_refusals + c.Sharded.migrations_refused;
  outcome.xfers_resolved <-
    outcome.xfers_resolved + c.Sharded.resolved_forward
    + c.Sharded.resolved_back;
  Array.iter
    (fun db ->
      outcome.repaired_pages <- outcome.repaired_pages + Db.repairs_total db)
    (Sharded.dbs sh)

(* One dump per shard; a single shard keeps the plain storm's kind and
   tag. *)
let dump_engine config outcome ~fail_before ~kind ?crash_io ?tag ?expected
    fault sh =
  let n = Sharded.shards sh in
  Array.iteri
    (fun i db ->
      let kind, tag =
        if n = 1 then (kind, tag)
        else
          ( "shard-" ^ kind,
            Some
              (match tag with
              | Some t -> Printf.sprintf "%s-s%d" t i
              | None -> Printf.sprintf "s%d" i) )
      in
      dump ~fault ~forensic_dir:config.forensic_dir ~seed:config.seed ~kind
        ?crash_io ?tag ?expected ~fail_before ~failures:outcome.failures db)
    (Sharded.dbs sh)

(* --- restart under fire --- *)

let offline outcome sh =
  ignore (Sharded.recover sh);
  outcome.recoveries <- outcome.recoveries + 1

(* Restart under continued fault injection: arm a re-crash a few I/Os
   into each restart until [recovery_crash_depth] nested crashes have
   fired, then let it finish. Every injected crash is answered with a
   crash and another restart — the re-entrancy the storms prove. The
   re-crash may land inside one shard's restart, between shards, or
   mid-resolution; the re-run must converge regardless. Amputation is
   counted off the log stores' lifetime counters: a restart killed by a
   nested crash may already have dropped the corrupt tail. *)
let recover_until_stable config outcome ~restart fault sh =
  let amputated () =
    Array.fold_left
      (fun a db -> a + Log_store.amputated_total (Db.log_store db))
      0 (Sharded.dbs sh)
  in
  let before = amputated () in
  let rec go depth =
    if depth < config.recovery_crash_depth then
      Fault.arm_crash_in fault config.recovery_crash_gap
    else Fault.disarm_crash fault;
    match restart outcome sh with
    | () ->
        Fault.disarm_crash fault;
        outcome.amputated <- outcome.amputated + amputated () - before;
        Ok ()
    | exception Fault.Injected_crash _ when depth <= config.recovery_crash_depth
      ->
        outcome.nested_crashes <- outcome.nested_crashes + 1;
        Sharded.crash sh;
        go (depth + 1)
    | exception e -> Error (Format.asprintf "%a" Errors.pp_exn e)
  in
  go 0

(* On a mismatch, the first diverging object's log history (updates,
   delegations, compensations) is the fastest route to the bug. A record
   that no longer decodes is reported in place of the history: the
   diagnosis must not raise out of the check it explains. *)
let describe_object db i =
  let xid = Format.asprintf "%a" Xid.pp in
  let event = function
    | Db.Updated { lsn; invoker; op } ->
        Printf.sprintf " %d:upd(%s,%s)" (Lsn.to_int lsn) (xid invoker)
          (match op with
          | Record.Set { before; after } ->
              Printf.sprintf "set %d->%d" before after
          | Record.Add d -> Printf.sprintf "%+d" d)
    | Db.Delegated { lsn; from_; to_; _ } ->
        Printf.sprintf " %d:del(%s->%s)" (Lsn.to_int lsn) (xid from_)
          (xid to_)
    | Db.Compensated { lsn; by; undone } ->
        Printf.sprintf " %d:clr(%s,undid %d)" (Lsn.to_int lsn) (xid by)
          (Lsn.to_int undone)
  in
  match Db.object_history db (Oid.of_int i) with
  | history -> String.concat "" (List.map event history)
  | exception (Log_store.Corrupt_record _ as e) ->
      Format.asprintf " <%a>" Errors.pp_exn e

(* The check battery, faults gated off so it is deterministic: state
   against the oracle, structural invariants, optionally the self-audit,
   and (unless [idempotence] is off) restart idempotence: crash + bare
   restart + full drain must reproduce the same state. *)
let check outcome ~label ?(audit = false) ?(idempotence = true) fault sh
    expected =
  Fault.set_enabled fault false;
  outcome.checks <- outcome.checks + 1;
  let peek () =
    Array.init (Array.length expected) (fun i -> Sharded.peek sh (Oid.of_int i))
  in
  let first_diff a =
    let rec go i =
      if i >= Array.length a then ""
      else if a.(i) <> expected.(i) then
        let h = Sharded.home sh (Oid.of_int i) in
        Printf.sprintf " (ob%d%s: got %d want %d; history:%s)" i
          (if Sharded.shards sh = 1 then "" else Printf.sprintf "@s%d" h)
          a.(i) expected.(i)
          (describe_object (Sharded.db sh h) i)
      else go (i + 1)
    in
    go 0
  in
  let actual = peek () in
  if actual <> expected then
    fail outcome
      (Printf.sprintf "%s: state mismatch: got [%s] want [%s]%s" label
         (pp_arr actual) (pp_arr expected) (first_diff actual));
  (match Sharded.validate sh with
  | Ok () -> ()
  | Error msg -> fail outcome (Printf.sprintf "%s: invariants: %s" label msg));
  (if audit then
     match Sharded.audit sh with
     | [] -> ()
     | fs ->
         fail outcome
           (Printf.sprintf "%s: audit: %s" label (String.concat "; " fs)));
  (if idempotence then
     match
       Sharded.crash sh;
       ignore (Sharded.recover sh);
       Sharded.await_recovery sh
     with
     | () ->
         outcome.recoveries <- outcome.recoveries + 1;
         let again = peek () in
         if again <> expected then
           fail outcome
             (Printf.sprintf "%s: restart not idempotent: got [%s] want [%s]"
                label (pp_arr again) (pp_arr expected))
     | exception e ->
         fail outcome
           (Format.asprintf "%s: re-restart raised %a" label Errors.pp_exn e));
  Fault.set_enabled fault true

(* Crash, restart under fire, then the check battery against
   [expected ()]. False when the engine never came back; that failure is
   reported under [failed] (default [label]). *)
let restart_and_check config outcome ~label ?(failed = label)
    ?(restart = offline) ?idempotence fault sh ~expected =
  Sharded.crash sh;
  match recover_until_stable config outcome ~restart fault sh with
  | Error msg ->
      fail outcome (Printf.sprintf "%s: %s" failed msg);
      false
  | Ok () ->
      check outcome ~label ?idempotence fault sh (expected ());
      true

(* --- the time-travel reader --- *)

(* Two samplings of the commit points, because the storms' time-travel
   read counts are pinned: the crash storm reads [spread], the pressure
   storm [strided]. *)

(* Evenly spaced subset of [points], first and last always included. *)
let spread ~limit points =
  let n = List.length points in
  if n <= limit || limit < 2 then points
  else
    let arr = Array.of_list points in
    List.init limit (fun i -> arr.(i * (n - 1) / (limit - 1)))

(* Every ceil(n/limit)-th of [points], and the last. *)
let strided ~limit points =
  let n = List.length points in
  let stride = if n <= limit then 1 else (n + limit - 1) / limit in
  List.filteri (fun i _ -> i mod stride = 0 || i = n - 1) points

(* The analytic time-travel reader, faults gated off so the crash
   schedule is untouched. At one shard, two regimes, decided by
   {!Temporal.coverage}:
   - History intact from the first LSN: at each durable commit LSN l
     that [sample] keeps, [Temporal.snapshot_at] must equal
     [expected_at (counts l)], where [counts l x] says whether x's
     commit record is at or below l. Against the responsibility ledger
     this is sound: an entry's holder at l either is its final holder
     (both sides use the same commit record) or delegated it onward
     above l — and a delegation precedes the delegator's commit, so
     both sides exclude the entry.
   - History truncated and not bridged by an archive: every read must
     refuse with the typed [History_unavailable], never answer from a
     silently partial reconstruction.
   At every sampled point, [Temporal.as_of] of each object — the
   indexed read of that object's history alone — must equal the full
   scan's snapshot. With several shards an as_of point is a per-shard
   LSN (a cross-shard cut is a different instrument), so only that
   self-check runs there, on each shard's own log. *)
let time_travel config outcome ~label ~sample ~expected_at fault sh =
  if config.time_travel then begin
    Fault.set_enabled fault false;
    let failf fmt = Printf.ksprintf (fail outcome) ("%s: " ^^ fmt) label in
    let raised l e =
      failf "as_of lsn %d raised %s" (Lsn.to_int l)
        (Format.asprintf "%a" Errors.pp_exn e)
    in
    let indexed_agrees db l snap =
      Array.iteri
        (fun o v ->
          match Temporal.as_of db ~lsn:l (Oid.of_int o) with
          | got when got = v -> ()
          | got ->
              failf "as_of lsn %d object %d: indexed read %d, full scan %d"
                (Lsn.to_int l) o got v
          | exception e -> raised l e)
        snap
    in
    let intact db =
      match Temporal.coverage db with
      | cov -> Lsn.(cov.Temporal.from_ <= first)
      | exception e ->
          failf "tt coverage raised %s" (Format.asprintf "%a" Errors.pp_exn e);
          false
    in
    (if Sharded.shards sh = 1 then begin
       let db = Sharded.db sh 0 in
       match Temporal.coverage db with
       | exception e ->
           failf "tt coverage raised %s" (Format.asprintf "%a" Errors.pp_exn e)
       | cov when Lsn.(cov.Temporal.from_ > first) ->
           List.iter
             (fun l ->
               outcome.tt_reads <- outcome.tt_reads + 1;
               match Temporal.snapshot_at db l with
               | (_ : int array) ->
                   failf "as_of lsn %d answered despite truncated unbridged \
                          history"
                     (Lsn.to_int l)
               | exception Errors.History_unavailable _ ->
                   outcome.tt_refused <- outcome.tt_refused + 1
               | exception e -> raised l e)
             [ Lsn.first; cov.Temporal.upto ]
       | _ ->
           let cps = Temporal.commit_points db in
           let commit_lsn = Xid.Tbl.create 64 in
           List.iter
             (fun (l, x) ->
               if not (Xid.Tbl.mem commit_lsn x) then
                 Xid.Tbl.replace commit_lsn x l)
             cps;
           let counts_at l fx =
             match Xid.Tbl.find_opt commit_lsn fx.Sharded.txn with
             | Some cl -> Lsn.(cl <= l)
             | None -> false
           in
           List.iter
             (fun (l, x) ->
               outcome.tt_reads <- outcome.tt_reads + 1;
               let want = expected_at (counts_at l) in
               match Temporal.snapshot_at db l with
               | got ->
                   if got <> want then
                     failf "as_of lsn %d (commit of %s): got [%s] want [%s]"
                       (Lsn.to_int l)
                       (Format.asprintf "%a" Xid.pp x)
                       (pp_arr got) (pp_arr want);
                   indexed_agrees db l got
               | exception e -> raised l e)
             (sample cps)
     end
     else
       Array.iter
         (fun db ->
           if intact db then
             List.iter
               (fun (l, _) ->
                 match Temporal.snapshot_at db l with
                 | snap -> indexed_agrees db l snap
                 | exception e -> raised l e)
               (sample (Temporal.commit_points db)))
         (Sharded.dbs sh));
    Fault.set_enabled fault true
  end

(* For a storm whose history nothing truncates: a refused read there
   means history went missing, an engine fault. *)
let expect_no_tt_refusals outcome ~label =
  if outcome.tt_refused > 0 then
    fail outcome
      (Printf.sprintf
         "%s: %d time-travel reads refused, but nothing truncates this \
          storm's history"
         label outcome.tt_refused)

(* --- the client loop --- *)

(* The seeded client mix every randomized client run uses. *)
type load = {
  clients : int;
  ops_per_txn : int;
  n_objects : int;
  p_delegate : float;
  p_read : float;
  p_op : float;
}

let contended =
  { clients = 8; ops_per_txn = 6; n_objects = 32; p_delegate = 0.2;
    p_read = 0.3; p_op = 0.5 }

(* What the clients did, and the typed refusals they absorbed. *)
type tally = {
  mutable committed : int;
  mutable accesses : int;
  mutable aborted : int;
  mutable delegations : int;
  mutable overloads : int;
  mutable log_fulls : int;
  mutable recoverings : int;
  mutable backoffs : int;
  mutable stall_steps : int;
  mutable abandoned : int;
  mutable victimized : int;
}

(* The contract is in the interface. A draw whose probability is 0 is
   never made, so storms' fixed-seed schedules ignore the read and
   op-level paths; the ledger is keyed by façade xid, since raw xids
   collide across shards. *)
module Clients = struct
  type access = Read of int | Add of int * int

  type client = {
    mutable xid : Sharded.xid option;
    mutable ops_left : int;
    mutable touched : int list;  (* objects this txn is responsible for *)
    mutable parked : access option;  (* the op waiting on a lock *)
    mutable backoff_until : int;
    mutable attempts : int;
    mutable finished : int;  (* transactions committed or abandoned *)
    mutable began : int;  (* I/O clock at begin *)
    mutable cls : int;  (* index into [classes] *)
  }

  (* begin->commit latency per class, in logical I/O-clock ticks (the
     fault injector's deterministic I/O counter): inclusive bucket
     bounds, one overflow slot beyond the last *)
  let latency_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 |]
  let classes = [| "read_only"; "writer"; "delegating" |]

  type t = {
    sh : Sharded.t;
    load : load;
    rng : Prng.t;
    outcome : outcome;
    ledger : Sharded.xid Ledger.t;
    commits : (Sharded.xid, unit) Hashtbl.t;
    graphs : Deadlock.t array;  (* waits-for, per shard *)
    tally : tally;
    clients : client array;
    latency : Metrics.hist array;  (* per class *)
    checkpoint_every : int;
    backoff_base : int;
    max_backoff : int;
    max_retries : int;
  }

  let create ?(checkpoint_every = 0) ?(backoff_base = 0) ?(max_backoff = 0)
      ?(max_retries = 0) outcome sh ~load ~rng =
    {
      sh; load; rng; outcome; checkpoint_every; backoff_base; max_backoff;
      max_retries;
      ledger = Ledger.create ();
      commits = Hashtbl.create 64;
      graphs = Array.init (Sharded.shards sh) (fun _ -> Deadlock.create ());
      tally =
        { committed = 0; accesses = 0; aborted = 0; delegations = 0;
          overloads = 0; log_fulls = 0; recoverings = 0; backoffs = 0;
          stall_steps = 0; abandoned = 0; victimized = 0 };
      clients =
        Array.init load.clients (fun _ ->
            { xid = None; ops_left = 0; touched = []; parked = None;
              backoff_until = 0; attempts = 0; finished = 0; began = 0;
              cls = 0 });
      latency =
        Array.map
          (fun _ ->
            { Metrics.bounds = latency_bounds; sum = 0;
              counts = Array.make (Array.length latency_bounds + 1) 0 })
          classes;
    }

  let tally t = t.tally

  (* The ledger's state over the holders [counts] admits. *)
  let state t counts = Ledger.state t.ledger ~n_objects:t.load.n_objects counts

  (* Open transactions, in client order. *)
  let active t = List.filter_map (fun c -> c.xid) (Array.to_list t.clients)

  let fault t = Db.fault (Sharded.db t.sh 0)
  let io_clock t = (Fault.stats (fault t)).Fault.ios

  let drop t c =
    Option.iter
      (fun (x : Sharded.xid) -> Deadlock.remove_txn t.graphs.(x.shard) x.txn)
      c.xid;
    c.xid <- None;
    c.touched <- [];
    c.parked <- None

  let reset t =
    Array.iter
      (fun c ->
        drop t c;
        c.backoff_until <- 0;
        c.attempts <- 0)
      t.clients

  let shard_of t i = i mod Sharded.shards t.sh

  let backoff t c ~now =
    c.attempts <- c.attempts + 1;
    if c.attempts > t.max_retries then begin
      t.tally.abandoned <- t.tally.abandoned + 1;
      c.finished <- c.finished + 1;
      c.attempts <- 0
    end
    else begin
      t.tally.backoffs <- t.tally.backoffs + 1;
      let delay =
        min t.max_backoff (t.backoff_base * (1 lsl min 16 (c.attempts - 1)))
      in
      t.tally.stall_steps <- t.tally.stall_steps + delay;
      c.backoff_until <- now + delay
    end

  let abort t ~now x =
    match Sharded.abort t.sh x with
    | () -> t.tally.aborted <- t.tally.aborted + 1
    | exception Log_store.Log_full _ ->
        fail t.outcome
          (Format.asprintf "step %d: rollback of %a raised Log_full" now
             Sharded.pp_xid x)
    | exception (Errors.No_such_txn _ | Errors.Txn_not_active _) ->
        t.tally.victimized <- t.tally.victimized + 1

  let refused t = function
    | Errors.Overloaded _ -> t.tally.overloads <- t.tally.overloads + 1
    | Log_store.Log_full _ -> t.tally.log_fulls <- t.tally.log_fulls + 1
    | _ -> t.tally.recoverings <- t.tally.recoverings + 1

  let victimized t c ~now =
    t.tally.victimized <- t.tally.victimized + 1;
    drop t c;
    backoff t c ~now

  let observe_latency t c =
    let d = io_clock t - c.began and h = t.latency.(c.cls) in
    let b =
      Option.value ~default:(Array.length latency_bounds)
        (Array.find_index (fun bound -> d <= bound) latency_bounds)
    in
    h.counts.(b) <- h.counts.(b) + 1;
    t.latency.(c.cls) <- { h with sum = h.sum + d }

  (* Commit, or one time in ten abort; a checkpoint every
     [checkpoint_every] commits. *)
  let finish t c ~now x =
    match
      if Prng.int t.rng 10 = 0 then `Aborted (abort t ~now x)
      else `Committed (Sharded.commit t.sh x)
    with
    | `Committed () ->
        t.tally.committed <- t.tally.committed + 1;
        Hashtbl.replace t.commits x ();
        observe_latency t c;
        c.attempts <- 0;
        c.finished <- c.finished + 1;
        drop t c;
        if
          t.checkpoint_every > 0
          && t.tally.committed mod t.checkpoint_every = 0
        then Sharded.checkpoint t.sh
    | `Aborted () -> drop t c
    | exception (Errors.No_such_txn _ | Errors.Txn_not_active _) ->
        victimized t c ~now

  (* A waits-for cycle through [x] aborts its youngest participant. *)
  let break_deadlock t ~now (x : Sharded.xid) =
    match Deadlock.cycle_through t.graphs.(x.shard) x.txn with
    | None -> ()
    | Some cycle ->
        t.outcome.deadlocks <- t.outcome.deadlocks + 1;
        let victim = Xid.Set.(max_elt (of_list cycle)) in
        Array.iter
          (fun c ->
            match c.xid with
            | Some y when y.shard = x.shard && Xid.equal y.txn victim ->
                abort t ~now y;
                drop t c
            | _ -> ())
          t.clients

  (* One read or add; on a lock conflict the client parks on it. *)
  let access t c ~now (x : Sharded.xid) a =
    t.tally.accesses <- t.tally.accesses + 1;
    let graph = t.graphs.(x.shard) in
    match
      match a with
      | Read o -> ignore (Sharded.read t.sh x (Oid.of_int o))
      | Add (o, d) ->
          Sharded.add t.sh x (Oid.of_int o) d;
          Ledger.add t.ledger x o d
            (Db.last_lsn_of (Sharded.db t.sh x.shard) x.txn);
          if not (List.mem o c.touched) then c.touched <- o :: c.touched;
          c.cls <- max c.cls 1
    with
    | () ->
        c.parked <- None;
        Deadlock.clear_waits graph x.txn
    | exception Errors.Conflict { holders; _ } ->
        t.outcome.waits <- t.outcome.waits + 1;
        c.parked <- Some a;
        Deadlock.clear_waits graph x.txn;
        List.iter (fun h -> Deadlock.add_wait graph ~waiter:x.txn ~holder:h)
          holders;
        break_deadlock t ~now x
    | exception Errors.Xfer_refused _ -> c.parked <- None
    | exception (Log_store.Log_full _ | Errors.Recovering _ as e) ->
        refused t e;
        abort t ~now x;
        drop t c;
        backoff t c ~now
    | exception (Errors.No_such_txn _ | Errors.Txn_not_active _) ->
        victimized t c ~now

  let pick t l = List.nth l (Prng.int t.rng (List.length l))

  (* Delegation stays same-shard: cross-shard responsibility moves with
     the object, not across live transactions. *)
  let other_active t self =
    let cands = ref [] in
    Array.iteri
      (fun i c ->
        match c.xid with
        | Some x when i <> self && shard_of t i = shard_of t self ->
            cands := (i, x) :: !cands
        | _ -> ())
      t.clients;
    if !cands = [] then None else Some (pick t !cands)

  (* Hand [y] one touched object or, with the op-level share, one update;
     each successful call books its own move. *)
  let delegate t c ~now x (yi, y) =
    (* book a move of object [o]'s entries that [moves] selects *)
    let moved o moves =
      Ledger.move t.ledger ~from_:x ~to_:y moves;
      if List.for_all (fun (o', _, _) -> o' <> o) (Ledger.entries t.ledger x)
      then c.touched <- List.filter (fun o' -> o' <> o) c.touched;
      t.clients.(yi).touched <- o :: t.clients.(yi).touched;
      t.tally.delegations <- t.tally.delegations + 1;
      c.cls <- 2
    in
    let whole o =
      Sharded.delegate t.sh ~from_:x ~to_:y (Oid.of_int o);
      moved o (fun (o', _, _) -> o' = o)
    in
    let one_update () =
      let o, _, lsn = pick t (Ledger.entries t.ledger x) in
      match Sharded.delegate_update t.sh ~from_:x ~to_:y (Oid.of_int o) lsn with
      | () -> moved o (fun (_, _, l) -> Lsn.equal l lsn)
      | exception Invalid_argument _ ->
          (* read, then added: the upgraded lock moves only whole *)
          whole o
    in
    match
      if
        t.load.p_op > 0.
        && (Sharded.config t.sh).Config.impl <> Config.Eager
        && Prng.float t.rng 1.0 < t.load.p_op
      then one_update ()
      else whole (pick t c.touched)
    with
    | () -> ()
    | exception (Errors.Overloaded _ | Log_store.Log_full _ as e) ->
        (* optional work refused under backpressure: keep the
           responsibility and move on *)
        refused t e
    | exception (Errors.No_such_txn _ | Errors.Txn_not_active _) ->
        (* this txn or the target was victimized *)
        t.tally.victimized <- t.tally.victimized + 1;
        if not (Sharded.is_active t.sh x) then drop t c;
        backoff t c ~now

  (* One step of client [self] at scheduler time [now]; with
     [allow_begin] off an idle client stays idle (the drain). *)
  let step ?(allow_begin = true) t ~now self =
    let c = t.clients.(self) in
    if now >= c.backoff_until then
      match c.xid with
      | None when not allow_begin -> ()
      | None -> (
          match Sharded.begin_txn t.sh ~shard:(shard_of t self) with
          | x ->
              c.xid <- Some x;
              c.ops_left <- 1 + Prng.int t.rng t.load.ops_per_txn;
              c.touched <- [];
              c.began <- io_clock t;
              c.cls <- 0
          | exception (Errors.Overloaded _ | Log_store.Log_full _ as e) ->
              refused t e;
              backoff t c ~now)
      | Some x when c.parked <> None -> access t c ~now x (Option.get c.parked)
      | Some x when c.ops_left > 0 -> (
          c.ops_left <- c.ops_left - 1;
          let delegate_now =
            c.touched <> [] && Prng.float t.rng 1.0 < t.load.p_delegate
          in
          match if delegate_now then other_active t self else None with
          | Some target -> delegate t c ~now x target
          | None ->
              let o = Prng.int t.rng t.load.n_objects in
              access t c ~now x
                (if t.load.p_read > 0. && Prng.float t.rng 1.0 < t.load.p_read
                 then Read o
                 else Add (o, 1 + Prng.int t.rng 9)))
      | Some x -> finish t c ~now x

  (* For a storm with no governor and no log bound, which cannot refuse
     a client: a refusal there is an engine fault (a live transaction
     dropped), never load. *)
  let expect_no_refusals t ~label =
    let tl = t.tally in
    if tl.overloads + tl.log_fulls + tl.victimized > 0 then
      fail t.outcome
        (Printf.sprintf
           "%s: clients refused with no governor: overloads=%d \
            log_fulls=%d victimized=%d"
           label tl.overloads tl.log_fulls tl.victimized)

  (* Finish every open transaction, so a check compares committed state
     only: the ledger knows nothing about in-flight adds. *)
  let settle t ~now =
    Array.iter (fun c -> Option.iter (finish t c ~now) c.xid) t.clients

  (* Readable through shard 0's registry while the run is in flight;
     registration replaces any previous run's sources. *)
  let register_metrics t =
    let m = Db.metrics (Sharded.db t.sh 0) and tl = t.tally in
    List.iter
      (fun (name, help, read) ->
        Metrics.counter m ~help ("ariesrh_sim_" ^ name ^ "_total") read)
      [
        ("committed", "Sim transactions committed", fun () -> tl.committed);
        ("aborted", "Sim transactions rolled back", fun () -> tl.aborted);
        ("waits", "Sim lock waits", fun () -> t.outcome.waits);
        ("deadlocks", "Deadlock cycles broken", fun () -> t.outcome.deadlocks);
        ("delegations", "Sim delegations", fun () -> tl.delegations);
        ("overloads", "Overloaded refusals", fun () -> tl.overloads);
        ("log_fulls", "Log_full refusals", fun () -> tl.log_fulls);
        ("recovering", "Recovering refusals", fun () -> tl.recoverings);
        ("backoffs", "Times a sim client backed off", fun () -> tl.backoffs);
        ("stall_steps", "Scheduler steps in backoff", fun () -> tl.stall_steps);
        ("abandoned", "Sim transactions abandoned", fun () -> tl.abandoned);
        ("victimized", "Sim transactions killed", fun () -> tl.victimized);
      ];
    Array.iteri
      (fun i cls ->
        Metrics.histogram m
          ~help:"Sim begin->commit latency per txn class (logical I/O ticks)"
          ~labels:[ ("class", cls) ] "ariesrh_sim_txn_latency_ios" (fun () ->
            let h = t.latency.(i) in
            { h with counts = Array.copy h.counts }))
      classes

  let run ?(tick = fun () -> ()) t ~txns =
    register_metrics t;
    let n = t.load.clients in
    (* live-lock guard: enough steps for every transaction's operations
       plus, under log pressure, a full complement of refused attempts
       spent parked in backoff before abandonment *)
    let budget =
      n * txns
      * (((t.load.ops_per_txn + 4) * 50) + (t.max_retries * t.max_backoff))
    in
    let now = ref 0 in
    let busy c = c.finished < txns || c.xid <> None in
    while Array.exists busy t.clients && !now < budget do
      incr now;
      tick ();
      let i = !now mod n in
      step ~allow_begin:(t.clients.(i).finished < txns) t ~now:!now i
    done;
    if Array.exists busy t.clients then
      fail t.outcome
        (Printf.sprintf "live-lock: scheduling budget of %d steps exhausted"
           budget);
    check t.outcome ~label:"quota" ~idempotence:false (fault t) t.sh
      (state t (Hashtbl.mem t.commits));
    ok t.outcome
end

(* --- the escalating crash-point sweep --- *)

type iteration = {
  sh : Sharded.t;
  fault : Fault.t;
  script : Script.t;
  homes : (int, int) Hashtbl.t;
  xid_map : (int, Sharded.xid) Hashtbl.t;
  executed : int;
  crash_io : int;
  label : string;
}

(* Replay one generated script again and again, arming a crash at the
   k-th I/O with k escalating each iteration until the script survives
   untouched — so every I/O of the history gets its turn as the crash
   point. Transactions are co-homed per script component
   ({!Shard_driver.assign_homes}), so each object's one migration is
   lock-free and the sweep walks every I/O point of the transfer
   protocol too. *)
let sweep ~config ~impl ?recovery_mode ?audit ?dump_kind ~name ~tag ~restart
    ~on_checked spec =
  let outcome = fresh_outcome () in
  let script = Gen.generate spec ~seed:config.seed in
  let n_objects = spec.Gen.n_objects in
  let homes = Shard_driver.assign_homes script ~shards:config.shards in
  let step = max 1 config.crash_step in
  let rec go crash_io =
    outcome.runs <- outcome.runs + 1;
    let label =
      Printf.sprintf "%s%s crash_io=%d" name (shards_label config) crash_io
    in
    let finished, after =
      with_engine config ~impl ?recovery_mode
        ~tag:(Printf.sprintf "%sio%d" tag crash_io)
        ~salt:crash_io ~crash_io ~n_objects
        (fun fault sh ->
          let xid_map = Hashtbl.create 16 in
          let executed = ref 0 in
          let finished =
            match
              Shard_driver.run ~xid_map
                ~on_action:(fun i -> executed := i + 1)
                ~homes sh script
            with
            | () -> true
            | exception Fault.Injected_crash _ -> false
          in
          outcome.actions <- outcome.actions + !executed;
          (* a finished run means the armed crash point lies beyond the
             script's total I/O count: every I/O has been a crash point *)
          if finished then Fault.disarm_crash fault
          else outcome.crashes <- outcome.crashes + 1;
          Sharded.crash sh;
          let committed = committed_in sh in
          let expected =
            Oracle.expected_for ~n_objects
              ~committed:(fun t ->
                match Hashtbl.find_opt xid_map t with
                | Some fx -> committed fx
                | None -> false)
              ~crash_at:!executed script
          in
          let fail_before = List.length outcome.failures in
          let after =
            match recover_until_stable config outcome ~restart fault sh with
            | Error msg ->
                fail outcome (Printf.sprintf "%s: %s" label msg);
                ignore
            | Ok () ->
                check outcome ~label ?audit fault sh expected;
                on_checked outcome
                  { sh; fault; script; homes; xid_map; executed = !executed;
                    crash_io; label }
          in
          Option.iter
            (fun kind ->
              dump_engine config outcome ~fail_before ~kind ~crash_io
                ~expected fault sh)
            dump_kind;
          absorb outcome fault sh;
          (finished, after))
    in
    (* runs outside the iteration's backend scope, which installs a
       global backend factory *)
    after ();
    if not finished then go (crash_io + step)
  in
  go step;
  outcome
