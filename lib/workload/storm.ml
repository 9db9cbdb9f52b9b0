open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Record = Ariesrh_wal.Record
module Backend = Ariesrh_storage.Backend
module Sharded = Ariesrh_shard.Sharded

(* The storm core: one engine handle (a [Sharded.t], one shard being a
   plain [Db] byte for byte), one escalating crash-point sweep, one
   restart-under-fire loop, one check battery and one forensic writer.
   A storm is a fault plan over these: which restart it drives, which
   extra checks it runs per iteration, which dumps it writes. *)

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
  mutable migrations : int;
  mutable migration_refusals : int;
  mutable xfers_resolved : int;
  mutable instant_opens : int;
  mutable drain_steps : int;
  mutable refusals : int;
  mutable degraded_serves : int;
  mutable foreground_repairs : int;
  mutable twin_checks : int;
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
    migrations = 0;
    migration_refusals = 0;
    xfers_resolved = 0;
    instant_opens = 0;
    drain_steps = 0;
    refusals = 0;
    degraded_serves = 0;
    foreground_repairs = 0;
    twin_checks = 0;
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
    migrations = a.migrations + b.migrations;
    migration_refusals = a.migration_refusals + b.migration_refusals;
    xfers_resolved = a.xfers_resolved + b.xfers_resolved;
    instant_opens = a.instant_opens + b.instant_opens;
    drain_steps = a.drain_steps + b.drain_steps;
    refusals = a.refusals + b.refusals;
    degraded_serves = a.degraded_serves + b.degraded_serves;
    foreground_repairs = a.foreground_repairs + b.foreground_repairs;
    twin_checks = a.twin_checks + b.twin_checks;
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

(* Each storm database gets its own directory under [root]: an existing
   directory would be the reopen path, and a storm iteration must start
   from an empty database. *)
let fresh_backend root ~tag =
  match root with
  | None -> Backend.Sim
  | Some root ->
      let dir = Filename.concat root tag in
      Backend.remove_tree dir;
      Backend.File { dir }

let close_and_remove db =
  Db.close db;
  match Db.backend db with
  | Backend.File { dir } -> Backend.remove_tree dir
  | Backend.Sim -> ()

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

(* The responsibility ledger: holder -> increments it is currently
   responsible for. Entries move on delegation and never otherwise; the
   expected state sums the entries of the holders that count (durably
   committed, or committed at or below some LSN). A commit record's
   force covers every earlier delegate record, so a durable commit
   implies its delegated-in entries' transfers are durable too. *)
module Ledger = struct
  type 'x t = ('x, (int * int) list) Hashtbl.t

  let create () : 'x t = Hashtbl.create 64
  let entries t x = Option.value ~default:[] (Hashtbl.find_opt t x)
  let add t x o d = Hashtbl.replace t x ((o, d) :: entries t x)

  let move t ~from_ ~to_ o =
    let moved, kept =
      List.partition (fun (o', _) -> o' = o) (entries t from_)
    in
    Hashtbl.replace t from_ kept;
    Hashtbl.replace t to_ (moved @ entries t to_)

  let state t ~n_objects counts =
    let v = Array.make n_objects 0 in
    Hashtbl.iter
      (fun x es ->
        if counts x then List.iter (fun (o, d) -> v.(o) <- v.(o) + d) es)
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
let with_engine config ?(impl = Config.Rh) ?recovery_mode ~tag ~salt
    ?crash_io ~n_objects f =
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
               let shard = Printf.sprintf "shard%d" !next in
               incr next;
               fresh_backend (Some dir) ~tag:shard));
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
          ~tracing:(config.forensic_dir <> None)
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
    | exception e -> Error (Printexc.to_string e)
  in
  go 0

(* On a mismatch, the first diverging object's log history (updates,
   delegations, compensations) is the fastest route to the bug. *)
let describe_object db i =
  let b = Buffer.create 128 in
  let xid = Format.asprintf "%a" Xid.pp in
  List.iter
    (fun e ->
      Buffer.add_string b
        (match e with
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
              (Lsn.to_int undone)))
    (Db.object_history db (Oid.of_int i));
  Buffer.contents b

(* The check battery, faults gated off so it is deterministic: state
   against the oracle, structural invariants, optionally the self-audit,
   and restart idempotence (crash + bare restart + full drain must
   reproduce the same state). *)
let check outcome ~label ?(audit = false) fault sh expected =
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
  (match
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
        (Printf.sprintf "%s: re-restart raised %s" label
           (Printexc.to_string e)));
  Fault.set_enabled fault true

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
