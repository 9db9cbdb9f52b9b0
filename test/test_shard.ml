(* The sharded engine: router parity with the plain Db at shards = 1,
   crash-atomicity of the cross-shard transfer protocol at every I/O
   point of its window, the typed refusal, home-table reconstruction
   across restarts, both executors (the domain-per-shard pool and the
   single-domain executor), and the shared pressure view feeding the
   governors. *)

open Ariesrh_types
open Ariesrh_core
open Ariesrh_workload
module Sharded = Ariesrh_shard.Sharded
module Shard_pool = Ariesrh_shard.Shard_pool
module Fault = Ariesrh_fault.Fault
module Log_store = Ariesrh_wal.Log_store
module Record = Ariesrh_wal.Record
module Governor = Ariesrh_maintenance.Governor
module Pressure_view = Ariesrh_maintenance.Pressure_view

let oid = Oid.of_int

let engines = [ ("rh", Config.Rh); ("eager", Config.Eager); ("lazy", Config.Lazy) ]

(* --- shards = 1 is the plain engine ---------------------------------- *)

let log_records db =
  let acc = ref [] in
  let log = Db.log_store db in
  Log_store.iter_forward log ~from:Lsn.nil (fun _ r ->
      acc := Record.encode r :: !acc);
  List.rev !acc

(* Same script through [Driver.run] on a plain Db and [Shard_driver.run]
   on a one-shard router: WAL byte sequence, final states and audits
   must be identical — the router at shards = 1 adds routing, not
   behaviour. *)
let parity_one_shard ~impl ~seed () =
  let n_objects = 48 in
  let spec = { Gen.default with n_objects; n_steps = 400 } in
  let script = Gen.generate spec ~seed in
  let plain = Driver.fresh_db ~impl ~n_objects () in
  Driver.run plain script;
  let sh = Shard_driver.fresh ~impl ~shards:1 ~n_objects () in
  let homes = Shard_driver.assign_homes script ~shards:1 in
  Hashtbl.iter
    (fun _ h -> Alcotest.(check int) "one shard homes everything" 0 h)
    homes;
  Shard_driver.run ~homes sh script;
  Db.flush_commits plain;
  Sharded.flush_commits sh;
  let plain_log = log_records plain in
  let shard_log = log_records (Sharded.db sh 0) in
  Alcotest.(check int) "same log length" (List.length plain_log)
    (List.length shard_log);
  Alcotest.(check bool) "byte-identical WAL" true (plain_log = shard_log);
  let plain_state = Array.init n_objects (fun i -> Db.peek plain (oid i)) in
  Alcotest.(check bool) "identical final state" true
    (plain_state = Sharded.peek_all sh);
  Alcotest.(check (list string)) "plain audit clean" [] (Db.audit plain);
  Alcotest.(check (list string)) "sharded audit clean" [] (Sharded.audit sh);
  let c = Sharded.counters sh in
  Alcotest.(check int) "no migrations at one shard" 0 c.Sharded.migrations

(* --- the transfer protocol ------------------------------------------- *)

let prelude sh =
  (* a committed value on shard 0's object, plus unrelated committed
     work on shard 1, so both logs are non-trivial *)
  let a = Sharded.begin_txn sh ~shard:0 in
  Sharded.write sh a (oid 0) 5;
  Sharded.commit sh a;
  let b = Sharded.begin_txn sh ~shard:1 in
  Sharded.add sh b (oid 1) 3;
  Sharded.commit sh b

(* Crash at one armed I/O point during a migration, restart, and demand
   all-or-nothing: the object is wholly at the source or wholly at the
   target, the committed value intact either way, every audit clean. *)
let crash_once ~impl ~crash_io =
  let fault = Fault.create ~seed:11L () in
  let sh = Shard_driver.fresh ~fault ~impl ~audit:true ~shards:2 ~n_objects:8 () in
  prelude sh;
  Fault.arm_crash_at fault crash_io;
  let crashed =
    match Sharded.migrate sh (oid 0) ~target:1 with
    | () -> false
    | exception Fault.Injected_crash _ -> true
  in
  Fault.disarm_crash fault;
  if crashed then begin
    Sharded.crash sh;
    ignore (Sharded.recover sh)
  end;
  (* all-or-nothing: value readable and intact wherever it ended up *)
  Alcotest.(check int)
    (Printf.sprintf "value intact after crash at io %d" crash_io)
    5 (Sharded.peek sh (oid 0));
  Alcotest.(check (list string))
    (Printf.sprintf "audit clean after crash at io %d" crash_io)
    [] (Sharded.audit sh);
  (match Sharded.validate sh with
  | Ok () -> ()
  | Error m -> Alcotest.failf "validate after crash at io %d: %s" crash_io m);
  (* the protocol must be re-runnable to completion afterwards *)
  Sharded.migrate sh (oid 0) ~target:1;
  Alcotest.(check int) "value after completing the transfer" 5
    (Sharded.peek sh (oid 0));
  Alcotest.(check (list string)) "audit clean after completion" []
    (Sharded.audit sh);
  crashed

(* Sweep every I/O point of the intent -> transfer -> end window. The
   window is measured on an unarmed probe run of the identical
   schedule, so the sweep provably brackets the whole protocol. *)
let transfer_window_sweep impl () =
  let fault = Fault.create ~seed:11L () in
  let sh = Shard_driver.fresh ~fault ~impl ~audit:true ~shards:2 ~n_objects:8 () in
  prelude sh;
  let before = (Fault.stats fault).Fault.ios in
  Sharded.migrate sh (oid 0) ~target:1;
  let after = (Fault.stats fault).Fault.ios in
  Alcotest.(check bool) "the migration window spans I/O points" true
    (after > before);
  let crashes = ref 0 in
  for crash_io = before + 1 to after do
    if crash_once ~impl ~crash_io then incr crashes
  done;
  Alcotest.(check bool) "at least one armed point actually fired" true
    (!crashes > 0)

(* The three specific crash points the protocol argues about, pinned by
   outcome: after the intent alone the transfer must roll back; once
   the target-side record is durable it must roll forward. *)
let resolution_direction () =
  let outcomes = ref [] in
  let fault = Fault.create ~seed:11L () in
  let sh = Shard_driver.fresh ~fault ~impl:Config.Rh ~audit:true ~shards:2 ~n_objects:8 () in
  prelude sh;
  let before = (Fault.stats fault).Fault.ios in
  Sharded.migrate sh (oid 0) ~target:1;
  let after = (Fault.stats fault).Fault.ios in
  for crash_io = before + 1 to after do
    let fault = Fault.create ~seed:11L () in
    let sh =
      Shard_driver.fresh ~fault ~impl:Config.Rh ~audit:true ~shards:2
        ~n_objects:8 ()
    in
    prelude sh;
    Fault.arm_crash_at fault crash_io;
    (match Sharded.migrate sh (oid 0) ~target:1 with
    | () -> ()
    | exception Fault.Injected_crash _ ->
        Sharded.crash sh;
        ignore (Sharded.recover sh);
        let c = Sharded.counters sh in
        outcomes :=
          (c.Sharded.resolved_forward, c.Sharded.resolved_back) :: !outcomes)
  done;
  (* both directions must occur somewhere in the window, and each
     restart resolves at most the one in-doubt transfer *)
  Alcotest.(check bool) "some crash rolled the transfer forward" true
    (List.exists (fun (f, _) -> f = 1) !outcomes);
  Alcotest.(check bool) "some crash rolled the transfer back" true
    (List.exists (fun (_, b) -> b = 1) !outcomes);
  List.iter
    (fun (f, b) ->
      Alcotest.(check bool) "exactly one resolution per restart" true
        (f + b <= 1))
    !outcomes

(* --- refusal --------------------------------------------------------- *)

let refusal_is_typed_and_counted () =
  let sh = Shard_driver.fresh ~shards:2 ~n_objects:8 () in
  let a = Sharded.begin_txn sh ~shard:0 in
  Sharded.add sh a (oid 0) 1;
  let b = Sharded.begin_txn sh ~shard:1 in
  (match Sharded.add sh b (oid 0) 1 with
  | () -> Alcotest.fail "migration should refuse while a lock is held"
  | exception Errors.Xfer_refused { oid = o; holders } ->
      Alcotest.(check int) "refused object" 0 (Oid.to_int o);
      Alcotest.(check bool) "holder named" true (holders = [ a.Sharded.txn ]));
  let c = Sharded.counters sh in
  Alcotest.(check int) "refusal counted" 1 c.Sharded.migrations_refused;
  Alcotest.(check int) "no migration happened" 0 c.Sharded.migrations;
  Sharded.commit sh a;
  (* lock released: the same touch now migrates and applies *)
  Sharded.add sh b (oid 0) 1;
  Sharded.commit sh b;
  Alcotest.(check int) "both adds visible" 2 (Sharded.peek sh (oid 0));
  let c = Sharded.counters sh in
  Alcotest.(check int) "migration counted" 1 c.Sharded.migrations;
  Alcotest.(check (list string)) "audit clean" [] (Sharded.audit sh)

(* --- home reconstruction across restarts ----------------------------- *)

let homes_rebuilt_from_logs () =
  let sh = Shard_driver.fresh ~audit:true ~shards:2 ~n_objects:8 () in
  prelude sh;
  Sharded.migrate sh (oid 0) ~target:1;
  let m1 = (Sharded.counters sh).Sharded.migrations in
  Sharded.crash sh;
  ignore (Sharded.recover sh);
  (* the home table was reset and rebuilt from the durable logs alone:
     a second migrate to the same target must be a no-op *)
  Sharded.migrate sh (oid 0) ~target:1;
  Alcotest.(check int) "migrate to current home is a no-op" m1
    (Sharded.counters sh).Sharded.migrations;
  Alcotest.(check int) "value survived the restart" 5 (Sharded.peek sh (oid 0));
  (* and a transfer back to the base home erases the exception entry *)
  Sharded.migrate sh (oid 0) ~target:0;
  Sharded.crash sh;
  ignore (Sharded.recover sh);
  Sharded.migrate sh (oid 0) ~target:0;
  Alcotest.(check int) "round trip counted once each way" (m1 + 1)
    (Sharded.counters sh).Sharded.migrations;
  Alcotest.(check int) "value survived the round trip" 5
    (Sharded.peek sh (oid 0));
  Alcotest.(check (list string)) "audit clean" [] (Sharded.audit sh)

(* --- torn-page repair keeps transfers -------------------------------- *)

(* Repair rebuilds a torn page from its shadow by replaying the durable
   log. Skipping Xfer_in there drops the adopted value, and a later
   update on the page lifts its LSN past the transfer, so redo never
   restores it: this storm lost ob23's committed +1 from crash #43 on. *)
let sim_storm_repairs_transfers () =
  let o =
    Crash_storm.run_sim
      ~config:{ Crash_storm.default_config with shards = 2 }
      ~sim:{ Crash_storm.default_sim with steps = 600 }
      ()
  in
  Alcotest.(check (list string)) "no failures" [] o.Storm.failures;
  Alcotest.(check bool) "torn pages were repaired" true
    (o.Storm.repaired_pages > 0)

(* --- cross-shard delegation stays explicit --------------------------- *)

let delegation_requires_one_shard () =
  let sh = Shard_driver.fresh ~shards:2 ~n_objects:8 () in
  let a = Sharded.begin_txn sh ~shard:0 in
  let b = Sharded.begin_txn sh ~shard:1 in
  Sharded.add sh a (oid 0) 1;
  (match Sharded.delegate sh ~from_:a ~to_:b (oid 0) with
  | () -> Alcotest.fail "cross-shard delegate must be refused"
  | exception Invalid_argument m ->
      Alcotest.(check bool) "names both shards" true
        (String.length m > 0));
  Sharded.abort sh a;
  Sharded.abort sh b

(* --- the domain pool ------------------------------------------------- *)

let pool_basics () =
  let pool = Shard_pool.create 3 in
  Alcotest.(check int) "size" 3 (Shard_pool.size pool);
  Alcotest.(check int) "exec returns" 42 (Shard_pool.exec pool 2 (fun () -> 42));
  (* every shard job runs on its own domain, none on the caller's *)
  let me = Domain.self () in
  let ids = Shard_pool.map pool (fun _ -> Domain.self ()) in
  Array.iter
    (fun id -> Alcotest.(check bool) "not the main domain" true (id <> me))
    ids;
  Alcotest.(check int) "three distinct domains" 3
    (List.length (List.sort_uniq compare (Array.to_list ids)));
  (* worker-to-peer calls nest without deadlock *)
  Alcotest.(check int) "nested exec" 7
    (Shard_pool.exec pool 0 (fun () -> Shard_pool.exec pool 1 (fun () -> 7)));
  (* exceptions cross back to the caller *)
  (match Shard_pool.exec pool 1 (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception should propagate"
  | exception Failure m -> Alcotest.(check string) "message" "boom" m);
  Shard_pool.poll pool;
  (* a no-op on the main domain *)
  (* a posted job runs before a later exec to the same shard ([seen] is
     touched on worker 1 only) *)
  let seen = ref 0 in
  Shard_pool.post pool 1 (fun () -> seen := 1);
  Alcotest.(check int) "post runs before a later exec" 1
    (Shard_pool.exec pool 1 (fun () -> !seen));
  (* from the shard's own worker, post runs inline *)
  Alcotest.(check bool) "post from its own worker runs inline" true
    (Shard_pool.exec pool 2 (fun () ->
         let ran = ref false in
         Shard_pool.post pool 2 (fun () -> ran := true);
         !ran));
  (* a posted job's exception reaches the next caller, once *)
  Shard_pool.post pool 1 (fun () -> failwith "late");
  (match Shard_pool.exec pool 1 (fun () -> 0) with
  | _ -> Alcotest.fail "a posted job's exception was lost"
  | exception Failure m ->
      Alcotest.(check string) "posted failure surfaces" "late" m);
  Alcotest.(check int) "reported once" 3 (Shard_pool.exec pool 1 (fun () -> 3));
  (* shutdown runs whatever is still queued *)
  let drained = Atomic.make 0 in
  for _ = 1 to 20 do
    Shard_pool.post pool 0 (fun () ->
        Unix.sleepf 1e-4;
        Atomic.incr drained)
  done;
  Shard_pool.shutdown pool;
  Alcotest.(check int) "shutdown drains posted jobs" 20 (Atomic.get drained);
  Shard_pool.shutdown pool (* idempotent *);
  (* a failure nobody collected surfaces at shutdown *)
  let lone = Shard_pool.create 1 in
  Shard_pool.post lone 0 (fun () -> failwith "unread");
  match Shard_pool.shutdown lone with
  | () -> Alcotest.fail "shutdown dropped a posted failure"
  | exception Failure m ->
      Alcotest.(check string) "shutdown re-raises it" "unread" m

(* The single-domain executor: every job on the caller, at once. *)
let inline_executor () =
  let ex = Shard_pool.inline 3 in
  Alcotest.(check int) "size" 3 (Shard_pool.size ex);
  let me = Domain.self () in
  Alcotest.(check bool) "exec runs in place" true
    (Shard_pool.exec ex 2 (fun () -> Domain.self ()) = me);
  let ran = ref false in
  Shard_pool.post ex 1 (fun () -> ran := true);
  Alcotest.(check bool) "post runs at once" true !ran;
  (match Shard_pool.post ex 1 (fun () -> failwith "now") with
  | () -> Alcotest.fail "a posted job's exception was not raised"
  | exception Failure m ->
      Alcotest.(check string) "post raises to its caller" "now" m);
  Alcotest.(check int) "nothing parked for the next exec" 4
    (Shard_pool.exec ex 1 (fun () -> 4));
  let order = ref [] in
  let visit i = order := i :: !order; i * 10 in
  Alcotest.(check (array int)) "map results" [| 0; 10; 20 |]
    (Shard_pool.map ex visit);
  Alcotest.(check (list int)) "map in shard order" [ 0; 1; 2 ]
    (List.rev !order);
  order := [];
  (match
     Shard_pool.map ex (fun i -> if i = 1 then failwith "stop" else visit i)
   with
  | _ -> Alcotest.fail "map dropped a raise"
  | exception Failure m -> Alcotest.(check string) "map raises" "stop" m);
  Alcotest.(check (list int)) "map stops at the first raise" [ 0 ] !order;
  (* the pause and poll neither wait nor draw from the global PRNG *)
  let st = Random.get_state () in
  Shard_pool.poll ex;
  Shard_pool.pause ex;
  Alcotest.(check int) "pause is empty" (Random.State.bits st) (Random.bits ());
  Shard_pool.shutdown ex

(* Without a pool the close is posted too, and runs at once: the source
   logs [Xfer_end] right after its [Xfer_out], and nothing of the
   transfer is left outstanding. *)
let inline_close_in_protocol_order () =
  let sh =
    Sharded.create
      (Config.make ~n_objects:8 ~objects_per_page:4 ~buffer_capacity:4
         ~impl:Config.Rh ~locking:true ~shards:2 ())
  in
  prelude sh;
  let b = Sharded.begin_txn sh ~shard:1 in
  Sharded.add sh b (oid 0) 1;
  Sharded.commit sh b;
  (match Sharded.validate sh with
  | Ok () -> ()
  | Error m -> Alcotest.failf "validate: %s" m);
  let bodies = ref [] in
  Log_store.iter_forward (Db.log_store (Sharded.db sh 0)) ~from:Lsn.nil
    (fun _ r -> bodies := r.Record.body :: !bodies);
  let rec after_out = function
    | Record.Xfer_out { xfer_id; _ } :: next :: _ -> Some (xfer_id, next)
    | _ :: rest -> after_out rest
    | [] -> None
  in
  match after_out (List.rev !bodies) with
  | Some (id, Record.Xfer_end { xfer_id; committed; _ }) ->
      Alcotest.(check int) "closes the same transfer" id xfer_id;
      Alcotest.(check bool) "committed" true committed
  | Some _ -> Alcotest.fail "the record after Xfer_out is not its Xfer_end"
  | None -> Alcotest.fail "no Xfer_out on the source log"

let pooled_router_end_to_end () =
  let pool = Shard_pool.create 2 in
  let sh =
    Sharded.create ~pool
      (Config.make ~n_objects:8 ~objects_per_page:4 ~buffer_capacity:4
         ~impl:Config.Rh ~locking:true ~shards:2 ())
  in
  (* main-domain caller, ops shipped to the workers; a cross-shard touch
     migrates through both workers' queues *)
  let a = Sharded.begin_txn sh ~shard:0 in
  Sharded.write sh a (oid 0) 9;
  Sharded.commit sh a;
  let b = Sharded.begin_txn sh ~shard:1 in
  Sharded.add sh b (oid 0) 1;
  Sharded.commit sh b;
  Sharded.flush_commits sh;
  Alcotest.(check int) "migrated value visible" 10 (Sharded.peek sh (oid 0));
  Alcotest.(check int) "one migration" 1
    (Sharded.counters sh).Sharded.migrations;
  Alcotest.(check (list string)) "audit clean" [] (Sharded.audit sh);
  (* parallel recovery over the pool *)
  Sharded.crash sh;
  let reports = Sharded.recover sh in
  Alcotest.(check int) "one report per shard" 2 (Array.length reports);
  Alcotest.(check int) "state after pooled restart" 10
    (Sharded.peek sh (oid 0));
  Sharded.close sh;
  Shard_pool.shutdown pool

(* Two workers in closed loops on their own shards; every 5th
   transaction also adds to one of a few roaming objects of the peer,
   and each worker's own objects include its roaming ones, so objects
   migrate both ways while the peer runs ops and posted closes. A
   refused transfer aborts and retries the whole transaction. *)
let pooled_concurrent_migration () =
  let shards = 2 and n_objects = 32 and roaming = 3 and txns = 300 in
  let pool = Shard_pool.create shards in
  Fun.protect ~finally:(fun () -> Shard_pool.shutdown pool) @@ fun () ->
  let sh =
    Sharded.create ~pool
      (Config.make ~n_objects ~objects_per_page:4 ~buffer_capacity:8
         ~impl:Config.Rh ~locking:true ~audit:true ~shards ())
  in
  let worker i =
    let rng = Random.State.make [| 5; i |] in
    let pick owner range = oid (owner + (shards * Random.State.int rng range)) in
    let applied = ref 0 in
    for k = 1 to txns do
      Shard_pool.poll pool;
      let objs = List.init 3 (fun _ -> pick i (n_objects / shards)) in
      let objs =
        if k mod 5 = 0 then pick ((i + 1) mod shards) roaming :: objs else objs
      in
      let rec attempt tries =
        let x = Sharded.begin_txn sh ~shard:i in
        match List.iter (fun o -> Sharded.add sh x o 1) objs with
        | () ->
            Sharded.commit sh x;
            applied := !applied + List.length objs
        | exception Errors.Xfer_refused _ ->
            Sharded.abort sh x;
            if tries >= 100_000 then Alcotest.fail "a transfer never got through";
            attempt (tries + 1)
      in
      attempt 0
    done;
    !applied
  in
  let applied = Array.fold_left ( + ) 0 (Shard_pool.map pool worker) in
  Alcotest.(check bool) "objects migrated" true
    ((Sharded.counters sh).Sharded.migrations > 0);
  let check what =
    Alcotest.(check int)
      (what ^ ": value conserved")
      applied
      (Array.fold_left ( + ) 0 (Sharded.peek_all sh));
    Alcotest.(check (list string)) (what ^ ": audit clean") [] (Sharded.audit sh);
    match Sharded.validate sh with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: %s" what m
  in
  check "after the load";
  Sharded.crash sh;
  ignore (Sharded.recover sh);
  check "after restart";
  Sharded.close sh

(* A close posted one way can still sit in the source's queue when the
   engine crashes: the transfer's commit point ([Xfer_in]) is durable,
   its close is not. Shard 0's worker is parked once it has served the
   source phase, so the close queues behind it; the target meanwhile
   runs an op on the object without waiting for the close. *)
let close_queued_at_crash () =
  let pool = Shard_pool.create 2 in
  Fun.protect ~finally:(fun () -> Shard_pool.shutdown pool) @@ fun () ->
  let sh =
    Sharded.create ~pool
      (Config.make ~n_objects:8 ~objects_per_page:4 ~buffer_capacity:4
         ~impl:Config.Rh ~locking:true ~audit:true ~shards:2 ())
  in
  let a = Sharded.begin_txn sh ~shard:0 in
  Sharded.write sh a (oid 0) 5;
  Sharded.commit sh a;
  let log0 = Db.log_store (Sharded.db sh 0) in
  let queued = Atomic.make false and crashed = Atomic.make false in
  Shard_pool.post pool 0 (fun () ->
      let head = Log_store.head log0 in
      while Lsn.equal (Log_store.head log0) head do
        Shard_pool.poll pool
      done;
      (* the intent is forced; stop serving the queue *)
      while not (Atomic.get queued) do
        Domain.cpu_relax ()
      done;
      Sharded.crash sh;
      Atomic.set crashed true);
  let b = Sharded.begin_txn sh ~shard:1 in
  Sharded.add sh b (oid 0) 1;
  Sharded.commit sh b;
  Alcotest.(check int) "homed on the target" 1 (Sharded.home sh (oid 0));
  Atomic.set queued true;
  while not (Atomic.get crashed) do
    Domain.cpu_relax ()
  done;
  ignore (Sharded.recover sh);
  Alcotest.(check int) "the unclosed transfer rolled forward" 1
    (Sharded.counters sh).Sharded.resolved_forward;
  Alcotest.(check int) "still homed on the target" 1 (Sharded.home sh (oid 0));
  Alcotest.(check int) "value and the later op on the target" 6
    (Sharded.peek sh (oid 0));
  Alcotest.(check (list string)) "audit clean" [] (Sharded.audit sh);
  (match Sharded.validate sh with
  | Ok () -> ()
  | Error m -> Alcotest.failf "validate: %s" m);
  Sharded.close sh

(* --- the shared pressure view ---------------------------------------- *)

let pressure_view_basics () =
  let v = Pressure_view.create 3 in
  Alcotest.(check int) "size" 3 (Pressure_view.size v);
  Pressure_view.publish v 0 0.25;
  Pressure_view.publish v 2 0.75;
  Alcotest.(check (float 1e-9)) "slot read back" 0.25 (Pressure_view.shard v 0);
  Alcotest.(check (float 1e-9)) "max" 0.75 (Pressure_view.max_pressure v);
  Alcotest.(check (float 1e-9)) "mean" (1.0 /. 3.0) (Pressure_view.mean v);
  (match Pressure_view.publish v 3 0.5 with
  | () -> Alcotest.fail "out-of-range slot must be refused"
  | exception Invalid_argument _ -> ())

(* A hot peer shard engages this governor's advisory backpressure even
   though local pressure is low — and precisely because local pressure
   is low, it never victimizes a local transaction. *)
let governor_follows_cluster_pressure () =
  let view = Pressure_view.create 2 in
  let db =
    Db.create
      (Config.make ~n_objects:16 ~objects_per_page:4 ~buffer_capacity:4
         ~impl:Config.Rh ~locking:true ~log_capacity_records:1000 ())
  in
  let gov = Governor.create ~view:(view, 0) db in
  let x = Db.begin_txn db in
  Db.add db x (oid 1) 1;
  (* peer runs hot *)
  Pressure_view.publish view 1 0.95;
  Governor.force_tick gov;
  Alcotest.(check bool) "advisory ladder engaged" true (Governor.level gov >= 1);
  Alcotest.(check (list (pair (module Xid) int))) "no local victim"
    []
    (List.map (fun x -> (x, 0)) (Governor.victims gov));
  (* peer cools down: hysteresis drops the backpressure *)
  Pressure_view.publish view 1 0.0;
  Governor.force_tick gov;
  Alcotest.(check int) "deescalated" 0 (Governor.level gov);
  Db.commit db x;
  (* slot range is validated at attach time *)
  match Governor.create ~view:(view, 5) db with
  | _ -> Alcotest.fail "bad view slot must be refused"
  | exception Invalid_argument _ -> ()

(* --- restart reads only what it replays ------------------------------ *)

(* An inline two-shard restart charges one log read per record of each
   shard's forward pass, one for the master checkpoint record analysis
   starts from, and one per transfer record the router resolves from:
   the surgery and transfer preambles walk the logs' control index
   instead of rescanning every log. *)
let restart_reads_forward_plus_control () =
  let sh = Shard_driver.fresh ~shards:2 ~n_objects:16 () in
  let work round =
    for i = 0 to 7 do
      let o = oid ((2 * i) + (round mod 2)) in
      let a = Sharded.begin_txn sh ~shard:(Sharded.home sh o) in
      Sharded.add sh a o 1;
      Sharded.commit sh a;
      Sharded.migrate sh o ~target:(1 - Sharded.home sh o)
    done
  in
  work 0;
  Sharded.checkpoint sh;
  work 1;
  Sharded.flush_commits sh;
  let logs = Array.map Db.log_store (Sharded.dbs sh) in
  Array.iter (fun log -> Log_store.flush log ~upto:(Log_store.head log)) logs;
  Sharded.crash sh;
  let retained = ref 0 and transfers = ref 0 in
  Array.iter
    (fun log ->
      Log_store.iter_forward log ~from:Lsn.nil (fun _ r ->
          incr retained;
          match r.Record.body with
          | Record.Xfer_out _ | Record.Xfer_in _ | Record.Xfer_end _ ->
              incr transfers
          | _ -> ()))
    logs;
  let reads () =
    Array.fold_left
      (fun n log -> n + (Log_store.stats log).Ariesrh_wal.Log_stats.reads)
      0 logs
  in
  let before = reads () in
  let reports = Sharded.recover sh in
  let forward =
    Array.fold_left
      (fun n r -> n + r.Ariesrh_recovery.Report.forward_records)
      0 reports
  in
  Alcotest.(check bool) "transfers happened" true (!transfers >= 32);
  Alcotest.(check bool) "the checkpoint bounds the forward pass" true
    (forward < !retained);
  Alcotest.(check int) "reads = forward + master + transfer records"
    (forward + Array.length logs + !transfers)
    (reads () - before);
  Alcotest.(check (list string)) "audit clean" [] (Sharded.audit sh)

let suite =
  List.map
    (fun (name, impl) ->
      Alcotest.test_case
        (Printf.sprintf "shards=1 parity (%s)" name)
        `Quick
        (parity_one_shard ~impl ~seed:(Int64.of_int (17 + Hashtbl.hash name))))
    engines
  @ List.map
      (fun (name, impl) ->
        Alcotest.test_case
          (Printf.sprintf "transfer-window crash sweep (%s)" name)
          `Quick (transfer_window_sweep impl))
      engines
  @ [
      Alcotest.test_case "restart resolves both directions" `Quick
        resolution_direction;
      Alcotest.test_case "refusal is typed and counted" `Quick
        refusal_is_typed_and_counted;
      Alcotest.test_case "homes rebuilt from durable logs" `Quick
        homes_rebuilt_from_logs;
      Alcotest.test_case "torn-page repair replays transfers (sim storm)"
        `Quick sim_storm_repairs_transfers;
      Alcotest.test_case "cross-shard delegate is refused" `Quick
        delegation_requires_one_shard;
      Alcotest.test_case "restart reads forward range plus control records"
        `Quick restart_reads_forward_plus_control;
      Alcotest.test_case "pool basics" `Quick pool_basics;
      Alcotest.test_case "single-domain executor" `Quick inline_executor;
      Alcotest.test_case "inline close follows its intent" `Quick
        inline_close_in_protocol_order;
      Alcotest.test_case "pooled router end to end" `Quick
        pooled_router_end_to_end;
      Alcotest.test_case "pooled workers migrate into each other" `Quick
        pooled_concurrent_migration;
      Alcotest.test_case "a close still queued at crash rolls forward" `Quick
        close_queued_at_crash;
      Alcotest.test_case "pressure view basics" `Quick pressure_view_basics;
      Alcotest.test_case "governor follows cluster pressure" `Quick
        governor_follows_cluster_pressure;
    ]
