(* Log-space governance: bounded WAL admission, reservation so rollback
   and restart never die of [Log_full], the watermark governor with
   delegation-aware backpressure and victimization, the capacity-squeeze
   fault, E8 reclamation down to the pinned scope, and pressure-storm
   smoke across all three engines. *)

open Ariesrh_types
open Ariesrh_wal
open Ariesrh_core
open Ariesrh_workload
module Fault = Ariesrh_fault.Fault
module Governor = Ariesrh_maintenance.Governor
module Sharded = Ariesrh_shard.Sharded

let xid = Xid.of_int
let oid = Oid.of_int
let lsn = Lsn.of_int

let mk ?fault ?(impl = Config.Rh) ?capacity_bytes ?capacity_records () =
  Db.create ?fault
    (Config.make ~n_objects:64 ~objects_per_page:4 ~buffer_capacity:8 ~impl
       ~locking:true ?log_capacity_bytes:capacity_bytes
       ?log_capacity_records:capacity_records ())

let mk_update i =
  Record.mk (xid 1) ~prev:Lsn.nil
    (Record.Update
       { oid = oid i; page = Page_id.of_int 0; op = Record.Add 1 })

let update_size = String.length (Record.encode (mk_update 1))

(* --- log store admission ------------------------------------------- *)

let byte_capacity_enforced () =
  let sz = update_size in
  let log = Log_store.create ~capacity_bytes:(3 * sz) () in
  for i = 1 to 3 do
    ignore (Log_store.append log (mk_update i))
  done;
  (match Log_store.append log (mk_update 4) with
  | exception
      Log_store.Log_full
        { dimension = Log_store.Bytes; need; used; reserved; capacity } ->
      Alcotest.(check int) "need" sz need;
      Alcotest.(check int) "used" (3 * sz) used;
      Alcotest.(check int) "reserved" 0 reserved;
      Alcotest.(check int) "capacity" (3 * sz) capacity
  | _ -> Alcotest.fail "4th append should not fit");
  (* bypass path still admits: recovery must never be refused *)
  ignore (Log_store.append_reserved log (mk_update 4));
  Alcotest.(check int) "used all 4" (4 * sz) (Log_store.used_bytes log);
  Alcotest.(check int) "one admission reject" 1
    (Log_store.stats log).Log_stats.admission_rejects

let record_capacity_enforced () =
  let log = Log_store.create ~capacity_records:2 () in
  ignore (Log_store.append log (mk_update 1));
  ignore (Log_store.append log (mk_update 2));
  match Log_store.append log (mk_update 3) with
  | exception Log_store.Log_full { dimension = Log_store.Records; _ } -> ()
  | _ -> Alcotest.fail "3rd record should not fit"

let reservation_blocks_admission () =
  let sz = update_size in
  let log = Log_store.create ~capacity_bytes:(4 * sz) () in
  Log_store.reserve log ~bytes:(2 * sz) ~records:0;
  ignore (Log_store.append log (mk_update 1));
  ignore (Log_store.append log (mk_update 2));
  (match Log_store.append log (mk_update 3) with
  | exception Log_store.Log_full { reserved; _ } ->
      Alcotest.(check int) "pool visible in the refusal" (2 * sz) reserved
  | _ -> Alcotest.fail "reserved space must not be admittable");
  (* releasing the obligation opens the space back up *)
  Log_store.unreserve log ~bytes:sz ~records:0;
  ignore (Log_store.append log (mk_update 3));
  Alcotest.(check int) "reservations counted" 1
    (Log_store.stats log).Log_stats.reservations

let pressure_reads_back () =
  let sz = update_size in
  let log = Log_store.create ~capacity_bytes:(4 * sz) () in
  Alcotest.(check (float 0.001)) "empty" 0.0 (Log_store.pressure log);
  ignore (Log_store.append log (mk_update 1));
  ignore (Log_store.append log (mk_update 2));
  Alcotest.(check (float 0.001)) "half" 0.5 (Log_store.pressure log);
  let unbounded = Log_store.create () in
  ignore (Log_store.append unbounded (mk_update 1));
  Alcotest.(check (float 0.001)) "unbounded is pressureless" 0.0
    (Log_store.pressure unbounded)

(* --- rollback and restart never die of Log_full -------------------- *)

let abort_survives_full_log () =
  let db = mk ~capacity_bytes:2048 () in
  let t = Db.begin_txn db in
  let i = ref 0 in
  (try
     while true do
       Db.add db t (oid (!i mod 64)) 1;
       incr i
     done
   with Log_store.Log_full _ -> ());
  Alcotest.(check bool) "filled the log" true (!i > 0);
  Db.abort db t;
  Alcotest.(check bool) "rolled back" false (Db.is_active db t);
  for o = 0 to 63 do
    Alcotest.(check int) "undone" 0 (Db.peek db (oid o))
  done

let begin_reserves_rollback_space () =
  let db = mk ~capacity_records:3 () in
  let t1 = Db.begin_txn db in
  (match Db.begin_txn db with
  | exception Log_store.Log_full { dimension = Log_store.Records; _ } -> ()
  | _ ->
      Alcotest.fail
        "a second begin must not fit: the first holds the whole budget");
  (* abort+end ride on the reservation made at begin *)
  Db.abort db t1;
  Alcotest.(check int) "begin/abort/end retained" 3
    (Log_store.used_records (Db.log_store db))

let restart_survives_full_log () =
  let db = mk ~capacity_bytes:1600 () in
  let t1 = Db.begin_txn db in
  Db.add db t1 (oid 1) 5;
  Db.commit db t1;
  let t2 = Db.begin_txn db in
  (try
     while true do
       Db.add db t2 (oid 2) 1
     done
   with Log_store.Log_full _ -> ());
  Db.crash db;
  ignore (Db.recover db);
  Alcotest.(check int) "winner survived" 5 (Db.peek db (oid 1));
  Alcotest.(check int) "loser undone" 0 (Db.peek db (oid 2));
  Alcotest.(check int) "pool reset by the crash" 0
    (Log_store.reserved_bytes (Db.log_store db))

(* --- typed backpressure -------------------------------------------- *)

let backpressure_typed_errors () =
  let db = mk () in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.add db t1 (oid 3) 1;
  let op_lsn = Db.last_lsn_of db t1 in
  Db.set_backpressure db ~begins:true ~delegations:true;
  (match Db.begin_txn db with
  | exception Errors.Overloaded { reason = Errors.Begin_refused; _ } -> ()
  | _ -> Alcotest.fail "begin should be refused");
  (match Db.delegate db ~from_:t1 ~to_:t2 (oid 3) with
  | exception
      Errors.Overloaded { reason = Errors.Delegation_refused; xid = Some x }
    ->
      Alcotest.(check bool) "names the delegator" true (Xid.equal x t1)
  | _ -> Alcotest.fail "delegation should be refused");
  (match Db.delegate_update db ~from_:t1 ~to_:t2 (oid 3) op_lsn with
  | exception Errors.Overloaded { reason = Errors.Delegation_refused; _ } ->
      ()
  | _ -> Alcotest.fail "operation delegation should be refused");
  (* hysteresis: lifting the flags restores service, nothing was lost *)
  Db.set_backpressure db ~begins:false ~delegations:false;
  Db.delegate db ~from_:t1 ~to_:t2 (oid 3);
  let t3 = Db.begin_txn db in
  Db.commit db t3;
  Db.commit db t2;
  Db.commit db t1;
  Alcotest.(check int) "delegated work committed" 1 (Db.peek db (oid 3))

let pp_exn_covers_pressure_errors () =
  let printed e = Format.asprintf "%a" Errors.pp_exn e in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "overloaded (begin)" true
    (contains
       (printed
          (Errors.Overloaded { xid = Some (xid 3); reason = Errors.Begin_refused }))
       "overloaded");
  Alcotest.(check bool) "overloaded (delegation)" true
    (contains
       (printed
          (Errors.Overloaded { xid = None; reason = Errors.Delegation_refused }))
       "delegations refused");
  Alcotest.(check bool) "truncated past backup" true
    (contains
       (printed
          (Errors.Log_truncated_past_backup
             { backup = lsn 5; retained = lsn 9 }))
       "truncated past the backup");
  Alcotest.(check bool) "unsupported by engine" true
    (contains
       (printed (Errors.Unsupported_by_engine { op = "x"; impl = "eager" }))
       "not supported by the eager engine");
  Alcotest.(check bool) "log full" true
    (contains
       (printed
          (Log_store.Log_full
             {
               dimension = Log_store.Bytes;
               need = 1;
               used = 2;
               reserved = 3;
               capacity = 4;
             }))
       "log full")

(* --- the governor --------------------------------------------------- *)

let governor_reclaims_below_soft () =
  let db = mk ~capacity_bytes:4096 () in
  let gov =
    Governor.create
      ~config:{ Governor.default_config with tick_every = 1; min_ckpt_gap = 4 }
      db
  in
  for i = 1 to 120 do
    let t = Db.begin_txn db in
    Db.add db t (oid (i mod 64)) 1;
    Db.commit db t;
    Governor.tick gov
  done;
  let gs = Governor.stats gov in
  Alcotest.(check bool) "checkpointed" true (gs.Governor.checkpoints > 0);
  Alcotest.(check bool) "truncated" true (gs.Governor.records_truncated > 0);
  Alcotest.(check bool) "pressure held below hard" true
    (Db.log_pressure db < Governor.default_config.Governor.hard);
  Alcotest.(check int) "no backpressure engaged" 0 (Governor.level gov)

let governor_victimizes_oldest_pinner () =
  let db = mk ~capacity_bytes:4096 () in
  let gov =
    Governor.create
      ~config:
        {
          Governor.default_config with
          tick_every = 1;
          min_ckpt_gap = 1;
          policies = [ Governor.Victimize_oldest ];
        }
      db
  in
  let collector = Db.begin_txn db in
  let i = ref 0 in
  while Db.is_active db collector && !i < 200 do
    incr i;
    (try
       let w = Db.begin_txn db in
       (try
          Db.add db w (oid ((!i mod 60) + 1)) 1;
          Db.delegate db ~from_:w ~to_:collector (oid ((!i mod 60) + 1))
        with Log_store.Log_full _ -> ());
       Db.commit db w
     with Log_store.Log_full _ -> ());
    Governor.force_tick gov
  done;
  Alcotest.(check bool) "collector was victimized" false
    (Db.is_active db collector);
  let gs = Governor.stats gov in
  Alcotest.(check bool) "victim counted" true (gs.Governor.victims >= 1);
  Alcotest.(check bool) "victim list names the collector" true
    (List.exists (Xid.equal collector) (Governor.victims gov));
  Alcotest.(check bool) "hard trips recorded" true (gs.Governor.hard_trips > 0);
  Alcotest.(check bool) "victimization relieved the pressure" true
    (Db.log_pressure db < 1.0);
  (* the victim's rollback undid its delegated-in increments *)
  ignore (Db.truncate_log db)

let governor_escalation_ladder () =
  let db = mk ~capacity_bytes:2600 () in
  (* a long-lived delegatee pins the horizon so reclamation cannot help *)
  let collector = Db.begin_txn db in
  let probe = Db.begin_txn db in
  Db.add db probe (oid 63) 1;
  (try
     let i = ref 0 in
     while Db.log_pressure db < 0.9 do
       incr i;
       let w = Db.begin_txn db in
       Db.add db w (oid ((!i mod 60) + 1)) 1;
       Db.delegate db ~from_:w ~to_:collector (oid ((!i mod 60) + 1));
       Db.commit db w
     done
   with Log_store.Log_full _ -> ());
  let gov =
    Governor.create
      ~config:
        {
          Governor.default_config with
          tick_every = 1;
          min_ckpt_gap = 1;
          policies = [ Governor.Refuse_delegations; Governor.Refuse_begins ];
        }
      db
  in
  Governor.force_tick gov;
  Alcotest.(check int) "first trip refuses delegations" 1 (Governor.level gov);
  (match Db.delegate db ~from_:probe ~to_:collector (oid 63) with
  | exception Errors.Overloaded { reason = Errors.Delegation_refused; _ } -> ()
  | exception e ->
      Alcotest.failf "expected the typed overload, got %a" Errors.pp_exn e
  | () -> Alcotest.fail "delegation should be refused at level 1");
  Governor.force_tick gov;
  Alcotest.(check int) "second trip refuses begins" 2 (Governor.level gov);
  (match Db.begin_txn db with
  | exception Errors.Overloaded { reason = Errors.Begin_refused; _ } -> ()
  | _ -> Alcotest.fail "begin should be refused at level 2");
  (* the ladder is capped at the configured policies *)
  Governor.force_tick gov;
  Alcotest.(check int) "capped" 2 (Governor.level gov);
  (* resolving the pinners lets the governor reclaim and de-escalate *)
  Db.commit db probe;
  Db.commit db collector;
  Governor.force_tick gov;
  Governor.force_tick gov;
  Alcotest.(check int) "de-escalated" 0 (Governor.level gov);
  let t = Db.begin_txn db in
  Db.commit db t

let horizon_pinners_oldest_first () =
  let db = mk () in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  let t3 = Db.begin_txn db in
  Db.add db t2 (oid 2) 1;
  (match Db.horizon_pinners db with
  | (x, _) :: _ ->
      Alcotest.(check bool) "oldest begin pins first" true (Xid.equal x t1)
  | [] -> Alcotest.fail "three active transactions must pin");
  Alcotest.(check int) "all three pin" 3 (List.length (Db.horizon_pinners db));
  (* a delegated-in scope outranks a recent begin record *)
  Db.delegate db ~from_:t2 ~to_:t3 (oid 2);
  Db.commit db t1;
  Db.commit db t2;
  match Db.horizon_pinners db with
  | [ (x, pin) ] ->
      Alcotest.(check bool) "delegatee pins" true (Xid.equal x t3);
      Alcotest.(check bool) "from the delegated scope, not its begin" true
        Lsn.(pin < Db.last_lsn_of db t3)
  | l -> Alcotest.failf "expected exactly the delegatee, got %d" (List.length l)

(* --- E8: truncation stops exactly at the pinned scope --------------- *)

let truncation_reclaims_to_pinned_scope () =
  let db = mk () in
  let collector = ref (Db.begin_txn db) in
  let w1 = Db.begin_txn db in
  Db.add db w1 (oid 1) 1;
  let first_update = Db.last_lsn_of db w1 in
  Db.delegate db ~from_:w1 ~to_:!collector (oid 1);
  Db.commit db w1;
  for i = 2 to 40 do
    let w = Db.begin_txn db in
    Db.add db w (oid i) 1;
    Db.delegate db ~from_:w ~to_:!collector (oid i);
    Db.commit db w
  done;
  (* rotate the collector (E8): the fresh one's begin record is recent,
     so only the delegated-in scopes can pin *)
  let fresh = Db.begin_txn db in
  Db.delegate_all db ~from_:!collector ~to_:fresh;
  Db.commit db !collector;
  collector := fresh;
  Db.shutdown db;
  Db.checkpoint db;
  Alcotest.(check int) "horizon = oldest delegated update"
    (Lsn.to_int first_update)
    (Lsn.to_int (Db.truncation_horizon db));
  let reclaimed = Db.truncate_log db in
  Alcotest.(check int) "reclaimed everything below the scope"
    (Lsn.to_int first_update - Lsn.to_int Lsn.first)
    reclaimed;
  Alcotest.(check int) "retained exactly from the scope"
    (Lsn.to_int first_update)
    (Lsn.to_int (Log_store.truncated_below (Db.log_store db)));
  (* resolving the delegatee releases the pin; the rest reclaims *)
  Db.commit db !collector;
  Db.shutdown db;
  Db.checkpoint db;
  Alcotest.(check bool) "rest reclaimed" true (Db.truncate_log db > 0);
  Alcotest.(check int) "horizon caught up to the master record"
    (Lsn.to_int (Log_store.master (Db.log_store db)))
    (Lsn.to_int (Db.truncation_horizon db));
  (* the whole dance kept the data intact *)
  for i = 1 to 40 do
    Alcotest.(check int) "value" 1 (Db.peek db (oid i))
  done

let truncated_log_recovers () =
  (* truncation composes with crash recovery: restart over the retained
     suffix alone reproduces the state *)
  let db = mk () in
  let collector = Db.begin_txn db in
  for i = 1 to 20 do
    let w = Db.begin_txn db in
    Db.add db w (oid i) 1;
    Db.delegate db ~from_:w ~to_:collector (oid i);
    Db.commit db w
  done;
  Db.shutdown db;
  Db.checkpoint db;
  ignore (Db.truncate_log db);
  Db.crash db;
  ignore (Db.recover db);
  (* the collector died with the crash; its delegated-in increments
     were rolled back by restart *)
  for i = 1 to 20 do
    Alcotest.(check int) "undone with the delegatee" 0 (Db.peek db (oid i))
  done;
  match Db.validate db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* --- truncation x media recovery ----------------------------------- *)

let media_restore_refused_past_truncation () =
  let db = mk () in
  let t = Db.begin_txn db in
  Db.add db t (oid 1) 1;
  Db.commit db t;
  let b = Db.backup db in
  for i = 2 to 10 do
    let t = Db.begin_txn db in
    Db.add db t (oid i) 1;
    Db.commit db t
  done;
  Db.shutdown db;
  Db.checkpoint db;
  (* the backup pinned the log at its replay point; drop the pin to
     model an operator who discarded the backup before truncating *)
  Db.release_backup_pin db;
  Alcotest.(check bool) "truncated past the backup point" true
    (Db.truncate_log db > 0);
  Db.media_failure db;
  match Db.restore_media db b with
  | exception Errors.Log_truncated_past_backup { backup; retained } ->
      Alcotest.(check bool) "typed payload orders the two points" true
        Lsn.(backup < retained)
  | _ -> Alcotest.fail "restore must refuse: the roll-forward gap is gone"

(* --- squeeze fault -------------------------------------------------- *)

let squeeze_shrinks_capacity () =
  let sz = update_size in
  let fault = Fault.create ~seed:5L () in
  let log = Log_store.create ~fault ~capacity_bytes:(20 * sz) () in
  Fault.arm_squeeze_in fault ~appends:3 ~keep:0.5;
  ignore (Log_store.append log (mk_update 1));
  ignore (Log_store.append log (mk_update 2));
  Alcotest.(check (option int)) "not yet" (Some (20 * sz))
    (Log_store.capacity_bytes log);
  ignore (Log_store.append log (mk_update 3));
  (match Log_store.capacity_bytes log with
  | Some c ->
      Alcotest.(check bool) "halved" true (c <= 10 * sz && c >= 2 * sz)
  | None -> Alcotest.fail "capacity vanished");
  Alcotest.(check int) "squeeze counted" 1 (Fault.stats fault).Fault.squeezes;
  Alcotest.(check bool) "fires once per arming" false (Fault.squeeze_armed fault)

(* --- delegate_all is all or nothing ------------------------------- *)

let engines =
  [ ("rh", Config.Rh); ("lazy", Config.Lazy); ("eager", Config.Eager) ]

let delegate_size =
  String.length
    (Record.encode
       (Record.mk (xid 1) ~prev:Lsn.nil
          (Record.Delegate
             { tee = xid 2; tee_prev = Lsn.nil; oid = oid 0; op = None })))

(* A join on a log with room for only three of its eight delegate
   records once left the first three objects with the delegatee: the
   caller, which books the join only when the call returns, then
   credited the delegator with increments the engine charged to the
   delegatee. *)
let delegate_all_is_all_or_nothing () =
  List.iter
    (fun (name, impl) ->
      let db = mk ~impl () in
      let tor = Db.begin_txn db in
      let tee = Db.begin_txn db in
      for i = 1 to 8 do
        Db.add db tor (oid i) i
      done;
      let held x =
        List.sort compare (List.map Oid.to_int (Db.responsible_objects db x))
      in
      let all = held tor in
      let log = Db.log_store db in
      Log_store.set_capacity_bytes log
        (Some
           (Log_store.used_bytes log + Log_store.reserved_bytes log
           + (3 * delegate_size) + (delegate_size / 2)));
      (match Db.delegate_all db ~from_:tor ~to_:tee with
      | () -> Alcotest.failf "%s: eight delegations fit in room for three" name
      | exception Log_store.Log_full _ -> ());
      Alcotest.(check (list int)) (name ^ ": the delegator holds every object")
        all (held tor);
      Alcotest.(check (list int)) (name ^ ": the delegatee holds none") []
        (held tee);
      (* with room, the same join moves everything *)
      Log_store.set_capacity_bytes log None;
      Db.delegate_all db ~from_:tor ~to_:tee;
      Alcotest.(check (list int)) (name ^ ": the join moved every object")
        all (held tee);
      Db.commit db tee;
      Db.abort db tor;
      Alcotest.(check (list int)) (name ^ ": the delegatee's commit keeps them")
        [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        (List.init 8 (fun i -> Db.peek db (oid (i + 1)))))
    engines

(* --- E15 through the shared client loop --------------------------- *)

(* E15's configuration: 8 clients x 60 transactions on 48 objects, 30%
   reads, 25% delegation (half of it op-level on rh and lazy), the
   governor ticked every step, on a byte-bounded log. The loop checks
   the engine against its ledger at the end. *)
let e15_run impl ~capacity seed =
  let sh =
    Sharded.create
      (Config.make ~n_objects:64 ~buffer_capacity:16 ~impl ~locking:true
         ~log_capacity_bytes:capacity ())
  in
  let gov = Governor.create (Sharded.db sh 0) in
  let outcome = Storm.fresh_outcome () in
  let clients =
    Storm.Clients.create outcome sh
      ~load:{ Storm.contended with n_objects = 48; p_delegate = 0.25 }
      ~rng:(Ariesrh_util.Prng.create seed) ~backoff_base:4 ~max_backoff:64
      ~max_retries:8
  in
  let tick () = Governor.tick gov in
  let ok = Storm.Clients.run clients ~txns:60 ~tick in
  (ok, outcome, Governor.stats gov)

(* Seed 31 at 12288 bytes once left eager five objects below their
   committed increments: a join refused midway had already moved some
   objects, and its caller booked none of them. The sweep adds E15's
   tightest budget, where rh and lazy victimize too. *)
let e15_seed_sweep () =
  List.iter
    (fun (name, impl) ->
      let victims = ref 0 in
      List.iter
        (fun capacity ->
          for seed = 1 to 40 do
            let ok, outcome, gs = e15_run impl ~capacity (Int64.of_int seed) in
            victims := !victims + gs.Governor.victims;
            if not ok then
              Alcotest.failf "%s seed %d at %d bytes: %s" name seed capacity
                (String.concat "; " (List.rev outcome.Storm.failures))
          done)
        [ 12288; 4096 ];
      Alcotest.(check bool) (name ^ ": the governor victimized") true
        (!victims > 0))
    engines

(* --- pressure-storm smoke ------------------------------------------ *)

let pressure_storm_smoke () =
  List.iter
    (fun impl ->
      let config =
        {
          Pressure_storm.default_config with
          impl;
          steps = 250;
          capacity_bytes = 3000;
          crash_every = 25;
          seed = 5L;
        }
      in
      let o = Pressure_storm.run ~config () in
      if not (Pressure_storm.ok o) then
        Alcotest.failf "%a" Pressure_storm.pp_outcome o;
      Alcotest.(check bool) "crashed and recovered" true
        (o.storm.recoveries > 0))
    [ Config.Rh; Config.Lazy; Config.Eager ]

(* The lock-contention mix on a bounded log: lock waits and deadlock
   victims alongside the governor's victims, backpressure and crashes. *)
let pressure_contention_storm () =
  List.iter
    (fun (name, impl) ->
      let waits = ref 0 and deadlocks = ref 0 in
      for seed = 1 to 5 do
        let config =
          { Pressure_storm.default_config with
            seed = Int64.of_int seed; impl; load = Storm.contended }
        in
        let o = Pressure_storm.run ~config () in
        if not (Pressure_storm.ok o) then
          Alcotest.failf "%s seed %d:@ %a" name seed Pressure_storm.pp_outcome
            o;
        waits := !waits + o.storm.waits;
        deadlocks := !deadlocks + o.storm.deadlocks
      done;
      Alcotest.(check bool) (name ^ ": clients waited on locks") true
        (!waits > 0);
      Alcotest.(check bool) (name ^ ": deadlocks were broken") true
        (!deadlocks > 0))
    engines

(* A group-committed transaction leaves the table before its commit is
   forced; a crash before the force rolls it back, so truncation must
   keep its records. This eager run once truncated such a transaction's
   begin record, and crash #20's restart then raised an untyped
   [Invalid_argument] reading it. *)
let eager_group_commit_pins_truncation () =
  let config =
    {
      Pressure_storm.default_config with
      impl = Config.Eager;
      load =
        { Pressure_storm.default_config.load with
          clients = 6; p_delegate = 0.4 };
      capacity_bytes = 3000;
      crash_every = 25;
      group_commit = 2;
    }
  in
  let o = Pressure_storm.run ~config () in
  if not (Pressure_storm.ok o) then
    Alcotest.failf "%a" Pressure_storm.pp_outcome o;
  Alcotest.(check bool) "crashed past the old failure point" true
    (o.storm.crashes >= 20);
  Alcotest.(check bool) "the governor truncated" true
    (o.governor.Governor.truncations > 0)

(* An update reserves space for the CLR that may undo it, a constant of
   its op's shape. That constant must be the size of the CLR rollback
   then appends, to the byte: [Log_store.unreserve] clamps at zero, so a
   constant too large would go unnoticed, and one too small would let
   rollback outgrow the space it was promised. *)
let clr_reservation_is_exact () =
  List.iter
    (fun (name, update) ->
      let db = mk () in
      let log = Db.log_store db in
      let x = Db.begin_txn db in
      let before = Log_store.reserved_bytes log in
      update db x (oid 3);
      let reserved = Log_store.reserved_bytes log - before in
      let from = Log_store.head log in
      Db.abort db x;
      let clrs = ref [] in
      Log_store.iter_forward log ~from (fun _ r ->
          match r.Record.body with
          | Record.Clr _ -> clrs := String.length (Record.encode r) :: !clrs
          | _ -> ());
      Alcotest.(check (list int)) name [ reserved ] !clrs)
    [
      ("add", fun db x o -> Db.add db x o 5);
      ("set", fun db x o -> Db.write db x o 7);
    ]

let suite =
  [
    Alcotest.test_case "CLR reservation is the appended CLR's size" `Quick
      clr_reservation_is_exact;
    Alcotest.test_case "byte capacity enforced" `Quick byte_capacity_enforced;
    Alcotest.test_case "record capacity enforced" `Quick
      record_capacity_enforced;
    Alcotest.test_case "reservation blocks admission" `Quick
      reservation_blocks_admission;
    Alcotest.test_case "pressure reads back" `Quick pressure_reads_back;
    Alcotest.test_case "abort survives a full log" `Quick
      abort_survives_full_log;
    Alcotest.test_case "begin reserves rollback space" `Quick
      begin_reserves_rollback_space;
    Alcotest.test_case "restart survives a full log" `Quick
      restart_survives_full_log;
    Alcotest.test_case "backpressure raises typed errors" `Quick
      backpressure_typed_errors;
    Alcotest.test_case "pp_exn covers the pressure errors" `Quick
      pp_exn_covers_pressure_errors;
    Alcotest.test_case "governor reclaims below soft" `Quick
      governor_reclaims_below_soft;
    Alcotest.test_case "governor victimizes the oldest pinner" `Quick
      governor_victimizes_oldest_pinner;
    Alcotest.test_case "governor escalation ladder" `Quick
      governor_escalation_ladder;
    Alcotest.test_case "horizon pinners oldest first" `Quick
      horizon_pinners_oldest_first;
    Alcotest.test_case "truncation reclaims to the pinned scope (E8)" `Quick
      truncation_reclaims_to_pinned_scope;
    Alcotest.test_case "truncated log recovers" `Quick truncated_log_recovers;
    Alcotest.test_case "media restore refused past truncation" `Quick
      media_restore_refused_past_truncation;
    Alcotest.test_case "squeeze shrinks capacity" `Quick
      squeeze_shrinks_capacity;
    Alcotest.test_case "delegate_all is all or nothing" `Quick
      delegate_all_is_all_or_nothing;
    Alcotest.test_case "E15 seeds 1-40 (all engines)" `Quick
      e15_seed_sweep;
    Alcotest.test_case "pressure storm (all engines)" `Slow
      pressure_storm_smoke;
    Alcotest.test_case "contention pressure storm (all engines)" `Quick
      pressure_contention_storm;
    Alcotest.test_case "eager group commit pins truncation" `Quick
      eager_group_commit_pins_truncation;
  ]
