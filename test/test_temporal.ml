(* Time-travel observability: as_of reconstruction, per-object history
   attribution, archive bridging below the truncation horizon, and
   reenactment — checked on random workloads for every engine and both
   backends, plus committed deterministic reenactment cases. *)

open Ariesrh_types
open Ariesrh_core
open Ariesrh_workload
module Temporal = Ariesrh_temporal.Temporal
module Backend = Ariesrh_storage.Backend
module Log_store = Ariesrh_wal.Log_store
module Record = Ariesrh_wal.Record
module Archive = Ariesrh_storage.Archive
module Sharded = Ariesrh_shard.Sharded

let n_objects = 32

let spec steps =
  { Gen.default with n_objects; n_steps = steps; p_delegate = 0.3 }

type params = {
  seed : int64;
  steps : int;
  crash_frac : float;
  which : int;  (* engine: 0 rh, 1 eager, 2 lazy *)
  file : bool;  (* file backend instead of sim *)
}

let impl_of = function
  | 0 -> Config.Rh
  | 1 -> Config.Eager
  | _ -> Config.Lazy

let impl_name = function 0 -> "rh" | 1 -> "eager" | _ -> "lazy"

let print_params p =
  Printf.sprintf "{seed=%Ld; steps=%d; crash_frac=%.2f; engine=%s; file=%b}"
    p.seed p.steps p.crash_frac (impl_name p.which) p.file

let gen_params =
  QCheck.Gen.(
    map
      (fun (seed, steps, crash_frac, which, file) ->
        { seed = Int64.of_int seed; steps; crash_frac; which; file })
      (tup5 (int_bound 1_000_000) (int_range 20 120)
         (float_bound_inclusive 1.0) (int_range 0 2)
         (map (fun n -> n = 0) (int_bound 3))))

let arb = QCheck.make ~print:print_params gen_params

let script_of p = Gen.generate (spec p.steps) ~seed:p.seed

let crash_point p script =
  let n = List.length script in
  min n (int_of_float (p.crash_frac *. float_of_int n))

(* private scratch dirs for the file backend, removed on success *)
let scratch = ref 0

let fresh_dir tag =
  incr scratch;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ariesrh-temporal-%d-%s-%d" (Unix.getpid ()) tag
         !scratch)
  in
  Backend.remove_tree d;
  d

let with_db p ~tag ?tracing f =
  let dir = if p.file then Some (fresh_dir tag) else None in
  let backend =
    match dir with None -> Backend.Sim | Some dir -> Backend.File { dir }
  in
  let db =
    Driver.fresh_db ~backend ~impl:(impl_of p.which) ?tracing ~n_objects ()
  in
  let r = f db in
  Db.close db;
  Option.iter Backend.remove_tree dir;
  r

let pp_arr a = String.concat ";" (Array.to_list (Array.map string_of_int a))

(* (a) the as_of read at the last durable commit LSN reconstructs
   exactly the live committed state — random scripts, every engine,
   both backends, through a crash + restart (which rewrites the log
   under eager/lazy). Updates above that LSN belong to transactions
   without a durable commit, so both sides exclude them. *)
let asof_final_matches_live =
  QCheck.Test.make ~count:120 ~name:"as_of at last commit LSN = live state"
    arb (fun p ->
      with_db p ~tag:"asof" (fun db ->
          let script = script_of p in
          let at = crash_point p script in
          ignore (Driver.run_to_crash db script ~crash_at:at);
          (match List.rev (Temporal.commit_points db) with
          | [] -> ()
          | (l, _) :: _ ->
              let snap = Temporal.snapshot_at db l in
              let live = Db.peek_all db in
              if snap <> live then
                QCheck.Test.fail_reportf
                  "as_of %d: [%s]@ live: [%s]" (Lsn.to_int l) (pp_arr snap)
                  (pp_arr live));
          true))

(* also exact at every intermediate commit point, against the
   LSN-filtered oracle replay (scripts are conflict-free, so script
   order = LSN order) *)
let asof_matches_oracle_at_every_commit =
  QCheck.Test.make ~count:60
    ~name:"as_of at each commit LSN matches the LSN-filtered oracle" arb
    (fun p ->
      with_db p ~tag:"asofall" (fun db ->
          let script = script_of p in
          let at = crash_point p script in
          let xid_map = Hashtbl.create 16 in
          (try
             Driver.run ~upto:at ~xid_map db script;
             Db.crash db
           with Ariesrh_fault.Fault.Injected_crash _ -> ());
          ignore (Db.recover db);
          let commit_lsn = Xid.Tbl.create 32 in
          List.iter
            (fun (l, x) ->
              if not (Xid.Tbl.mem commit_lsn x) then
                Xid.Tbl.add commit_lsn x l)
            (Temporal.commit_points db);
          let committed_at l t =
            match Hashtbl.find_opt xid_map t with
            | None -> false
            | Some x -> (
                match Xid.Tbl.find_opt commit_lsn x with
                | Some cl -> Lsn.(cl <= l)
                | None -> false)
          in
          List.iter
            (fun (l, _) ->
              let want =
                Oracle.expected_for ~n_objects ~committed:(committed_at l)
                  ~crash_at:at script
              in
              let got = Temporal.snapshot_at db l in
              if got <> want then
                QCheck.Test.fail_reportf "at %d: got [%s] want [%s]"
                  (Lsn.to_int l) (pp_arr got) (pp_arr want))
            (Temporal.commit_points db);
          true))

(* as_of below a surgery that rewrote history in place. A lazy restart
   splice rewrites an update's writer long after its commit points; an
   eager surgery does so at delegation time, while both parties are
   active. Either way, as_of at a point below the surgery must answer
   with the history as it stood there. Each seed replays a small,
   delegation-heavy script with a crash at every I/O in turn (torn log
   tails on), restarts, and reads every object at every durable commit
   point below the latest surgery intent, against the oracle filtered
   to commits at or below that point. The restricted-equals-unrestricted
   properties cannot see an attribution bug both scans share; this
   compares with the ground truth. *)
let splice_spec =
  { Gen.default with n_objects = 12; n_steps = 60; p_delegate = 0.35 }

(* One crash point; [None] once the script survives it, else whether a
   surgery was found below which the reads ran. *)
let check_below_surgery ~impl ~seed ~crash_io script =
  let fault = Ariesrh_fault.Fault.create ~seed () in
  Ariesrh_fault.Fault.set_tear_log_on_crash fault true;
  Ariesrh_fault.Fault.arm_crash_at fault crash_io;
  let n_objects = splice_spec.Gen.n_objects in
  let db = Driver.fresh_db ~fault ~impl ~n_objects () in
  let xid_map = Hashtbl.create 16 in
  let executed = ref 0 in
  let crashed =
    match
      Driver.run ~xid_map ~on_action:(fun i -> executed := i + 1) db script
    with
    | () -> false
    | exception Ariesrh_fault.Fault.Injected_crash _ -> true
  in
  Ariesrh_fault.Fault.disarm_crash fault;
  Db.crash db;
  ignore (Db.recover db);
  let surgery = ref None in
  Log_store.iter_control ~kind:Log_store.Surgery (Db.log_store db)
    ~from:Lsn.first (fun l r ->
      match r.Ariesrh_wal.Record.body with
      | Ariesrh_wal.Record.Rewrite_begin _ -> surgery := Some l
      | _ -> ());
  Option.iter
    (fun s ->
      let points = Temporal.commit_points db in
      let commit_lsn = Xid.Tbl.create 32 in
      List.iter
        (fun (l, x) ->
          if not (Xid.Tbl.mem commit_lsn x) then Xid.Tbl.add commit_lsn x l)
        points;
      List.iter
        (fun (l, _) ->
          if Lsn.(l < s) then
            let want =
              Oracle.expected_for ~n_objects ~crash_at:!executed script
                ~committed:(fun t ->
                  match Hashtbl.find_opt xid_map t with
                  | None -> false
                  | Some x -> (
                      match Xid.Tbl.find_opt commit_lsn x with
                      | Some cl -> Lsn.(cl <= l)
                      | None -> false))
            in
            Array.iteri
              (fun o w ->
                let got = Temporal.as_of db ~lsn:l (Oid.of_int o) in
                if got <> w then
                  Alcotest.failf
                    "seed=%Ld crash_io=%d: as_of ob%d at %d (surgery at \
                     %d): got %d want %d"
                    seed crash_io o (Lsn.to_int l) (Lsn.to_int s) got w)
              want)
        points)
    !surgery;
  Db.close db;
  if crashed then Some (!surgery <> None) else None

(* Every crash point of one seed's script; true if any read ran below a
   surgery. *)
let asof_below_surgeries ~impl ~seed =
  let script = Gen.generate splice_spec ~seed in
  let rec go crash_io below =
    match check_below_surgery ~impl ~seed ~crash_io script with
    | None -> below
    | Some b -> go (crash_io + 1) (below || b)
  in
  go 1 false

let asof_below_surgery_prop impl name =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "as_of below %s surgery = oracle" name)
    QCheck.(make ~print:Int64.to_string Gen.(map Int64.of_int (int_bound 1000)))
    (fun seed ->
      QCheck.assume (asof_below_surgeries ~impl ~seed);
      true)

(* (b) per-object history attribution (holder + resolution status)
   agrees with the trace ring's independent Obs.Lineage reconstruction,
   across delegate chains that cross a crash *)
let history_agrees_with_lineage =
  QCheck.Test.make ~count:60
    ~name:"history attribution agrees with Obs.Lineage across a crash" arb
    (fun p ->
      with_db p ~tag:"lineage" ~tracing:true (fun db ->
          let script = script_of p in
          let at = crash_point p script in
          ignore (Driver.run_to_crash db script ~crash_at:at);
          let upto = (Temporal.coverage db).Temporal.upto in
          for o = 0 to n_objects - 1 do
            List.iter
              (fun (v : Temporal.version) ->
                match Temporal.lineage_check db v with
                | `Agree | `No_data -> ()
                | `Disagree msg ->
                    QCheck.Test.fail_reportf "ob%d lsn %d: %s" o
                      (Lsn.to_int v.v_lsn) msg)
              (Temporal.history db ~upto (Oid.of_int o))
          done;
          true))

(* (c) coverage is all-or-nothing: after the prefix is truncated, an
   attached archive bridging from genesis keeps every below-horizon
   read exact (same answer as before truncation), and without one
   every read raises the typed History_unavailable — never a silently
   partial reconstruction *)
let truncation_bridges_or_refuses =
  QCheck.Test.make ~count:40
    ~name:"below-horizon as_of: archive-exact or typed refusal"
    QCheck.(pair arb bool)
    (fun (p, with_archive) ->
      with_db p ~tag:"trunc" (fun db ->
          if with_archive then ignore (Db.attach_archive db);
          Driver.run db (script_of p);
          match Temporal.commit_points db with
          | [] -> true
          | cps ->
              let l, _ = List.nth cps (List.length cps / 2) in
              let before = Temporal.snapshot_at db l in
              Db.checkpoint db;
              ignore (Db.truncate_log db);
              let truncated =
                Lsn.(
                  Log_store.truncated_below (Db.log_store db) > Lsn.first)
              in
              (if with_archive then begin
                 let after = Temporal.snapshot_at db l in
                 if after <> before then
                   QCheck.Test.fail_reportf
                     "archive bridge not exact at %d: [%s] vs [%s]"
                     (Lsn.to_int l) (pp_arr after) (pp_arr before);
                 if truncated && not (Temporal.coverage db).Temporal.bridged
                 then QCheck.Test.fail_reportf "truncated but not bridged"
               end
               else if truncated then
                 match Temporal.snapshot_at db l with
                 | got ->
                     QCheck.Test.fail_reportf
                       "answered [%s] below an unbridged horizon"
                       (pp_arr got)
                 | exception Errors.History_unavailable _ -> ()
               else if Temporal.snapshot_at db l <> before then
                 QCheck.Test.fail_reportf "untruncated answer changed");
              true))

(* (d) as_of and history scan only the object they ask about, explain's
   snapshots only the objects it touched, snapshot_at every object. The
   restricted scans must agree with the full one: every object at every
   given point, and explain's begin/end values for every committed
   transaction. *)
let restricted_agrees db points =
  List.iter
    (fun l ->
      let snap = Temporal.snapshot_at db l in
      Array.iteri
        (fun o want ->
          let got = Temporal.as_of db ~lsn:l (Oid.of_int o) in
          if got <> want then
            QCheck.Test.fail_reportf "at %d ob%d: as_of %d, snapshot_at %d"
              (Lsn.to_int l) o got want)
        snap)
    points;
  let project l oids =
    let snap = Temporal.snapshot_at db l in
    List.map (fun o -> (o, snap.(Oid.to_int o))) oids
  in
  let durable = (Temporal.coverage db).Temporal.upto in
  List.iter
    (fun (_, x) ->
      let e = Temporal.explain db x in
      let touched =
        List.sort_uniq Oid.compare
          (List.map
             (fun (v : Temporal.version) -> v.v_oid)
             (e.e_invoked @ e.e_received))
      in
      let end_lsn = Option.value e.e_commit ~default:durable in
      if e.e_snapshot <> project e.e_begin touched then
        QCheck.Test.fail_reportf "explain %a: snapshot at begin differs" Xid.pp
          x;
      if e.e_as_of_end <> project end_lsn touched then
        QCheck.Test.fail_reportf "explain %a: as_of at end differs" Xid.pp x;
      (* explain's versions come from a scan of every object, history's
         from a scan of one *)
      List.iter
        (fun (v : Temporal.version) ->
          if
            not
              (List.exists (( = ) v) (Temporal.history db ~upto:durable v.v_oid))
          then
            QCheck.Test.fail_reportf "explain %a: ob%d@%d differs in history"
              Xid.pp x (Oid.to_int v.v_oid) (Lsn.to_int v.v_lsn))
        (e.e_invoked @ e.e_received))
    (Temporal.commit_points db)

let lsns_of points = List.map fst points

(* op-level delegations, which generated scripts never issue (rh and
   lazy only): pairs of transactions where one hands single increments
   to the other, each pair resolved differently, the last left running
   for a crash to resolve *)
let op_level_tail db ~seed =
  let rng = Random.State.make [| seed |] in
  for pair = 0 to 3 do
    let a = Db.begin_txn db in
    let b = Db.begin_txn db in
    for _ = 1 to 3 do
      let o = Oid.of_int (Random.State.int rng n_objects) in
      Db.add db a o (1 + Random.State.int rng 9);
      if Random.State.bool rng then
        Db.delegate_update db ~from_:a ~to_:b o (Db.last_lsn_of db a)
    done;
    match pair with
    | 0 -> Db.commit db a; Db.commit db b
    | 1 -> Db.abort db a; Db.commit db b
    | 2 -> Db.commit db a; Db.abort db b
    | _ -> Db.checkpoint db (* forces the log: the handoffs are durable *)
  done;
  Db.crash db;
  ignore (Db.recover db)

let restricted_scan_agrees =
  QCheck.Test.make ~count:25
    ~name:"restricted scans agree with snapshot_at (rh, eager, lazy)" arb
    (fun p ->
      with_db p ~tag:"restrict" (fun db ->
          let script = script_of p in
          ignore (Driver.run_to_crash db script ~crash_at:(crash_point p script));
          if p.which <> 1 then op_level_tail db ~seed:(Int64.to_int p.seed);
          restricted_agrees db (lsns_of (Temporal.commit_points db));
          true))

let restricted_scan_agrees_bridged =
  QCheck.Test.make ~count:15
    ~name:"restricted scans agree below an archive-bridged horizon" arb
    (fun p ->
      with_db p ~tag:"restrict-bridged" (fun db ->
          ignore (Db.attach_archive db);
          Driver.run db (script_of p);
          let points = lsns_of (Temporal.commit_points db) in
          Db.checkpoint db;
          ignore (Db.truncate_log db);
          if
            Lsn.(Log_store.truncated_below (Db.log_store db) > Lsn.first)
            && not (Temporal.coverage db).Temporal.bridged
          then QCheck.Test.fail_report "truncated but not bridged";
          restricted_agrees db points;
          true))

let restricted_scan_agrees_per_shard =
  QCheck.Test.make ~count:15
    ~name:"restricted scans agree on each shard of a 2-shard store" arb
    (fun p ->
      let script = script_of p in
      let sh =
        Shard_driver.fresh ~impl:(impl_of p.which) ~shards:2 ~n_objects ()
      in
      Shard_driver.run ~homes:(Shard_driver.assign_homes script ~shards:2) sh
        script;
      (* co-homed scripts migrate an object only on its first touch, so
         every adoption they log carries 0: move each object holding a
         value to the other shard, then add to it there *)
      for o = 0 to n_objects - 1 do
        let oid = Oid.of_int o in
        if Sharded.peek sh oid <> 0 then begin
          let target = 1 - Sharded.home sh oid in
          Sharded.migrate sh oid ~target;
          let x = Sharded.begin_txn sh ~shard:target in
          Sharded.add sh x oid 1;
          Sharded.commit sh x
        end
      done;
      Sharded.flush_commits sh;
      let adoptions = ref 0 in
      for i = 0 to 1 do
        let db = Sharded.db sh i in
        Log_store.iter_forward (Db.log_store db) ~from:Lsn.nil (fun _ r ->
            match r.Ariesrh_wal.Record.body with
            | Ariesrh_wal.Record.Xfer_in { value; _ } when value <> 0 ->
                incr adoptions
            | _ -> ());
        restricted_agrees db (lsns_of (Temporal.commit_points db));
        (* and the adoptions land in LSN order: at the durable horizon
           each object homed here reads its live value *)
        let durable = (Temporal.coverage db).Temporal.upto in
        for o = 0 to n_objects - 1 do
          let oid = Oid.of_int o in
          if Sharded.home sh oid = i then begin
            let got = Temporal.as_of db ~lsn:durable oid in
            if got <> Sharded.peek sh oid then
              QCheck.Test.fail_reportf "shard %d ob%d: as_of %d, live %d" i o
                got (Sharded.peek sh oid)
          end
        done
      done;
      Sharded.close sh;
      QCheck.assume (!adoptions > 0);
      true)

(* --- deterministic reenactment: delegated-then-rewritten --- *)

(* t1 invokes an update on ob0, delegates ob0 to t2, both commit; t2
   also writes ob1 itself. The explain report for t2 must show the
   received operation with provenance t1, and name the durable record
   that moved responsibility. *)
let delegated_pair impl =
  let db = Driver.fresh_db ~impl ~n_objects:4 () in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.add db t1 (Oid.of_int 0) 5;
  Db.delegate db ~from_:t1 ~to_:t2 (Oid.of_int 0);
  Db.commit db t1;
  Db.add db t2 (Oid.of_int 1) 2;
  Db.commit db t2;
  (db, t1, t2)

let value e oid =
  match List.assoc_opt (Oid.of_int oid) e with
  | Some v -> v
  | None -> Alcotest.failf "report has no entry for ob%d" oid

let check_reenactment ~via_delegate db t1 t2 =
  let e2 = Temporal.explain db t2 in
  Alcotest.(check bool) "t2 committed" true (e2.Temporal.e_commit <> None);
  Alcotest.(check int) "t2 received one op" 1
    (List.length e2.Temporal.e_received);
  (match e2.Temporal.e_divergences with
  | [ d ] ->
      Alcotest.(check bool) "provenance is t1" true
        (Xid.equal d.Temporal.d_provenance t1);
      Alcotest.(check bool) "attribution is t2" true
        (Xid.equal d.Temporal.d_attribution t2);
      (match d.Temporal.d_direction with
      | `Received -> ()
      | `Delegated_away -> Alcotest.fail "t2 should have received");
      (match (via_delegate, d.Temporal.d_via) with
      | true, `Delegate _ -> ()
      | false, `Surgery _ -> ()
      | _, `Unknown -> Alcotest.fail "divergence lost its durable record"
      | true, `Surgery _ -> Alcotest.fail "expected a Delegate record"
      | false, `Delegate _ -> Alcotest.fail "expected an in-place surgery")
  | ds -> Alcotest.failf "t2: %d divergences, wanted 1" (List.length ds));
  (* what t2 replayed itself vs what the rewritten log attributes to it *)
  Alcotest.(check int) "t2 replayed ob0" 0 (value e2.Temporal.e_replayed 0);
  Alcotest.(check int) "t2 attributed ob0" 5
    (value e2.Temporal.e_attributed 0);
  Alcotest.(check int) "t2 attributed ob1" 2
    (value e2.Temporal.e_attributed 1);
  Alcotest.(check int) "as_of at t2's commit, ob0" 5
    (value e2.Temporal.e_as_of_end 0);
  (* the delegator's report shows the mirror image *)
  let e1 = Temporal.explain db t1 in
  (match e1.Temporal.e_divergences with
  | [ d ] -> (
      match d.Temporal.d_direction with
      | `Delegated_away -> ()
      | `Received -> Alcotest.fail "t1 should have delegated away")
  | ds -> Alcotest.failf "t1: %d divergences, wanted 1" (List.length ds));
  Alcotest.(check int) "t1 replayed ob0" 5 (value e1.Temporal.e_replayed 0);
  Alcotest.(check int) "t1 attributed ob0" 0
    (value e1.Temporal.e_attributed 0)

let reenact_rh () =
  let db, t1, t2 = delegated_pair Config.Rh in
  check_reenactment ~via_delegate:true db t1 t2;
  Db.close db

let reenact_eager () =
  (* eager rewrites history in place at delegation: the update's writer
     is t2 as the log reads now, t1 only survives in the surgery's
     before-image *)
  let db, t1, t2 = delegated_pair Config.Eager in
  (match Temporal.history db (Oid.of_int 0) with
  | [ v ] ->
      Alcotest.(check bool) "writer rewritten to t2" true
        (Xid.equal v.Temporal.v_writer t2);
      Alcotest.(check bool) "provenance recovered as t1" true
        (Xid.equal v.Temporal.v_provenance t1);
      Alcotest.(check bool) "carries a committed surgery" true
        (List.exists
           (fun (s : Temporal.surgery) -> s.Temporal.s_committed)
           v.Temporal.v_surgeries)
  | vs -> Alcotest.failf "ob0: %d versions, wanted 1" (List.length vs));
  check_reenactment ~via_delegate:false db t1 t2;
  Db.close db

let reenact_lazy_committed () =
  (* lazy defers rewriting to restart, and the splice only fires while
     undoing a loser: a fully committed delegated pair keeps its
     Delegate record as the authoritative transfer, before and after a
     restart *)
  let db, t1, t2 = delegated_pair Config.Lazy in
  check_reenactment ~via_delegate:true db t1 t2;
  Db.crash db;
  ignore (Db.recover db);
  check_reenactment ~via_delegate:true db t1 t2;
  Db.close db

let reenact_lazy_spliced () =
  (* the lazy splice proper: t2 receives ob0 and then dies uncommitted.
     Restart undoes the delegated-in update as t2's and splices the
     record in place — writer becomes t2, t1 survives only in the
     surgery's before-image, and the CLR is attributed to t2 *)
  let db = Driver.fresh_db ~impl:Config.Lazy ~n_objects:4 () in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  Db.add db t1 (Oid.of_int 0) 5;
  Db.delegate db ~from_:t1 ~to_:t2 (Oid.of_int 0);
  Db.commit db t1;
  Db.crash db;
  ignore (Db.recover db);
  (match Temporal.history db (Oid.of_int 0) with
  | [ v ] ->
      Alcotest.(check bool) "writer spliced to t2" true
        (Xid.equal v.Temporal.v_writer t2);
      Alcotest.(check bool) "provenance recovered as t1" true
        (Xid.equal v.Temporal.v_provenance t1);
      Alcotest.(check bool) "carries a committed surgery" true
        (List.exists
           (fun (s : Temporal.surgery) -> s.Temporal.s_committed)
           v.Temporal.v_surgeries);
      (match v.Temporal.v_status with
      | Temporal.Compensated { by; _ } ->
          Alcotest.(check bool) "compensated by t2" true (Xid.equal by t2)
      | s -> Alcotest.failf "status %s, wanted compensated"
               (Temporal.status_str s))
  | vs -> Alcotest.failf "ob0: %d versions, wanted 1" (List.length vs));
  let e = Temporal.explain db t2 in
  Alcotest.(check bool) "t2 has no durable commit" true
    (e.Temporal.e_commit = None);
  (match e.Temporal.e_divergences with
  | [ d ] -> (
      Alcotest.(check bool) "provenance is t1" true
        (Xid.equal d.Temporal.d_provenance t1);
      (match d.Temporal.d_direction with
      | `Received -> ()
      | `Delegated_away -> Alcotest.fail "t2 should have received");
      match d.Temporal.d_via with
      | `Surgery _ -> ()
      | `Delegate _ -> Alcotest.fail "splice should hide behind surgery"
      | `Unknown -> Alcotest.fail "divergence lost its durable record")
  | ds -> Alcotest.failf "t2: %d divergences, wanted 1" (List.length ds));
  (* the rolled-back delegation contributes nothing anywhere *)
  Alcotest.(check int) "t2 attributed ob0" 0
    (value e.Temporal.e_attributed 0);
  Alcotest.(check int) "as_of at the durable horizon, ob0" 0
    (value e.Temporal.e_as_of_end 0);
  Db.close db

(* {2 What a single-object read needs}

   An [as_of] reads only what the log index files under its object, the
   surgery records and its holders' outcome records. Rot in any other
   record is the scrubber's to find, not the query's; rot in a record
   the query needs still refuses; and a record whose kind was lost at a
   reopen is read by every query, never skipped as another object's. *)

let coverage_script = Gen.generate (spec 120) ~seed:7L

let body_at db lsn =
  let ar = Option.get (Db.archive db) in
  match
    Option.map Record.decode (Archive.wal_get ar ~idx:(Lsn.to_int lsn - 1))
  with
  | Some (Ok r) -> r.Record.body
  | _ -> Alcotest.failf "archived frame %d unreadable" (Lsn.to_int lsn)

(* the object with the most indexed records at or below [l] *)
let busiest_object log l =
  let walk o =
    Log_store.index_walk log (Log_store.Object (Oid.of_int o)) ~from:Lsn.nil
      ~upto:l
  in
  let best = ref 0 in
  for o = 1 to n_objects - 1 do
    if List.length (walk o) > List.length (walk !best) then best := o
  done;
  (Oid.of_int !best, walk !best)

let archived_rot_skipped_or_refused () =
  let db = Driver.fresh_db ~n_objects () in
  let ar = Db.attach_archive db in
  Driver.run db coverage_script;
  let log = Db.log_store db in
  let cps = Temporal.commit_points db in
  let l = fst (List.nth cps (List.length cps / 2)) in
  let o, needed = busiest_object log l in
  let want = Temporal.as_of db ~lsn:l o in
  (* clean pages pin nothing: the checkpoint lets truncation reach it *)
  Db.shutdown db;
  Db.checkpoint db;
  ignore (Db.truncate_log db);
  if Lsn.(Log_store.truncated_below log <= l) then
    Alcotest.fail "the query point must lie below the truncation horizon";
  (* a Begin record no single-object walk reads *)
  let skipped =
    List.find
      (fun lsn -> body_at db lsn = Record.Begin)
      (List.init (Lsn.to_int l) (fun i -> Lsn.of_int (i + 1)))
  in
  Archive.bitrot_wal ar ~idx:(Lsn.to_int skipped - 1);
  Alcotest.(check int) "skipped rot leaves the answer exact" want
    (Temporal.as_of db ~lsn:l o);
  (match Temporal.snapshot_at db l with
  | _ -> Alcotest.fail "a full read over the rot must refuse"
  | exception Errors.History_unavailable { lsn; _ } ->
      Alcotest.(check int) "the full read refuses at the rot"
        (Lsn.to_int skipped) (Lsn.to_int lsn));
  let scrub = Db.scrub_archive db in
  Alcotest.(check bool) "the scrubber finds the rot" true
    (scrub.Db.corrupt > 0
    && List.mem ("archive-wal", Lsn.to_int skipped - 1) (Db.quarantined db));
  (* the oldest record of the object's own history *)
  let hit = List.hd needed in
  Archive.bitrot_wal ar ~idx:(Lsn.to_int hit - 1);
  (match Temporal.as_of db ~lsn:l o with
  | _ -> Alcotest.fail "rot in a record the read needs must refuse"
  | exception Errors.History_unavailable { lsn; _ } ->
      Alcotest.(check int) "refused at the needed record" (Lsn.to_int hit)
        (Lsn.to_int lsn));
  Db.close db

let unknown_record_read_by_every_walk () =
  let dir = fresh_dir "unknown" in
  let backend = Backend.File { dir } in
  let db = Driver.fresh_db ~backend ~n_objects () in
  Driver.run db coverage_script;
  Db.checkpoint db;
  Db.shutdown db;
  let log = Db.log_store db in
  let top = Log_store.durable log in
  let values db l =
    List.init n_objects (fun o -> Temporal.as_of db ~lsn:l (Oid.of_int o))
  in
  let want = values db top in
  (* a Begin record below the checkpoint: restart never reads it *)
  let victim = ref Lsn.nil in
  Log_store.iter_forward log ~from:Lsn.nil (fun lsn r ->
      if Lsn.is_nil !victim && r.Record.body = Record.Begin then
        victim := lsn);
  let victim = !victim in
  Log_store.bitrot_record log ~idx:(Lsn.to_int victim - 1);
  (* in memory the index still knows what the record is *)
  Alcotest.(check (list int)) "known rot skipped" want (values db top);
  Db.close db;
  let re = Driver.fresh_db ~backend ~n_objects () in
  ignore (Db.recover re);
  for o = 0 to n_objects - 1 do
    match Temporal.as_of re ~lsn:top (Oid.of_int o) with
    | _ -> Alcotest.failf "ob%d: the walk skipped an unknown record" o
    | exception Log_store.Corrupt_record { lsn; _ } ->
        Alcotest.(check int) "read at the unknown record" (Lsn.to_int victim)
          (Lsn.to_int lsn)
  done;
  ignore (values re (Lsn.prev victim));
  Db.close re;
  Backend.remove_tree dir

(* A cold reopen indexes only the records it loads: below the reopened
   horizon a query reads every archived frame, and answers as before. *)
let below_index_floor_reads_archive () =
  let dir = fresh_dir "floor" in
  let archive_dir = Filename.concat dir "archive" in
  let backend = Backend.File { dir = Filename.concat dir "db" } in
  let db = Driver.fresh_db ~backend ~n_objects () in
  ignore (Db.attach_archive ~dir:archive_dir db);
  Driver.run db coverage_script;
  (* the backup writes the manifest a reopened archive starts from *)
  ignore (Db.backup_to_archive db);
  let cps = Temporal.commit_points db in
  let l = fst (List.nth cps (List.length cps / 2)) in
  let o, _ = busiest_object (Db.log_store db) l in
  let want = Temporal.as_of db ~lsn:l o in
  Db.shutdown db;
  Db.checkpoint db;
  ignore (Db.truncate_log db);
  Db.close db;
  let re = Driver.fresh_db ~backend ~n_objects () in
  ignore (Db.recover re);
  let ar = Db.attach_archive ~dir:archive_dir re in
  let floor_lsn = Log_store.index_floor (Db.log_store re) in
  if Lsn.(floor_lsn <= l) then
    Alcotest.fail "the query point must lie below the reopened index floor";
  let before = Archive.wal_reads ar in
  Alcotest.(check int) "same answer below the floor" want
    (Temporal.as_of re ~lsn:l o);
  Alcotest.(check int) "every archived record up to L read" (Lsn.to_int l)
    (Archive.wal_reads ar - before);
  Db.close re;
  Backend.remove_tree dir

let explain_unknown_txn () =
  let db = Driver.fresh_db ~n_objects:4 () in
  (match Temporal.explain db (Xid.of_int 999) with
  | _ -> Alcotest.fail "explain of an unknown xid must raise"
  | exception Errors.No_such_txn _ -> ());
  Db.close db

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      asof_final_matches_live;
      asof_matches_oracle_at_every_commit;
      history_agrees_with_lineage;
      truncation_bridges_or_refuses;
      restricted_scan_agrees;
      restricted_scan_agrees_bridged;
      restricted_scan_agrees_per_shard;
      asof_below_surgery_prop Config.Lazy "lazy-splice";
      asof_below_surgery_prop Config.Eager "eager";
    ]
  @ [
      Alcotest.test_case "reenact delegated txn (rh)" `Quick reenact_rh;
      Alcotest.test_case "reenact delegated-then-rewritten (eager)" `Quick
        reenact_eager;
      Alcotest.test_case "reenact delegated pair (lazy, across restart)"
        `Quick reenact_lazy_committed;
      Alcotest.test_case "reenact delegated-then-spliced (lazy loser)"
        `Quick reenact_lazy_spliced;
      Alcotest.test_case "explain refuses unknown xid" `Quick
        explain_unknown_txn;
      Alcotest.test_case "archived rot: skipped is exact, needed refuses"
        `Quick archived_rot_skipped_or_refused;
      Alcotest.test_case "an unknown record is read by every object walk"
        `Quick unknown_record_read_by_every_walk;
      Alcotest.test_case "below the index floor, the archive is read whole"
        `Quick below_index_floor_reads_archive;
    ]
