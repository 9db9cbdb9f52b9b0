(* The experiment harness: one entry per experiment in EXPERIMENTS.md.

   The paper (an algorithms + correctness paper) reports no measured
   tables; its evaluation artifacts are Figures 1-8 (reproduced by
   `bin/ariesrh.exe figures all`) and the §4.2 efficiency claims, which
   the experiments below turn into measurements against the eager/lazy
   history-rewriting baselines.

   Run everything:     dune exec bench/main.exe
   Run one experiment: dune exec bench/main.exe -- e3 *)

open Ariesrh_types
open Ariesrh_core
open Ariesrh_workload
module Log_store = Ariesrh_wal.Log_store
module Log_stats = Ariesrh_wal.Log_stats
module Buffer_pool = Ariesrh_storage.Buffer_pool
module Ob_list = Ariesrh_txn.Ob_list
module Obs = Ariesrh_obs
module Sharded = Ariesrh_shard.Sharded
module Prng = Ariesrh_util.Prng

let header title claim =
  Format.printf "@.=== %s ===@.%s@.@." title claim

(* Every machine-readable artifact (BENCH_*.json) lands in one
   directory, set by ARIESRH_BENCH_DIR (default [_bench/], created on
   first use) — never the repo root. *)
let bench_dir =
  lazy
    (let dir =
       match Sys.getenv_opt "ARIESRH_BENCH_DIR" with
       | Some d when d <> "" -> d
       | _ -> "_bench"
     in
     Ariesrh_storage.Backend.mkdir_p dir;
     dir)

let bench_path name = Filename.concat (Lazy.force bench_dir) name

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000. *. (Unix.gettimeofday () -. t0))

let flush_log db =
  Log_store.flush (Db.log_store db) ~upto:(Log_store.head (Db.log_store db))

(* ------------------------------------------------------------------ *)
(* E1: no delegation, no overhead                                      *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1: no delegation, no overhead (§4.2)"
    "ARIES/RH against conventional ARIES on a delegation-free workload:\n\
     normal processing and recovery should cost the same (ratio ~ 1).";
  let spec =
    { Gen.spec_no_delegation with n_objects = 256; n_steps = 2000;
      p_checkpoint = 0.0 }
  in
  let script = Gen.generate spec ~seed:7L in
  let fresh impl () = Driver.fresh_db ~impl ~n_objects:256 () in
  let np_test name impl =
    Bechamel.Test.make_with_resource ~name Bechamel.Test.multiple
      ~allocate:(fresh impl) ~free:ignore
      (Bechamel.Staged.stage (fun db -> Driver.run db script))
  in
  let crashed impl () =
    let db = fresh impl () in
    Driver.run db script;
    flush_log db;
    Db.crash db;
    db
  in
  let rec_test name impl =
    Bechamel.Test.make_with_resource ~name Bechamel.Test.multiple
      ~allocate:(crashed impl) ~free:ignore
      (Bechamel.Staged.stage (fun db -> ignore (Db.recover db)))
  in
  let results =
    Bench.run ~quota:1.0 ~limit:60
      [
        np_test "np/aries-rh" Config.Rh;
        np_test "np/aries" Config.Eager;
        rec_test "rec/aries-rh" Config.Rh;
        rec_test "rec/aries" Config.Eager;
      ]
  in
  let v n = Bench.find n results /. 1e6 in
  Format.printf "%-24s %12s@." "phase" "ms/run";
  Format.printf "%-24s %12.3f@." "normal ARIES/RH" (v "np/aries-rh");
  Format.printf "%-24s %12.3f@." "normal ARIES" (v "np/aries");
  Format.printf "%-24s %12.2f@." "  ratio (RH/ARIES)"
    (v "np/aries-rh" /. v "np/aries");
  Format.printf "%-24s %12.3f@." "recovery ARIES/RH" (v "rec/aries-rh");
  Format.printf "%-24s %12.3f@." "recovery ARIES" (v "rec/aries");
  Format.printf "%-24s %12.2f@." "  ratio (RH/ARIES)"
    (v "rec/aries-rh" /. v "rec/aries")

(* ------------------------------------------------------------------ *)
(* E2: normal-processing delegation cost is linear                     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2: delegation cost during normal processing (§4.2)"
    "Cost of one delegate() sweep over k objects. ARIES/RH pays one log\n\
     record + an Ob_List move per object (linear, microseconds); eager\n\
     rewriting pays a walk over the delegator's whole backward chain\n\
     with in-place patches (linear in chain length, and each record\n\
     rewrite is a random log write).";
  let ks = [ 1; 10; 100; 1000 ] in
  let alloc impl k () =
    let db =
      Db.create
        (Config.make ~n_objects:2048 ~buffer_capacity:512 ~impl
           ~locking:false ())
    in
    let tor = Db.begin_txn db in
    let tee = Db.begin_txn db in
    for i = 0 to k - 1 do
      Db.add db tor (Oid.of_int i) 1
    done;
    (db, tor, tee)
  in
  let test name impl =
    Bechamel.Test.make_indexed_with_resource ~name ~args:ks
      Bechamel.Test.multiple
      ~allocate:(fun k -> alloc impl k ())
      ~free:ignore
      (fun _k ->
        Bechamel.Staged.stage (fun (db, tor, tee) ->
            Db.delegate_all db ~from_:tor ~to_:tee))
  in
  let results =
    Bench.run ~quota:0.5 ~limit:40
      [ test "rh" Config.Rh; test "eager" Config.Eager ]
  in
  Format.printf "%-6s %14s %14s %16s@." "k" "rh (us)" "eager (us)"
    "rh us/object";
  List.iter
    (fun k ->
      let rh = Bench.find (Printf.sprintf "rh:%d" k) results /. 1e3 in
      let eager = Bench.find (Printf.sprintf "eager:%d" k) results /. 1e3 in
      Format.printf "%-6d %14.2f %14.2f %16.3f@." k rh eager
        (rh /. float_of_int k))
    ks

(* ------------------------------------------------------------------ *)
(* E3: eager vs lazy vs RH across delegation rates                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3: the three implementations of delegation (§3.1-3.2)"
    "Same workload under eager rewriting, lazy rewriting, and RH, as the\n\
     delegation rate grows. np_* = normal processing, rec_* = recovery\n\
     after a crash. rewrites are in-place log writes (history surgery);\n\
     RH never performs any. Expect: eager normal processing degrades\n\
     with the delegation rate; lazy moves the rewrites into recovery;\n\
     RH does neither and recovery stays at conventional-ARIES cost.";
  let rates = [ 0.0; 0.05; 0.1; 0.2; 0.4 ] in
  Format.printf "%-6s %-6s | %9s %11s %9s | %9s %11s %9s %9s@." "rate"
    "engine" "np(ms)" "np_rewrite" "np_fetch" "rec(ms)" "rec_rewrite"
    "rec_fetch" "undos";
  List.iter
    (fun rate ->
      let spec =
        {
          Gen.default with
          n_objects = 256;
          n_steps = 3000;
          max_concurrent = 16;
          p_delegate = rate;
          p_commit = 0.05;
          p_abort = 0.02;
          p_checkpoint = 0.0;
          terminate_all = false;
        }
      in
      let script = Gen.generate spec ~seed:11L in
      (* crash while transactions are still in flight, so recovery has
         real undo work *)
      let crash_at = List.length script * 9 / 10 in
      List.iter
        (fun (name, impl) ->
          let db = Driver.fresh_db ~impl ~n_objects:256 () in
          let stats = Log_store.stats (Db.log_store db) in
          let (), np_ms = time (fun () -> Driver.run ~upto:crash_at db script) in
          let np = Log_stats.copy stats in
          flush_log db;
          Db.crash db;
          let report, rec_ms = time (fun () -> Db.recover db) in
          Format.printf
            "%-6.2f %-6s | %9.2f %11d %9d | %9.2f %11d %9d %9d@." rate name
            np_ms np.rewrites np.page_fetches rec_ms report.log_io.rewrites
            report.log_io.page_fetches report.undos)
        [ ("rh", Config.Rh); ("lazy", Config.Lazy); ("eager", Config.Eager) ])
    rates

(* ------------------------------------------------------------------ *)
(* E4: the backward pass visits only loser clusters                    *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4: backward-pass log visits vs loser-scope density (§3.6.2)"
    "Synthetic logs with G clusters of loser scopes separated by winner\n\
     runs. A naive backward scan would examine every record from the\n\
     log's end to the oldest loser scope; ARIES/RH examines only the\n\
     records inside clusters and skips the gaps (Fig. 7/8).";
  Format.printf "%-8s %8s | %9s %9s %9s %12s@." "clusters" "records"
    "examined" "skipped" "undos" "visited";
  List.iter
    (fun groups ->
      let s =
        Scenario.build ~groups ~losers_per_group:4 ~updates_per_loser:2
          ~gap:(4096 / groups) ~delegated:true ()
      in
      let report = Db.recover s.db in
      (* the naive alternative scans every record backwards from the end
         of the log down to the oldest loser update; the clusters start
         right at the log's beginning here, so that region is the whole
         log *)
      Format.printf "%-8d %8d | %9d %9d %9d %11.1f%%@." groups
        s.total_records report.backward_examined report.backward_skipped
        report.undos
        (100.
        *. float_of_int report.backward_examined
        /. float_of_int s.total_records))
    [ 1; 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* E5: recovery scaling with log length                                *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5: recovery cost vs log length (§4.2)"
    "Fixed loser population, growing winner history. The forward pass is\n\
     linear in the log (as in ARIES); the backward pass depends only on\n\
     the loser clusters, not the log length.";
  Format.printf "%-10s | %10s %10s %10s %10s@." "log recs" "fwd_recs"
    "bwd_exam" "bwd_skip" "rec(ms)";
  List.iter
    (fun gap ->
      let s =
        Scenario.build ~groups:4 ~losers_per_group:4 ~updates_per_loser:2
          ~gap ~delegated:true ()
      in
      let report, ms = time (fun () -> Db.recover s.db) in
      Format.printf "%-10d | %10d %10d %10d %10.2f@." s.total_records
        report.forward_records report.backward_examined
        report.backward_skipped ms)
    [ 250; 500; 1000; 2000; 4000; 8000 ]

(* ------------------------------------------------------------------ *)
(* E6: EOS (NO-UNDO/REDO) with delegation                              *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6: delegation under NO-UNDO/REDO (EOS, §3.7)"
    "The same write-only workload on the EOS-style engine and on\n\
     ARIES/RH. EOS recovery is a single forward sweep of committed\n\
     private logs (no undo by construction); final states must agree.";
  let spec =
    {
      Gen.default with
      n_objects = 256;
      n_steps = 3000;
      p_add = 0.0;
      p_checkpoint = 0.0;
      p_savepoint = 0.0;
      p_rollback = 0.0;
    }
  in
  let script = Gen.generate spec ~seed:13L in
  let n = List.length script in
  (* EOS side *)
  let eos = Ariesrh_eos.Eos_db.create ~n_objects:256 in
  let xids = Hashtbl.create 64 in
  let x t = Hashtbl.find xids t in
  let run_eos () =
    List.iter
      (fun a ->
        match a with
        | Script.Begin t ->
            Hashtbl.replace xids t (Ariesrh_eos.Eos_db.begin_txn eos)
        | Script.Read (t, o) ->
            ignore (Ariesrh_eos.Eos_db.read eos (x t) (Oid.of_int o))
        | Script.Write (t, o, v) ->
            Ariesrh_eos.Eos_db.write eos (x t) (Oid.of_int o) v
        | Script.Add _ -> ()
        | Script.Delegate (f, g, o) ->
            Ariesrh_eos.Eos_db.delegate eos ~from_:(x f) ~to_:(x g)
              (Oid.of_int o)
        | Script.Savepoint _ | Script.Rollback_to _ -> ()
        | Script.Commit t -> Ariesrh_eos.Eos_db.commit eos (x t)
        | Script.Abort t -> Ariesrh_eos.Eos_db.abort eos (x t)
        | Script.Checkpoint -> ())
      script
  in
  let (), eos_np = time run_eos in
  Ariesrh_eos.Eos_db.crash eos;
  let eos_report, eos_rec = time (fun () -> Ariesrh_eos.Eos_db.recover eos) in
  (* ARIES/RH side *)
  let rh = Driver.fresh_db ~n_objects:256 () in
  let (), rh_np = time (fun () -> Driver.run rh script) in
  flush_log rh;
  Db.crash rh;
  let rh_report, rh_rec = time (fun () -> Db.recover rh) in
  let agree =
    Ariesrh_eos.Eos_db.peek_all eos = Db.peek_all rh
    && Db.peek_all rh = Oracle.expected ~n_objects:256 script
  in
  Format.printf "%d script actions, %d transactions@.@." n (Script.txns script);
  Format.printf "%-10s %10s %10s %22s@." "engine" "np(ms)" "rec(ms)"
    "recovery work";
  Format.printf "%-10s %10.2f %10.2f %22s@." "eos" eos_np eos_rec
    (Printf.sprintf "%d entries redone" eos_report.entries_replayed);
  Format.printf "%-10s %10.2f %10.2f %22s@." "aries/rh" rh_np rh_rec
    (Printf.sprintf "%d fwd + %d undos" rh_report.forward_records
       rh_report.undos);
  Format.printf "@.final states agree with each other and the oracle: %b@."
    agree

(* ------------------------------------------------------------------ *)
(* E7: the cost of synthesizing ETMs on delegation                     *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7: synthesizing extended transaction models (§2.2)"
    "The same batched-update job written as flat transactions, nested\n\
     transactions, split transactions, and a reporting transaction. The\n\
     ETMs pay for their extra semantics only the delegation machinery:\n\
     one delegate record per object handed over.";
  let groups = 200 and per_group = 5 in
  let n_objects = (groups * per_group) + 1 in
  let fresh () =
    Db.create
      (Config.make ~n_objects ~buffer_capacity:256 ~objects_per_page:8 ())
  in
  let ob g i = Oid.of_int ((g * per_group) + i) in
  let flat () =
    let db = fresh () in
    for g = 0 to groups - 1 do
      let t = Db.begin_txn db in
      for i = 0 to per_group - 1 do
        Db.add db t (ob g i) 1
      done;
      Db.commit db t
    done;
    db
  in
  let nested () =
    let db = fresh () in
    let rt = Ariesrh_etm.Asset.create db in
    let root = Ariesrh_etm.Nested.start rt in
    for g = 0 to groups - 1 do
      ignore
        (Ariesrh_etm.Nested.run_sub root (fun sub ->
             for i = 0 to per_group - 1 do
               Ariesrh_etm.Nested.add sub (ob g i) 1
             done))
    done;
    Ariesrh_etm.Nested.commit_root root;
    db
  in
  let split () =
    let db = fresh () in
    let rt = Ariesrh_etm.Asset.create db in
    let session = Ariesrh_etm.Asset.initiate_empty rt ~name:"session" () in
    for g = 0 to groups - 1 do
      for i = 0 to per_group - 1 do
        Ariesrh_etm.Asset.add rt session (ob g i) 1
      done;
      let part =
        Ariesrh_etm.Split.split rt session
          ~objects:(List.init per_group (fun i -> ob g i))
      in
      Ariesrh_etm.Asset.commit rt part
    done;
    Ariesrh_etm.Asset.commit rt session;
    db
  in
  let reporting () =
    let db = fresh () in
    let rt = Ariesrh_etm.Asset.create db in
    let r = Ariesrh_etm.Reporting.start rt in
    for g = 0 to groups - 1 do
      for i = 0 to per_group - 1 do
        Ariesrh_etm.Reporting.add r (ob g i) 1
      done;
      ignore (Ariesrh_etm.Reporting.report r)
    done;
    Ariesrh_etm.Reporting.finish r;
    db
  in
  let check db =
    (* every object incremented exactly once, whatever the model *)
    let ok = ref true in
    for g = 0 to groups - 1 do
      for i = 0 to per_group - 1 do
        if Db.peek db (ob g i) <> 1 then ok := false
      done
    done;
    !ok
  in
  let total_ops = groups * per_group in
  let flat_time = ref 0.0 in
  Format.printf "%-12s %10s %12s %10s %10s@." "model" "time(ms)" "ops/ms"
    "overhead" "correct";
  List.iter
    (fun (name, f) ->
      let db, ms = time f in
      if name = "flat" then flat_time := ms;
      Format.printf "%-12s %10.2f %12.1f %9.2fx %10b@." name ms
        (float_of_int total_ops /. ms)
        (ms /. !flat_time) (check db))
    [
      ("flat", flat); ("nested", nested); ("split", split);
      ("reporting", reporting);
    ]

(* ------------------------------------------------------------------ *)
(* E8: delegation pins the log truncation horizon                      *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8: delegation pins the log (ablation on the recovery horizon)"
    "Short worker transactions commit and go away; a rotating collector\n\
     receives (or, in the baseline, does not receive) delegation of one\n\
     object per worker. Delegated-in scopes reach back to updates whose\n\
     invokers committed long ago, so the oldest LSN that undo might need\n\
     - the log truncation horizon - stops advancing. The baseline\n\
     reclaims almost everything at each checkpoint.";
  let run ~delegated =
    let db =
      Db.create
        (Config.make ~n_objects:4096 ~buffer_capacity:1024 ~locking:false ())
    in
    let collector = ref (Db.begin_txn db) in
    let next_ob = ref 0 in
    let rows = ref [] in
    for round = 1 to 6 do
      for _ = 1 to 200 do
        let w = Db.begin_txn db in
        let o = Oid.of_int !next_ob in
        incr next_ob;
        Db.add db w o 1;
        if delegated then Db.delegate db ~from_:w ~to_:!collector o;
        Db.commit db w
      done;
      (* rotate the collector: hand everything to a fresh one, so begin
         records stay recent and only the scopes can pin *)
      let fresh = Db.begin_txn db in
      (if delegated then
         match Db.responsible_objects db !collector with
         | [] -> ()
         | _ -> Db.delegate_all db ~from_:!collector ~to_:fresh);
      Db.commit db !collector;
      collector := fresh;
      Db.shutdown db;
      Db.checkpoint db;
      let head = Lsn.to_int (Log_store.head (Db.log_store db)) in
      let horizon = Lsn.to_int (Db.truncation_horizon db) in
      let reclaimed = Db.truncate_log db in
      rows := (round, head, horizon, head - horizon, reclaimed) :: !rows
    done;
    List.rev !rows
  in
  let with_d = run ~delegated:true in
  let without = run ~delegated:false in
  Format.printf "%-6s | %28s | %28s@." ""
    "-- with delegation --" "-- without --";
  Format.printf "%-6s | %8s %9s %9s | %8s %9s %9s@." "round" "head"
    "horizon" "pinned" "head" "horizon" "pinned";
  List.iter2
    (fun (r, h1, z1, p1, _) (_, h2, z2, p2, _) ->
      Format.printf "%-6d | %8d %9d %9d | %8d %9d %9d@." r h1 z1 p1 h2 z2 p2)
    with_d without

(* ------------------------------------------------------------------ *)
(* E9: what cluster skipping buys (ablation)                           *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9: cluster sweep vs naive scan (ablation of §3.6.2)"
    "Identical crashed logs recovered twice: once with the Fig. 8\n\
     cluster-based backward pass, once with the strawman that examines\n\
     every record between the newest and oldest loser scope. Decisions\n\
     are identical; only the visits differ.";
  Format.printf "%-10s | %12s %12s | %12s %10s@." "log recs"
    "cluster_exam" "naive_exam" "saving" "undos";
  List.iter
    (fun gap ->
      let build () =
        Scenario.build ~groups:8 ~losers_per_group:2 ~updates_per_loser:2
          ~gap ~delegated:true ()
      in
      let s1 = build () in
      let r1 = Ariesrh_recovery.Aries_rh.recover (Db.env s1.db) in
      let s2 = build () in
      let r2 = Ariesrh_recovery.Aries_rh.recover_naive_sweep (Db.env s2.db) in
      assert (r1.undos = r2.undos);
      Format.printf "%-10d | %12d %12d | %11.1fx %10d@." s1.total_records
        r1.backward_examined r2.backward_examined
        (float_of_int r2.backward_examined
        /. float_of_int (max 1 r1.backward_examined))
        r1.undos)
    [ 125; 250; 500; 1000; 2000 ]

(* ------------------------------------------------------------------ *)
(* E10: delegation under contention                                    *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10: delegation under lock contention (simulator)"
    "Closed-loop clients colliding on a small object set, with waits-for\n\
     deadlock detection and youngest-victim aborts. Delegation transfers\n\
     locks along with responsibility; the engine state must still equal\n\
     the sum of committed increments at every delegation rate. A\n\
     delegation takes an operation's slot, so accesses (reads and adds\n\
     tried, retries included) fall as the rate rises; waits/acc is the\n\
     conflict rate per lock request.";
  Format.printf "%-6s | %10s %9s %9s %9s %9s %8s %12s %6s@." "rate"
    "committed" "accesses" "waits" "waits/acc" "deadlock" "aborted"
    "delegations" "ok";
  List.iter
    (fun rate ->
      let sh =
        Sharded.create (Config.make ~n_objects:16 ~buffer_capacity:16 ())
      in
      let outcome = Storm.fresh_outcome () in
      let clients =
        Storm.Clients.create outcome sh
          ~load:{ Storm.contended with n_objects = 12; p_delegate = rate }
          ~rng:(Prng.create 21L)
      in
      let ok = Storm.Clients.run clients ~txns:100 in
      let tl = Storm.Clients.tally clients in
      Format.printf "%-6.2f | %10d %9d %9d %9.3f %9d %8d %12d %6b@." rate
        tl.committed tl.accesses outcome.waits
        (float_of_int outcome.waits /. float_of_int tl.accesses)
        outcome.deadlocks tl.aborted tl.delegations ok)
    [ 0.0; 0.2; 0.5; 0.8 ]

(* ------------------------------------------------------------------ *)
(* E11: merged vs separate forward passes                              *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11: one forward pass or two (§3.3's remark)"
    "The paper notes ARIES/RH relies on a single (merged analysis+redo)\n\
     forward pass; classic ARIES runs analysis and redo separately. Both\n\
     organisations handle delegation identically (scopes are built during\n\
     analysis either way) — the difference is purely a second sequential\n\
     read of the redo region.";
  Format.printf "%-10s | %12s %12s | %12s %12s@." "log recs" "merged_fwd"
    "separate_fwd" "merged(ms)" "separate(ms)";
  List.iter
    (fun gap ->
      let run passes =
        let s =
          Scenario.build ~groups:4 ~losers_per_group:4 ~updates_per_loser:2
            ~gap ~delegated:true ()
        in
        let (report : Ariesrh_recovery.Report.t), ms =
          time (fun () -> Ariesrh_recovery.Aries_rh.recover ~passes (Db.env s.db))
        in
        (report.forward_records, ms)
      in
      let m_recs, m_ms = run Ariesrh_recovery.Forward.Merged in
      let s_recs, s_ms = run Ariesrh_recovery.Forward.Separate in
      Format.printf "%-10d | %12d %12d | %12.2f %12.2f@." (m_recs) m_recs
        s_recs m_ms s_ms)
    [ 500; 2000; 8000 ]

(* ------------------------------------------------------------------ *)
(* E12: substrate characterization — buffer pool vs WAL traffic        *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12: buffer pool size vs I/O (substrate characterization)"
    "The STEAL/NO-FORCE pool under a fixed skewed workload: a smaller\n\
     pool evicts more dirty pages, each eviction forcing the log first\n\
     (the WAL rule) and writing a data page. Context for every recovery\n\
     number above: the substrate behaves like the storage manager the\n\
     paper assumes.";
  let spec =
    {
      Gen.default with
      n_objects = 512;
      n_steps = 4000;
      theta = 0.9;
      p_checkpoint = 0.0;
    }
  in
  let script = Gen.generate spec ~seed:17L in
  Format.printf "%-10s | %10s %10s %10s %10s %12s@." "pool" "evictions"
    "pg_writes" "pg_reads" "hit_rate" "log_flushes";
  List.iter
    (fun capacity ->
      let db =
        Db.create
          (Config.make ~n_objects:512 ~objects_per_page:8
             ~buffer_capacity:capacity ())
      in
      Driver.run db script;
      let hits, misses, evictions = Db.pool_counters db in
      let d = Db.disk_stats db in
      let stats = Log_store.stats (Db.log_store db) in
      Format.printf "%-10d | %10d %10d %10d %9.1f%% %12d@." capacity evictions
        d.page_writes d.page_reads
        (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)))
        stats.flushes)
    [ 2; 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* E13: checkpoint interval vs restart time                            *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13: checkpoint interval vs restart recovery"
    "The paper's proofs ignore checkpoints and note the extension is\n\
     easy; we implemented fuzzy ARIES-style checkpoints carrying the\n\
     Ob_Lists with scopes. Classic trade-off, delegation included: more\n\
     frequent checkpoints bound the forward pass.";
  let spec =
    {
      Gen.default with
      n_objects = 256;
      n_steps = 6000;
      p_delegate = 0.15;
      p_checkpoint = 0.0;
      terminate_all = false;
    }
  in
  let script = Gen.generate spec ~seed:23L in
  let n = List.length script in
  Format.printf "%-10s | %10s %10s %10s %10s@." "ckpt every" "log recs"
    "fwd_recs" "undos" "rec(ms)";
  List.iter
    (fun interval ->
      let db = Driver.fresh_db ~n_objects:256 () in
      Driver.run ~upto:(n * 9 / 10)
        ~on_action:(fun i ->
          if interval > 0 && i mod interval = interval - 1 then
            Db.checkpoint db)
        db script;
      flush_log db;
      Db.crash db;
      let report, ms = time (fun () -> Db.recover db) in
      Format.printf "%-10s | %10d %10d %10d %10.2f@."
        (if interval = 0 then "never" else string_of_int interval)
        (Lsn.to_int (Log_store.head (Db.log_store db)))
        report.forward_records report.undos ms)
    [ 0; 2000; 500; 100 ]

(* ------------------------------------------------------------------ *)
(* E14: delegation bloats checkpoints                                  *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14: checkpoint size vs delegation rate"
    "ARIES/RH checkpoints must carry the Ob_Lists with scopes (§3.4),\n\
     and delegated-in scopes accumulate on long-lived delegatees: the\n\
     price of restartability is a bigger checkpoint record as delegation\n\
     grows. Measured as the encoded size of a checkpoint taken at the\n\
     same point of otherwise-identical workloads.";
  Format.printf "%-8s | %12s %12s %12s@." "rate" "ckpt bytes" "scopes"
    "live txns";
  List.iter
    (fun rate ->
      let spec =
        {
          Gen.default with
          n_objects = 256;
          n_steps = 3000;
          max_concurrent = 12;
          p_delegate = rate;
          p_commit = 0.04;
          p_abort = 0.02;
          p_checkpoint = 0.0;
          terminate_all = false;
        }
      in
      let script = Gen.generate spec ~seed:29L in
      let db = Driver.fresh_db ~n_objects:256 () in
      Driver.run db script;
      let before = Lsn.to_int (Log_store.head (Db.log_store db)) in
      Db.checkpoint db;
      (* the checkpoint appended ckpt_begin + ckpt_end: measure them *)
      let bytes = ref 0 in
      let scopes = ref 0 in
      Log_store.iter_forward (Db.log_store db)
        ~from:(Ariesrh_types.Lsn.of_int (before + 1)) (fun _ r ->
          bytes := !bytes + String.length (Ariesrh_wal.Record.encode r);
          match r.Ariesrh_wal.Record.body with
          | Ariesrh_wal.Record.Ckpt_end ck ->
              scopes :=
                List.fold_left
                  (fun acc (ob : Ariesrh_wal.Record.ckpt_ob) ->
                    acc + List.length ob.ck_scopes)
                  0 ck.ck_obs
          | _ -> ());
      Format.printf "%-8.2f | %12d %12d %12d@." rate !bytes !scopes
        (Db.active_count db))
    [ 0.0; 0.1; 0.2; 0.4 ]

(* ------------------------------------------------------------------ *)
(* E15: sustained load on a bounded log                                 *)
(* ------------------------------------------------------------------ *)

(* E15's client mix, which E16's group-commit counters reuse *)
let e15_load = { Storm.contended with n_objects = 48; p_delegate = 0.25 }

let e15 () =
  header "E15: sustained load on a bounded log (governor + backpressure)"
    "The shared client loop (E10's mix: reads, lock waits, op-level\n\
     delegation) against a WAL with a hard byte budget: a\n\
     governor checkpoints, truncates and applies delegation-aware\n\
     backpressure; refused clients retry with exponential backoff. The\n\
     cost of keeping the log bounded differs per engine: every scope a\n\
     delegatee holds pins the truncation horizon (E8), and eager's\n\
     anchor records eat budget at each delegation. Stall = scheduler\n\
     steps clients spent parked; pinned = head - truncation horizon at\n\
     the end of the run.";
  let module Governor = Ariesrh_maintenance.Governor in
  let rows = ref [] in
  Format.printf
    "%-8s %-6s | %9s %8s %9s %9s %9s | %6s %6s %7s | %8s %6s@." "budget"
    "engine" "committed" "txn/s" "stall" "overload" "abandon" "ckpts"
    "trunc" "victims" "pinned" "peak";
  List.iter
    (fun capacity ->
      List.iter
        (fun (name, impl) ->
          let sh =
            Sharded.create
              (Config.make ~n_objects:64 ~buffer_capacity:16 ~impl
                 ~locking:true
                 ?log_capacity_bytes:
                   (if capacity = 0 then None else Some capacity)
                 ())
          in
          let db = Sharded.db sh 0 in
          let gov = Governor.create db in
          let peak = ref 0.0 in
          let tick () =
            Governor.tick gov;
            let p = Db.log_pressure db in
            if p > !peak then peak := p
          in
          let clients =
            Storm.Clients.create (Storm.fresh_outcome ()) sh ~load:e15_load
              ~rng:(Prng.create 31L) ~backoff_base:4 ~max_backoff:64
              ~max_retries:8
          in
          let ok, ms =
            time (fun () -> Storm.Clients.run clients ~txns:60 ~tick)
          in
          let o = Storm.Clients.tally clients in
          let gs = Governor.stats gov in
          let pinned =
            Lsn.to_int (Log_store.head (Db.log_store db))
            - Lsn.to_int (Db.truncation_horizon db)
          in
          let tps = float_of_int o.committed /. (ms /. 1000.) in
          Format.printf
            "%-8d %-6s | %9d %8.0f %9d %9d %9d | %6d %6d %7d | %8d %6.2f@."
            capacity name o.committed tps o.stall_steps o.overloads
            o.abandoned gs.Governor.checkpoints gs.Governor.truncations
            gs.Governor.victims pinned !peak;
          assert ok;
          rows := (name, capacity, o, tps, gs, pinned, !peak, ok) :: !rows)
        [ ("rh", Config.Rh); ("lazy", Config.Lazy); ("eager", Config.Eager) ])
    (* 0 = unbounded: the no-governor baseline every bounded row is
       paying against *)
    [ 0; 32768; 12288; 4096 ];
  (* machine-readable artifact for CI trend tracking *)
  let path = bench_path "BENCH_e15_engines.json" in
  let () =
      let oc = open_out path in
      let engines =
        List.rev_map
          (fun (name, capacity, (o : Storm.tally), tps,
                (gs : Governor.stats), pinned, peak, ok) ->
            Printf.sprintf
              {|    { "engine": %S, "capacity_bytes": %d, "committed": %d,
      "throughput_txn_per_s": %.1f, "stall_steps": %d, "backoffs": %d,
      "overloads": %d, "log_fulls": %d, "abandoned": %d, "victimized": %d,
      "delegations": %d, "checkpoints": %d, "truncations": %d,
      "records_truncated": %d, "governor_victims": %d,
      "pinned_records": %d, "peak_pressure": %.3f, "state_ok": %b }|}
              name capacity o.committed tps o.stall_steps o.backoffs
              o.overloads o.log_fulls o.abandoned o.victimized o.delegations
              gs.Governor.checkpoints gs.Governor.truncations
              gs.Governor.records_truncated gs.Governor.victims pinned peak ok)
          !rows
      in
      Printf.fprintf oc
        "{\n  \"experiment\": \"e15\",\n  \"engines\": [\n%s\n  ]\n}\n"
        (String.concat ",\n" engines);
      close_out oc;
      Format.printf "@.wrote %s@." path
  in
  ()

(* ------------------------------------------------------------------ *)
(* E16: hot-path logical counters (perf-regression gate)               *)
(* ------------------------------------------------------------------ *)

(* An experiment may leave extra top-level fields for its
   BENCH_<name>.json artifact here; [run_instrumented] drains the list
   after the run. E16 uses it to publish the gated counters. *)
let artifact_extra : (string * Obs.Json.t) list ref = ref []

let e16 () =
  header "E16: hot-path logical counters (perf-regression gate)"
    "Six hot paths, measured with deterministic logical\n\
     counters — never wall time, so CI can gate on exact drift:\n\
     (a) decoded-record cache under a restart-heavy workload\n\
     (b) O(1) LRU eviction: frames examined per eviction, across pool sizes\n\
     (c) group commit: log forces under the concurrent simulator\n\
     (d) invoker-indexed scope lookup under heavy delegation\n\
     (e) log records restart reads, on a plain and a two-shard store\n\
     (f) records a fixed batch of as_of queries reads, live and\n\
     \    archive-bridged.\n\
     CI regenerates these counters and fails if any regresses >5%\n\
     against bench/baseline_e16.json.";
  let engines =
    [ ("rh", Config.Rh); ("lazy", Config.Lazy); ("eager", Config.Eager) ]
  in
  (* (a) restart-heavy decode workload: run a delegation-heavy script to
     90%, then crash+recover repeatedly. Every restart re-reads the same
     durable prefix; the cache turns those re-decodes into hits. *)
  let restart_spec =
    {
      Gen.default with
      n_objects = 128;
      n_steps = 1500;
      max_concurrent = 12;
      p_delegate = 0.2;
      p_commit = 0.05;
      p_abort = 0.02;
      p_checkpoint = 0.0;
      terminate_all = false;
    }
  in
  let restart_script = Gen.generate restart_spec ~seed:37L in
  let log_reads dbs =
    Array.fold_left
      (fun n db -> n + (Log_store.stats (Db.log_store db)).Log_stats.reads)
      0 dbs
  in
  let restart_heavy impl ~record_cache =
    let db = Driver.fresh_db ~impl ~record_cache ~n_objects:128 () in
    Driver.run ~upto:(List.length restart_script * 9 / 10) db restart_script;
    flush_log db;
    let before = log_reads [| db |] in
    for _ = 1 to 6 do
      Db.crash db;
      ignore (Db.recover db)
    done;
    ( Log_store.decode_calls (Db.log_store db),
      log_reads [| db |] - before,
      Db.peek_all db )
  in
  (* (e) restart reads on two shards: the same script co-homed across
     an inline two-shard store, crashed at 90% and restarted once. Each
     shard's forward pass plus the router's transfer resolution. *)
  let restart_reads_2shard impl =
    let sh = Shard_driver.fresh ~impl ~shards:2 ~n_objects:128 () in
    let homes = Shard_driver.assign_homes restart_script ~shards:2 in
    Shard_driver.run
      ~upto:(List.length restart_script * 9 / 10)
      ~homes sh restart_script;
    Array.iter flush_log (Sharded.dbs sh);
    let before = log_reads (Sharded.dbs sh) in
    Sharded.crash sh;
    ignore (Sharded.recover sh);
    log_reads (Sharded.dbs sh) - before
  in
  (* (f) time-travel reads: a fixed batch of single-object as_of queries
     over the same history, counted as live records plus archived frames
     read — on the live log, then after a checkpoint and truncation with
     the archive bridging the reclaimed prefix. Same answers both ways. *)
  let asof_reads impl =
    let module Temporal = Ariesrh_temporal.Temporal in
    let module Archive = Ariesrh_storage.Archive in
    let db = Driver.fresh_db ~impl ~n_objects:128 () in
    let ar = Db.attach_archive db in
    Driver.run ~upto:(List.length restart_script * 9 / 10) db restart_script;
    flush_log db;
    let cps = Array.of_list (Temporal.commit_points db) in
    let batch =
      List.init 16 (fun k ->
          (fst cps.(k * Array.length cps / 16), Oid.of_int (k mod 8)))
    in
    let reads () = log_reads [| db |] + Archive.wal_reads ar in
    let run () =
      let before = reads () in
      let answers =
        List.map (fun (lsn, o) -> Temporal.as_of db ~lsn o) batch
      in
      (reads () - before, answers)
    in
    let live, answers = run () in
    Db.checkpoint db;
    ignore (Db.truncate_log db);
    assert (Temporal.coverage db).Temporal.bridged;
    let bridged, answers' = run () in
    assert (answers = answers');
    (live, bridged)
  in
  (* (b) eviction scans: E12's skewed workload at two pool sizes; the
     gate is scans == evictions (one frame examined per eviction)
     whatever the pool size — the old fold examined every frame. *)
  let evict_spec =
    {
      Gen.default with
      n_objects = 512;
      n_steps = 2500;
      theta = 0.9;
      p_checkpoint = 0.0;
    }
  in
  let evict_script = Gen.generate evict_spec ~seed:17L in
  let evictions impl ~capacity =
    let db =
      Db.create
        (Config.make ~n_objects:512 ~objects_per_page:8
           ~buffer_capacity:capacity ~impl ())
    in
    Driver.run db evict_script;
    let pool = (Db.env db).Ariesrh_recovery.Env.pool in
    let _, _, ev = Db.pool_counters db in
    (ev, Buffer_pool.eviction_scans pool)
  in
  (* (c) group commit: the same contended simulator run with commits
     forced one by one vs batched 8 at a time. *)
  let sim_flushes impl ~group_commit =
    let sh =
      Sharded.create
        (Config.make ~n_objects:64 ~buffer_capacity:16 ~impl ~locking:true
           ~group_commit ())
    in
    let clients =
      Storm.Clients.create (Storm.fresh_outcome ()) sh ~load:e15_load
        ~rng:(Prng.create 31L)
    in
    assert (Storm.Clients.run clients ~txns:60);
    Sharded.flush_commits sh;
    ( (Log_store.stats (Db.log_store (Sharded.db sh 0))).Log_stats.flushes,
      (Storm.Clients.tally clients).committed )
  in
  (* (d) scope probes: a delegation-heavy script plus one crash/recover,
     so both normal-processing partition (split_out) and recovery
     trimming (trim_covering) are exercised. The counter is global, so
     measure the delta around the phase. *)
  let scope_spec = { restart_spec with p_delegate = 0.4; n_steps = 2000 } in
  let scope_script = Gen.generate scope_spec ~seed:41L in
  let scope_probes impl =
    let before = Ob_list.scope_probes () in
    let db = Driver.fresh_db ~impl ~n_objects:128 () in
    Driver.run ~upto:(List.length scope_script * 9 / 10) db scope_script;
    flush_log db;
    Db.crash db;
    ignore (Db.recover db);
    Ob_list.scope_probes () - before
  in
  let rows = ref [] in
  Format.printf
    "%-6s | %10s %10s %7s | %9s %9s | %9s %9s | %10s | %8s %8s | %8s %8s@."
    "engine" "dec_cold" "dec_cache" "saved" "scan/ev4" "scan/ev32" "flushes"
    "flushes_g" "scope_prb" "rd_plain" "rd_2shard" "asof_liv" "asof_brg";
  List.iter
    (fun (name, impl) ->
      let dec_cold, reads_plain, st_cold = restart_heavy impl ~record_cache:0 in
      let dec_cached, reads_cached, st_cached =
        restart_heavy impl ~record_cache:Config.default.Config.record_cache
      in
      assert (st_cold = st_cached && reads_plain = reads_cached);
      let reads_2shard = restart_reads_2shard impl in
      let ev4, scans4 = evictions impl ~capacity:4 in
      let ev32, scans32 = evictions impl ~capacity:32 in
      assert (scans4 = ev4 && scans32 = ev32);
      let fl_eager, committed = sim_flushes impl ~group_commit:0 in
      let fl_grouped, committed' = sim_flushes impl ~group_commit:8 in
      assert (committed = committed');
      assert (fl_grouped < fl_eager);
      let probes = scope_probes impl in
      let asof_live, asof_bridged = asof_reads impl in
      let saved =
        100. *. (1. -. (float_of_int dec_cached /. float_of_int dec_cold))
      in
      assert (2 * dec_cached <= dec_cold);
      Format.printf
        "%-6s | %10d %10d %6.1f%% | %4d/%-4d %4d/%-4d | %9d %9d | %10d | %8d %8d | %8d %8d@."
        name dec_cold dec_cached saved scans4 ev4 scans32 ev32 fl_eager
        fl_grouped probes reads_plain reads_2shard asof_live asof_bridged;
      rows :=
        ( name,
          Obs.Json.Obj
            [
              ("decode_calls_uncached", Obs.Json.Int dec_cold);
              ("decode_calls_cached", Obs.Json.Int dec_cached);
              ("evictions_pool4", Obs.Json.Int ev4);
              ("eviction_scans_pool4", Obs.Json.Int scans4);
              ("evictions_pool32", Obs.Json.Int ev32);
              ("eviction_scans_pool32", Obs.Json.Int scans32);
              ("log_flushes_eager", Obs.Json.Int fl_eager);
              ("log_flushes_grouped", Obs.Json.Int fl_grouped);
              ("sim_committed", Obs.Json.Int committed);
              ("scope_probes", Obs.Json.Int probes);
              ("restart_log_reads_plain", Obs.Json.Int reads_plain);
              ("restart_log_reads_2shard", Obs.Json.Int reads_2shard);
              ("asof_reads_live", Obs.Json.Int asof_live);
              ("asof_reads_bridged", Obs.Json.Int asof_bridged);
            ] )
        :: !rows)
    engines;
  artifact_extra := [ ("counters", Obs.Json.Obj (List.rev !rows)) ];
  Format.printf
    "@.all engines: cached restarts decode >=2x fewer records, every@.\
     eviction examines exactly one frame, and group commit forces the@.\
     log strictly less often at identical committed work.@."

let e17 () =
  header "E17: file backend — real fsync discipline and its cost"
    "The same committed work on the simulated and the file backend.\n\
     The file backend appends checksummed frames to a segmented WAL and\n\
     fsyncs on every force, so this is the one experiment where wall\n\
     time is the point: txn/s with a real fsync in the commit path, and\n\
     how group commit amortises it. Same-seed runs must end in the same\n\
     state on both backends — the write-through design makes the file\n\
     layer invisible to the engine.";
  let engines =
    [ ("rh", Config.Rh); ("lazy", Config.Lazy); ("eager", Config.Eager) ]
  in
  let spec =
    { Gen.default with n_objects = 128; n_steps = 3000; p_checkpoint = 0.0 }
  in
  let script = Gen.generate spec ~seed:23L in
  let commits =
    List.length
      (List.filter (function Script.Commit _ -> true | _ -> false) script)
  in
  (* a fresh directory per run: concurrent or leftover runs never share
     database files *)
  let root = Filename.temp_dir "ariesrh-bench-e17" "" in
  (* a pool big enough that the WAL rule rarely forces on eviction —
     the fsyncs measured here are the commit path's, which is what
     group commit batches *)
  let run_one impl ~backend ~group_commit =
    let db =
      Db.create ~backend
        (Config.make ~n_objects:128 ~buffer_capacity:64 ~impl ~locking:true
           ~group_commit ())
    in
    let t0 = Unix.gettimeofday () in
    Driver.run db script;
    Db.flush_commits db;
    Db.shutdown db;
    let dt = Unix.gettimeofday () -. t0 in
    let fsyncs = Db.log_fsyncs db + Db.page_fsyncs db in
    let state = Db.peek_all db in
    Db.close db;
    (dt, fsyncs, state)
  in
  let rows = ref [] in
  Format.printf "%-6s | %9s %9s %11s | %9s %9s | %9s@." "engine" "sim tx/s"
    "file tx/s" "file-g tx/s" "fsyncs" "fsyncs/s" "fsyncs-g";
  List.iter
    (fun (name, impl) ->
      let dir tag =
        let d = Filename.concat root (name ^ "-" ^ tag) in
        Ariesrh_storage.Backend.remove_tree d;
        Ariesrh_storage.Backend.File { dir = d }
      in
      let dt_sim, fs_sim, st_sim =
        run_one impl ~backend:Ariesrh_storage.Backend.Sim ~group_commit:0
      in
      let dt_file, fs_file, st_file =
        run_one impl ~backend:(dir "eager") ~group_commit:0
      in
      let dt_grp, fs_grp, st_grp =
        run_one impl ~backend:(dir "grouped") ~group_commit:8
      in
      (* backend parity: the file layer must be semantically invisible *)
      assert (st_sim = st_file && st_sim = st_grp);
      assert (fs_sim = 0);
      assert (fs_grp < fs_file);
      let tps dt = float_of_int commits /. dt in
      Format.printf "%-6s | %9.0f %9.0f %11.0f | %9d %9.0f | %9d@." name
        (tps dt_sim) (tps dt_file) (tps dt_grp) fs_file
        (float_of_int fs_file /. dt_file)
        fs_grp;
      rows :=
        ( name,
          Obs.Json.Obj
            [
              ("committed", Obs.Json.Int commits);
              ("sim_txn_per_s", Obs.Json.Float (tps dt_sim));
              ("file_txn_per_s", Obs.Json.Float (tps dt_file));
              ("file_grouped_txn_per_s", Obs.Json.Float (tps dt_grp));
              ("file_fsyncs", Obs.Json.Int fs_file);
              ( "file_fsyncs_per_s",
                Obs.Json.Float (float_of_int fs_file /. dt_file) );
              ("file_grouped_fsyncs", Obs.Json.Int fs_grp);
              ("file_wall_ms", Obs.Json.Float (1000. *. dt_file));
              ("file_grouped_wall_ms", Obs.Json.Float (1000. *. dt_grp));
              ("sim_wall_ms", Obs.Json.Float (1000. *. dt_sim));
            ] )
        :: !rows)
    engines;
  Ariesrh_storage.Backend.remove_tree root;
  artifact_extra := [ ("throughput", Obs.Json.Obj (List.rev !rows)) ];
  Format.printf
    "@.every engine ends in the same state on both backends, and group@.\
     commit strictly reduces fsyncs at identical committed work.@."

let e18 () =
  header "E18: media scrubbing — overhead and heal latency"
    "The silent-corruption defences must be close to free when nothing\n\
     is corrupt. Part one runs the same committed workload with the\n\
     incremental scrubber off and riding along (WAL archiving on in\n\
     both), and reports the overhead. Part two injects one corruption\n\
     of each class and times the full detect-and-heal sweep against a\n\
     clean-sweep baseline.";
  let module Scrubber = Ariesrh_maintenance.Scrubber in
  let module Disk = Ariesrh_storage.Disk in
  let n_objects = 128 and txns = 8_000 in
  let workload ~batch =
    let db =
      Db.create
        (Config.make ~n_objects ~buffer_capacity:32 ~impl:Config.Rh
           ~locking:true ())
    in
    ignore (Db.attach_archive db);
    let scrubber = if batch > 0 then Some (Scrubber.create ~batch db) else None in
    let rng = Prng.create 77L in
    let t0 = Unix.gettimeofday () in
    for i = 1 to txns do
      let x = Db.begin_txn db in
      for _ = 1 to 4 do
        Db.add db x (Oid.of_int (Prng.int rng n_objects)) (1 + Prng.int rng 9)
      done;
      Db.commit db x;
      match scrubber with
      | Some s when i mod 4 = 0 -> ignore (Scrubber.step s)
      | _ -> ()
    done;
    let dt = 1000. *. (Unix.gettimeofday () -. t0) in
    let checked, _, _, unhealable = Db.media_counters db in
    assert (unhealable = 0);
    (dt, checked, Db.peek_all db)
  in
  let dt_off, _, st_off = workload ~batch:0 in
  let dt_on, checked_on, st_on = workload ~batch:16 in
  (* the scrubber is semantically invisible *)
  assert (st_off = st_on);
  let overhead_pct = 100. *. (dt_on -. dt_off) /. dt_off in
  Format.printf
    "overhead: %d txns, scrub off %.1f ms, scrub riding %.1f ms\n\
     (%d images checked) -> %+.1f%%@."
    txns dt_off dt_on checked_on overhead_pct;
  (* part two: heal latency per corruption class. One fresh db, a
     modest history, then [reps] inject-and-sweep rounds per class,
     against the clean-sweep baseline. *)
  let db =
    Db.create
      (Config.make ~n_objects ~buffer_capacity:32 ~impl:Config.Rh
       ~locking:true ())
  in
  ignore (Db.attach_archive db);
  let rng = Prng.create 78L in
  for _ = 1 to 500 do
    let x = Db.begin_txn db in
    for _ = 1 to 4 do
      Db.add db x (Oid.of_int (Prng.int rng n_objects)) (1 + Prng.int rng 9)
    done;
    Db.commit db x
  done;
  ignore (Db.archive_catchup db);
  let disk = Ariesrh_storage.Buffer_pool.disk (Db.env db).Ariesrh_recovery.Env.pool in
  let reps = 50 in
  let sweep_ms () =
    let (out : Db.scrub_outcome), ms = time (fun () -> Db.scrub db) in
    (out, ms)
  in
  let baseline =
    let acc = ref 0. in
    for _ = 1 to reps do
      let out, ms = sweep_ms () in
      assert (out.Db.corrupt = 0);
      acc := !acc +. ms
    done;
    !acc /. float_of_int reps
  in
  let timed_class ~name inject =
    let acc = ref 0. and healed = ref 0 in
    for _ = 1 to reps do
      inject ();
      let out, ms = sweep_ms () in
      healed := !healed + out.Db.healed;
      assert (out.Db.unhealable = 0);
      acc := !acc +. ms
    done;
    let mean = !acc /. float_of_int reps in
    assert (!healed >= reps);
    Format.printf "%-12s: sweep %.3f ms (clean %.3f ms), heal +%.3f ms@." name
      mean baseline (mean -. baseline);
    (name, mean)
  in
  let pages = Disk.page_count disk in
  let page_rot =
    timed_class ~name:"page-rot" (fun () ->
        Disk.bitrot_main disk (Page_id.of_int (Prng.int rng pages))
          ~slot:(Prng.int rng 4))
  in
  let log = Db.log_store db in
  let wal_rot =
    timed_class ~name:"wal-rot" (fun () ->
        let low = Lsn.to_int (Log_store.truncated_below log) - 1 in
        let durable = Lsn.to_int (Log_store.durable log) in
        Log_store.bitrot_record log ~idx:(low + Prng.int rng (durable - low)))
  in
  artifact_extra :=
    [
      ( "scrub",
        Obs.Json.Obj
          [
            ("txns", Obs.Json.Int txns);
            ("wall_ms_scrub_off", Obs.Json.Float dt_off);
            ("wall_ms_scrub_on", Obs.Json.Float dt_on);
            ("images_checked", Obs.Json.Int checked_on);
            ("overhead_pct", Obs.Json.Float overhead_pct);
            ("clean_sweep_ms", Obs.Json.Float baseline);
            ("heal_sweep_ms_page_rot", Obs.Json.Float (snd page_rot));
            ("heal_sweep_ms_wal_rot", Obs.Json.Float (snd wal_rot));
            ("heal_reps", Obs.Json.Int reps);
          ] );
    ];
  Format.printf
    "@.the scrubber is semantically invisible (identical final state),@.\
     and every injected corruption healed within one sweep.@."

let e19 () =
  header "E19: time-travel read latency vs history depth"
    "as_of / snapshot_at / history reconstruct state from the durable\n\
     log alone. snapshot_at reads the covered prefix [1, L], so its cost\n\
     is linear in history depth; as_of and history read only what the\n\
     log index files under their object, the surgery records and the\n\
     holders' outcome records. Part one grows the log and measures the\n\
     per-query cost and the records one as_of reads. Part two truncates\n\
     the prefix: with the archive attached the same query is answered\n\
     by bridging through the archived WAL frames (same answer, measured\n\
     separately); without it, the reader gets a typed refusal instead\n\
     of a partial answer. Part three repeats the bridged read at a low\n\
     L on every engine, after a crash at 3/4 let restart rewrite the\n\
     log.";
  let module Temporal = Ariesrh_temporal.Temporal in
  let module Archive = Ariesrh_storage.Archive in
  (* live records plus archived frames one call reads *)
  let reads_of db f =
    let count () =
      (Log_store.stats (Db.log_store db)).Log_stats.reads
      + Option.fold ~none:0 ~some:Archive.wal_reads (Db.archive db)
    in
    let before = count () in
    f ();
    count () - before
  in
  let n_objects = 128 in
  let spec =
    { Gen.default with n_objects; n_steps = 0; p_delegate = 0.15;
      p_checkpoint = 0.0 }
  in
  let reps = 200 in
  let bench_queries db =
    let cps = Temporal.commit_points db in
    let last = fst (List.nth cps (List.length cps - 1)) in
    let timed f =
      let (), ms = time (fun () -> for _ = 1 to reps do f () done) in
      1000. *. ms /. float_of_int reps (* us/query *)
    in
    let query () = ignore (Temporal.as_of db ~lsn:last (Oid.of_int 0)) in
    let reads = reads_of db query in
    let as_of = timed query in
    let snap = timed (fun () -> ignore (Temporal.snapshot_at db last)) in
    let hist = timed (fun () -> ignore (Temporal.history db (Oid.of_int 0))) in
    (Lsn.to_int last, List.length cps, reads, as_of, snap, hist)
  in
  let rows = ref [] in
  Format.printf "%-8s | %8s %8s | %10s %12s %12s %12s@." "steps" "records"
    "commits" "as_of rds" "as_of(us)" "snap(us)" "history(us)";
  List.iter
    (fun n_steps ->
      let script = Gen.generate { spec with n_steps } ~seed:47L in
      let db = Driver.fresh_db ~n_objects () in
      Driver.run db script;
      flush_log db;
      let records, commits, reads, as_of, snap, hist = bench_queries db in
      Format.printf "%-8d | %8d %8d | %10d %12.1f %12.1f %12.1f@." n_steps
        records commits reads as_of snap hist;
      rows :=
        Obs.Json.Obj
          [
            ("steps", Obs.Json.Int n_steps);
            ("records", Obs.Json.Int records);
            ("commits", Obs.Json.Int commits);
            ("as_of_reads", Obs.Json.Int reads);
            ("as_of_us", Obs.Json.Float as_of);
            ("snapshot_us", Obs.Json.Float snap);
            ("history_us", Obs.Json.Float hist);
          ]
        :: !rows)
    [ 500; 1000; 2000; 4000; 8000 ];
  (* part two: the same mid-history query before truncation, after
     truncation with the archive bridging the gap, and the typed
     refusal without it *)
  let n_steps = 4000 in
  let script = Gen.generate { spec with n_steps } ~seed:47L in
  let run_one ~with_archive =
    let db = Driver.fresh_db ~n_objects () in
    if with_archive then ignore (Db.attach_archive db);
    Driver.run db script;
    flush_log db;
    db
  in
  let db = run_one ~with_archive:true in
  let cps = Temporal.commit_points db in
  let mid = fst (List.nth cps (List.length cps / 2)) in
  let timed f =
    let (), ms = time (fun () -> for _ = 1 to reps do f () done) in
    1000. *. ms /. float_of_int reps
  in
  let live_us = timed (fun () -> ignore (Temporal.snapshot_at db mid)) in
  let live_answer = Temporal.snapshot_at db mid in
  Db.checkpoint db;
  ignore (Db.truncate_log db);
  let cov = Temporal.coverage db in
  assert cov.Temporal.bridged;
  let bridged_us = timed (fun () -> ignore (Temporal.snapshot_at db mid)) in
  assert (Temporal.snapshot_at db mid = live_answer);
  let bare = run_one ~with_archive:false in
  Db.checkpoint bare;
  ignore (Db.truncate_log bare);
  let refused =
    match Temporal.snapshot_at bare mid with
    | _ -> false
    | exception Errors.History_unavailable _ -> true
  in
  assert refused;
  Format.printf
    "@.bridging: same mid-history snapshot, live log %.1f us,@.\
     archive-bridged after truncation %.1f us (identical answer);@.\
     without the archive the truncated read is refused, never partial.@."
    live_us bridged_us;
  (* part three: a low L below an archive-bridged horizon, on a history
     restart rewrote (eager's surgeries, lazy's splices) *)
  Format.printf "@.%-6s | %6s %8s | %10s %10s | %10s %10s@." "engine" "L"
    "bridged" "snap(us)" "snap rds" "as_of(us)" "as_of rds";
  let low_rows =
    List.map
      (fun (name, impl) ->
        let db = Driver.fresh_db ~impl ~n_objects () in
        ignore (Db.attach_archive db);
        ignore
          (Driver.run_to_crash db script
             ~crash_at:(3 * List.length script / 4));
        flush_log db;
        let l = fst (List.nth (Temporal.commit_points db) 4) in
        (* the object updated most often at or below L *)
        let counts = Array.make n_objects 0 in
        Log_store.iter_forward (Db.log_store db) ~from:Lsn.nil ~upto:l
          (fun _ r ->
            match r.Ariesrh_wal.Record.body with
            | Ariesrh_wal.Record.Update u ->
                let i = Oid.to_int u.Ariesrh_wal.Record.oid in
                counts.(i) <- counts.(i) + 1
            | _ -> ());
        let o = ref 0 in
        Array.iteri (fun i c -> if c > counts.(!o) then o := i) counts;
        let o = Oid.of_int !o in
        let answer = (Temporal.snapshot_at db l, Temporal.as_of db ~lsn:l o) in
        Db.shutdown db;
        Db.checkpoint db;
        ignore (Db.truncate_log db);
        assert (Temporal.coverage db).Temporal.bridged;
        assert (
          (Temporal.snapshot_at db l, Temporal.as_of db ~lsn:l o) = answer);
        let bridged =
          Lsn.to_int (Log_store.truncated_below (Db.log_store db)) - 1
        in
        let snap () = ignore (Temporal.snapshot_at db l) in
        let as_of () = ignore (Temporal.as_of db ~lsn:l o) in
        let snap_us = timed snap and as_of_us = timed as_of in
        let snap_reads = reads_of db snap and as_of_reads = reads_of db as_of in
        Format.printf "%-6s | %6d %8d | %10.1f %10d | %10.1f %10d@." name
          (Lsn.to_int l) bridged snap_us snap_reads as_of_us as_of_reads;
        Obs.Json.Obj
          [
            ("engine", Obs.Json.String name);
            ("lsn", Obs.Json.Int (Lsn.to_int l));
            ("bridged_records", Obs.Json.Int bridged);
            ("snapshot_us", Obs.Json.Float snap_us);
            ("snapshot_reads", Obs.Json.Int snap_reads);
            ("as_of_us", Obs.Json.Float as_of_us);
            ("as_of_reads", Obs.Json.Int as_of_reads);
          ])
      [ ("rh", Config.Rh); ("eager", Config.Eager); ("lazy", Config.Lazy) ]
  in
  artifact_extra :=
    [
      ("depth", Obs.Json.List (List.rev !rows));
      ("bridged_low", Obs.Json.List low_rows);
      ( "bridging",
        Obs.Json.Obj
          [
            ("mid_lsn", Obs.Json.Int (Lsn.to_int mid));
            ("live_snapshot_us", Obs.Json.Float live_us);
            ("bridged_snapshot_us", Obs.Json.Float bridged_us);
            ("unbridged_refused", Obs.Json.Bool refused);
          ] );
    ]

(* set by an experiment whose pass/fail gate should fail the process
   without losing the artifact (run_instrumented writes it after the
   experiment body returns) *)
let exit_code = ref 0

let e20 () =
  header "E20: sharded engine — multicore scaling with cross-shard transfers"
    "N independent shards (per-shard WAL, buffer pool, lock table), one\n\
     domain each, objects hash-partitioned. Each domain runs a closed\n\
     loop of shard-local transactions; ~5% of them also touch one\n\
     object homed on the neighbouring shard, pulling it over with the\n\
     crash-atomic transfer protocol (< 10% of ops cross shards).\n\
     Committed-transaction throughput should scale with shard count;\n\
     the gate (>= ARIESRH_E20_MIN_SCALE x at 4 shards, default 2.0)\n\
     applies only where the host grants >= 4 domains.";
  let module Shard_pool = Ariesrh_shard.Shard_pool in
  let txns_per_shard = 3000 in
  let ops_per_txn = 4 in
  let objects_per_shard = 64 in
  let run shards =
    let pool = Shard_pool.create shards in
    let n_objects = shards * objects_per_shard in
    let config =
      Config.make ~n_objects ~objects_per_page:8
        ~buffer_capacity:(max 16 (n_objects / 8))
        ~impl:Config.Rh ~locking:true ~shards ()
    in
    let sh = Sharded.create ~pool config in
    (* per-domain tallies; each slot is written by one domain only *)
    let applied = Array.make shards 0 in
    let cross = Array.make shards 0 in
    let skipped = Array.make shards 0 in
    let worker i =
      let rng = Random.State.make [| 0xE20; i |] in
      (* object o is based on shard (o mod shards): shard i's local
         pool interleaves with every other shard's *)
      let obj_of owner =
        Oid.of_int ((Random.State.int rng objects_per_shard * shards) + owner)
      in
      let try_add x oid =
        match Sharded.add sh x oid 1 with
        | () -> applied.(i) <- applied.(i) + 1; true
        | exception Errors.Xfer_refused _ ->
            (* the object is locked on its current shard right now —
               skip the op, the transaction commits without it *)
            skipped.(i) <- skipped.(i) + 1;
            false
      in
      for k = 1 to txns_per_shard do
        (* service peers' transfer jobs queued on this shard *)
        Shard_pool.poll pool;
        let x = Sharded.begin_txn sh ~shard:i in
        for _ = 1 to ops_per_txn do
          ignore (try_add x (obj_of i))
        done;
        if shards > 1 && k mod 20 = 0 then begin
          if try_add x (obj_of ((i + 1) mod shards)) then
            cross.(i) <- cross.(i) + 1
        end;
        Sharded.commit sh x
      done
    in
    let (), ms = time (fun () -> ignore (Shard_pool.map pool worker)) in
    Sharded.flush_commits sh;
    (* every committed +1 must be visible exactly once, wherever the
       object ended up homed *)
    let total_applied = Array.fold_left ( + ) 0 applied in
    let sum = Array.fold_left ( + ) 0 (Sharded.peek_all sh) in
    assert (sum = total_applied);
    (match Sharded.audit sh with
    | [] -> ()
    | vs -> failwith (String.concat "; " vs));
    (* every posted transfer close has drained: no claim, no open intent *)
    (match Sharded.validate sh with Ok () -> () | Error m -> failwith m);
    let c = Sharded.counters sh in
    Sharded.close sh;
    Shard_pool.shutdown pool;
    let committed = shards * txns_per_shard in
    let tps = 1000. *. float_of_int committed /. ms in
    (ms, committed, tps, Array.fold_left ( + ) 0 cross,
     Array.fold_left ( + ) 0 skipped, c)
  in
  let rows = ref [] in
  Format.printf "%-7s | %10s %10s %12s | %9s %8s %8s@." "shards" "txns"
    "wall(ms)" "txn/s" "migrated" "cross" "refused";
  let results =
    List.map
      (fun shards ->
        let ms, committed, tps, cross, skipped, c = run shards in
        Format.printf "%-7d | %10d %10.0f %12.0f | %9d %8d %8d@." shards
          committed ms tps c.Sharded.migrations cross c.Sharded.migrations_refused;
        rows :=
          Obs.Json.Obj
            [
              ("shards", Obs.Json.Int shards);
              ("committed_txns", Obs.Json.Int committed);
              ("wall_ms", Obs.Json.Float ms);
              ("txns_per_sec", Obs.Json.Float tps);
              ("migrations", Obs.Json.Int c.Sharded.migrations);
              ("cross_shard_txns", Obs.Json.Int cross);
              ("refused", Obs.Json.Int c.Sharded.migrations_refused);
              ("ops_skipped", Obs.Json.Int skipped);
            ]
          :: !rows;
        (shards, tps))
      [ 1; 2; 4 ]
  in
  let tps_of n = List.assoc n results in
  let scale = tps_of 4 /. tps_of 1 in
  let min_scale =
    match Sys.getenv_opt "ARIESRH_E20_MIN_SCALE" with
    | Some s -> float_of_string s
    | None -> 2.0
  in
  let domains = Domain.recommended_domain_count () in
  let gated = domains >= 4 in
  let pass = (not gated) || scale >= min_scale in
  Format.printf "@.scaling 1 -> 4 shards: %.2fx (gate: >= %.1fx, %s)@." scale
    min_scale
    (if not gated then
       Printf.sprintf "SKIPPED — host grants only %d domain(s)" domains
     else if pass then "PASS"
     else "FAIL");
  if not pass then exit_code := 1;
  artifact_extra :=
    [
      ("scaling", Obs.Json.List (List.rev !rows));
      ("scale_4_over_1", Obs.Json.Float scale);
      ("min_scale", Obs.Json.Float min_scale);
      ("recommended_domains", Obs.Json.Int domains);
      ("gate_enforced", Obs.Json.Bool gated);
      ("gate_pass", Obs.Json.Bool pass);
    ]

let e21 () =
  header "E21: instant restart — time-to-first-commit vs. log length"
    "A long-lived loser keeps updating one object across an ever-growing\n\
     committed history with periodic checkpoints. Offline restart must\n\
     finish redo and walk the loser's whole update chain before serving\n\
     anything, so its logical time-to-first-commit (forward records +\n\
     backward records examined/skipped + undos) grows with the log.\n\
     On-demand restart runs analysis only — bounded by the checkpoint\n\
     interval — opens immediately, and drains the same backlog in the\n\
     background; the partitioned variant (4 shards, one domain each)\n\
     additionally runs every shard's analysis in parallel. The gates are\n\
     deterministic logical counters; wall times are informative.";
  let module Report = Ariesrh_recovery.Report in
  let n_objects = 128 in
  let ckpt_every = 50 in
  let loser_every = 10 in
  (* [txns] committed single-add transactions, a checkpoint every
     [ckpt_every], and one transaction begun before all of it that adds
     to object 0 every [loser_every] commits and never commits itself *)
  let build ~mode ~txns =
    let db = Driver.fresh_db ~recovery_mode:mode ~n_objects () in
    let loser = Db.begin_txn db in
    Db.add db loser (Oid.of_int 0) 1;
    for k = 1 to txns do
      let x = Db.begin_txn db in
      Db.add db x (Oid.of_int (1 + (k mod (n_objects - 1)))) 1;
      Db.commit db x;
      if k mod loser_every = 0 then Db.add db loser (Oid.of_int 0) 1;
      if k mod ckpt_every = 0 then Db.checkpoint db
    done;
    Db.crash db;
    db
  in
  (* all ≡ 25 mod ckpt_every: every run crashes the same distance past
     its last checkpoint, so the analysis tail is comparable across
     lengths (a multiple of ckpt_every would leave it degenerately 0) *)
  let lengths = [ 425; 825; 1625 ] in
  let rows = ref [] in
  Format.printf "%-6s | %9s %8s | %11s %11s %10s %6s@." "txns" "off_ttfc"
    "od_ttfc" "off_rec(ms)" "od_open(ms)" "drain(ms)" "steps";
  let results =
    List.map
      (fun txns ->
        let off = build ~mode:Config.Offline ~txns in
        let off_report, off_ms = time (fun () -> Db.recover off) in
        let off_ttfc =
          off_report.Report.forward_records
          + off_report.Report.backward_examined
          + off_report.Report.backward_skipped + off_report.Report.undos
        in
        let off_state = Db.peek_all off in
        Db.close off;
        let od = build ~mode:Config.On_demand ~txns in
        let od_report, od_ms = time (fun () -> Db.recover od) in
        let od_ttfc = od_report.Report.forward_records in
        assert (Db.recovering od);
        let steps = ref 0 in
        let (), drain_ms =
          time (fun () -> while Db.recovery_step od do incr steps done)
        in
        (* the drained lazy restart must land exactly where the offline
           one did, and both must carry every committed increment *)
        assert (Db.peek_all od = off_state);
        assert (Array.fold_left ( + ) 0 off_state = txns);
        let redo_ms =
          Obs.Profiler.wall_ms od_report.Report.profile "restart.ondemand.redo"
        and undo_ms =
          Obs.Profiler.wall_ms od_report.Report.profile "restart.ondemand.undo"
        in
        Db.close od;
        Format.printf "%-6d | %9d %8d | %11.3f %11.3f %10.3f %6d@." txns
          off_ttfc od_ttfc off_ms od_ms drain_ms !steps;
        rows :=
          Obs.Json.Obj
            [
              ("txns", Obs.Json.Int txns);
              ("offline_ttfc_records", Obs.Json.Int off_ttfc);
              ("on_demand_ttfc_records", Obs.Json.Int od_ttfc);
              ("offline_recover_ms", Obs.Json.Float off_ms);
              ("on_demand_open_ms", Obs.Json.Float od_ms);
              ("on_demand_drain_ms", Obs.Json.Float drain_ms);
              ("on_demand_drain_steps", Obs.Json.Int !steps);
              ("on_demand_redo_ms", Obs.Json.Float redo_ms);
              ("on_demand_undo_ms", Obs.Json.Float undo_ms);
            ]
          :: !rows;
        (txns, off_ttfc, od_ttfc))
      lengths
  in
  (* partitioned variant: the same total history dealt across 4 shards,
     analysis per shard in parallel; self-skips below 4 domains *)
  let domains = Domain.recommended_domain_count () in
  let part_rows =
    if domains < 4 then begin
      Format.printf
        "@.partitioned variant skipped — host grants only %d domain(s)@."
        domains;
      []
    end
    else begin
      let module Shard_pool = Ariesrh_shard.Shard_pool in
      let shards = 4 in
      let txns = List.nth lengths (List.length lengths - 1) in
      let pool = Shard_pool.create shards in
      let config =
        Config.make ~n_objects ~objects_per_page:8
          ~buffer_capacity:(max 4 (n_objects / 32))
          ~impl:Config.Rh ~locking:true ~recovery_mode:Config.On_demand
          ~shards ()
      in
      let sh = Sharded.create ~pool config in
      let mine = Array.make shards [] in
      for o = n_objects - 1 downto 0 do
        let h = Sharded.base_home sh (Oid.of_int o) in
        mine.(h) <- o :: mine.(h)
      done;
      let losers =
        Array.init shards (fun i ->
            let x = Sharded.begin_txn sh ~shard:i in
            Sharded.add sh x (Oid.of_int (List.hd mine.(i))) 1;
            x)
      in
      for k = 1 to txns do
        let i = k mod shards in
        let pool_i = mine.(i) in
        let o = List.nth pool_i (1 + (k mod (List.length pool_i - 1))) in
        let x = Sharded.begin_txn sh ~shard:i in
        Sharded.add sh x (Oid.of_int o) 1;
        Sharded.commit sh x;
        if k mod loser_every = 0 then
          Sharded.add sh losers.(i) (Oid.of_int (List.hd mine.(i))) 1;
        if k mod ckpt_every = 0 then Sharded.checkpoint sh
      done;
      Sharded.crash sh;
      let reports, open_ms = time (fun () -> Sharded.recover sh) in
      let part_ttfc =
        Array.fold_left
          (fun a (r : Report.t) -> max a r.Report.forward_records)
          0 reports
      in
      let steps = ref 0 in
      let (), drain_ms =
        time (fun () -> while Sharded.recovery_step sh do incr steps done)
      in
      assert (Array.fold_left ( + ) 0 (Sharded.peek_all sh) = txns);
      Sharded.close sh;
      Shard_pool.shutdown pool;
      Format.printf
        "@.partitioned (4 shards, %d txns): max per-shard ttfc %d records, \
         open %.3f ms, drain %.3f ms (%d steps)@."
        txns part_ttfc open_ms drain_ms !steps;
      [
        ("partitioned_shards", Obs.Json.Int shards);
        ("partitioned_txns", Obs.Json.Int txns);
        ("partitioned_ttfc_records", Obs.Json.Int part_ttfc);
        ("partitioned_open_ms", Obs.Json.Float open_ms);
        ("partitioned_drain_ms", Obs.Json.Float drain_ms);
        ("partitioned_drain_steps", Obs.Json.Int !steps);
      ]
    end
  in
  (* deterministic gates: time-to-first-commit stays bounded on-demand
     (it must not track the log length) and grows offline *)
  let _, off_min, od_min = List.hd results in
  let _, off_max, od_max = List.nth results (List.length results - 1) in
  let min_ratio =
    match Sys.getenv_opt "ARIESRH_E21_MIN_RATIO" with
    | Some s -> float_of_string s
    | None -> 3.0
  in
  let ratio = float_of_int off_max /. float_of_int (max 1 od_max) in
  let bounded = od_max <= 2 * od_min in
  let grows = off_max > off_min in
  let pass = bounded && grows && ratio >= min_ratio in
  Format.printf
    "@.ttfc at %.1fx the log: on-demand %d -> %d records (bounded: %s), \
     offline %d -> %d; offline/on-demand at max %.1fx (gate: >= %.1fx, %s)@."
    (let a, _, _ = List.hd results
     and b, _, _ = List.nth results (List.length results - 1) in
     float_of_int b /. float_of_int a)
    od_min od_max
    (if bounded then "yes" else "NO")
    off_min off_max ratio min_ratio
    (if pass then "PASS" else "FAIL");
  if not pass then exit_code := 1;
  artifact_extra :=
    [
      ("lengths", Obs.Json.List (List.rev !rows));
      ("offline_ttfc_max", Obs.Json.Int off_max);
      ("on_demand_ttfc_max", Obs.Json.Int od_max);
      ("ttfc_ratio", Obs.Json.Float ratio);
      ("min_ratio", Obs.Json.Float min_ratio);
      ("on_demand_bounded", Obs.Json.Bool bounded);
      ("recommended_domains", Obs.Json.Int domains);
      ("gate_pass", Obs.Json.Bool pass);
    ]
    @ part_rows

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21);
  ]

(* Every experiment unconditionally leaves a machine-readable artifact
   behind: BENCH_e<N>.json with the wall time and a metrics snapshot
   merged across every database the experiment created (counters and
   histograms sum; the Db create hook collects the registries). Unlike
   the forensic/trace artifacts, wall time is fine here — bench output
   is a measurement, not a committed repro. *)

let run_instrumented name f =
  (* Retaining every database's registry would pin each db's log and
     pool alive for the whole experiment (the registry holds read
     closures over them), distorting GC behaviour under bechamel's
     db-per-run allocation. Instead pin only the most recent database
     and fold its snapshot into the accumulator when the next one
     appears — experiments drive their databases sequentially. *)
  let snaps = ref [] and live = ref None and dbs = ref 0 in
  let roll () =
    match !live with
    | Some db ->
        snaps := Obs.Metrics.snapshot (Db.metrics db) :: !snaps;
        live := None
    | None -> ()
  in
  Db.set_create_hook
    (Some
       (fun db ->
         roll ();
         live := Some db;
         incr dbs));
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> Db.set_create_hook None) f;
  let ms = 1000. *. (Unix.gettimeofday () -. t0) in
  roll ();
  let path = bench_path (Printf.sprintf "BENCH_%s.json" name) in
  let extra = !artifact_extra in
  artifact_extra := [];
  Obs.Json.to_file path
    (Obs.Json.Obj
       ([
          ("experiment", Obs.Json.String name);
          ("wall_ms", Obs.Json.Float ms);
          ("databases", Obs.Json.Int !dbs);
        ]
       @ extra
       @ [
           ( "metrics",
             Obs.Metrics.to_json (Obs.Metrics.merge (List.rev !snaps)) );
         ]));
  Format.printf "@.[%s: %.0f ms; metrics -> %s]@." name ms path

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as picks) -> picks
    | _ -> List.map fst experiments
  in
  Format.printf
    "ARIES/RH experiment harness — figures are reproduced separately by@.\
     `dune exec bin/ariesrh.exe -- figures all`@.";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> run_instrumented name f
      | None -> Format.eprintf "unknown experiment %S@." name)
    requested;
  exit !exit_code
