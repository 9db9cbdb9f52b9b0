(* Recovery internals on hand-crafted logs: the cluster sweep (Fig. 8),
   its naive ablation, op inversion, and the eager surgery's chain
   integrity. *)

open Ariesrh_types
open Ariesrh_wal
open Ariesrh_txn
open Ariesrh_recovery

let xid = Xid.of_int
let oid = Oid.of_int
let lsn = Lsn.of_int

(* a raw environment over one 16-slot page *)
let raw_env () =
  let log = Log_store.create () in
  let disk = Ariesrh_storage.Disk.create ~pages:1 ~slots_per_page:16 () in
  let pool =
    Ariesrh_storage.Buffer_pool.create ~capacity:2 ~disk
      ~wal_flush:(fun _ -> ())
      ()
  in
  Env.make ~log ~pool
    ~place:(fun o -> (Page_id.of_int 0, Oid.to_int o))
    ()

(* append an update record and apply it, as normal processing would *)
let upd env ~prev x o d =
  let u = { Record.oid = oid o; page = Page_id.of_int 0; op = Record.Add d } in
  let l = Log_store.append env.Env.log (Record.mk x ~prev (Record.Update u)) in
  Apply.force env l u;
  l

let filler env ~prev n =
  let p = ref prev in
  for _ = 1 to n do
    p := upd env ~prev:!p (xid 99) 15 1
  done;
  !p

(* a sweep driver that records the undo order and writes real CLRs *)
let run_sweep ?floor ~naive env scopes =
  let order = ref [] in
  let heads = Hashtbl.create 8 in
  let on_undo ~owner ~invoker ~undone ~undo_next upd =
    order := Lsn.to_int undone :: !order;
    let prev =
      Option.value ~default:Lsn.nil (Hashtbl.find_opt heads (Xid.to_int owner))
    in
    let l =
      Log_store.append env.Env.log
        (Record.mk owner ~prev (Record.Clr { upd; undone; invoker; undo_next }))
    in
    Hashtbl.replace heads (Xid.to_int owner) l;
    l
  in
  let stats =
    if naive then Scope_sweep.sweep_naive env ~scopes ~on_undo
    else Scope_sweep.sweep ?floor env ~scopes ~on_undo
  in
  (stats, List.rev !order)

let value env o =
  Ariesrh_storage.Buffer_pool.read_object env.Env.pool (Page_id.of_int 0)
    ~slot:o

let sweep_undoes_only_matching () =
  let env = raw_env () in
  (* t1 adds to ob0 at 1 and 3; t2 adds to ob0 at 2 (commuting) *)
  let a = upd env ~prev:Lsn.nil (xid 1) 0 10 in
  let _b = upd env ~prev:Lsn.nil (xid 2) 0 100 in
  let c = upd env ~prev:a (xid 1) 0 1 in
  Alcotest.(check int) "all applied" 111 (value env 0);
  (* only t1's scope loses *)
  let s = Scope.make ~invoker:(xid 1) ~oid:(oid 0) ~first:a ~last:c in
  let stats, order = run_sweep ~naive:false env [ (xid 1, s) ] in
  Alcotest.(check int) "two undos" 2 stats.Scope_sweep.undone;
  Alcotest.(check (list int)) "decreasing order" [ 3; 1 ] order;
  Alcotest.(check int) "t2's commuting add survives" 100 (value env 0)

let sweep_object_awareness () =
  let env = raw_env () in
  (* the erratum scenario: t1's scope on ob0 spans its update to ob1,
     which belongs to a winner *)
  let a = upd env ~prev:Lsn.nil (xid 1) 0 10 in
  let b = upd env ~prev:a (xid 1) 1 100 in
  let c = upd env ~prev:b (xid 1) 0 1 in
  let s = Scope.make ~invoker:(xid 1) ~oid:(oid 0) ~first:a ~last:c in
  let stats, _ = run_sweep ~naive:false env [ (xid 9, s) ] in
  Alcotest.(check int) "only the two ob0 updates undone" 2
    stats.Scope_sweep.undone;
  Alcotest.(check int) "ob1 untouched" 100 (value env 1);
  Alcotest.(check int) "ob0 restored" 0 (value env 0)

let sweep_clusters_and_skips () =
  let env = raw_env () in
  let a1 = upd env ~prev:Lsn.nil (xid 1) 0 1 in
  let a2 = upd env ~prev:a1 (xid 1) 0 1 in
  let p = filler env ~prev:Lsn.nil 50 in
  let b1 = upd env ~prev:Lsn.nil (xid 2) 1 1 in
  let b2 = upd env ~prev:b1 (xid 2) 1 1 in
  ignore p;
  let s1 = Scope.make ~invoker:(xid 1) ~oid:(oid 0) ~first:a1 ~last:a2 in
  let s2 = Scope.make ~invoker:(xid 2) ~oid:(oid 1) ~first:b1 ~last:b2 in
  let stats, order =
    run_sweep ~naive:false env [ (xid 1, s1); (xid 2, s2) ]
  in
  Alcotest.(check int) "two clusters" 2 stats.Scope_sweep.clusters;
  Alcotest.(check int) "four records examined" 4 stats.Scope_sweep.examined;
  Alcotest.(check int) "the filler was skipped" 50 stats.Scope_sweep.skipped;
  Alcotest.(check (list int)) "global decreasing order"
    (List.map Lsn.to_int [ b2; b1; a2; a1 ])
    order

let sweep_overlapping_scopes_one_cluster () =
  let env = raw_env () in
  let a1 = upd env ~prev:Lsn.nil (xid 1) 0 1 in
  let b1 = upd env ~prev:Lsn.nil (xid 2) 1 1 in
  let a2 = upd env ~prev:a1 (xid 1) 0 1 in
  let b2 = upd env ~prev:b1 (xid 2) 1 1 in
  let s1 = Scope.make ~invoker:(xid 1) ~oid:(oid 0) ~first:a1 ~last:a2 in
  let s2 = Scope.make ~invoker:(xid 2) ~oid:(oid 1) ~first:b1 ~last:b2 in
  let stats, _ = run_sweep ~naive:false env [ (xid 1, s1); (xid 2, s2) ] in
  Alcotest.(check int) "one merged cluster" 1 stats.Scope_sweep.clusters;
  Alcotest.(check int) "all four undone" 4 stats.Scope_sweep.undone;
  Alcotest.(check int) "nothing skipped inside" 0 stats.Scope_sweep.skipped

let sweep_trims_scopes () =
  let env = raw_env () in
  let a1 = upd env ~prev:Lsn.nil (xid 1) 0 1 in
  let a2 = upd env ~prev:a1 (xid 1) 0 1 in
  let s = Scope.make ~invoker:(xid 1) ~oid:(oid 0) ~first:a1 ~last:a2 in
  ignore (run_sweep ~naive:false env [ (xid 1, s) ]);
  Alcotest.(check bool) "scope trimmed to empty" true (Scope.is_empty s)

let sweep_floor_stops () =
  let env = raw_env () in
  let a1 = upd env ~prev:Lsn.nil (xid 1) 0 1 in
  let a2 = upd env ~prev:a1 (xid 1) 0 10 in
  let a3 = upd env ~prev:a2 (xid 1) 0 100 in
  let s = Scope.make ~invoker:(xid 1) ~oid:(oid 0) ~first:a1 ~last:a3 in
  let stats, order = run_sweep ~floor:a1 ~naive:false env [ (xid 1, s) ] in
  Alcotest.(check int) "two undone above the floor" 2 stats.Scope_sweep.undone;
  Alcotest.(check (list int)) "only the suffix"
    (List.map Lsn.to_int [ a3; a2 ])
    order;
  Alcotest.(check int) "value reflects partial undo" 1 (value env 0);
  Alcotest.(check bool) "scope keeps the untouched prefix" true
    (Scope.covers s ~invoker:(xid 1) ~oid:(oid 0) a1)

let sweep_ignores_empty_scopes () =
  let env = raw_env () in
  let a1 = upd env ~prev:Lsn.nil (xid 1) 0 1 in
  let s = Scope.make ~invoker:(xid 1) ~oid:(oid 0) ~first:a1 ~last:a1 in
  Scope.trim_below s a1;
  let stats, _ = run_sweep ~naive:false env [ (xid 1, s) ] in
  Alcotest.(check int) "nothing to do" 0 stats.Scope_sweep.examined

let naive_sweep_agrees =
  QCheck.Test.make ~count:60 ~name:"naive and cluster sweeps undo the same"
    (QCheck.make ~print:Int64.to_string
       QCheck.Gen.(map Int64.of_int (int_bound 100_000)))
    (fun seed ->
      let rng = Ariesrh_util.Prng.create seed in
      (* random little battlefield: 3 losers, interleaved updates and
         filler *)
      let build () =
        let env = raw_env () in
        let prevs = Array.make 4 Lsn.nil in
        let scopes = ref [] in
        let rng = Ariesrh_util.Prng.copy rng in
        for t = 1 to 3 do
          let first = ref Lsn.nil in
          let last = ref Lsn.nil in
          let n = 1 + Ariesrh_util.Prng.int rng 4 in
          for _ = 1 to n do
            prevs.(0) <- filler env ~prev:prevs.(0) (Ariesrh_util.Prng.int rng 4);
            let l = upd env ~prev:prevs.(t) (xid t) (t - 1) 1 in
            prevs.(t) <- l;
            if Lsn.is_nil !first then first := l;
            last := l
          done;
          scopes :=
            (xid t, Scope.make ~invoker:(xid t) ~oid:(oid (t - 1)) ~first:!first ~last:!last)
            :: !scopes
        done;
        (env, !scopes)
      in
      let env1, scopes1 = build () in
      let s1, o1 = run_sweep ~naive:false env1 scopes1 in
      let env2, scopes2 = build () in
      let s2, o2 = run_sweep ~naive:true env2 scopes2 in
      s1.Scope_sweep.undone = s2.Scope_sweep.undone
      && o1 = o2
      && List.init 3 (fun i -> value env1 i) = List.init 3 (fun i -> value env2 i))

let inverse_involution () =
  let ops =
    [ Record.Set { before = 3; after = 9 }; Record.Add 5; Record.Add (-2) ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool) "inverse . inverse = id" true
        (Apply.inverse (Apply.inverse op) = op))
    ops

let redo_is_conditional () =
  let env = raw_env () in
  let u = { Record.oid = oid 0; page = Page_id.of_int 0; op = Record.Add 5 } in
  Alcotest.(check bool) "applies when newer" true (Apply.redo env (lsn 10) u);
  Alcotest.(check bool) "skips when page is newer" false
    (Apply.redo env (lsn 10) u);
  Alcotest.(check bool) "skips older" false (Apply.redo env (lsn 9) u);
  Alcotest.(check int) "applied exactly once" 5 (value env 0)

(* eager surgery: after delegation, the two chains partition the records
   and remain strictly decreasing *)
let eager_chain_integrity () =
  let env = raw_env () in
  let tt = Txn_table.create () in
  let t1 = Txn_table.add tt (xid 1) in
  let t2 = Txn_table.add tt (xid 2) in
  let l1 = upd env ~prev:t1.last_lsn (xid 1) 0 1 in
  t1.last_lsn <- l1;
  let l2 = upd env ~prev:t2.last_lsn (xid 2) 2 1 in
  t2.last_lsn <- l2;
  let l3 = upd env ~prev:t1.last_lsn (xid 1) 1 1 in
  t1.last_lsn <- l3;
  let l4 = upd env ~prev:t1.last_lsn (xid 1) 0 1 in
  t1.last_lsn <- l4;
  Log_store.flush env.Env.log ~upto:(Log_store.head env.Env.log);
  let rewrites =
    Rewrite.eager_delegate env ~tor_info:t1 ~tee_info:t2 (oid 0)
  in
  Alcotest.(check bool) "some records were patched" true (rewrites > 0);
  let chain info =
    let rec go l acc =
      if Lsn.is_nil l then List.rev acc
      else
        go (Record.prev_for (Log_store.read env.Env.log l) info.Txn_table.xid)
          (Lsn.to_int l :: acc)
    in
    go info.Txn_table.last_lsn []
  in
  Alcotest.(check (list int)) "t1 keeps only its ob1 update"
    [ Lsn.to_int l3 ] (chain t1);
  Alcotest.(check (list int)) "t2 gained ob0's records in LSN order"
    (List.sort compare [ Lsn.to_int l1; Lsn.to_int l2; Lsn.to_int l4 ])
    (List.sort compare (chain t2));
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "t2's chain is strictly decreasing" true
    (decreasing (chain t2))

(* The once-quarantined eager seed-3 repro (test_known_bugs.ml kept its
   forensic fixture): scripted storm, eager engine, crash armed at the
   39th I/O — the exact crash point that used to leave a re-attributed
   update durable without its responsibility transfer. The rewrite
   system transaction resolves it now; the storm (which also checks
   restart idempotence and runs the self-audit after every recovery)
   must pass. *)
let eager_seed3_surgery_now_atomic () =
  let config =
    { Ariesrh_workload.Crash_storm.default_config with
      seed = 3L;
      crash_step = 39;
      forensic_dir = None }
  in
  let spec =
    { Ariesrh_workload.Gen.default with
      n_objects = 32;
      n_steps = 160;
      p_delegate = 0.2 }
  in
  let o =
    Ariesrh_workload.Crash_storm.run_script ~config
      ~impl:Ariesrh_core.Config.Eager spec
  in
  if not (Ariesrh_workload.Storm.ok o) then
    Alcotest.failf "seed-3 eager storm failed: %a"
      Ariesrh_workload.Crash_storm.pp_outcome o

(* Crash at EVERY I/O point of a delegation-heavy script — including
   each I/O inside the surgery window (intent force, every in-place
   rewrite, the closing force) — and require each restart to resolve to
   exactly the pre- or post-surgery log: the storm's oracle and
   idempotence checks fail otherwise, and the self-audit (on by
   default) asserts the chain-closure invariants after every one of the
   storm's restarts. Exercises both engines that rewrite history in
   place: eager (surgery at delegation time) and lazy (batched splice
   at restart). *)
let surgery_window_crashes_idempotent =
  QCheck.Test.make ~count:6
    ~name:"crash at every I/O of the surgery window: restart idempotent"
    (QCheck.make
       ~print:(fun (seed, impl) ->
         Printf.sprintf "seed=%Ld engine=%s" seed
           (match impl with
           | Ariesrh_core.Config.Eager -> "eager"
           | Ariesrh_core.Config.Lazy -> "lazy"
           | Ariesrh_core.Config.Rh -> "rh"))
       QCheck.Gen.(
         pair
           (map Int64.of_int (int_bound 1000))
           (oneofl [ Ariesrh_core.Config.Eager; Ariesrh_core.Config.Lazy ])))
    (fun (seed, impl) ->
      let config =
        { Ariesrh_workload.Crash_storm.default_config with
          seed;
          crash_step = 1;
          forensic_dir = None }
      in
      let spec =
        { Ariesrh_workload.Gen.default with
          n_objects = 12;
          n_steps = 60;
          p_delegate = 0.35 }
      in
      let o = Ariesrh_workload.Crash_storm.run_script ~config ~impl spec in
      if not (Ariesrh_workload.Storm.ok o) then
        QCheck.Test.fail_reportf "storm failed: %a"
          Ariesrh_workload.Crash_storm.pp_outcome o;
      true)

let attribute_only_literal () =
  let env = raw_env () in
  let l1 = upd env ~prev:Lsn.nil (xid 1) 0 1 in
  let l2 = upd env ~prev:l1 (xid 1) 1 1 in
  let l3 = upd env ~prev:l2 (xid 1) 0 1 in
  Log_store.flush env.Env.log ~upto:(Log_store.head env.Env.log);
  let n =
    Rewrite.attribute_only env ~tor:(xid 1) ~tee:(xid 2) (oid 0) ~from:l3
  in
  Alcotest.(check int) "both ob0 records re-attributed" 2 n;
  let w l = Xid.to_int (Record.writer_exn (Log_store.read env.Env.log l)) in
  Alcotest.(check int) "first rewritten" 2 (w l1);
  Alcotest.(check int) "ob1 record untouched" 1 (w l2);
  Alcotest.(check int) "third rewritten" 2 (w l3)

let suite =
  [
    Alcotest.test_case "sweep undoes only matching" `Quick
      sweep_undoes_only_matching;
    Alcotest.test_case "sweep is object-aware (erratum)" `Quick
      sweep_object_awareness;
    Alcotest.test_case "sweep clusters and skips" `Quick sweep_clusters_and_skips;
    Alcotest.test_case "sweep merges overlapping scopes" `Quick
      sweep_overlapping_scopes_one_cluster;
    Alcotest.test_case "sweep trims scopes" `Quick sweep_trims_scopes;
    Alcotest.test_case "sweep floor (savepoint)" `Quick sweep_floor_stops;
    Alcotest.test_case "sweep ignores empty scopes" `Quick
      sweep_ignores_empty_scopes;
    QCheck_alcotest.to_alcotest naive_sweep_agrees;
    Alcotest.test_case "op inverse involution" `Quick inverse_involution;
    Alcotest.test_case "redo is page-lsn conditional" `Quick redo_is_conditional;
    Alcotest.test_case "eager surgery chain integrity" `Quick
      eager_chain_integrity;
    Alcotest.test_case "eager seed-3: surgery now crash-atomic" `Quick
      eager_seed3_surgery_now_atomic;
    QCheck_alcotest.to_alcotest surgery_window_crashes_idempotent;
    Alcotest.test_case "attribute-only literal Fig. 1" `Quick
      attribute_only_literal;
  ]
