(* The hot-path optimisations must be invisible: the decoded-record
   cache, the intrusive LRU, group commit, and the invoker-indexed scope
   lookup change how fast the engine goes, never what it does. These
   tests pin the "what it does" half; bench/main.ml's E16 pins the
   "how fast" half with gated logical counters.

   - a qcheck property drives a cached and an uncached log store through
     the same append/rewrite/truncate/crash interleavings and demands
     observational equality after every step (every invalidation rule
     earns its keep here);
   - the intrusive LRU is replayed against a last-used-tick reference
     model on a random skewed access trace — same hits, same misses,
     same victims;
   - crash storms and pressure storms rerun with the cache off and with
     group commit on, demanding identical outcomes (cache) and clean
     oracle verdicts (group commit — its flush batching legitimately
     shifts the I/O-indexed crash points, so byte equality is not the
     contract there);
   - the quarantined eager seed-3 repro's forensic dump must stay
     byte-identical with the cache on and off. *)

open Ariesrh_types
open Ariesrh_core
open Ariesrh_workload
module Log_store = Ariesrh_wal.Log_store
module Record = Ariesrh_wal.Record
module Buffer_pool = Ariesrh_storage.Buffer_pool
module Disk = Ariesrh_storage.Disk
module Prng = Ariesrh_util.Prng

(* --- cache-equivalence property ------------------------------------ *)

type lop =
  | Append of int
  | Flush_head
  | Crash
  | Rewrite of int * int  (* position selector, replacement delta *)
  | Truncate of int  (* position selector *)

let print_lop = function
  | Append d -> Printf.sprintf "append %d" d
  | Flush_head -> "flush"
  | Crash -> "crash"
  | Rewrite (i, d) -> Printf.sprintf "rewrite (%d, %d)" i d
  | Truncate i -> Printf.sprintf "truncate %d" i

let lop_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun d -> Append d) (int_range 1 9));
        (2, return Flush_head);
        (1, return Crash);
        (2, map2 (fun i d -> Rewrite (i, d)) (int_bound 1000) (int_range 10 99));
        (1, map (fun i -> Truncate i) (int_bound 1000));
      ])

let lops_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_lop l))
    QCheck.Gen.(list_size (int_range 1 60) lop_gen)

let apply_lop log op =
  match op with
  | Append d ->
      let body =
        Record.Update
          { Record.oid = Oid.of_int 0; page = Page_id.of_int 0; op = Record.Add d }
      in
      ignore (Log_store.append log (Record.mk (Xid.of_int 1) ~prev:Lsn.nil body))
  | Flush_head -> Log_store.flush log ~upto:(Log_store.head log)
  | Crash ->
      Log_store.crash log;
      ignore (Log_store.recover_tail log)
  | Rewrite (i, d) -> (
      let low = Lsn.to_int (Log_store.truncated_below log) in
      let head = Lsn.to_int (Log_store.head log) in
      if head >= low && head >= 1 then
        let lsn = Lsn.of_int (low + (i mod (head - low + 1))) in
        let r = Log_store.read log lsn in
        match r.Record.body with
        | Record.Update u ->
            (* Add deltas encode fixed-width, so the in-place size
               constraint holds *)
            Log_store.rewrite log lsn
              { r with Record.body = Record.Update { u with Record.op = Record.Add d } }
        | _ -> ())
  | Truncate i ->
      let durable = Lsn.to_int (Log_store.durable log) in
      let low = Lsn.to_int (Log_store.truncated_below log) in
      if durable >= low && durable >= 1 then begin
        Log_store.set_master log (Lsn.of_int durable);
        let below = low + (i mod (durable - low + 1)) in
        ignore (Log_store.truncate log ~below:(Lsn.of_int below))
      end

(* Everything a client can see: durability horizon, retained range, and
   the decode of every retained record — read twice, so the second read
   of the cached store is served from the cache if it ever can be. *)
let observe log =
  let low = max 1 (Lsn.to_int (Log_store.truncated_below log)) in
  let head = Lsn.to_int (Log_store.head log) in
  let recs = ref [] in
  for i = head downto low do
    let lsn = Lsn.of_int i in
    let once = Log_store.read_result log lsn in
    let twice = Log_store.read_result log lsn in
    recs := (i, once, twice) :: !recs
  done;
  ( Lsn.to_int (Log_store.durable log),
    head,
    low,
    Lsn.to_int (Log_store.master log),
    !recs )

let cache_equivalence =
  QCheck.Test.make ~count:300 ~name:"cached log reads = fresh decodes"
    lops_arb (fun ops ->
      (* a tiny cache capacity forces the wholesale-reset path too *)
      let cached = Log_store.create ~record_cache:7 () in
      let cold = Log_store.create ~record_cache:0 () in
      List.iter
        (fun op ->
          apply_lop cached op;
          apply_lop cold op;
          let a = observe cached and b = observe cold in
          if a <> b then
            QCheck.Test.fail_reportf "divergence after %s" (print_lop op))
        ops;
      Alcotest.(check int)
        "uncached store never touched its cache" 0
        (Log_store.record_cache_hits cold + Log_store.record_cache_misses cold);
      true)

(* --- LRU parity against a reference model --------------------------- *)

(* The seed's eviction policy folded over every frame for the smallest
   last-used tick; the intrusive list must pick the same victims. Replay
   a random skewed trace against a last-used-tick model: every access's
   hit/miss verdict must match, which pins the victim of every eviction
   (a wrong victim surfaces as a wrong verdict as soon as the wrongly
   evicted page is touched again). *)
let lru_matches_reference_model () =
  let pages = 64 and capacity = 8 in
  let disk = Disk.create ~pages ~slots_per_page:8 () in
  let pool = Buffer_pool.create ~capacity ~disk ~wal_flush:(fun _ -> ()) () in
  let rng = Prng.create 0xCAFEL in
  (* reference: resident page -> last-used tick; evict the minimum *)
  let resident = Hashtbl.create 16 in
  let tick = ref 0 in
  let model_access pid =
    incr tick;
    if Hashtbl.mem resident pid then begin
      Hashtbl.replace resident pid !tick;
      `Hit
    end
    else begin
      if Hashtbl.length resident >= capacity then begin
        let victim, _ =
          Hashtbl.fold
            (fun p t (bp, bt) -> if t < bt then (p, t) else (bp, bt))
            resident (-1, max_int)
        in
        Hashtbl.remove resident victim
      end;
      Hashtbl.replace resident pid !tick;
      `Miss
    end
  in
  for i = 1 to 2000 do
    (* skew: half the traffic on 6 hot pages, the rest uniform *)
    let page =
      if Prng.int rng 2 = 0 then Prng.int rng 6 else Prng.int rng pages
    in
    let hits0 = Buffer_pool.hits pool in
    ignore (Buffer_pool.read_object pool (Page_id.of_int page) ~slot:0);
    let got = if Buffer_pool.hits pool > hits0 then `Hit else `Miss in
    if got <> model_access page then
      Alcotest.failf "access %d (page %d): pool %s but model %s" i page
        (if got = `Hit then "hit" else "missed")
        (if got = `Hit then "missed" else "hit")
  done;
  Alcotest.(check int)
    "one frame examined per eviction"
    (Buffer_pool.evictions pool)
    (Buffer_pool.eviction_scans pool);
  Alcotest.(check bool) "the trace actually evicted" true
    (Buffer_pool.evictions pool > 100)

(* --- storm parity ---------------------------------------------------- *)

let storm_spec =
  { Gen.default with n_objects = 24; n_steps = 60; p_delegate = 0.25 }

let scripted_storm_cache_parity () =
  let run record_cache =
    Crash_storm.run_script
      ~config:{ Crash_storm.default_config with crash_step = 5; record_cache }
      storm_spec
  in
  let on = run Config.default.Config.record_cache in
  let off = run 0 in
  if not (Storm.ok on) then
    Alcotest.failf "storm failed: %a" Crash_storm.pp_outcome on;
  Alcotest.(check bool) "identical outcomes cache on/off" true (on = off)

let sim_storm_cache_parity () =
  let run record_cache =
    Crash_storm.run_sim
      ~config:{ Crash_storm.default_config with record_cache }
      ~sim:{ Crash_storm.default_sim with steps = 200; crash_every = 9 }
      ()
  in
  let on = run Config.default.Config.record_cache in
  let off = run 0 in
  if not (Storm.ok on) then
    Alcotest.failf "storm failed: %a" Crash_storm.pp_outcome on;
  Alcotest.(check bool) "identical outcomes cache on/off" true (on = off)

let pressure_storm_cache_parity () =
  let run record_cache =
    Pressure_storm.run
      ~config:
        {
          Pressure_storm.default_config with
          steps = 250;
          capacity_bytes = 3000;
          crash_every = 25;
          seed = 5L;
          record_cache;
        }
      ()
  in
  let on = run Config.default.Config.record_cache in
  let off = run 0 in
  if not (Pressure_storm.ok on) then
    Alcotest.failf "storm failed: %a" Pressure_storm.pp_outcome on;
  Alcotest.(check bool) "identical outcomes cache on/off" true (on = off)

(* Group commit moves log forces, so the I/O-indexed fault plan lands
   crashes at different points — outcomes legitimately differ from the
   eager-flush run. The contract is that every oracle still passes:
   commits the restart keeps are exactly the durable commit records. *)
let storms_pass_under_group_commit () =
  let o =
    Crash_storm.run_script
      ~config:
        { Crash_storm.default_config with crash_step = 5; group_commit = 4 }
      storm_spec
  in
  if not (Storm.ok o) then
    Alcotest.failf "scripted storm failed: %a" Crash_storm.pp_outcome o;
  let o =
    Crash_storm.run_sim
      ~config:{ Crash_storm.default_config with group_commit = 4 }
      ~sim:{ Crash_storm.default_sim with steps = 200; crash_every = 9 }
      ()
  in
  if not (Storm.ok o) then
    Alcotest.failf "sim storm failed: %a" Crash_storm.pp_outcome o;
  let o =
    Pressure_storm.run
      ~config:
        {
          Pressure_storm.default_config with
          steps = 250;
          capacity_bytes = 3000;
          crash_every = 25;
          seed = 5L;
          group_commit = 4;
        }
      ()
  in
  if not (Pressure_storm.ok o) then
    Alcotest.failf "pressure storm failed: %a" Pressure_storm.pp_outcome o;
  Alcotest.(check bool) "group-commit storm crashed and recovered" true
    (o.Pressure_storm.recoveries > 0)

(* The eager seed-3 history (once the quarantined crash-atomicity bug,
   fixed by the rewrite system transaction — see test_recovery.ml for
   the live repro) exercises chain surgery under a mid-splice crash.
   The record cache must be invisible to it: the storm passes at any
   cache setting, with identical outcome counters, and writes no
   forensic dump either way. *)
let forensic_dump_bytes_cache_invariant () =
  let storm record_cache dir =
    let config =
      { Crash_storm.default_config with
        seed = 3L;
        crash_step = 39;
        record_cache;
        forensic_dir = Some dir }
    in
    let spec =
      { Gen.default with n_objects = 32; n_steps = 160; p_delegate = 0.2 }
    in
    let o = Crash_storm.run_script ~config ~impl:Config.Eager spec in
    if not (Storm.ok o) then
      Alcotest.failf "seed-3 repro failed (cache=%d): %a" record_cache
        Crash_storm.pp_outcome o;
    let path = Filename.concat dir "FORENSIC_crash_eager_seed3_io39.json" in
    Alcotest.(check bool) "no forensic dump on a passing storm" false
      (Sys.file_exists path);
    Format.asprintf "%a" Crash_storm.pp_outcome o
  in
  let on = storm Config.default.Config.record_cache "perf_parity_cache_on" in
  let off = storm 0 "perf_parity_cache_off" in
  Alcotest.(check string) "storm outcome identical cache on/off" on off

let suite =
  QCheck_alcotest.to_alcotest cache_equivalence
  :: [
       Alcotest.test_case "LRU matches the reference model" `Quick
         lru_matches_reference_model;
       Alcotest.test_case "scripted storm: cache parity" `Quick
         scripted_storm_cache_parity;
       Alcotest.test_case "sim storm: cache parity" `Quick
         sim_storm_cache_parity;
       Alcotest.test_case "pressure storm: cache parity" `Slow
         pressure_storm_cache_parity;
       Alcotest.test_case "storms pass under group commit" `Slow
         storms_pass_under_group_commit;
       Alcotest.test_case "fixed seed-3 repro: cache parity, no dump" `Quick
         forensic_dump_bytes_cache_invariant;
     ]
