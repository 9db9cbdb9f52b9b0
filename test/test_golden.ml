(* Golden storm outcomes: fixed-seed storms must print exactly these
   outcome blocks. Every counter in a storm outcome is a function of the
   seed, the fault schedule and the engine, so any refactor of the storm
   harness that shifts a crash point, a label-visible counter or a
   check round fails here. Budgets are small (well under a few seconds
   together); the CLI storms in CI cover the large ones. *)

open Ariesrh_core
open Ariesrh_workload

let spec = { Gen.default with Gen.n_steps = 80; n_objects = 16 }
let show pp o = Format.asprintf "%a" pp o

let scratch_dir tag =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ariesrh-golden-%d-%s" (Unix.getpid ()) tag)
  in
  Ariesrh_storage.Backend.remove_tree d;
  d

let crash_config ?backend_root shards =
  { Crash_storm.default_config with crash_step = 2; shards; backend_root }

let scripted impl shards () =
  show Crash_storm.pp_outcome
    (Crash_storm.run_script ~config:(crash_config shards) ~impl spec)

let scripted_file shards () =
  let root = scratch_dir (Printf.sprintf "script-s%d" shards) in
  let o =
    Crash_storm.run_script ~config:(crash_config ~backend_root:root shards) spec
  in
  Ariesrh_storage.Backend.remove_tree root;
  show Crash_storm.pp_outcome o

let sim shards () =
  show Crash_storm.pp_outcome
    (Crash_storm.run_sim ~config:(crash_config shards)
       ~sim:{ Crash_storm.default_sim with steps = 300 }
       ())

let recovery shards () =
  show Recovery_storm.pp_outcome
    (Recovery_storm.run_script ~config:(crash_config shards)
       { spec with Gen.n_steps = 60 })

let pressure () =
  show Pressure_storm.pp_outcome
    (Pressure_storm.run
       ~config:{ Pressure_storm.default_config with steps = 400 }
       ())

let media () =
  show Media_storm.pp_outcome
    (Media_storm.run
       ~config:
         { Media_storm.default_config with rounds = 6; steps_per_round = 60 }
       ())

let cases =
  [
    ("script rh shards=1", scripted Config.Rh 1);
    ("script eager shards=1", scripted Config.Eager 1);
    ("script lazy shards=1", scripted Config.Lazy 1);
    ("script rh shards=2", scripted Config.Rh 2);
    ("script eager shards=2", scripted Config.Eager 2);
    ("script lazy shards=2", scripted Config.Lazy 2);
    ("script file shards=1", scripted_file 1);
    ("script file shards=2", scripted_file 2);
    ("sim shards=1", sim 1);
    ("sim shards=2", sim 2);
    ("recovery shards=1", recovery 1);
    ("recovery shards=2", recovery 2);
    ("pressure rh", pressure);
    ("media rh", media);
  ]

(* change only with a deliberate change to a storm's fault schedule,
   counters or check rounds *)
let golden =
  [
    ( "script rh shards=1",
      {|runs=9 actions=352
crashes=8 nested=16 recoveries=18
torn_writes=0 torn_flushes=10 amputated=10 repaired_pages=0
fault_points=34 checks=9 tt_reads=20
migrations=0 migration_refusals=0 xfers_resolved=0 failures=0|} );
    ( "script eager shards=1",
      {|runs=19 actions=782
crashes=18 nested=36 recoveries=38
torn_writes=0 torn_flushes=25 amputated=25 repaired_pages=0
fault_points=79 checks=19 tt_reads=47
migrations=0 migration_refusals=0 xfers_resolved=0 failures=0|} );
    ( "script lazy shards=1",
      {|runs=9 actions=352
crashes=8 nested=16 recoveries=18
torn_writes=0 torn_flushes=10 amputated=10 repaired_pages=0
fault_points=34 checks=9 tt_reads=20
migrations=0 migration_refusals=0 xfers_resolved=0 failures=0|} );
    ( "script rh shards=2",
      {|runs=24 actions=796
crashes=23 nested=46 recoveries=48
torn_writes=0 torn_flushes=31 amputated=31 repaired_pages=0
fault_points=100 checks=24 tt_reads=0
migrations=93 migration_refusals=0 xfers_resolved=8 failures=0|} );
    ( "script eager shards=2",
      {|runs=34 actions=1229
crashes=33 nested=66 recoveries=68
torn_writes=0 torn_flushes=43 amputated=43 repaired_pages=0
fault_points=142 checks=34 tt_reads=0
migrations=145 migration_refusals=0 xfers_resolved=8 failures=0|} );
    ( "script lazy shards=2",
      {|runs=24 actions=796
crashes=23 nested=46 recoveries=48
torn_writes=0 torn_flushes=31 amputated=31 repaired_pages=0
fault_points=100 checks=24 tt_reads=0
migrations=93 migration_refusals=0 xfers_resolved=8 failures=0|} );
    ( "script file shards=1",
      {|runs=9 actions=352
crashes=8 nested=16 recoveries=18
torn_writes=0 torn_flushes=10 amputated=10 repaired_pages=0
fault_points=34 checks=9 tt_reads=20
migrations=0 migration_refusals=0 xfers_resolved=0 failures=0|} );
    ( "script file shards=2",
      {|runs=24 actions=796
crashes=23 nested=46 recoveries=48
torn_writes=0 torn_flushes=31 amputated=31 repaired_pages=0
fault_points=100 checks=24 tt_reads=0
migrations=93 migration_refusals=0 xfers_resolved=8 failures=0|} );
    ( "sim shards=1",
      {|runs=15 actions=300
crashes=15 nested=32 recoveries=32
torn_writes=11 torn_flushes=5 amputated=5 repaired_pages=7
fault_points=63 checks=16 tt_reads=130
migrations=0 migration_refusals=0 xfers_resolved=0 failures=0|} );
    ( "sim shards=2",
      {|runs=31 actions=300
crashes=31 nested=64 recoveries=64
torn_writes=2 torn_flushes=16 amputated=16 repaired_pages=2
fault_points=113 checks=32 tt_reads=0
migrations=56 migration_refusals=1 xfers_resolved=11 failures=0|} );
    ( "recovery shards=1",
      {|runs=9 actions=301
crashes=8 nested=16 recoveries=34 instant_opens=24
drain_steps=24 refusals=0 degraded_serves=7 foreground_repairs=1
checks=9 twin_checks=9 fault_points=33 failures=0|} );
    ( "recovery shards=2",
      {|runs=22 actions=610
crashes=21 nested=42 recoveries=86 instant_opens=63
drain_steps=59 refusals=0 degraded_serves=18 foreground_repairs=0
checks=22 twin_checks=22 fault_points=90 failures=0|} );
    ( "pressure rh",
      {|steps=424 committed=54 aborted=10 delegations=38
overloads=0 log_fulls=0 backoffs=0 abandoned=0 victimized=0
crashes=7 nested=7 recoveries=16 squeezes=3 checks=8 drain_commits=2
governor: ticks=53 checkpoints=5 truncations=8 records_truncated=530 victims=0
log: reservations=303 admission_rejects=0 peak_pressure=0.72
tt_reads=24 tt_refused=12 failures=0|} );
    ( "media rh",
      {|rounds=6 actions=305 crashes=2 recoveries=3
injected: bitrot=1 lost=4 misdirected=1 archive_rot=3
scrub: checked=4242 detected=5 healed=5 unhealable=0
archived=420 cold_restores=1 checks=9 failures=0|} );
  ]

let check name run () =
  match List.assoc_opt name golden with
  | None -> Alcotest.failf "no golden outcome for %s" name
  | Some want -> Alcotest.(check string) name want (run ())

let suite =
  List.map
    (fun (name, run) -> Alcotest.test_case name `Quick (check name run))
    cases
