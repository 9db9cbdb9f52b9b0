(* The bench's counter gate: the bounds every baselined experiment is
   held to. *)

open Harness

let drifts kind ~old now =
  List.length (gate ~baseline:[ ("rh", "c", old) ] [ ("rh", [ ("c", (kind, I now)) ]) ])

let check name want got = Alcotest.(check int) name want got

let cost_bound () =
  check "+4%" 0 (drifts Cost ~old:100. 104);
  check "+6%" 1 (drifts Cost ~old:100. 106);
  check "shrinking cost" 0 (drifts Cost ~old:100. 50)

let work_bound () =
  check "-4%" 0 (drifts Work ~old:100. 96);
  check "-6%" 1 (drifts Work ~old:100. 94);
  check "growing work" 0 (drifts Work ~old:100. 200)

let zero_cost () =
  check "0 -> 0" 0 (drifts Cost ~old:0. 0);
  check "0 -> 1" 1 (drifts Cost ~old:0. 1)

let missing () =
  let baseline = [ ("rh", "c", 1.) ] in
  check "missing column" 1
    (List.length (gate ~baseline [ ("rh", [ ("d", (Cost, I 1)) ]) ]));
  check "missing row" 1 (List.length (gate ~baseline []))

let baseline_file () =
  Alcotest.(check (list (triple string string (float 0.))))
    "counters"
    [ ("0.05/rh", "undos", 78.); ("0.05/rh", "peak", 0.61) ]
    (baseline_of
       {|{ "experiment": "e3",
           "counters": { "0.05/rh": { "undos": 78, "peak": 0.61 }, "x": {} } }|})

let suite =
  [
    Alcotest.test_case "gate: cost +4% passes, +6% fails" `Quick cost_bound;
    Alcotest.test_case "gate: work -6% fails" `Quick work_bound;
    Alcotest.test_case "gate: cost baselined at 0 fails on growth" `Quick zero_cost;
    Alcotest.test_case "gate: counter missing from the run fails" `Quick missing;
    Alcotest.test_case "gate: a baseline file reads back" `Quick baseline_file;
  ]
