(* Property-based tests: the §4.1 correctness obligations checked on
   random workloads against the semantic oracle, for every engine
   variant, every crash point, and crashes during recovery itself. *)

open Ariesrh_core
open Ariesrh_workload

let n_objects = 48

let spec steps ~delegation =
  {
    Gen.default with
    n_objects;
    n_steps = steps;
    p_delegate = (if delegation then Gen.default.p_delegate else 0.0);
  }

type params = {
  seed : int64;
  steps : int;
  crash_frac : float;
  delegation : bool;
}

let print_params p =
  Printf.sprintf "{seed=%Ld; steps=%d; crash_frac=%.2f; delegation=%b}" p.seed
    p.steps p.crash_frac p.delegation

let gen_params ~delegation =
  QCheck.Gen.(
    map3
      (fun seed steps crash_frac ->
        { seed = Int64.of_int seed; steps; crash_frac; delegation })
      (int_bound 1_000_000) (int_range 20 150) (float_bound_inclusive 1.0))

let arb ~delegation =
  QCheck.make ~print:print_params (gen_params ~delegation)

let script_of p = Gen.generate (spec p.steps ~delegation:p.delegation) ~seed:p.seed

let crash_point p script =
  let n = List.length script in
  min n (int_of_float (p.crash_frac *. float_of_int n))

let check_state ~msg db expected =
  let got = Db.peek_all db in
  if got <> expected then
    QCheck.Test.fail_reportf "%s:@ expected %s@ got %s" msg
      (String.concat "," (Array.to_list (Array.map string_of_int expected)))
      (String.concat "," (Array.to_list (Array.map string_of_int got)))

(* Crash after [at] actions and restart in [mode]; an on-demand restart
   is then drained to convergence. *)
let recovered ~impl ~mode script ~at =
  let db = Driver.fresh_db ~impl ~recovery_mode:mode ~n_objects () in
  ignore (Driver.run_to_crash db script ~crash_at:at);
  Db.await_recovery db;
  db

let recovery_matches_oracle ?(mode = Config.Offline) impl name =
  QCheck.Test.make ~count:250 ~name (arb ~delegation:true) (fun p ->
      let script = script_of p in
      let at = crash_point p script in
      check_state ~msg:"post-recovery state"
        (recovered ~impl ~mode script ~at)
        (Oracle.expected ~n_objects ~crash_at:at script);
      true)

let no_crash_matches_oracle =
  QCheck.Test.make ~count:250 ~name:"no-crash end state matches oracle"
    (arb ~delegation:true) (fun p ->
      let script = script_of p in
      let db = Driver.fresh_db ~n_objects () in
      Driver.run db script;
      check_state ~msg:"end state" db (Oracle.expected ~n_objects script);
      true)

(* The independent oracle for restart: one script, crashed at the same
   action on every engine (I/O points differ per engine, script actions
   do not), restarted offline and on demand. All six end states must
   equal each other and the semantic oracle — eager's chains, rh's
   scopes and lazy's splices reach them by different walks. *)
let engines_agree =
  QCheck.Test.make ~count:150 ~name:"all engines agree, both restarts"
    (arb ~delegation:true) (fun p ->
      let script = script_of p in
      let at = crash_point p script in
      let expected = Oracle.expected ~n_objects ~crash_at:at script in
      List.iter
        (fun impl ->
          List.iter
            (fun mode ->
              check_state
                ~msg:
                  (Printf.sprintf "%s, %s restart"
                     (Forensics.engine_name impl)
                     (match mode with
                     | Config.Offline -> "offline"
                     | Config.On_demand -> "on-demand"))
                (recovered ~impl ~mode script ~at)
                expected)
            [ Config.Offline; Config.On_demand ])
        [ Config.Rh; Config.Eager; Config.Lazy ];
      true)

(* The smallest script the eager on-demand drain used to get wrong
   while it swept Rh-analysis scopes instead of the loser chains. *)
let eager_on_demand_pin () =
  let script = Gen.generate (spec 24 ~delegation:true) ~seed:604L in
  Alcotest.(check int) "script length" 23 (List.length script);
  let at = 20 in
  let got =
    Db.peek_all (recovered ~impl:Config.Eager ~mode:Config.On_demand script ~at)
  in
  Alcotest.(check (array int))
    "eager on-demand state" (Oracle.expected ~n_objects ~crash_at:at script)
    got

let interrupted_recovery_idempotent =
  QCheck.Test.make ~count:150 ~name:"crash during recovery, recover again"
    (QCheck.pair (arb ~delegation:true) (QCheck.make QCheck.Gen.(int_bound 10)))
    (fun (p, fuel) ->
      let script = script_of p in
      let at = crash_point p script in
      let db = Driver.fresh_db ~impl:Config.Rh ~n_objects () in
      Driver.run ~upto:at db script;
      Db.crash db;
      (match Db.recover_with_fuel db ~fuel with
      | `Done _ -> ()
      | `Interrupted ->
          Db.crash db;
          ignore (Db.recover db));
      check_state ~msg:"after interrupted recovery" db
        (Oracle.expected ~n_objects ~crash_at:at script);
      true)

let reduction_no_delegation =
  QCheck.Test.make ~count:150
    ~name:"without delegation ARIES/RH decides exactly as ARIES"
    (arb ~delegation:false) (fun p ->
      let script = script_of p in
      let at = crash_point p script in
      let rh = Driver.fresh_db ~impl:Config.Rh ~n_objects () in
      let plain = Driver.fresh_db ~impl:Config.Eager ~n_objects () in
      let r1 = Driver.run_to_crash rh script ~crash_at:at in
      let r2 = Driver.run_to_crash plain script ~crash_at:at in
      Db.peek_all rh = Db.peek_all plain
      && Ariesrh_types.Xid.Set.equal r1.winners r2.winners
      && Ariesrh_types.Xid.Set.equal r1.losers r2.losers
      && r1.undos = r2.undos)

let invariants_hold_mid_flight =
  QCheck.Test.make ~count:200
    ~name:"engine invariants hold at every prefix (validate)"
    (QCheck.pair (arb ~delegation:true)
       (QCheck.make QCheck.Gen.(int_range 0 2)))
    (fun (p, which) ->
      let impl =
        match which with 0 -> Config.Rh | 1 -> Config.Eager | _ -> Config.Lazy
      in
      let script = script_of p in
      let at = crash_point p script in
      let db = Driver.fresh_db ~impl ~n_objects () in
      Driver.run ~upto:at db script;
      (match Db.validate db with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "mid-flight: %s" e);
      Db.crash db;
      ignore (Db.recover db);
      match Db.validate db with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "post-recovery: %s" e)

let separate_passes_agree =
  QCheck.Test.make ~count:150
    ~name:"separate analysis/redo passes decide exactly as merged"
    (arb ~delegation:true) (fun p ->
      let script = script_of p in
      let at = crash_point p script in
      let mk passes =
        Ariesrh_core.Db.create
          (Config.make ~n_objects ~objects_per_page:8 ~buffer_capacity:4
             ~forward_passes:passes ())
      in
      let merged = mk Config.Merged in
      let separate = mk Config.Separate in
      let r1 = Driver.run_to_crash merged script ~crash_at:at in
      let r2 = Driver.run_to_crash separate script ~crash_at:at in
      Db.peek_all merged = Db.peek_all separate
      && Db.peek_all merged = Oracle.expected ~n_objects ~crash_at:at script
      && r1.undos = r2.undos
      && r2.forward_records >= r1.forward_records)

let repeated_recovery_stable =
  QCheck.Test.make ~count:100 ~name:"recovering twice changes nothing"
    (arb ~delegation:true) (fun p ->
      let script = script_of p in
      let at = crash_point p script in
      let db = Driver.fresh_db ~impl:Config.Rh ~n_objects () in
      ignore (Driver.run_to_crash db script ~crash_at:at);
      let first = Db.peek_all db in
      Db.crash db;
      let report = Db.recover db in
      first = Db.peek_all db && report.undos = 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      recovery_matches_oracle Config.Rh "rh recovery matches oracle";
      recovery_matches_oracle Config.Eager "eager recovery matches oracle";
      recovery_matches_oracle Config.Lazy "lazy recovery matches oracle";
      recovery_matches_oracle ~mode:Config.On_demand Config.Rh
        "rh on-demand matches oracle";
      recovery_matches_oracle ~mode:Config.On_demand Config.Eager
        "eager on-demand matches oracle";
      recovery_matches_oracle ~mode:Config.On_demand Config.Lazy
        "lazy on-demand matches oracle";
      no_crash_matches_oracle;
      engines_agree;
      interrupted_recovery_idempotent;
      reduction_no_delegation;
      invariants_hold_mid_flight;
      separate_passes_agree;
      repeated_recovery_stable;
    ]
  @ [
      Alcotest.test_case "eager on-demand, seed 604 at 20" `Quick
        eager_on_demand_pin;
    ]
