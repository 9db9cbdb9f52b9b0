open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Sharded = Ariesrh_shard.Sharded

(* The recovery storm: the crash sweep of {!Storm} pointed at on-demand
   restart. Each iteration crashes the workload at the k-th I/O,
   restarts in [Config.On_demand] mode — analysis only, open for
   traffic immediately — and then lives through the drain the way a
   real system would: background sweeper steps interleaved with
   foreground transactions that are either served degraded or refused
   with the typed retryable [Errors.Recovering], plus peek probes
   taking the foreground-repair path. Re-crashes are armed {e during}
   the drain, so the injected crash can land inside analysis, inside a
   sweeper step, or inside a foreground repair — the race the storm
   exists to exercise. After convergence the check battery runs with
   the audit, and — the equivalence oracle — an offline twin run over
   the identical history (same script, same fault schedule, same crash
   point, [Config.Offline]) must reach the same final state
   element-wise. *)

type config = Storm.config
type outcome = Storm.outcome

let default_config = Storm.default_config

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf
    "@[<v>runs=%d actions=%d@ crashes=%d nested=%d recoveries=%d \
     instant_opens=%d@ drain_steps=%d refusals=%d degraded_serves=%d \
     foreground_repairs=%d@ checks=%d twin_checks=%d fault_points=%d \
     failures=%d%a@]"
    o.runs o.actions o.crashes o.nested_crashes o.recoveries o.instant_opens
    o.drain_steps o.refusals o.degraded_serves o.foreground_repairs o.checks
    o.twin_checks o.fault_points
    (List.length o.failures) Storm.pp_failures o.failures

(* The on-demand restart step: restart, then drain the backlog as a
   live system — one sweeper step at a time, a foreground read
   transaction every other step (begun on the object's current home:
   the probe exercises the servability decision, not the migration
   machinery), a peek foreground repair every fifth. A crash anywhere
   in here drops the volatile on-demand state; {!Storm.recover_until_stable}
   answers it with a fresh restart, proving the lazy path re-entrant. *)
let drain ~n_objects (outcome : outcome) sh =
  let probe i =
    let oid = Oid.of_int (i mod n_objects) in
    let x = Sharded.begin_txn sh ~shard:(Sharded.home sh oid) in
    match Sharded.read sh x oid with
    | _ ->
        outcome.degraded_serves <- outcome.degraded_serves + 1;
        Sharded.commit sh x
    | exception Errors.Recovering _ ->
        outcome.refusals <- outcome.refusals + 1;
        Sharded.abort sh x
  in
  ignore (Sharded.recover sh);
  outcome.recoveries <- outcome.recoveries + 1;
  if Sharded.recovering sh then
    outcome.instant_opens <- outcome.instant_opens + 1;
  let i = ref 0 in
  while Sharded.recovering sh do
    incr i;
    ignore (Sharded.recovery_step sh);
    outcome.drain_steps <- outcome.drain_steps + 1;
    if !i mod 2 = 0 then probe !i;
    if !i mod 5 = 0 then begin
      ignore (Sharded.peek sh (Oid.of_int (!i / 5 mod n_objects)));
      outcome.foreground_repairs <- outcome.foreground_repairs + 1
    end
  done

(* The offline twin: replay the identical history — same script, same
   fault seed and tear schedule, same armed crash point, so the durable
   prefix is byte-for-byte the history the on-demand run recovered
   from — on an engine restarting offline, and return its recovered
   state. *)
let offline_twin config ~impl ~crash_io ~n_objects ~homes script =
  Storm.with_engine config ~impl
    ~tag:(Printf.sprintf "offline-io%d" crash_io)
    ~salt:crash_io ~crash_io ~n_objects
  @@ fun fault sh ->
  (match Shard_driver.run ~homes sh script with
  | () -> Fault.disarm_crash fault
  | exception Fault.Injected_crash _ -> ());
  Sharded.crash sh;
  Fault.set_enabled fault false;
  match Sharded.recover sh with
  | _ -> Ok (Sharded.peek_all sh)
  | exception e -> Error (Printexc.to_string e)

let run_script ?(config = default_config) ?(impl = Config.Rh) spec =
  let n_objects = spec.Gen.n_objects in
  Storm.sweep ~config ~impl ~recovery_mode:Config.On_demand ~audit:true
    ~name:"od" ~tag:"od-" ~restart:(drain ~n_objects) spec
    ~on_checked:(fun outcome (it : Storm.iteration) ->
      Fault.set_enabled it.fault false;
      let actual = Sharded.peek_all it.sh in
      fun () ->
        match
          offline_twin config ~impl ~crash_io:it.crash_io ~n_objects
            ~homes:it.homes it.script
        with
        | Error msg ->
            Storm.fail outcome
              (Printf.sprintf "%s: offline twin: %s" it.label msg)
        | Ok twin ->
            outcome.twin_checks <- outcome.twin_checks + 1;
            if actual <> twin then
              Storm.fail outcome
                (Printf.sprintf
                   "%s: on-demand state differs from offline twin: got [%s] \
                    twin [%s]"
                   it.label (Storm.pp_arr actual) (Storm.pp_arr twin)))
