open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Prng = Ariesrh_util.Prng

type config = Storm.config
type outcome = Storm.outcome

let default_config = Storm.default_config

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf
    "@[<v>runs=%d actions=%d@ crashes=%d nested=%d recoveries=%d@ \
     torn_writes=%d torn_flushes=%d amputated=%d repaired_pages=%d@ \
     fault_points=%d checks=%d tt_reads=%d@ migrations=%d \
     migration_refusals=%d xfers_resolved=%d failures=%d%a@]"
    o.runs o.actions o.crashes o.nested_crashes o.recoveries o.torn_writes
    o.torn_flushes o.amputated o.repaired_pages o.fault_points o.checks
    o.tt_reads o.migrations o.migration_refusals o.xfers_resolved
    (List.length o.failures) Storm.pp_failures o.failures

(* --- scripted storm --- *)

let run_script ?(config = default_config) ?(impl = Config.Rh) spec =
  let outcome =
    Storm.sweep ~config ~impl ~dump_kind:"crash" ~name:"script" ~tag:""
      ~restart:Storm.offline spec
      ~on_checked:(fun outcome (it : Storm.iteration) ->
        (* analytic sweep over the recovered log: as_of at each durable
           commit LSN must equal the oracle replay with the commit set
           restricted to commits at or below that LSN *)
        let n_objects = spec.Gen.n_objects in
        Storm.time_travel config outcome ~label:(it.label ^ " tt")
          ~sample:(Storm.spread ~limit:8) it.fault it.sh
          ~expected_at:(fun counts ->
            Oracle.expected_for ~n_objects
              ~committed:(fun t ->
                match Hashtbl.find_opt it.xid_map t with
                | Some fx -> counts fx
                | None -> false)
              ~crash_at:it.executed it.script);
        ignore)
  in
  Storm.expect_no_tt_refusals outcome ~label:"script";
  outcome

(* --- simulated storm --- *)

type sim_config = {
  load : Storm.load;
  steps : int;
  checkpoint_every : int;
  crash_every : int;
}

let default_sim =
  {
    load = { clients = 4; ops_per_txn = 6; n_objects = 48; p_delegate = 0.25;
             p_read = 0.; p_op = 0. };
    steps = 600;
    checkpoint_every = 5;
    crash_every = 11;
  }

(* The shared client loop under a crash armed every few I/Os. With
   several shards, a migration that finds the object locked by another
   shard's client is refused by the router and the client skips that op
   — under the same crash schedule as everything else. Most touches
   then first migrate the object, three forced records, so the crash
   is armed every [crash_every × shards] I/Os: unscaled, it fired
   before any transaction could delegate. *)
let run_sim ?(config = default_config) ?impl ?(sim = default_sim) () =
  let outcome = Storm.fresh_outcome () in
  let n_objects = sim.load.n_objects in
  Storm.with_engine config ?impl ~tag:"sim-storm" ~salt:0x5117 ~n_objects
  @@ fun fault sh ->
  let clients =
    Storm.Clients.create outcome sh ~load:sim.load
      ~rng:(Prng.create (Int64.add config.seed 77L))
      ~checkpoint_every:sim.checkpoint_every
  in
  let expected () = Storm.Clients.state clients (Storm.committed_in sh) in
  let tt ~label ~limit =
    Storm.time_travel config outcome ~label ~sample:(Storm.spread ~limit) fault
      sh ~expected_at:(Storm.Clients.state clients)
  in
  let label what =
    Printf.sprintf "sim%s %s" (Storm.shards_label config) what
  in
  let restart_and_check ?failed what =
    Storm.restart_and_check config outcome ~label:(label what)
      ?failed:(Option.map label failed) fault sh ~expected
  in
  let crash_every = sim.crash_every * config.shards in
  let handle_crash () =
    outcome.crashes <- outcome.crashes + 1;
    let what = Printf.sprintf "crash #%d" outcome.crashes in
    let fail_before = List.length outcome.failures in
    if restart_and_check what then begin
      outcome.runs <- outcome.runs + 1;
      tt ~label:(label what ^ " tt") ~limit:8
    end;
    Storm.dump_engine config outcome ~fail_before ~kind:"sim"
      ~tag:(Printf.sprintf "crash%d" outcome.crashes)
      ~expected:(expected ()) fault sh;
    Storm.Clients.reset clients;
    Fault.arm_crash_in fault crash_every
  in
  Fault.arm_crash_in fault crash_every;
  for i = 1 to sim.steps do
    outcome.actions <- outcome.actions + 1;
    (try Storm.Clients.step clients ~now:i (i mod sim.load.clients)
     with Fault.Injected_crash _ -> handle_crash ());
    (* an analytic time-travel reader interleaved with the OLTP
       clients: probe the latest durable commit point mid-run *)
    if i mod 37 = 0 then tt ~label:(Printf.sprintf "sim step %d tt" i) ~limit:2
  done;
  (* final clean crash + restart + reconciliation *)
  Fault.disarm_crash fault;
  let fail_before = List.length outcome.failures in
  if restart_and_check ~failed:"final restart" "final" then
    tt ~label:"sim final tt" ~limit:16;
  Storm.Clients.expect_no_refusals clients ~label:(label "clients");
  Storm.expect_no_tt_refusals outcome ~label:(label "tt");
  Storm.dump_engine config outcome ~fail_before ~kind:"sim" ~tag:"final"
    ~expected:(expected ()) fault sh;
  Storm.absorb outcome fault sh;
  outcome
