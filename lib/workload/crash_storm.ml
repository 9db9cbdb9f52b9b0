open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Prng = Ariesrh_util.Prng
module Temporal = Ariesrh_temporal.Temporal
module Sharded = Ariesrh_shard.Sharded

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

(* --- time-travel readers (one shard: an as_of point is a per-shard
   LSN, and a cross-shard cut is a different instrument) --- *)

(* Evenly spaced subset of [points] (first and last always included)
   bounding the per-round cost of the as_of sweep. *)
let sample_points points ~limit =
  let n = List.length points in
  if n <= limit || limit < 2 then points
  else
    let arr = Array.of_list points in
    List.init limit (fun i -> arr.(i * (n - 1) / (limit - 1)))

(* The as_of-equals-ledger oracle: at each sampled durable commit LSN,
   the temporal snapshot reconstructed from the log (before/after
   images, delegate records, surgery CLRs) must equal the harness's
   expected state at that point, given [counts_at l x]: does engine xid
   [x] count as committed at LSN [l]. Runs with faults gated off so the
   crash schedule is untouched. *)
let tt_round (config : config) (outcome : outcome) ~label ~limit ~expected_at
    fault sh =
  if config.time_travel && config.shards = 1 then begin
    Fault.set_enabled fault false;
    let db = Sharded.db sh 0 in
    let cps = Temporal.commit_points db in
    let commit_lsn = Xid.Tbl.create 64 in
    List.iter
      (fun (l, x) ->
        if not (Xid.Tbl.mem commit_lsn x) then Xid.Tbl.replace commit_lsn x l)
      cps;
    let counts_at l fx =
      match Xid.Tbl.find_opt commit_lsn fx.Sharded.txn with
      | Some cl -> Lsn.(cl <= l)
      | None -> false
    in
    List.iter
      (fun (l, x) ->
        outcome.tt_reads <- outcome.tt_reads + 1;
        let want = expected_at (counts_at l) in
        match Temporal.snapshot_at db l with
        | snap ->
            if snap <> want then
              Storm.fail outcome
                (Printf.sprintf
                   "%s: as_of lsn %d (commit of %s): got [%s] want [%s]" label
                   (Lsn.to_int l)
                   (Format.asprintf "%a" Xid.pp x)
                   (Storm.pp_arr snap) (Storm.pp_arr want))
        | exception e ->
            Storm.fail outcome
              (Printf.sprintf "%s: as_of lsn %d raised %s" label (Lsn.to_int l)
                 (Format.asprintf "%a" Errors.pp_exn e)))
      (sample_points cps ~limit);
    Fault.set_enabled fault true
  end

(* --- scripted storm --- *)

let run_script ?(config = default_config) ?(impl = Config.Rh) spec =
  Storm.sweep ~config ~impl ~dump_kind:"crash" ~name:"script" ~tag:""
    ~restart:Storm.offline spec
    ~on_checked:(fun outcome (it : Storm.iteration) ->
      (* analytic sweep over the recovered log: as_of at each durable
         commit LSN must equal the oracle replay with the commit set
         restricted to commits at or below that LSN *)
      let n_objects = spec.Gen.n_objects in
      tt_round config outcome ~label:(it.label ^ " tt") ~limit:8 it.fault it.sh
        ~expected_at:(fun counts ->
          Oracle.expected_for ~n_objects
            ~committed:(fun t ->
              match Hashtbl.find_opt it.xid_map t with
              | Some fx -> counts fx
              | None -> false)
            ~crash_at:it.executed it.script);
      ignore)

(* --- simulated storm --- *)

type sim_config = {
  clients : int;
  steps : int;
  ops_per_txn : int;
  n_objects : int;
  p_delegate : float;
  checkpoint_every : int;
  crash_every : int;
}

let default_sim =
  {
    clients = 4;
    steps = 600;
    ops_per_txn = 6;
    n_objects = 48;
    p_delegate = 0.25;
    checkpoint_every = 5;
    crash_every = 11;
  }

type client = {
  mutable xid : Sharded.xid option;
  mutable ops_left : int;
  mutable touched : int list;  (* objects this txn is responsible for *)
}

(* Clients are dealt round-robin onto shards and keep beginning their
   transactions there; objects are picked uniformly, so with several
   shards most touches hit an object homed elsewhere and go through a
   live migration first — under the same crash schedule as everything
   else. A migration that finds the object locked by another shard's
   client is refused by the router; the client just skips that op
   (deterministically — the refusal consumes no randomness). The ledger
   is keyed by façade xid: raw xids collide across shards. *)
let run_sim ?(config = default_config) ?(sim = default_sim) () =
  let outcome = Storm.fresh_outcome () in
  let n_objects = sim.n_objects in
  Storm.with_engine config ~tag:"sim-storm" ~salt:0x5117 ~n_objects
  @@ fun fault sh ->
  let rng = Prng.create (Int64.add config.seed 77L) in
  let shard_of i = i mod config.shards in
  let clients =
    Array.init sim.clients (fun _ -> { xid = None; ops_left = 0; touched = [] })
  in
  let ledger = Storm.Ledger.create () in
  let expected () =
    Storm.Ledger.state ledger ~n_objects (Storm.committed_in sh)
  in
  (* Ledger state at a durable commit LSN: the entries of every
     transaction whose commit record is at or below it. Sound because
     an entry's holder at LSN l either is its final holder (then both
     sides use the same commit record) or delegated it onward above l —
     and a delegation always precedes the delegator's commit, so that
     holder's commit is above l too and both sides exclude the entry. *)
  let tt ~label ~limit =
    tt_round config outcome ~label ~limit fault sh
      ~expected_at:(Storm.Ledger.state ledger ~n_objects)
  in
  (* delegation stays same-shard: cross-shard responsibility moves with
     the object, not across live transactions *)
  let other_active self =
    let cands = ref [] in
    Array.iteri
      (fun i c ->
        match c.xid with
        | Some x when i <> self && shard_of i = shard_of self ->
            cands := (i, x) :: !cands
        | _ -> ())
      clients;
    match !cands with
    | [] -> None
    | l -> Some (List.nth l (Prng.int rng (List.length l)))
  in
  let commits_done = ref 0 in
  let step self =
    let c = clients.(self) in
    match c.xid with
    | None ->
        c.xid <- Some (Sharded.begin_txn sh ~shard:(shard_of self));
        c.ops_left <- 1 + Prng.int rng sim.ops_per_txn;
        c.touched <- []
    | Some x when c.ops_left > 0 -> (
        c.ops_left <- c.ops_left - 1;
        let delegate_now =
          c.touched <> [] && Prng.float rng 1.0 < sim.p_delegate
        in
        match (if delegate_now then other_active self else None) with
        | Some (yi, y) ->
            let o = List.nth c.touched (Prng.int rng (List.length c.touched)) in
            Sharded.delegate sh ~from_:x ~to_:y (Oid.of_int o);
            Storm.Ledger.move ledger ~from_:x ~to_:y o;
            c.touched <- List.filter (fun o' -> o' <> o) c.touched;
            clients.(yi).touched <- o :: clients.(yi).touched
        | None -> (
            let o = Prng.int rng n_objects in
            let d = 1 + Prng.int rng 9 in
            match Sharded.add sh x (Oid.of_int o) d with
            | () ->
                Storm.Ledger.add ledger x o d;
                if not (List.mem o c.touched) then c.touched <- o :: c.touched
            | exception Errors.Xfer_refused _ ->
                (* object locked on another shard right now; skip *)
                ()))
    | Some x ->
        if Prng.int rng 10 = 0 then Sharded.abort sh x
        else begin
          Sharded.commit sh x;
          incr commits_done;
          if
            sim.checkpoint_every > 0
            && !commits_done mod sim.checkpoint_every = 0
          then Sharded.checkpoint sh
        end;
        c.xid <- None;
        c.touched <- []
  in
  let reset_clients () =
    Array.iter
      (fun c ->
        c.xid <- None;
        c.ops_left <- 0;
        c.touched <- [])
      clients
  in
  let label what =
    Printf.sprintf "sim%s %s" (Storm.shards_label config) what
  in
  (* crash, restart under fire, check; [on_ok] runs after a check. A
     restart that fails is reported as [failed] (default [what]). *)
  let restart_and_check ?failed what ~on_ok =
    Sharded.crash sh;
    let fail_before = List.length outcome.failures in
    (match
       Storm.recover_until_stable config outcome ~restart:Storm.offline fault sh
     with
    | Error msg ->
        Storm.fail outcome
          (Printf.sprintf "%s: %s"
             (label (Option.value failed ~default:what))
             msg)
    | Ok () ->
        Storm.check outcome ~label:(label what) fault sh (expected ());
        on_ok ());
    fail_before
  in
  let handle_crash () =
    outcome.crashes <- outcome.crashes + 1;
    let what = Printf.sprintf "crash #%d" outcome.crashes in
    let fail_before =
      restart_and_check what ~on_ok:(fun () ->
          outcome.runs <- outcome.runs + 1;
          tt ~label:(label what ^ " tt") ~limit:8)
    in
    Storm.dump_engine config outcome ~fail_before ~kind:"sim"
      ~tag:(Printf.sprintf "crash%d" outcome.crashes)
      ~expected:(expected ()) fault sh;
    reset_clients ();
    Fault.arm_crash_in fault sim.crash_every
  in
  Fault.arm_crash_in fault sim.crash_every;
  for i = 1 to sim.steps do
    outcome.actions <- outcome.actions + 1;
    (try step (i mod sim.clients)
     with Fault.Injected_crash _ -> handle_crash ());
    (* an analytic time-travel reader interleaved with the OLTP
       clients: probe the latest durable commit point mid-run *)
    if i mod 37 = 0 then tt ~label:(Printf.sprintf "sim step %d tt" i) ~limit:2
  done;
  (* final clean crash + restart + reconciliation *)
  Fault.disarm_crash fault;
  let fail_before =
    restart_and_check ~failed:"final restart" "final" ~on_ok:(fun () ->
        tt ~label:"sim final tt" ~limit:16)
  in
  Storm.dump_engine config outcome ~fail_before ~kind:"sim" ~tag:"final"
    ~expected:(expected ()) fault sh;
  Storm.absorb outcome fault sh;
  outcome
