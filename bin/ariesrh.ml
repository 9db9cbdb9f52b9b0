(* The ariesrh command-line tool: figure reproductions, workload runs,
   and engine comparisons. *)

open Cmdliner
open Ariesrh_core
open Ariesrh_workload

let impl_conv =
  let parse = function
    | "rh" -> Ok Config.Rh
    | "eager" -> Ok Config.Eager
    | "lazy" -> Ok Config.Lazy
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S (rh|eager|lazy)" s))
  in
  let print ppf = function
    | Config.Rh -> Format.pp_print_string ppf "rh"
    | Config.Eager -> Format.pp_print_string ppf "eager"
    | Config.Lazy -> Format.pp_print_string ppf "lazy"
  in
  Arg.conv (parse, print)

(* --- observability plumbing shared by every subcommand --- *)

module Obs = Ariesrh_obs

type obs = { metrics_json : string option }

(* every database the command creates registers here (via the Db create
   hook), so the final metrics export aggregates across all of them —
   a storm builds a fresh db per crash point *)
let registries : Obs.Metrics.t list ref = ref []

let verbosity_conv =
  let parse s =
    match Logs.level_of_string s with
    | Ok l -> Ok l
    | Error (`Msg m) -> Error (`Msg m)
  in
  let print ppf l = Format.pp_print_string ppf (Logs.level_to_string l) in
  Arg.conv (parse, print)

let verbosity_arg =
  Arg.(
    value
    & opt (some verbosity_conv) None
    & info [ "verbosity" ] ~docv:"LEVEL"
        ~doc:
          "Engine trace verbosity: quiet, error, warning, info or debug. \
           Installs a Logs reporter over the unified ariesrh source \
           (Ariesrh_obs.Trace).")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "On exit, write an aggregated metrics snapshot of every database \
           the command created to $(docv) (deterministic JSON; counters and \
           histograms sum across databases).")

let obs_setup verbosity metrics_json =
  (match verbosity with
  | None -> ()
  | Some level ->
      Logs.set_reporter (Logs.format_reporter ());
      Obs.Trace.set_level level);
  registries := [];
  Db.set_create_hook
    (Some (fun db -> registries := Db.metrics db :: !registries));
  { metrics_json }

let obs_term = Term.(const obs_setup $ verbosity_arg $ metrics_json_arg)

(* --- storage backend selection shared by every subcommand --- *)

module Backend = Ariesrh_storage.Backend

(* [root] is the directory the file backend lives under ([None] = sim).
   Installed as a [Db] backend factory so every database the command
   creates — including those built deep inside figures or storms —
   lands in its own fresh subdirectory of [root]. *)
type backend_sel = { backend_kind : string; backend_root : string option }

let backend_kind_arg =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("file", `File) ]) `Sim
    & info [ "backend" ] ~docv:"KIND"
        ~doc:
          "Storage backend: $(b,sim) (in-memory simulated devices, the \
           default) or $(b,file) (real files: segmented checksummed WAL \
           with fsync on force, doublewrite-style page file).")

let backend_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "backend-dir" ] ~docv:"DIR"
        ~doc:
          "Directory root for $(b,--backend file) (created if missing). \
           Default: a fresh directory under the system temp dir.")

let backend_setup kind dir =
  match kind with
  | `Sim ->
      Db.set_backend_factory None;
      { backend_kind = "sim"; backend_root = None }
  | `File ->
      let root =
        match dir with
        | Some d -> d
        | None ->
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Printf.sprintf "ariesrh-%d" (Unix.getpid ()))
      in
      Backend.mkdir_p root;
      let n = ref 0 in
      Db.set_backend_factory
        (Some
           (fun () ->
             incr n;
             let dir = Filename.concat root (Printf.sprintf "db%d" !n) in
             Backend.remove_tree dir;
             Backend.File { dir }));
      Format.eprintf "file backend root: %s@." root;
      { backend_kind = "file"; backend_root = Some root }

let backend_term = Term.(const backend_setup $ backend_kind_arg $ backend_dir_arg)

(* call before any [exit]: cmdliner bodies that fail with [exit 1] must
   still flush the metrics export *)
let finish obs =
  match obs.metrics_json with
  | None -> ()
  | Some file ->
      let snaps = List.rev_map Obs.Metrics.snapshot !registries in
      Obs.Json.to_file file (Obs.Metrics.to_json (Obs.Metrics.merge snaps));
      Format.eprintf "metrics: %d registries merged into %s@."
        (List.length snaps) file

(* --- figures --- *)

let figures_cmd =
  let which =
    Arg.(value & pos 0 string "all" & info [] ~docv:"FIGURE"
           ~doc:"Which figure to reproduce: f1 f2 f3 f4 f5 f7 f8 or all.")
  in
  let run obs (_ : backend_sel) which =
    Figures.run which;
    finish obs
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:"Reproduce the paper's figures as executable, checked artifacts")
    Term.(const run $ obs_term $ backend_term $ which)

(* --- run --- *)

let spec_of ~objects ~steps ~delegation_rate =
  let d = delegation_rate in
  {
    Gen.default with
    n_objects = objects;
    n_steps = steps;
    p_delegate = d;
  }

let run_cmd =
  let steps =
    Arg.(value & opt int 500 & info [ "steps" ] ~doc:"Workload steps.")
  in
  let objects =
    Arg.(value & opt int 128 & info [ "objects" ] ~doc:"Number of objects.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let rate =
    Arg.(value & opt float 0.12
         & info [ "delegation-rate" ] ~doc:"Delegation weight in the mix.")
  in
  let impl =
    Arg.(value & opt impl_conv Config.Rh
         & info [ "engine" ] ~doc:"Engine: rh, eager, or lazy.")
  in
  let crash_frac =
    Arg.(value & opt float 0.8
         & info [ "crash-frac" ]
             ~doc:"Crash after this fraction of the workload (0..1).")
  in
  let dump =
    Arg.(value & flag & info [ "dump-log" ] ~doc:"Print the durable log.")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save-script" ] ~docv:"FILE"
             ~doc:"Write the generated workload script to a file.")
  in
  let load =
    Arg.(value & opt (some string) None
         & info [ "script" ] ~docv:"FILE"
             ~doc:"Replay a saved script instead of generating one.")
  in
  let recover_mode =
    Arg.(value
         & opt (enum [ ("offline", Config.Offline);
                       ("on-demand", Config.On_demand) ])
             Config.Offline
         & info [ "recover-mode" ] ~docv:"MODE"
             ~doc:"Restart discipline after the crash: $(b,offline) replays \
                   redo and undo before serving anything; $(b,on-demand) \
                   runs analysis only, opens immediately, and drains the \
                   backlog afterwards (shown separately).")
  in
  let run obs (_ : backend_sel) steps objects seed rate impl crash_frac dump
      save load recover_mode =
    let script =
      match load with
      | Some file ->
          let ic = open_in file in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          (match Script.of_string s with
          | Ok sc -> sc
          | Error e -> failwith ("bad script file: " ^ e))
      | None ->
          let spec = spec_of ~objects ~steps ~delegation_rate:rate in
          Gen.generate spec ~seed:(Int64.of_int seed)
    in
    (match save with
    | Some file ->
        let oc = open_out file in
        output_string oc (Script.to_string script);
        close_out oc;
        Format.printf "script saved to %s@." file
    | None -> ());
    let n = List.length script in
    let at = min n (int_of_float (crash_frac *. float_of_int n)) in
    Format.printf "workload: %s@." (Script.stats script);
    let db =
      Driver.fresh_db ~impl ~recovery_mode:recover_mode ~n_objects:objects ()
    in
    Driver.run ~upto:at db script;
    Db.crash db;
    Format.printf "crash after %d/%d actions@." at n;
    if dump then begin
      let log = Db.log_store db in
      Ariesrh_wal.Log_store.iter_forward log ~from:Ariesrh_types.Lsn.first
        (fun lsn r ->
          Format.printf "  %4d  %a@."
            (Ariesrh_types.Lsn.to_int lsn)
            Ariesrh_wal.Record.pp r)
    end;
    let t0 = Unix.gettimeofday () in
    let report = Db.recover db in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "recovery (%0.3f ms):@.%a@." (1000. *. dt)
      Ariesrh_recovery.Report.pp report;
    if Db.recovering db then begin
      Format.printf
        "open for traffic with restart backlog %d; draining in the \
         background...@."
        (Db.recovery_backlog db);
      let t1 = Unix.gettimeofday () in
      Db.await_recovery db;
      Format.printf "backlog drained (%0.3f ms).@."
        (1000. *. (Unix.gettimeofday () -. t1))
    end;
    (* cross-check against the oracle *)
    let expected = Oracle.expected ~n_objects:objects ~crash_at:at script in
    if Db.peek_all db = expected then
      Format.printf "state matches the semantic oracle.@."
    else Format.printf "STATE MISMATCH against the oracle!@.";
    (* and against the formal model, when the log has no rewriting *)
    if impl = Config.Rh then begin
      let h = Ariesrh_model.History.of_log (Db.log_store db) in
      (match Ariesrh_model.History.check_well_formed h with
      | Ok () -> Format.printf "history is well-formed (section 2.1.2).@."
      | Error e -> Format.printf "HISTORY NOT WELL-FORMED: %s@." e);
      match Ariesrh_model.History.check_recovery h with
      | Ok () ->
          Format.printf "log satisfies the undo/redo obligations (4.1).@."
      | Error e -> Format.printf "RECOVERY OBLIGATION VIOLATED: %s@." e
    end;
    finish obs
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a random workload, crash, recover, verify against the oracle")
    Term.(
      const run $ obs_term $ backend_term $ steps $ objects $ seed $ rate
      $ impl $ crash_frac $ dump $ save $ load $ recover_mode)

(* --- compare --- *)

let compare_cmd =
  let steps =
    Arg.(value & opt int 2000 & info [ "steps" ] ~doc:"Workload steps.")
  in
  let objects =
    Arg.(value & opt int 256 & info [ "objects" ] ~doc:"Number of objects.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let rate =
    Arg.(value & opt float 0.12
         & info [ "delegation-rate" ] ~doc:"Delegation weight in the mix.")
  in
  let run obs (_ : backend_sel) steps objects seed rate =
    let spec =
      { (spec_of ~objects ~steps ~delegation_rate:rate) with p_checkpoint = 0.0 }
    in
    let script = Gen.generate spec ~seed:(Int64.of_int seed) in
    let n = List.length script in
    let at = max 1 (n * 4 / 5) in
    Format.printf "workload: %s; crash at %d/%d@.@." (Script.stats script) at n;
    Format.printf "%-6s | %14s %10s %9s | %10s %9s %9s %9s %9s@." "engine"
      "np_rewrites" "np_seeks" "np(ms)" "rec(ms)" "fwd_recs" "bwd_exam"
      "undos" "rec_seeks";
    List.iter
      (fun (name, impl) ->
        let db = Driver.fresh_db ~impl ~n_objects:objects () in
        let stats = Ariesrh_wal.Log_store.stats (Db.log_store db) in
        let t0 = Unix.gettimeofday () in
        Driver.run ~upto:at db script;
        let np_ms = 1000. *. (Unix.gettimeofday () -. t0) in
        let np = Ariesrh_wal.Log_stats.copy stats in
        Db.crash db;
        let t0 = Unix.gettimeofday () in
        let r = Db.recover db in
        let dt = 1000. *. (Unix.gettimeofday () -. t0) in
        Format.printf "%-6s | %14d %10d %9.2f | %10.2f %9d %9d %9d %9d@." name
          np.rewrites np.random_seeks np_ms dt r.forward_records
          r.backward_examined r.undos r.log_io.random_seeks)
      [ ("rh", Config.Rh); ("lazy", Config.Lazy); ("eager", Config.Eager) ];
    finish obs
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Recover the same crashed workload under rh, lazy, and eager")
    Term.(const run $ obs_term $ backend_term $ steps $ objects $ seed $ rate)

(* --- time travel: history / asof / explain / lineage --- *)

module Temporal = Ariesrh_temporal.Temporal
module Lsn = Ariesrh_types.Lsn
module Xid = Ariesrh_types.Xid
module Oid = Ariesrh_types.Oid

(* Shared workload builder for the time-travel subcommands: generate a
   script, run it on a fresh database (the selected backend applies),
   and — when [crash_frac > 0] — crash partway and recover, so the
   queries run over a log that restart has already rewritten (lazy
   splice, eager surgery rollback). *)
let temporal_db ~impl ~objects ~steps ~rate ~seed ~crash_frac ~tracing () =
  let spec = spec_of ~objects ~steps ~delegation_rate:rate in
  let script = Gen.generate spec ~seed:(Int64.of_int seed) in
  let db = Driver.fresh_db ~impl ~tracing ~n_objects:objects () in
  (if crash_frac > 0. then begin
     let n = List.length script in
     let at = min n (int_of_float (crash_frac *. float_of_int n)) in
     Driver.run ~upto:at db script;
     Db.crash db;
     ignore (Db.recover db)
   end
   else Driver.run db script);
  db

let tt_steps =
  Arg.(value & opt int 300 & info [ "steps" ] ~doc:"Workload steps.")

let tt_objects =
  Arg.(value & opt int 32 & info [ "objects" ] ~doc:"Number of objects.")

let tt_seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")

let tt_rate =
  Arg.(value & opt float 0.25
       & info [ "delegation-rate" ] ~doc:"Delegation weight in the mix.")

let tt_impl =
  Arg.(value & opt impl_conv Config.Rh
       & info [ "engine" ] ~doc:"Engine: rh, eager, or lazy.")

let tt_crash =
  Arg.(value & opt float 0.
       & info [ "crash-frac" ]
           ~doc:"Crash after this fraction of the workload and recover \
                 before querying, so the log has been rewritten by \
                 restart (0 = run to completion).")

(* deterministic-JSON error envelope shared by the temporal queries:
   typed refusals print a machine-readable object and exit 1 *)
let tt_guard obs f =
  match f () with
  | () -> finish obs
  | exception Errors.History_unavailable { lsn; available_from; available_upto }
    ->
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("error", Obs.Json.String "history_unavailable");
                ("lsn", Obs.Json.Int (Lsn.to_int lsn));
                ("available_from", Obs.Json.Int (Lsn.to_int available_from));
                ("available_upto", Obs.Json.Int (Lsn.to_int available_upto)) ]));
      finish obs;
      exit 1
  | exception Errors.No_such_txn x ->
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [ ("error", Obs.Json.String "no_such_txn");
                ("xid", Obs.Json.Int (Xid.to_int x)) ]));
      finish obs;
      exit 1

let history_cmd =
  let ob = Arg.(required & pos 0 (some int) None & info [] ~docv:"OBJECT") in
  let upto =
    Arg.(value & opt (some int) None
         & info [ "upto" ] ~docv:"LSN"
             ~doc:"Bound the chain at this LSN (default: the durable \
                   horizon).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the chain as deterministic JSON.")
  in
  let run obs (_ : backend_sel) ob steps objects seed rate impl crash_frac
      upto json =
    tt_guard obs @@ fun () ->
    let db =
      temporal_db ~impl ~objects ~steps ~rate ~seed ~crash_frac
        ~tracing:false ()
    in
    let oid = Oid.of_int ob in
    let upto =
      match upto with
      | Some l -> Lsn.of_int l
      | None -> (Temporal.coverage db).Temporal.upto
    in
    let versions = Temporal.history db ~upto oid in
    if json then
      print_endline
        (Obs.Json.to_string (Temporal.history_to_json ~oid ~upto versions))
    else begin
      Format.printf "history of ob%d as of LSN %d (%d versions):@.@." ob
        (Lsn.to_int upto) (List.length versions);
      List.iter
        (fun (v : Temporal.version) ->
          Format.printf "  %4d  %s by %a" (Lsn.to_int v.v_lsn)
            (match v.v_op with
            | Ariesrh_wal.Record.Set { before; after } ->
                Printf.sprintf "set %d->%d" before after
            | Ariesrh_wal.Record.Add d -> Printf.sprintf "add %+d" d)
            Xid.pp v.v_writer;
          if not (Xid.equal v.v_provenance v.v_writer) then
            Format.printf " (invoked by %a, rewritten in place)" Xid.pp
              v.v_provenance;
          if not (Xid.equal v.v_holder v.v_provenance) then
            Format.printf " -> answered by %a" Xid.pp v.v_holder;
          List.iter
            (fun (t : Temporal.transfer) ->
              Format.printf "@.        delegated %a -> %a at %d%s" Xid.pp
                t.t_from Xid.pp t.t_to (Lsn.to_int t.t_at)
                (if t.t_op_level then " (operation)" else ""))
            v.v_transfers;
          List.iter
            (fun (s : Temporal.surgery) ->
              Format.printf "@.        surgery at %d (intent %d, %s)"
                (Lsn.to_int s.s_clr) (Lsn.to_int s.s_intent)
                (if s.s_committed then "committed" else "rolled back"))
            v.v_surgeries;
          Format.printf "  [%s]@." (Temporal.status_str v.v_status))
        versions
    end
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:"Reconstruct an object's full version chain from the durable \
             log: physical writer, original invoker (recovered from \
             surgery before-images), responsible party, delegations, \
             rewrite surgeries, and commit status")
    Term.(
      const run $ obs_term $ backend_term $ ob $ tt_steps $ tt_objects
      $ tt_seed $ tt_rate $ tt_impl $ tt_crash $ upto $ json)

let asof_cmd =
  let lsn =
    Arg.(required & opt (some int) None
         & info [ "lsn" ] ~docv:"LSN" ~doc:"The LSN to read as of.")
  in
  let ob =
    Arg.(value & pos 0 (some int) None
         & info [] ~docv:"OBJECT"
             ~doc:"Object to read; omit for a full snapshot.")
  in
  let run obs (_ : backend_sel) lsn ob steps objects seed rate impl
      crash_frac =
    tt_guard obs @@ fun () ->
    let db =
      temporal_db ~impl ~objects ~steps ~rate ~seed ~crash_frac
        ~tracing:false ()
    in
    let l = Lsn.of_int lsn in
    let cov = Temporal.coverage db in
    let body =
      match ob with
      | Some o ->
          [ ("object", Obs.Json.Int o);
            ("value", Obs.Json.Int (Temporal.as_of db ~lsn:l (Oid.of_int o)))
          ]
      | None ->
          [ ("snapshot",
             Obs.Json.List
               (Array.to_list
                  (Array.map
                     (fun v -> Obs.Json.Int v)
                     (Temporal.snapshot_at db l)))) ]
    in
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            (( "lsn", Obs.Json.Int lsn )
             :: ("coverage", Temporal.coverage_to_json cov)
             :: body)))
  in
  Cmd.v
    (Cmd.info "asof"
       ~doc:"Read the committed value of an object (or a full snapshot) \
             at an arbitrary LSN, reconstructed from the durable log and \
             the attached archive; refuses with a typed error when the \
             truncated prefix is not bridged")
    Term.(
      const run $ obs_term $ backend_term $ lsn $ ob $ tt_steps $ tt_objects
      $ tt_seed $ tt_rate $ tt_impl $ tt_crash)

let explain_cmd =
  let xid =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"XID" ~doc:"Engine transaction id to reenact.")
  in
  let run obs (_ : backend_sel) xid steps objects seed rate impl crash_frac =
    tt_guard obs @@ fun () ->
    let db =
      temporal_db ~impl ~objects ~steps ~rate ~seed ~crash_frac
        ~tracing:false ()
    in
    print_endline
      (Obs.Json.to_string
         (Temporal.explain_to_json (Temporal.explain db (Xid.of_int xid))))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Reenact one transaction over the as_of snapshot at its begin \
             LSN and report where provenance (who performed each \
             operation) and attribution (who history now holds \
             responsible) diverge after delegation and rewriting")
    Term.(
      const run $ obs_term $ backend_term $ xid $ tt_steps $ tt_objects
      $ tt_seed $ tt_rate $ tt_impl $ tt_crash)

let lineage_cmd =
  let lsn =
    Arg.(required & opt (some int) None
         & info [ "lsn" ] ~docv:"LSN"
             ~doc:"LSN of the update to trace responsibility for.")
  in
  let as_of =
    Arg.(value & opt (some int) None
         & info [ "as-of" ] ~docv:"SEQ"
             ~doc:"Exclusive trace-ring sequence bound: answer as of \
                   this observation step (default: everything emitted).")
  in
  let run obs (_ : backend_sel) lsn as_of steps objects seed rate impl
      crash_frac =
    tt_guard obs @@ fun () ->
    let db =
      temporal_db ~impl ~objects ~steps ~rate ~seed ~crash_frac
        ~tracing:true ()
    in
    let answer =
      match Obs.Lineage.query (Db.ring db) ~lsn:(Lsn.of_int lsn) ?as_of ()
      with
      | Some t -> Obs.Lineage.to_json t
      | None -> Obs.Json.Null
    in
    print_endline
      (Obs.Json.to_string
         (Obs.Json.Obj
            [ ("lsn", Obs.Json.Int lsn); ("lineage", answer) ]))
  in
  Cmd.v
    (Cmd.info "lineage"
       ~doc:"Query the structured trace ring for who is responsible for \
             the update at an LSN (Obs.Lineage), as deterministic JSON; \
             lineage is null when the ring no longer retains the events")
    Term.(
      const run $ obs_term $ backend_term $ lsn $ as_of $ tt_steps
      $ tt_objects $ tt_seed $ tt_rate $ tt_impl $ tt_crash)

(* --- sim --- *)

let sim_cmd =
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Concurrent clients.")
  in
  let txns =
    Arg.(value & opt int 100 & info [ "txns" ] ~doc:"Transactions per client.")
  in
  let objects =
    Arg.(value & opt int 16 & info [ "objects" ] ~doc:"Objects to contend on.")
  in
  let rate =
    Arg.(value & opt float 0.2
         & info [ "delegation-rate" ] ~doc:"Probability a txn ends by \
                                            delegating its work.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed.") in
  let run obs (_ : backend_sel) clients txns objects rate seed =
    let db =
      Db.create (Config.make ~n_objects:(max 32 objects) ~buffer_capacity:32 ())
    in
    let o =
      Sim.run ~clients ~txns_per_client:txns ~n_objects:objects
        ~delegation_rate:rate ~seed:(Int64.of_int seed) db
    in
    Format.printf
      "committed=%d waits=%d deadlocks=%d victims=%d delegations=%d@."
      o.committed o.waits o.deadlocks o.aborted o.delegations;
    Format.printf "state %s the committed-increment sums@."
      (if o.state_ok then "matches" else "DOES NOT MATCH");
    finish obs
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Closed-loop contention simulator with deadlock detection")
    Term.(const run $ obs_term $ backend_term $ clients $ txns $ objects
          $ rate $ seed)

(* --- storms: one flag term, per-command defaults ---

   Every storm subcommand takes its flags from [storm_term]. An
   optional argument gives a flag's default for that command; a flag
   whose default is not given is not part of the command, and its field
   holds the fallback. The flags only one command has are added next
   to it. *)

type storm_flags = {
  seeds : int;
  seed0 : int;
  steps : int;
  objects : int;
  rate : float;
  engines : Config.delegation_impl list;
  depth : int;
  crash_step : int;
  clients : int;
  group_commit : int;
  record_cache : int;
  audit : bool;
  time_travel : bool;
  forensic_dir : string option;
  shards : int;
}

let storm_term ~seeds ~steps ~steps_doc ?objects ~rate ?depth
    ?(depth_doc = "Nested crash-during-recovery levels.") ?crash_step
    ?clients ?record_cache ?time_travel ?forensic_dir ?shards ~engines () =
  let flag kind name ~doc fallback default =
    match default with
    | None -> Term.const fallback
    | Some d -> Arg.(value & opt kind d & info [ name ] ~doc)
  in
  let engine =
    let absent, all =
      match engines with
      | [ i ] -> (Some (Forensics.engine_name i), "")
      | _ -> (None, " Default: all three.")
    in
    Arg.(value & opt (some impl_conv) None
         & info [ "engine" ] ?absent
             ~doc:("Engine: rh, eager, or lazy." ^ all))
  in
  let forensic_dir =
    Term.(
      const (fun d -> if d = "none" then None else Some d)
      $ flag Arg.string "forensic-dir" "none" forensic_dir
          ~doc:"Directory for forensic failure dumps (event trail, \
                per-mismatch lineage, metrics); $(b,none) disables them.")
  in
  let make seeds seed0 steps objects rate engine depth crash_step clients
      group_commit record_cache audit time_travel forensic_dir shards =
    { seeds; seed0; steps; objects; rate; depth; crash_step; clients;
      group_commit; record_cache; audit; time_travel; forensic_dir;
      shards = max 1 shards;
      engines = Option.fold ~none:engines ~some:(fun i -> [ i ]) engine }
  in
  Term.(
    const make
    $ flag Arg.int "seeds" 0 (Some seeds)
        ~doc:"Number of storms (distinct seeds)."
    $ flag Arg.int "seed" 1 (Some 1) ~doc:"First storm seed."
    $ flag Arg.int "steps" 0 (Some steps) ~doc:steps_doc
    $ flag Arg.int "objects" 0 objects ~doc:"Number of objects."
    $ flag Arg.float "delegation-rate" 0. (Some rate)
        ~doc:"Delegation weight in the mix."
    $ engine
    $ flag Arg.int "depth" 0 depth ~doc:depth_doc
    $ flag Arg.int "crash-step" 1 crash_step
        ~doc:"Escalate the crash I/O point by this much."
    $ flag Arg.int "clients" 4 clients ~doc:"Concurrent clients."
    $ flag Arg.int "group-commit" 0 (Some 0)
        ~doc:"Batch commit log forces in groups of this size (0 = force \
              each commit)."
    $ flag Arg.int "record-cache" 0 record_cache
        ~doc:"Decoded-record cache capacity (0 = disable)."
    $ flag Arg.bool "audit" true (Some true)
        ~doc:"Run the restart self-audit after every recovery (chain \
              closure, CLR targets, surgery bracketing); violations fail \
              the storm."
    $ flag Arg.bool "time-travel" false time_travel
        ~doc:"Run analytic time-travel readers: Temporal.snapshot_at at \
              sampled durable commit LSNs must equal the oracle's expected \
              state (or, once a governor truncates unbridged history, be \
              refused with the typed History_unavailable)."
    $ forensic_dir
    $ flag Arg.int "shards" 1 shards
        ~doc:"Run the storm on a sharded engine with this many shards: \
              cross-shard migrations under the same crash schedule, \
              per-shard restart, and the cross-shard transfer audit.")

let storm_config sel f =
  { Storm.default_config with
    recovery_crash_depth = f.depth;
    crash_step = max 1 f.crash_step;
    group_commit = f.group_commit;
    record_cache = f.record_cache;
    audit = f.audit;
    time_travel = f.time_travel;
    forensic_dir = f.forensic_dir;
    backend_root = sel.backend_root;
    shards = f.shards }

(* Print each labelled outcome as it completes, then the merged total;
   exit 1 if any storm failed. *)
let report_total obs pp runs =
  let total =
    List.fold_left
      (fun total (label, run) ->
        let o = run () in
        Format.printf "%s:@.  %a@." label pp o;
        Some (match total with None -> o | Some t -> Storm.merge t o))
      None runs
  in
  match total with
  | None -> finish obs
  | Some t ->
      Format.printf "@.total:@.  %a@." pp t;
      finish obs;
      if not (Storm.ok t) then exit 1

(* Print each labelled outcome as it completes; exit 1 if any failed. *)
let report_each obs pp ok runs =
  let failed =
    List.fold_left
      (fun failed (label, run) ->
        let o = run () in
        Format.printf "%s:@.  %a@.@." label pp o;
        failed || not (ok o))
      false runs
  in
  finish obs;
  if failed then exit 1

let seeds_of f = List.init f.seeds (fun i -> f.seed0 + i)
let record_cache = Config.default.Config.record_cache

let storm_cmd =
  let flags =
    storm_term ~seeds:4 ~steps:160
      ~steps_doc:"Scripted workload steps per storm." ~objects:32 ~rate:0.2
      ~depth:2 ~crash_step:1 ~clients:4 ~record_cache ~time_travel:true
      ~forensic_dir:"." ~shards:1 ~engines:[ Config.Rh ] ()
  in
  let sim_steps =
    Arg.(value & opt int 1200
         & info [ "sim-steps" ] ~doc:"Simulated storm scheduler steps.")
  in
  let external_ =
    Arg.(value & flag
         & info [ "external" ]
             ~doc:"Kill -9 storm: fork the workload as a child process, \
                   SIGKILL it at each scheduled I/O point, reopen the \
                   database files in the parent and verify recovery \
                   against the oracle. Requires $(b,--backend file).")
  in
  let max_kills =
    Arg.(value & opt int 0
         & info [ "max-kills" ]
             ~doc:"External storm: bound the scheduled kill points per \
                   seed (0 = sweep until the script survives a run).")
  in
  let run obs sel f sim_steps external_ max_kills =
    let spec =
      spec_of ~objects:f.objects ~steps:f.steps ~delegation_rate:f.rate
    in
    let impl = List.hd f.engines in
    let runs =
      if external_ then begin
        if f.shards > 1 then begin
          Format.eprintf "crash-storm --external does not take --shards yet@.";
          exit 2
        end;
        let root =
          match sel.backend_root with
          | Some r -> r
          | None ->
              Format.eprintf "crash-storm --external requires --backend file@.";
              exit 2
        in
        List.map
          (fun seed ->
            let config =
              { Supervisor.default_config with
                seed = Int64.of_int seed;
                kill_step = max 1 f.crash_step;
                max_kills = (if max_kills <= 0 then max_int else max_kills);
                group_commit = f.group_commit;
                record_cache = f.record_cache;
                audit = f.audit;
                root =
                  Filename.concat root (Printf.sprintf "external-seed%d" seed);
                forensic_dir = f.forensic_dir }
            in
            ( Printf.sprintf "external kill -9 storm (seed %d)" seed,
              fun () -> Supervisor.run ~config ~impl spec ))
          (seeds_of f)
      end
      else
        let base = storm_config sel f in
        List.map
          (fun seed ->
            ( Printf.sprintf "scripted storm (seed %d)" seed,
              fun () ->
                Crash_storm.run_script
                  ~config:{ base with seed = Int64.of_int seed } ~impl spec ))
          (seeds_of f)
        @
        if sim_steps <= 0 then []
        else
          [ ( "simulated storm",
              fun () ->
                Crash_storm.run_sim
                  ~config:{ base with seed = Int64.of_int f.seed0 }
                  ~sim:{ Crash_storm.default_sim with steps = sim_steps;
                         clients = f.clients }
                  () ) ]
    in
    report_total obs Crash_storm.pp_outcome runs
  in
  Cmd.v
    (Cmd.info "crash-storm"
       ~doc:"Crash at every I/O point, re-crash during recovery, tear pages \
             and log tails; verify every restart against the oracle")
    Term.(const run $ obs_term $ backend_term $ flags $ sim_steps $ external_
          $ max_kills)

let recovery_storm_cmd =
  let flags =
    storm_term ~seeds:3 ~steps:120
      ~steps_doc:"Scripted workload steps per storm." ~objects:24 ~rate:0.2
      ~depth:2
      ~depth_doc:"Nested crash levels injected during analysis, sweeper \
                  steps, and foreground repairs."
      ~crash_step:1 ~record_cache ~shards:1 ~engines:[ Config.Rh ] ()
  in
  let run obs sel f =
    let spec =
      spec_of ~objects:f.objects ~steps:f.steps ~delegation_rate:f.rate
    in
    let base = storm_config sel f in
    report_total obs Recovery_storm.pp_outcome
      (List.map
         (fun seed ->
           ( Printf.sprintf "recovery storm (seed %d)" seed,
             fun () ->
               Recovery_storm.run_script
                 ~config:{ base with seed = Int64.of_int seed }
                 ~impl:(List.hd f.engines) spec ))
         (seeds_of f))
  in
  Cmd.v
    (Cmd.info "recovery-storm"
       ~doc:"Crash at every I/O point, restart on-demand (analysis only, \
             open immediately), re-crash while the sweeper and foreground \
             repairs race, and verify the drained state against the oracle \
             and an offline twin")
    Term.(const run $ obs_term $ backend_term $ flags)

let pressure_storm_cmd =
  let flags =
    storm_term ~seeds:3 ~steps:800 ~steps_doc:"Scheduler steps." ~rate:0.25
      ~depth:1 ~clients:4 ~record_cache ~time_travel:true ~forensic_dir:"."
      ~engines:[ Config.Rh; Config.Lazy; Config.Eager ] ()
  in
  let capacity =
    Arg.(value & opt int 6144
         & info [ "capacity" ] ~doc:"Log byte budget (the tight part).")
  in
  let crash_every =
    Arg.(value & opt int 40
         & info [ "crash-every" ]
             ~doc:"I/Os between injected crashes (0 = none).")
  in
  let run obs sel f capacity crash_every =
    report_each obs Pressure_storm.pp_outcome Pressure_storm.ok
      (List.concat_map
         (fun impl ->
           List.map
             (fun seed ->
               ( Printf.sprintf "%s pressure storm (seed %d)"
                   (Forensics.engine_name impl) seed,
                 fun () ->
                   Pressure_storm.run
                     ~config:
                       { Pressure_storm.default_config with
                         seed = Int64.of_int seed;
                         impl;
                         steps = f.steps;
                         clients = f.clients;
                         capacity_bytes = capacity;
                         crash_every;
                         recovery_crash_depth = f.depth;
                         p_delegate = f.rate;
                         group_commit = f.group_commit;
                         record_cache = f.record_cache;
                         audit = f.audit;
                         time_travel = f.time_travel;
                         forensic_dir = f.forensic_dir;
                         backend_root = sel.backend_root }
                     () ))
             (seeds_of f))
         f.engines)
  in
  Cmd.v
    (Cmd.info "pressure-storm"
       ~doc:"Crash storms on a bounded, shrinking log: the governor \
             checkpoints, truncates and applies backpressure while clients \
             retry with backoff; the oracle is checked after every restart")
    Term.(const run $ obs_term $ backend_term $ flags $ capacity $ crash_every)

(* --- media ops: backup / restore / scrub / media-storm --- *)

module Archive = Ariesrh_storage.Archive

let impl_of_tag = function
  | 0 -> Config.Rh
  | 1 -> Config.Eager
  | 2 -> Config.Lazy
  | t -> failwith (Printf.sprintf "archive manifest: unknown engine tag %d" t)

let db_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "db" ] ~docv:"DIR"
        ~doc:
          "Directory of an existing file-backed database (as left by any \
           command run with $(b,--backend file)). Opened in place — the \
           geometry flags must match the run that created it.")

let archive_dir_arg ~doc =
  Arg.(
    required
    & opt (some string) None
    & info [ "archive" ] ~docv:"DIR" ~doc)

let media_geometry =
  let objects =
    Arg.(value & opt int 128
         & info [ "objects" ] ~doc:"Number of objects (must match the db).")
  in
  let opp =
    Arg.(value & opt int Config.default.Config.objects_per_page
         & info [ "objects-per-page" ]
             ~doc:"Objects per page (must match the db).")
  in
  let impl =
    Arg.(value & opt impl_conv Config.Rh
         & info [ "engine" ] ~doc:"Engine: rh, eager, or lazy.")
  in
  (objects, opp, impl)

(* Open an existing database directory in place — never through the
   backend factory, whose job is handing out {e fresh} scratch dirs. *)
let reopen_db ~dir ~objects ~objects_per_page ~impl =
  Db.set_backend_factory None;
  if not (Sys.file_exists dir) then
    failwith (Printf.sprintf "no database directory at %s" dir);
  Db.create
    ~backend:(Backend.File { dir })
    (Config.make ~n_objects:objects ~objects_per_page ~impl ())

let backup_cmd =
  let objects, opp, impl = media_geometry in
  let archive =
    archive_dir_arg
      ~doc:
        "Archive directory to create or extend: checksummed page-image \
         snapshot, manifest with the backup LSN, and the continuous WAL \
         copy."
  in
  let run obs db_dir archive_dir objects opp impl =
    (try
       let db = reopen_db ~dir:db_dir ~objects ~objects_per_page:opp ~impl in
       ignore (Db.recover db);
       ignore (Db.attach_archive ~dir:archive_dir db);
       let upto = Db.backup_to_archive db in
       Format.printf
         "{\"archive\": \"%s\", \"complete_upto\": %d, \"pages\": %d, \
          \"archived_records\": %d}@."
         archive_dir
         (Ariesrh_types.Lsn.to_int upto)
         (Config.pages_needed (Db.config db))
         (Db.archived_upto db);
       Db.close db
     with e ->
       Format.eprintf "backup failed: %a@." Errors.pp_exn e;
       finish obs;
       exit 1);
    finish obs
  in
  Cmd.v
    (Cmd.info "backup"
       ~doc:
         "Take a durable archive backup of a file-backed database: full \
          page-image snapshot plus a caught-up continuous WAL copy, each \
          independently checksummed. The archive alone supports a cold \
          $(b,ariesrh restore) after total media loss.")
    Term.(const run $ obs_term $ db_dir_arg $ archive $ objects $ opp $ impl)

let restore_cmd =
  let archive =
    archive_dir_arg
      ~doc:"Archive directory to restore from (cold open: geometry and \
            engine come from its manifest)."
  in
  let db_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"DIR"
          ~doc:
            "Restore into a file-backed database at $(docv) (fresh; \
             refused if it already exists). Default: restore in memory \
             and verify only.")
  in
  let run obs archive_dir db_dir =
    (try
       let a = Archive.open_dir archive_dir in
       let g = Archive.geometry a in
       let backend =
         match db_dir with
         | None -> Backend.Sim
         | Some d ->
             if Sys.file_exists d then
               failwith (Printf.sprintf "refusing to restore over %s" d);
             Backend.File { dir = d }
       in
       Db.set_backend_factory None;
       let db =
         Db.create ~backend
           (Config.make ~n_objects:g.Archive.n_objects
              ~objects_per_page:g.Archive.objects_per_page
              ~impl:(impl_of_tag g.Archive.impl_tag) ())
       in
       let report = Db.restore_from_archive db a in
       let violations = Db.audit db in
       let valid =
         match Db.validate db with Ok () -> true | Error _ -> false
       in
       Format.printf
         "{\"archive\": \"%s\", \"engine\": \"%s\", \"objects\": %d, \
          \"redo_applied\": %d, \"valid\": %b, \"audit_violations\": %d%s}@."
         archive_dir
         (Forensics.engine_name (impl_of_tag g.Archive.impl_tag))
         g.Archive.n_objects report.Ariesrh_recovery.Report.redo_applied valid
         (List.length violations)
         (match db_dir with
         | None -> ""
         | Some d -> Printf.sprintf ", \"db\": \"%s\"" d);
       List.iter (fun v -> Format.eprintf "audit: %s@." v) violations;
       Db.close db;
       if (not valid) || violations <> [] then begin
         finish obs;
         exit 1
       end
     with e ->
       Format.eprintf "restore failed: %a@." Errors.pp_exn e;
       finish obs;
       exit 1);
    finish obs
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Cold-restore a database from a durable archive after total media \
          loss: install the snapshot pages and archived WAL, replay history \
          since the backup LSN, run restart recovery, and verify \
          (invariants + restart self-audit). Exits nonzero unless the \
          restored state is fully consistent.")
    Term.(const run $ obs_term $ archive $ db_dir)

let scrub_cmd =
  let objects, opp, impl = media_geometry in
  let archive =
    Arg.(
      value
      & opt (some string) None
      & info [ "archive" ] ~docv:"DIR"
          ~doc:
            "Attach this archive as a heal source (WAL records, page \
             images) and include its own files in the sweep.")
  in
  let run obs db_dir archive_dir objects opp impl =
    (try
       let db = reopen_db ~dir:db_dir ~objects ~objects_per_page:opp ~impl in
       (match archive_dir with
       | Some d -> ignore (Db.attach_archive ~dir:d db)
       | None -> ());
       (* heal-then-recover: sweep the reopened (crashed) media first so
          the restart scan never trips over rot, then let the offline
          torn-page repair and recovery settle the rest *)
       let pre = Db.scrub db in
       let torn = Ariesrh_recovery.Repair.torn_pages (Db.env db) in
       ignore (Db.recover db);
       let post = Db.scrub db in
       let quarantined = Db.quarantined db in
       Format.printf
         "{\"checked\": %d, \"corrupt\": %d, \"healed\": %d, \
          \"torn_pages_repaired\": %d, \"unhealable\": %d, \
          \"quarantined\": [%s]}@."
         (pre.Db.checked + post.Db.checked)
         (pre.Db.corrupt + post.Db.corrupt)
         (pre.Db.healed + post.Db.healed)
         torn
         (List.length quarantined)
         (String.concat ", "
            (List.map
               (fun (t, i) -> Printf.sprintf "{\"media\": \"%s\", \"id\": %d}" t i)
               quarantined));
       Db.close db;
       if quarantined <> [] then begin
         finish obs;
         exit 1
       end
     with e ->
       Format.eprintf "scrub failed: %a@." Errors.pp_exn e;
       finish obs;
       exit 1);
    finish obs
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Offline integrity sweep of a file-backed database: verify every \
          page (main and doublewrite shadow), every durable WAL record, and \
          the attached archive's files; heal what has an intact redundant \
          source. JSON summary on stdout; exits nonzero if anything stays \
          quarantined.")
    Term.(const run $ obs_term $ db_dir_arg $ archive $ objects $ opp $ impl)

let media_storm_cmd =
  let flags =
    storm_term ~seeds:3
      ~steps:Media_storm.default_config.Media_storm.steps_per_round
      ~steps_doc:"Workload steps per round."
      ~objects:Media_storm.default_config.Media_storm.n_objects ~rate:0.2
      ~clients:4 ~forensic_dir:"."
      ~engines:[ Config.Rh; Config.Eager; Config.Lazy ] ()
  in
  let rounds =
    Arg.(value & opt int Media_storm.default_config.Media_storm.rounds
         & info [ "rounds" ] ~doc:"Corruption/crash rounds per storm.")
  in
  let crash_every =
    Arg.(value & opt int 3
         & info [ "crash-every-rounds" ]
             ~doc:"Arm a crash every n-th round (0 = never).")
  in
  let scrub_batch =
    Arg.(value & opt int 8
         & info [ "scrub-batch" ]
             ~doc:"Incremental scrubber batch riding the workload.")
  in
  let archive_dir =
    Arg.(value & opt (some string) None
         & info [ "archive-dir" ] ~docv:"DIR"
             ~doc:
               "Mirror each storm's archive to disk under $(docv) and \
                cold-open it for the final restore. Default: in-memory \
                archive.")
  in
  let run obs sel f rounds crash_every scrub_batch archive_dir =
    let config =
      { Media_storm.default_config with
        Media_storm.seed = Int64.of_int f.seed0;
        rounds;
        steps_per_round = f.steps;
        clients = f.clients;
        n_objects = f.objects;
        p_delegate = f.rate;
        crash_every_rounds = crash_every;
        scrub_batch;
        group_commit = f.group_commit;
        audit = f.audit;
        backend_root = sel.backend_root;
        archive_root = archive_dir;
        forensic_dir = f.forensic_dir }
    in
    report_each obs Media_storm.pp_outcome Media_storm.ok
      (List.map
         (fun impl ->
           ( Printf.sprintf "%s media storm (%d seeds)"
               (Forensics.engine_name impl) f.seeds,
             fun () -> Media_storm.run_seeds ~config ~impl ~seeds:f.seeds () ))
         f.engines)
  in
  Cmd.v
    (Cmd.info "media-storm"
       ~doc:
         "Silent-corruption storms: seeded bit-rot, lost and misdirected \
          writes, and archive rot interleaved with crashes while the \
          scrubber heals from shadows, the archive and the live log; every \
          round is checked against the oracle and the final phase proves a \
          cold restore after total media loss.")
    Term.(const run $ obs_term $ backend_term $ flags $ rounds $ crash_every
          $ scrub_batch $ archive_dir)

(* --- metrics --- *)

let metrics_cmd =
  let steps =
    Arg.(value & opt int 400 & info [ "steps" ] ~doc:"Workload steps.")
  in
  let objects =
    Arg.(value & opt int 64 & info [ "objects" ] ~doc:"Number of objects.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let rate =
    Arg.(value & opt float 0.2
         & info [ "delegation-rate" ] ~doc:"Delegation weight in the mix.")
  in
  let impl =
    Arg.(value & opt impl_conv Config.Rh
         & info [ "engine" ] ~doc:"Engine: rh, eager, or lazy.")
  in
  let format =
    Arg.(value
         & opt (enum [ ("openmetrics", `Openmetrics); ("json", `Json) ])
             `Openmetrics
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Exposition format: openmetrics (Prometheus text) or json.")
  in
  let run obs (_ : backend_sel) impl steps objects seed rate format =
    let spec = spec_of ~objects ~steps ~delegation_rate:rate in
    let script = Gen.generate spec ~seed:(Int64.of_int seed) in
    let db = Driver.fresh_db ~impl ~n_objects:objects () in
    Driver.run db script;
    Db.checkpoint db;
    Db.crash db;
    ignore (Db.recover db);
    let samples = Obs.Metrics.snapshot (Db.metrics db) in
    (match format with
    | `Openmetrics -> print_string (Obs.Metrics.to_openmetrics samples)
    | `Json -> print_endline (Obs.Json.to_string (Obs.Metrics.to_json samples)));
    finish obs
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a canned workload (with a checkpoint and a crash-restart) \
             and export every registered metric")
    Term.(
      const run $ obs_term $ backend_term $ impl $ steps $ objects $ seed
      $ rate $ format)

let main =
  Cmd.group
    (Cmd.info "ariesrh" ~version:"1.0.0"
       ~doc:"Delegation by efficiently rewriting history (ARIES/RH)")
    [ figures_cmd; run_cmd; compare_cmd; sim_cmd; history_cmd; asof_cmd;
      explain_cmd; lineage_cmd; storm_cmd; recovery_storm_cmd;
      pressure_storm_cmd; backup_cmd;
      restore_cmd; scrub_cmd; media_storm_cmd; metrics_cmd ]

let () = exit (Cmd.eval main)
