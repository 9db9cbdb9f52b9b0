open Ariesrh_types
open Ariesrh_wal
open Ariesrh_storage
open Ariesrh_lock
open Ariesrh_txn
open Ariesrh_recovery
module Fault = Ariesrh_fault.Fault
module Obs = Ariesrh_obs

(* Per-transaction rollback reservation: space set aside in the log so
   that abort (or restart undo of the same work) can always write its
   CLRs and resolution records even when the log is otherwise full.
   [base_bytes] covers the Abort/Commit + End pair; [entries] holds one
   (oid, update lsn, clr bytes) obligation per update the transaction is
   currently responsible for — delegation moves entries between ledgers
   exactly as it moves responsibility. *)
type txn_reserve = {
  mutable base_bytes : int;
  mutable entries : (int * int * int) list;
}

(* Engine-level tallies, registered with the metrics registry like every
   other component's stat record: plain field increments on the hot
   path, read through a closure at snapshot time. *)
type db_stats = {
  mutable begins : int;
  mutable commits : int;
  mutable aborts : int;
  mutable delegations : int;
  mutable delegate_ops : int;
  mutable checkpoints : int;
  mutable recoveries : int;
  mutable group_joins : int;  (* commits that joined a pending group *)
  mutable group_flushes : int;  (* shared forces closing a full group *)
}

(* On-demand restart state: present between an [On_demand]-mode
   [recover] and backlog convergence. A separate mutable record (like
   [media_stats]) so the lazy metrics closures can read it without a
   cycle through [t]. [served_degraded] is a lifetime tally — it
   outlives the drain it counted. *)
type od_state = {
  mutable live : On_demand.t option;
  mutable served_degraded : int;
}

(* Media-integrity tallies: what the scrubber checked, what it found,
   what it could and could not put back. *)
type media_stats = {
  mutable scrub_passes : int;
  mutable scrub_checked : int;
  mutable scrub_corrupt : int;
  mutable media_heals : int;
  mutable scrub_unhealable : int;
  mutable archived_records : int;  (* WAL records copied into the archive *)
}

type t = {
  config : Config.t;
  shard : int;
      (* which shard of a [Sharded] engine this database is ([0] for a
         standalone db); stamps the metrics label and forensic dumps *)
  fault : Fault.t;
  backend : Backend.t;
  disk : Disk.t;
  log : Log_store.t;
  mutable pool : Buffer_pool.t;
  mutable locks : Lock_table.t;
  mutable tt : Txn_table.t;
  mutable next_xid : int;
      (* xid allocation survives crashes, as if drawn from a persistent
         counter block; keeps invoker identities in delegated scopes
         unambiguous across restarts *)
  mutable permits : (Xid.t * Xid.t) list;
  reserves : (int, txn_reserve) Hashtbl.t;  (* keyed by xid *)
  mutable refuse_begins : bool;  (* governor backpressure flags *)
  mutable refuse_delegations : bool;
  (* Group commit: committed-but-not-yet-forced transactions waiting on
     the shared flush, as (xid, commit-record LSN). Volatile — a crash
     drops the group, and those transactions roll back at restart. *)
  mutable gc_waiters : (Xid.t * Lsn.t) list;
  mutable on_commit_durable : (Xid.t -> unit) option;
  (* Eager engine only: at least one delegation fell back to a logical
     delegate record (surgery could not complete), so the log is no
     longer purely physical. Rollback switches to scope-based undo and
     the next restart heals the log via the lazy recovery path. *)
  mutable degraded : bool;
  (* Media resilience: the durable archive (page snapshot + continuous
     WAL copy) this database feeds, if any. Survives [crash] — the
     archive models separate media. [backup_pin] keeps truncation from
     reclaiming log an in-memory [backup] still needs for media replay;
     [quarantined] lists corruption the scrubber found but could not
     heal from any source. *)
  mutable archive : Archive.t option;
  mutable backup_pin : Lsn.t;
  mutable external_pin : Lsn.t;
      (* extra truncation pin owned by an outer layer: a [Sharded]
         router pins each shard's log at the oldest in-flight transfer
         so restart resolution can always find its intent records *)
  mutable quarantined : (string * int) list;
  od : od_state;
  media : media_stats;
  env : Env.t;
  ring : Obs.Ring.t;
  metrics : Obs.Metrics.t Lazy.t;
      (* the registry (and its ~30 read closures) is built on first
         access, so creating a database costs no registration work *)
  stats : db_stats;
}

(* Trace emission is guarded at every call site so a disabled ring (the
   default) costs one load and branch, with no event allocation. *)
let tracing t = Obs.Ring.enabled t.ring

let obs_op : Record.op -> Obs.Event.op = function
  | Record.Add d -> Obs.Event.Add d
  | Record.Set { before; after } -> Obs.Event.Set { before; after }

(* Session hook: lets a CLI collect every database a command creates so
   [--metrics-json] can aggregate their registries at exit. *)
let on_create : (t -> unit) option ref = ref None
let set_create_hook f = on_create := f

(* Session hook: default backend for databases created without an
   explicit [~backend]. A factory rather than a value because every
   file-backed database needs its own directory — a CLI [--backend file]
   installs one that hands out fresh subdirectories. *)
let backend_factory : (unit -> Backend.t) option ref = ref None
let set_backend_factory f = backend_factory := f

let place_of config oid =
  let i = Oid.to_int oid in
  (Page_id.of_int (i / config.Config.objects_per_page),
   i mod config.Config.objects_per_page)

let create ?(fault = Fault.none ()) ?backend ?(tracing = false)
    ?(trace_capacity = Obs.Ring.default_capacity) ?(shard = 0) config =
  Config.validate config;
  let backend =
    match backend with
    | Some b -> b
    | None -> (
        match !backend_factory with Some f -> f () | None -> Backend.Sim)
  in
  let disk =
    Disk.create ~fault ~backend
      ~pages:(Config.pages_needed config)
      ~slots_per_page:config.objects_per_page ()
  in
  let log =
    Log_store.create ~page_size:config.log_page_size
      ?capacity_bytes:config.log_capacity_bytes
      ?capacity_records:config.log_capacity_records
      ~record_cache:config.record_cache ~fault ~backend ()
  in
  (* Reopen path (file backend): the WAL a previous process left behind
     was loaded as the durable prefix. Xid allocation must resume above
     every xid that log mentions, as if drawn from a persistent counter
     block. The scan stops at the first undecodable record — that is the
     corrupt tail restart will amputate anyway. *)
  let initial_next_xid = ref 1 in
  if Log_store.length log > 0 then
    ignore
      (Log_store.iter_valid_forward log
         ~from:(Log_store.truncated_below log)
         (fun _ r ->
           match Record.writer_exn r with
           | x -> initial_next_xid := max !initial_next_xid (Xid.to_int x + 1)
           | exception _ -> ()));
  let pool =
    Buffer_pool.create ~fault ~capacity:config.buffer_capacity ~disk
      ~wal_flush:(fun lsn -> Log_store.flush log ~upto:lsn)
      ()
  in
  let ring = Obs.Ring.create ~capacity:trace_capacity ~enabled:tracing () in
  (* stamp every trace event with the fault injector's logical I/O
     clock, so trace positions line up with armed crash points *)
  Obs.Ring.set_clock ring (fun () -> (Fault.stats fault).Fault.ios);
  Fault.set_tracer fault
    (Some
       (fun kind site ->
         Obs.Ring.emit ring (Obs.Event.Fault { kind; site })));
  let env = Env.make ~ring ~log ~pool ~place:(place_of config) () in
  let od = { live = None; served_degraded = 0 } in
  let media =
    {
      scrub_passes = 0;
      scrub_checked = 0;
      scrub_corrupt = 0;
      media_heals = 0;
      scrub_unhealable = 0;
      archived_records = 0;
    }
  in
  (* A torn page found by any fetch is repaired in place: restore the
     before-image and replay the log for that page. *)
  Buffer_pool.set_repair pool (fun pid shadow -> Repair.page env pid shadow);
  let stats =
    {
      begins = 0;
      commits = 0;
      aborts = 0;
      delegations = 0;
      delegate_ops = 0;
      checkpoints = 0;
      recoveries = 0;
      group_joins = 0;
      group_flushes = 0;
    }
  in
  let metrics =
    lazy
      (* every export says which storage backend and shard produced it:
         ariesrh_*{backend="sim|file",shard="<i>"} *)
      (let metrics =
         Obs.Metrics.create
           ~labels:[ Backend.label backend; ("shard", string_of_int shard) ]
           ()
       in
       Log_store.register_metrics log metrics;
       Disk.register_metrics disk metrics;
       Buffer_pool.register_metrics pool metrics;
       Fault.register_metrics fault metrics;
       let module M = Obs.Metrics in
       M.counter metrics ~help:"transactions begun"
         "ariesrh_txn_begins_total" (fun () -> stats.begins);
       M.counter metrics ~help:"transactions committed"
         "ariesrh_txn_commits_total" (fun () -> stats.commits);
       M.counter metrics ~help:"transactions aborted"
         "ariesrh_txn_aborts_total" (fun () -> stats.aborts);
       M.counter metrics ~help:"whole-object delegations"
         "ariesrh_delegations_total" (fun () -> stats.delegations);
       M.counter metrics ~help:"operation-granularity delegations"
         "ariesrh_delegate_ops_total" (fun () -> stats.delegate_ops);
       M.counter metrics ~help:"fuzzy checkpoints taken"
         "ariesrh_checkpoints_total" (fun () -> stats.checkpoints);
       M.counter metrics ~help:"restart recoveries run"
         "ariesrh_recoveries_total" (fun () -> stats.recoveries);
       M.counter metrics ~help:"commits that joined a group-commit batch"
         "ariesrh_group_commit_joins_total" (fun () -> stats.group_joins);
       M.counter metrics ~help:"shared log forces closing a commit group"
         "ariesrh_group_commit_flushes_total" (fun () -> stats.group_flushes);
       M.counter metrics ~help:"torn pages repaired" "ariesrh_repairs_total"
         (fun () -> env.Env.repairs);
       M.counter metrics
         ~help:"eager delegations that fell back to a logical record"
         "ariesrh_rewrite_fallbacks_total" (fun () ->
           env.Env.rewrite_fallbacks);
       M.counter metrics
         ~help:"interrupted rewrite surgeries rolled back at restart"
         "ariesrh_surgery_rollbacks_total" (fun () ->
           env.Env.surgery_rolled_back);
       M.counter metrics
         ~help:"ended rewrite surgeries re-installed at restart"
         "ariesrh_surgery_rollforwards_total" (fun () ->
           env.Env.surgery_rolled_forward);
       M.counter metrics ~help:"restart self-audit passes run"
         "ariesrh_audit_runs_total" (fun () -> env.Env.audit_runs);
       M.counter metrics ~help:"restart self-audit passes that failed"
         "ariesrh_audit_failures_total" (fun () -> env.Env.audit_failures);
       M.counter metrics ~help:"scrub sweeps completed"
         "ariesrh_scrub_passes_total" (fun () -> media.scrub_passes);
       M.counter metrics ~help:"objects checked by the scrubber"
         "ariesrh_scrub_checked_total" (fun () -> media.scrub_checked);
       M.counter metrics ~help:"corrupt objects found by the scrubber"
         "ariesrh_scrub_corrupt_total" (fun () -> media.scrub_corrupt);
       M.counter metrics ~help:"corrupt objects healed from a redundant copy"
         "ariesrh_media_heals_total" (fun () -> media.media_heals);
       M.counter metrics ~help:"corrupt objects with no intact source"
         "ariesrh_scrub_unhealable_total" (fun () -> media.scrub_unhealable);
       M.counter metrics ~help:"WAL records copied into the media archive"
         "ariesrh_wal_archived_total" (fun () -> media.archived_records);
       M.gauge metrics
         ~help:"remaining on-demand restart work (pending pages + losers)"
         "ariesrh_recovery_backlog" (fun () ->
           match od.live with None -> 0 | Some o -> On_demand.backlog o);
       M.counter metrics
         ~help:"accesses served while an on-demand restart was draining"
         "ariesrh_recovery_served_degraded_total" (fun () ->
           od.served_degraded);
       M.counter metrics ~help:"trace events emitted"
         "ariesrh_trace_events_total" (fun () -> Obs.Ring.total ring);
       M.counter metrics ~help:"trace events lost to ring wraparound"
         "ariesrh_trace_dropped_total" (fun () -> Obs.Ring.dropped ring);
       metrics)
  in
  let t =
    {
      config;
      shard;
      fault;
      backend;
      disk;
      log;
      pool;
      locks = Lock_table.create ();
      tt = Txn_table.create ();
      next_xid = !initial_next_xid;
      permits = [];
      reserves = Hashtbl.create 16;
      refuse_begins = false;
      refuse_delegations = false;
      gc_waiters = [];
      on_commit_durable = None;
      degraded = false;
      archive = None;
      backup_pin = Lsn.nil;
      external_pin = Lsn.nil;
      quarantined = [];
      od;
      media;
      env;
      ring;
      metrics;
      stats;
    }
  in
  (* Silent-corruption injection: when the schedule says rot, pick a
     victim — a slot of a stored page image, or a durable WAL record —
     from the injector's own deterministic stream. With an archive
     attached, WAL rot prefers records the archive has already copied:
     rot takes time, so it hits cold data, and the model guarantees a
     heal source exists. The hook runs with the injector disabled, and
     the corruption primitives never tick the I/O clock, so arming
     bitrot shifts no crash schedule. *)
  Fault.set_bitrot_hook fault
    (Some
       (fun () ->
         let npages = Disk.page_count t.disk in
         let low = Lsn.to_int (Log_store.truncated_below t.log) - 1 in
         let hi =
           let durable = Lsn.to_int (Log_store.durable t.log) in
           match t.archive with
           | Some a -> min durable (Archive.archived_upto a)
           | None -> durable
         in
         let nwal = max 0 (hi - low) in
         let k = Fault.rng_int fault (npages + nwal) in
         if k < npages then
           Disk.bitrot_main t.disk (Page_id.of_int k)
             ~slot:(Fault.rng_int fault config.Config.objects_per_page)
         else Log_store.bitrot_record t.log ~idx:(low + (k - npages))));
  (* History surgery rewrites records in place; an already-archived copy
     must follow, or a cold restore resurrects bytes the live log has
     disowned — e.g. a mid-surgery attribution whose surgery later
     rolled back. *)
  Log_store.set_rewrite_hook t.log
    (Some
       (fun ~idx s ->
         match t.archive with
         | Some a when idx >= Archive.wal_base a && idx < Archive.archived_upto a
           ->
             Archive.heal_wal a ~idx s
         | _ -> ()));
  (match !on_create with None -> () | Some f -> f t);
  t

let config t = t.config
let shard t = t.shard
let fault t = t.fault
let backend t = t.backend
let ring t = t.ring
let metrics t = Lazy.force t.metrics
let set_tracing t b = Obs.Ring.set_enabled t.ring b
let log_store t = t.log
let disk_stats t = Disk.stats t.disk

let pool_counters t =
  (Buffer_pool.hits t.pool, Buffer_pool.misses t.pool,
   Buffer_pool.evictions t.pool)
let env t = t.env
let repairs_total t = t.env.Env.repairs
let recovering t = t.od.live <> None

let recovery_backlog t =
  match t.od.live with None -> 0 | Some o -> On_demand.backlog o

let recovery_served_degraded t = t.od.served_degraded

(* degraded covers both flavours of "up but not fully itself": the eager
   engine's logical-fallback mode, and an on-demand restart still
   draining its backlog *)
let degraded t = t.degraded || recovering t
let rewrite_fallbacks t = t.env.Env.rewrite_fallbacks
let place t oid = place_of t.config oid

let check_oid t oid =
  if Oid.to_int oid >= t.config.Config.n_objects then
    invalid_arg
      (Format.asprintf "Db: %a out of range (%d objects)" Oid.pp oid
         t.config.Config.n_objects)

let info_exn t xid =
  match Txn_table.find t.tt xid with
  | Some info -> info
  | None -> raise (Errors.No_such_txn xid)

let active_exn t xid =
  let info = info_exn t xid in
  if info.Txn_table.status <> Txn_table.Active then
    raise (Errors.Txn_not_active xid);
  info

(* Reserved chain append: for records whose space was secured up front
   (rollback CLRs, Abort/Commit/End, eager anchors). Never raises
   [Log_full]. Admission-checked appends (Begin, Update, Delegate) each
   go through [Log_store] directly because they bundle a reservation or
   need record-specific admission handling. *)
let append_on_chain_reserved t (info : Txn_table.info) body =
  let lsn =
    Log_store.append_reserved t.log (Record.mk info.xid ~prev:info.last_lsn body)
  in
  info.last_lsn <- lsn;
  lsn

(* --- rollback-space ledger --- *)

(* The codec is fixed-size per body shape, so the cost of any future
   record can be computed exactly from a throwaway instance. *)
let probe_xid = Xid.of_int 1
let record_cost body = Record.encoded_size (Record.mk probe_xid ~prev:Lsn.nil body)
(* plain values, computed once at module initialisation: a [lazy]
   forced by two domains beginning their first transactions at once
   raises [CamlinternalLazy.Undefined] *)
let base_cost = record_cost Record.Abort + record_cost Record.End
let anchor_cost = record_cost Record.Anchor

let clr_cost (u : Record.update) =
  record_cost
    (Record.Clr
       { upd = u; undone = Lsn.nil; invoker = probe_xid; undo_next = Lsn.nil })

let ledger_of t xid =
  let k = Xid.to_int xid in
  match Hashtbl.find_opt t.reserves k with
  | Some r -> r
  | None ->
      let r = { base_bytes = 0; entries = [] } in
      Hashtbl.replace t.reserves k r;
      r

(* A CLR was written for [undone]: that obligation is discharged. *)
let release_clr t xid ~undone =
  let r = ledger_of t xid in
  match
    List.partition (fun (_, l, _) -> l = Lsn.to_int undone) r.entries
  with
  | (_, _, c) :: _, rest ->
      r.entries <- rest;
      Log_store.unreserve t.log ~bytes:c ~records:1
  | [], _ -> ()

(* Resolution (commit, or abort after all CLRs): the transaction will
   never need its remaining reserved space again. *)
let release_ledger t xid =
  let k = Xid.to_int xid in
  match Hashtbl.find_opt t.reserves k with
  | None -> ()
  | Some r ->
      let bytes =
        r.base_bytes + List.fold_left (fun a (_, _, c) -> a + c) 0 r.entries
      in
      let records =
        (if r.base_bytes > 0 then 2 else 0) + List.length r.entries
      in
      Hashtbl.remove t.reserves k;
      Log_store.unreserve t.log ~bytes ~records

(* Delegation moves rollback obligations with responsibility. *)
let move_reserved_object t ~from_ ~to_ oid =
  let src = ledger_of t from_ in
  let dst = ledger_of t to_ in
  let k = Oid.to_int oid in
  let mine, rest = List.partition (fun (o, _, _) -> o = k) src.entries in
  src.entries <- rest;
  dst.entries <- mine @ dst.entries

let move_reserved_update t ~from_ ~to_ op_lsn =
  let src = ledger_of t from_ in
  let dst = ledger_of t to_ in
  match
    List.partition (fun (_, l, _) -> l = Lsn.to_int op_lsn) src.entries
  with
  | e :: _, rest ->
      src.entries <- rest;
      dst.entries <- e :: dst.entries
  | [], _ -> ()

(* --- locking --- *)

let lock t xid oid mode =
  if t.config.Config.locking then
    let permit holder = List.mem (holder, xid) t.permits in
    match Lock_table.acquire ~permit t.locks xid oid mode with
    | Lock_table.Granted -> ()
    | Lock_table.Conflict holders ->
        raise (Errors.Conflict { requester = xid; holders })

let drop_permits t xid =
  t.permits <-
    List.filter
      (fun (a, b) -> not (Xid.equal a xid || Xid.equal b xid))
      t.permits

let permit t ~holder ~grantee =
  ignore (info_exn t holder);
  ignore (info_exn t grantee);
  if not (List.mem (holder, grantee) t.permits) then
    t.permits <- (holder, grantee) :: t.permits

(* --- transactions --- *)

let begin_txn t =
  if t.refuse_begins then
    raise (Errors.Overloaded { xid = None; reason = Errors.Begin_refused });
  (* typed media backpressure: with continuous archiving on, refuse new
     work once the live log runs too far ahead of the archive — a crash
     of the archive medium in that window would strand more history than
     the operator allowed *)
  (match t.archive with
  | Some a when t.config.Config.max_archive_lag > 0 ->
      let durable = Log_store.durable t.log in
      let archived = Archive.archived_upto a in
      if Lsn.to_int durable - archived > t.config.Config.max_archive_lag then
        raise
          (Errors.Archive_lagging { durable; archived = Lsn.of_int archived })
  | _ -> ());
  let xid = Xid.of_int t.next_xid in
  (* admit the Begin record and its resolution reservation atomically:
     once a transaction exists, its Abort/End (or Commit/End) pair is
     guaranteed log space *)
  let lsn =
    Log_store.append_with_reserve t.log ~reserve_bytes:base_cost
      ~reserve_records:2
      (Record.mk xid ~prev:Lsn.nil Record.Begin)
  in
  t.next_xid <- t.next_xid + 1;
  let info = Txn_table.add t.tt xid in
  info.last_lsn <- lsn;
  info.begin_lsn <- lsn;
  (ledger_of t xid).base_bytes <- base_cost;
  t.stats.begins <- t.stats.begins + 1;
  if tracing t then Obs.Ring.emit t.ring (Obs.Event.Begin { xid; lsn });
  xid

let is_active t xid =
  match Txn_table.find t.tt xid with
  | Some info -> info.status = Txn_table.Active
  | None -> false

let finish t (info : Txn_table.info) =
  Lock_table.release_all t.locks info.xid;
  drop_permits t info.xid;
  Txn_table.remove t.tt info.xid

(* --- group commit --- *)

let set_commit_durable_hook t f = t.on_commit_durable <- f

let notify_durable t xid =
  match t.on_commit_durable with None -> () | Some f -> f xid

(* Fire the durability hook for waiters whose commit record is already
   covered by the durable horizon — a WAL-rule eviction flush, a
   checkpoint, or an eager delegation force may harden a group as a side
   effect, and those commits must not wait for the batch to fill. *)
let settle_group t =
  match t.gc_waiters with
  | [] -> ()
  | ws ->
      let d = Log_store.durable t.log in
      let hard, still = List.partition (fun (_, l) -> Lsn.(l <= d)) ws in
      t.gc_waiters <- still;
      List.iter (fun (x, _) -> notify_durable t x) (List.rev hard)

let flush_commits t =
  settle_group t;
  match t.gc_waiters with
  | [] -> ()
  | ws ->
      let hi = List.fold_left (fun a (_, l) -> Lsn.max a l) Lsn.nil ws in
      Log_store.flush t.log ~upto:hi;
      t.stats.group_flushes <- t.stats.group_flushes + 1;
      settle_group t

let commit t xid =
  let info = active_exn t xid in
  (* commit must never be refused for log space: it only shrinks the
     obligation set, so it draws on the reservation taken at begin *)
  release_ledger t xid;
  let commit_lsn = append_on_chain_reserved t info Record.Commit in
  info.status <- Txn_table.Committed;
  (if t.config.Config.group_commit <= 1 then begin
     Log_store.flush t.log ~upto:commit_lsn;
     notify_durable t xid
   end
   else begin
     (* join the pending group; the shared force happens when the batch
        fills (or at an explicit [flush_commits] barrier). The End
        record, lock release, and table removal below do not wait: the
        commit record alone decides the outcome at restart. *)
     settle_group t;
     t.gc_waiters <- (xid, commit_lsn) :: t.gc_waiters;
     t.stats.group_joins <- t.stats.group_joins + 1;
     if List.length t.gc_waiters >= t.config.Config.group_commit then
       flush_commits t
   end);
  ignore (append_on_chain_reserved t info Record.End);
  t.stats.commits <- t.stats.commits + 1;
  if tracing t then
    Obs.Ring.emit t.ring (Obs.Event.Commit { xid; lsn = commit_lsn });
  finish t info

(* rollback over the transaction's scopes (§3.5 abort), shared by [Rh]
   and [Lazy]; [Eager] has no scopes and follows its chain instead.
   [floor] restricts the undo to records above a savepoint. *)
let rollback_scopes ?floor t (info : Txn_table.info) =
  let scopes =
    List.map (fun s -> (info.xid, s)) (Ob_list.all_scopes info.ob_list)
  in
  let on_undo ~owner:_ ~invoker ~undone ~undo_next upd =
    release_clr t info.xid ~undone;
    let lsn =
      append_on_chain_reserved t info
        (Record.Clr { upd; undone; invoker; undo_next })
    in
    if tracing t then
      Obs.Ring.emit t.ring
        (Obs.Event.Clr
           { xid = info.xid; invoker; oid = upd.Record.oid; lsn; undone });
    info.undo_next <- undo_next;
    lsn
  in
  ignore (Scope_sweep.sweep ?floor t.env ~scopes ~on_undo)

(* Chain-based rollback for [Eager]: after surgery the chain itself is
   the authority on responsibility, so start at its head — [undo_next]
   may point at a record that was delegated away. The chain is kept
   LSN-sorted by the splice, so a partial rollback just stops at the
   savepoint [floor]. *)
let rollback_chain ?(floor = Lsn.nil) t (info : Txn_table.info) =
  (* Never dereference a CLR's undo_next: after chain surgery it may
     point at a record that moved to another chain. Walking prev-for and
     skipping updates whose LSN a CLR higher up declared compensated is
     always sound. A begin record does not end the walk either — surgery
     may splice delegated-in records below it. *)
  let compensated = Hashtbl.create 8 in
  let k = ref info.last_lsn in
  while Lsn.(!k > floor) do
    let record = Log_store.read t.log !k in
    (match record.Record.body with
    | Record.Update u when not (Hashtbl.mem compensated (Lsn.to_int !k)) ->
        let inv = { u with op = Apply.inverse u.op } in
        release_clr t info.xid ~undone:!k;
        let clr_lsn =
          append_on_chain_reserved t info
            (Record.Clr
               {
                 upd = inv;
                 undone = !k;
                 invoker = info.xid;
                 undo_next = record.Record.prev;
               })
        in
        if tracing t then
          Obs.Ring.emit t.ring
            (Obs.Event.Clr
               {
                 xid = info.xid;
                 invoker = info.xid;
                 oid = u.Record.oid;
                 lsn = clr_lsn;
                 undone = !k;
               });
        info.undo_next <- record.Record.prev;
        Apply.force t.env clr_lsn inv
    | Record.Clr { undone; _ } ->
        Hashtbl.replace compensated (Lsn.to_int undone) ()
    | Record.Update _ | Record.Begin | Record.Abort | Record.Commit
    | Record.End | Record.Delegate _ | Record.Anchor | Record.Ckpt_begin
    | Record.Ckpt_end _ | Record.Rewrite_begin _ | Record.Rewrite_clr _
    | Record.Rewrite_end _ | Record.Xfer_out _ | Record.Xfer_in _
    | Record.Xfer_end _ ->
        ());
    k := Record.prev_for record info.xid
  done

(* A savepoint is a global point in history (the current log head), not
   the transaction's own last record: responsibility acquired afterwards
   — by update or by delegation — is what rollback_to must undo, and a
   delegated-in update invoked before the savepoint carries an LSN below
   the head but possibly above the transaction's stale last_lsn. *)
let savepoint t xid =
  ignore (active_exn t xid);
  Log_store.head t.log

let rollback_to t xid sp =
  let info = active_exn t xid in
  (match t.config.Config.impl with
  | Config.Rh | Config.Lazy -> rollback_scopes ~floor:sp t info
  | Config.Eager ->
      (* degraded: logical delegate records exist, so chains are no
         longer the full authority on responsibility — undo over scopes,
         which [Ob_list.absorb] keeps aligned with spliced history *)
      if t.degraded then rollback_scopes ~floor:sp t info
      else rollback_chain ~floor:sp t info);
  (* trimmed open scopes must not be extended again: new updates open
     fresh scopes, or they would stretch back across the compensated
     range *)
  info.ob_list <- Ob_list.close_all_open info.ob_list;
  Log_store.flush t.log ~upto:info.last_lsn

let abort t xid =
  let info = active_exn t xid in
  info.status <- Txn_table.Rolling_back;
  (* the whole rollback path draws on the reservation ledger: it must
     never be refused for log space, or a full log would be fatal *)
  (match t.config.Config.impl with
  | Config.Rh | Config.Lazy -> rollback_scopes t info
  | Config.Eager ->
      if t.degraded then rollback_scopes t info else rollback_chain t info);
  let abort_lsn = append_on_chain_reserved t info Record.Abort in
  Log_store.flush t.log ~upto:info.last_lsn;
  ignore (append_on_chain_reserved t info Record.End);
  release_ledger t xid;
  t.stats.aborts <- t.stats.aborts + 1;
  if tracing t then
    Obs.Ring.emit t.ring (Obs.Event.Abort { xid; lsn = abort_lsn });
  finish t info

(* --- object operations --- *)

(* The servability rule while an on-demand restart drains: first land
   the page's pending redo slice (bounded foreground work — also
   mandatory before any new update force-stamps the page, or the stamp
   would make the pending slice silently skip), then refuse with the
   retryable [Recovering] if a loser's scope still covers the object —
   its committed value is not yet separable from the loser's uncommitted
   writes. Post-restart transactions never wait on loser locks (early
   lock release); they wait on the shrinking backlog. *)
let od_guard t oid =
  match t.od.live with
  | None -> ()
  | Some o ->
      On_demand.ensure_object o oid;
      if On_demand.covered o oid then
        raise (Errors.Recovering { oid; backlog = On_demand.backlog o });
      t.od.served_degraded <- t.od.served_degraded + 1

let read t xid oid =
  check_oid t oid;
  od_guard t oid;
  let info = active_exn t xid in
  ignore info;
  lock t xid oid Mode.S;
  let page, slot = place t oid in
  Buffer_pool.read_object t.pool page ~slot

let log_update t (info : Txn_table.info) oid op =
  let page, slot = place t oid in
  let u = { Record.oid; page; op } in
  (* an update is admitted only together with space for the CLR that may
     later undo it — the invariant that keeps rollback Log_full-proof *)
  let clr = clr_cost u in
  let lsn =
    Log_store.append_with_reserve t.log ~reserve_bytes:clr ~reserve_records:1
      (Record.mk info.xid ~prev:info.last_lsn (Record.Update u))
  in
  info.last_lsn <- lsn;
  let r = ledger_of t info.xid in
  r.entries <- (Oid.to_int oid, Lsn.to_int lsn, clr) :: r.entries;
  info.undo_next <- lsn;
  info.ob_list <- Ob_list.note_update info.ob_list ~owner:info.xid ~oid lsn;
  Apply.force t.env lsn u;
  if tracing t then
    Obs.Ring.emit t.ring
      (Obs.Event.Update { xid = info.xid; oid; lsn; op = obs_op op });
  ignore slot

let write t xid oid v =
  check_oid t oid;
  od_guard t oid;
  let info = active_exn t xid in
  lock t xid oid Mode.X;
  let page, slot = place t oid in
  let before = Buffer_pool.read_object t.pool page ~slot in
  log_update t info oid (Record.Set { before; after = v })

let add t xid oid d =
  check_oid t oid;
  od_guard t oid;
  let info = active_exn t xid in
  lock t xid oid Mode.I;
  log_update t info oid (Record.Add d)

(* --- checkpointing and log-space maintenance --- *)

let checkpoint t =
  if recovering t then ()
    (* a fuzzy checkpoint taken mid-drain would record a transaction
       table without the undrained losers and a dirty-page table without
       the pending slices; a later restart starting from it would miss
       them. The drain is short — skip until converged. *)
  else begin
  (* checkpoints relieve log pressure — refusing one for log space would
     deadlock the governor, so they bypass admission *)
  let begin_lsn =
    Log_store.append_reserved t.log (Record.mk_system Record.Ckpt_begin)
  in
  let ck_txns, ck_obs = Txn_table.to_ckpt t.tt in
  let ck_dpt = Buffer_pool.dirty_page_table t.pool in
  let lsn =
    Log_store.append_reserved t.log
      (Record.mk_system (Record.Ckpt_end { Record.ck_txns; ck_dpt; ck_obs }))
  in
  Log_store.flush t.log ~upto:lsn;
  Log_store.set_master t.log lsn;
  (* the checkpoint force covers any pending commit group *)
  settle_group t;
  t.stats.checkpoints <- t.stats.checkpoints + 1;
  if tracing t then
    Obs.Ring.emit t.ring (Obs.Event.Checkpoint { begin_lsn; end_lsn = lsn })
  end

let truncation_horizon t =
  let master = Log_store.master t.log in
  if Lsn.is_nil master then Lsn.nil
  else begin
    let horizon = ref master in
    List.iter
      (fun (_, rec_lsn) -> horizon := Lsn.min !horizon rec_lsn)
      (Buffer_pool.dirty_page_table t.pool);
    Txn_table.iter t.tt (fun info ->
        (* conventional (eager-mode) undo walks the whole chain, begin
           record included, so live transactions pin from their begin *)
        if not (Lsn.is_nil info.begin_lsn) then
          horizon := Lsn.min !horizon info.begin_lsn;
        match Ob_list.min_first info.ob_list with
        | Some first -> horizon := Lsn.min !horizon first
        | None -> ());
    !horizon
  end

(* --- continuous WAL archiving --- *)

(* Copy every newly-sealed durable record into the archive. The read
   side ([Log_store.raw_get]) and the archive append are both outside
   the fault injector's I/O clock, so archiving never perturbs a crash
   schedule. Records at or above [Log_store.archive_bound] — scheduled
   to tear at the next crash — are never archived: the archive must not
   resurrect bytes a crash amputates. *)
let archive_catchup t =
  match t.archive with
  | None -> 0
  | Some a ->
      let bound = Log_store.archive_bound t.log in
      let start =
        if Archive.archived_upto a > 0 then Archive.archived_upto a
        else Lsn.to_int (Log_store.truncated_below t.log) - 1
      in
      let n = ref 0 in
      (try
         for idx = start to bound - 1 do
           (* never archive bytes that already fail to decode: after a
              crash the stable tail may carry an applied tear that
              restart amputation has not dropped yet, and the archive
              must not adopt bytes the log is about to disown *)
           if not (Log_store.record_intact t.log ~idx) then raise Exit;
           Archive.append_wal a ~idx (Log_store.raw_get t.log ~idx);
           incr n
         done
       with Exit -> ());
      if !n > 0 then begin
        Archive.sync a;
        t.media.archived_records <- t.media.archived_records + !n;
        if tracing t then
          Obs.Ring.emit t.ring
            (Obs.Event.Archive_catchup { upto = Lsn.of_int bound })
      end;
      !n

(* The media pin: the first LSN that truncation must retain because the
   archive has not copied it yet, or because an outstanding in-memory
   backup needs it for media replay. [Lsn.nil] when unconstrained. *)
let media_pin t =
  let archive_pin =
    match t.archive with
    | Some a -> Lsn.of_int (Archive.archived_upto a + 1)
    | None -> Lsn.nil
  in
  let min_pin a b =
    if Lsn.is_nil a then b else if Lsn.is_nil b then a else Lsn.min a b
  in
  min_pin (min_pin archive_pin t.backup_pin) t.external_pin

let truncate_log t =
  if recovering t then 0
    (* the crash emptied the buffer pool, so [truncation_horizon] no
       longer sees the dirty pages' recLSNs — reclaiming now could drop
       the very slices the pending redo still needs *)
  else begin
  (* settle first: truncation may drop durable commit records, and any
     waiter they belong to must have been notified before its record
     becomes unreadable *)
  settle_group t;
  (* archive first too, so the pin only holds back what genuinely is not
     yet copied — reclamation must never strand a restore *)
  ignore (archive_catchup t);
  let horizon = truncation_horizon t in
  if Lsn.is_nil horizon then 0
  else begin
    let below = Lsn.min horizon (Log_store.durable t.log) in
    let below =
      let pin = media_pin t in
      if Lsn.is_nil pin then below else Lsn.min below pin
    in
    let reclaimed = Log_store.truncate t.log ~below in
    if reclaimed > 0 && tracing t then
      Obs.Ring.emit t.ring (Obs.Event.Truncate { below; reclaimed });
    reclaimed
  end
  end

let set_external_pin t lsn = t.external_pin <- lsn

(* --- cross-shard transfer primitives --- *)

(* The three log writes of the [Sharded] two-phase migration protocol.
   Each is a forced system record; sequencing lives in the router. Only
   the in-flight flush can tear at a crash, so a completed force here is
   durable — the same assumption the commit protocol makes. *)

let lock_holders t oid = Lock_table.holders t.locks oid

(* A migrating object must carry its settled committed value: bring the
   page current and drain any loser covering it before the transfer
   record bakes the value in. *)
let od_drain_for_xfer t oid =
  match t.od.live with
  | None -> ()
  | Some o -> On_demand.drain_object o oid

let xfer_out t ~xfer_id ~hop ~oid ~target ~value =
  check_oid t oid;
  od_drain_for_xfer t oid;
  (* admission-checked: migration is optional work and must not eat the
     space reserved for rollback or recovery *)
  let lsn =
    Log_store.append t.log
      (Record.mk_system (Record.Xfer_out { xfer_id; hop; oid; target; value }))
  in
  Log_store.flush t.log ~upto:lsn;
  lsn

let xfer_in t ~xfer_id ~hop ~oid ~source ~value =
  check_oid t oid;
  od_drain_for_xfer t oid;
  let page, slot = place t oid in
  let before = Buffer_pool.read_object t.pool page ~slot in
  let lsn =
    Log_store.append t.log
      (Record.mk_system
         (Record.Xfer_in { xfer_id; hop; oid; page; source; before; value }))
  in
  Log_store.flush t.log ~upto:lsn;
  (* the forward pass redoes this record page-LSN conditioned, exactly
     like an update — adopting the value now keeps the cache coherent *)
  Apply.force t.env lsn
    { Record.oid; page; op = Record.Set { before; after = value } };
  lsn

let xfer_end t ~xfer_id ~oid ~committed =
  (* resolution must never die of log exhaustion: like CLRs and
     checkpoints, the end record rides the reserved headroom *)
  let lsn =
    Log_store.append_reserved t.log
      (Record.mk_system (Record.Xfer_end { xfer_id; oid; committed }))
  in
  Log_store.flush t.log ~upto:lsn;
  lsn

(* --- delegation --- *)

(* Crash-atomic eager delegation (the §3.2 baseline hardened): plan the
   full chain surgery, secure log space for the whole protocol up front,
   force an intent record plus per-target before/after images, apply the
   in-place rewrites, then append the two chain anchors and the end
   record and force them as one unit. A crash at any I/O point resolves
   at the next restart to exactly the pre- or post-surgery log
   ([Rewrite.recover_surgeries]). If space for the surgery cannot be
   secured even after checkpoint-and-truncate retries, the delegation
   falls back to a logical ARIES/RH-style delegate record and the engine
   runs degraded until a restart heals the log. Returns the LSNs of the
   update records re-attributed to the delegatee ([] on the logical
   paths). *)
let delegate_eager t (tor_info : Txn_table.info) (tee_info : Txn_table.info)
    oid =
  let from_ = tor_info.Txn_table.xid and to_ = tee_info.Txn_table.xid in
  let anchors = 2 * anchor_cost in
  let plan = Rewrite.plan_eager t.env ~tor_info ~tee_info oid in
  let emit_delegate lsn =
    if tracing t then
      Obs.Ring.emit t.ring
        (Obs.Event.Delegate { from_; to_; oid; lsn; op_lsn = None })
  in
  if plan.Rewrite.patches = [] then begin
    (* no live records to move: no surgery, just the durable chain-head
       anchors; [Log_full] here aborts the delegation cleanly *)
    Log_store.reserve t.log ~bytes:anchors ~records:2;
    let anchor_lsn = append_on_chain_reserved t tor_info Record.Anchor in
    ignore (append_on_chain_reserved t tee_info Record.Anchor);
    Log_store.unreserve t.log ~bytes:anchors ~records:2;
    Log_store.flush t.log ~upto:(Log_store.head t.log);
    emit_delegate anchor_lsn;
    tor_info.undo_next <- tor_info.last_lsn;
    tee_info.undo_next <- tee_info.last_lsn;
    []
  end
  else begin
    let sbytes, srecords =
      Rewrite.surgery_cost ~deleg:(from_, to_, oid) plan.Rewrite.patches
    in
    let bytes = sbytes + anchors and records = srecords + 2 in
    let rec secure attempt =
      match Log_store.reserve t.log ~bytes ~records with
      | () -> true
      | exception Log_store.Log_full _
        when attempt < t.config.Config.rewrite_retries ->
          (* relieve pressure and retry: the checkpoint advances the
             truncation horizon, the truncation reclaims the prefix *)
          checkpoint t;
          ignore (truncate_log t);
          secure (attempt + 1)
      | exception Log_store.Log_full _ -> false
    in
    if secure 0 then begin
      let begin_lsn =
        Rewrite.surgery_begin t.env ~deleg:(from_, to_, oid)
          plan.Rewrite.patches
      in
      ignore (Rewrite.apply_plan t.env plan.Rewrite.patches);
      tor_info.last_lsn <- plan.Rewrite.tor_last;
      tee_info.last_lsn <- plan.Rewrite.tee_last;
      (* The anchors make the new chain heads durable and visible inside
         the next restart's analysis window (a spliced record below the
         checkpoint would otherwise be unreachable). They go in BEFORE
         the end record, so the closing force hardens anchors and
         surgery outcome as one unit — a torn tail can lose only the end
         record, and restart then rolls the fully-applied surgery
         forward, consistent with the durable anchors. *)
      let anchor_lsn = append_on_chain_reserved t tor_info Record.Anchor in
      ignore (append_on_chain_reserved t tee_info Record.Anchor);
      Rewrite.surgery_end t.env ~begin_lsn ~committed:true;
      Log_store.unreserve t.log ~bytes ~records;
      emit_delegate anchor_lsn;
      (* after surgery the chains are the only authority; undo must
         start at their heads (the old undo_next may point at a record
         that was delegated away) — and checkpoints persist these *)
      tor_info.undo_next <- tor_info.last_lsn;
      tee_info.undo_next <- tee_info.last_lsn;
      plan.Rewrite.moved
    end
    else begin
      (* degraded-mode fallback: surgery space cannot be found — record
         the delegation logically (admission-checked; [Log_full]
         propagates before any state change) and let the next restart
         heal the log via the lazy recovery path *)
      let lsn =
        Log_store.append t.log
          (Record.mk from_ ~prev:tor_info.last_lsn
             (Record.Delegate
                { tee = to_; tee_prev = tee_info.last_lsn; oid; op = None }))
      in
      tor_info.last_lsn <- lsn;
      tee_info.last_lsn <- lsn;
      t.degraded <- true;
      t.env.Env.rewrite_fallbacks <- t.env.Env.rewrite_fallbacks + 1;
      if tracing t then
        Obs.Ring.emit t.ring (Obs.Event.Rewrite_fallback { from_; to_; oid });
      emit_delegate lsn;
      []
    end
  end

let delegate t ~from_ ~to_ oid =
  check_oid t oid;
  let tor_info = active_exn t from_ in
  let tee_info = active_exn t to_ in
  if Xid.equal from_ to_ then invalid_arg "Db.delegate: delegator = delegatee";
  if t.refuse_delegations then
    raise
      (Errors.Overloaded
         { xid = Some from_; reason = Errors.Delegation_refused });
  if not (Ob_list.mem tor_info.ob_list oid) then
    raise (Errors.Not_responsible { xid = from_; oid });
  let moved =
    match t.config.Config.impl with
    | Config.Rh | Config.Lazy ->
        (* admission-checked; [Log_full] propagates before any state
           change, so a refused delegation is a clean no-op *)
        let lsn =
          Log_store.append t.log
            (Record.mk from_ ~prev:tor_info.last_lsn
               (Record.Delegate
                  { tee = to_; tee_prev = tee_info.last_lsn; oid; op = None }))
        in
        tor_info.last_lsn <- lsn;
        tee_info.last_lsn <- lsn;
        if tracing t then
          Obs.Ring.emit t.ring
            (Obs.Event.Delegate { from_; to_; oid; lsn; op_lsn = None });
        []
    | Config.Eager -> delegate_eager t tor_info tee_info oid
  in
  (match Ob_list.take tor_info.ob_list oid with
  | None -> assert false
  | Some (entry, rest) ->
      tor_info.ob_list <- rest;
      tee_info.ob_list <-
        Ob_list.receive tee_info.ob_list ~oid ~from_
          (Ob_list.entry_scopes entry));
  (* physical surgery re-attributed these records to the delegatee: its
     scope coverage must agree with the rewritten log, or the
     degraded-mode (scope-based) rollback would miss them *)
  if moved <> [] then
    tee_info.ob_list <- Ob_list.absorb tee_info.ob_list ~owner:to_ ~oid moved;
  move_reserved_object t ~from_ ~to_ oid;
  t.stats.delegations <- t.stats.delegations + 1;
  if tracing t then
    Obs.Ring.emit t.ring (Obs.Event.Scope_transfer { from_; to_; oid });
  if t.config.Config.locking then begin
    Lock_table.transfer t.locks oid ~from_ ~to_;
    if tracing t then
      Obs.Ring.emit t.ring (Obs.Event.Lock_transfer { from_; to_; oid })
  end

let delegate_update t ~from_ ~to_ oid op_lsn =
  check_oid t oid;
  let tor_info = active_exn t from_ in
  let tee_info = active_exn t to_ in
  if Xid.equal from_ to_ then
    invalid_arg "Db.delegate_update: delegator = delegatee";
  (match t.config.Config.impl with
  | Config.Eager ->
      raise
        (Errors.Unsupported_by_engine
           { op = "operation-granularity delegation"; impl = "eager" })
  | Config.Rh | Config.Lazy -> ());
  if t.refuse_delegations then
    raise
      (Errors.Overloaded
         { xid = Some from_; reason = Errors.Delegation_refused });
  (* identify the operation's invoker: usually a unique covering scope;
     with overlapping commuting scopes, consult the log record itself *)
  let invoker =
    match Ob_list.covering_invokers tor_info.ob_list ~oid op_lsn with
    | [] -> raise (Errors.Not_responsible { xid = from_; oid })
    | [ x ] -> x
    | _ -> (
        let r = Log_store.read t.log op_lsn in
        match r.Record.body with
        | Record.Update u when Oid.equal u.Record.oid oid ->
            Record.writer_exn r
        | _ -> raise (Errors.Not_responsible { xid = from_; oid }))
  in
  (* Operation-granularity delegation is for commuting updates — the
     §2.1.2 setting where several transactions are responsible for one
     object at once. The delegator keeps its own increment lock (it may
     still hold other updates); the delegatee gets one too, so the
     delegated update stays protected after the delegator resolves. An
     exclusively-locked object (Set updates) must be delegated whole. *)
  (if t.config.Config.locking then
     match Lock_table.held t.locks from_ oid with
     | Some m when Mode.equal m Mode.X ->
         invalid_arg
           "Db.delegate_update: operation granularity requires commuting \
            (increment) updates; delegate the whole object instead"
     | _ -> ());
  match Ob_list.split_out tor_info.ob_list ~oid ~invoker op_lsn with
  | None, _ -> raise (Errors.Not_responsible { xid = from_; oid })
  | Some moved, rest ->
      let lsn =
        Log_store.append t.log
          (Record.mk from_ ~prev:tor_info.last_lsn
             (Record.Delegate
                {
                  tee = to_;
                  tee_prev = tee_info.last_lsn;
                  oid;
                  op = Some (op_lsn, invoker);
                }))
      in
      tor_info.last_lsn <- lsn;
      tee_info.last_lsn <- lsn;
      tor_info.ob_list <- rest;
      tee_info.ob_list <- Ob_list.receive tee_info.ob_list ~oid ~from_ [ moved ];
      move_reserved_update t ~from_ ~to_ op_lsn;
      t.stats.delegate_ops <- t.stats.delegate_ops + 1;
      if tracing t then begin
        Obs.Ring.emit t.ring
          (Obs.Event.Delegate { from_; to_; oid; lsn; op_lsn = Some op_lsn });
        Obs.Ring.emit t.ring (Obs.Event.Scope_transfer { from_; to_; oid })
      end;
      if t.config.Config.locking then begin
        match Lock_table.acquire t.locks to_ oid Mode.I with
        | Lock_table.Granted -> ()
        | Lock_table.Conflict holders ->
            (* cannot happen: every holder is in increment mode *)
            raise (Errors.Conflict { requester = to_; holders })
      end

let delegate_all t ~from_ ~to_ =
  let tor_info = active_exn t from_ in
  List.iter
    (fun oid -> delegate t ~from_ ~to_ oid)
    (Ob_list.objects tor_info.ob_list)

let responsible_objects t xid = Ob_list.objects (info_exn t xid).ob_list

(* --- crash, recovery --- *)

(* Live transactions that keep the truncation horizon from advancing:
   each active transaction with the LSN it pins (its begin record or the
   start of its oldest scope, delegated-in scopes included), oldest pin
   first. The governor's victim list under hard log pressure. *)
let horizon_pinners t =
  let pins =
    Txn_table.fold t.tt ~init:[] ~f:(fun acc info ->
        if info.Txn_table.status <> Txn_table.Active then acc
        else
          let pin =
            match Ob_list.min_first info.ob_list with
            | Some first ->
                if Lsn.is_nil info.begin_lsn then first
                else Lsn.min info.begin_lsn first
            | None -> info.begin_lsn
          in
          if Lsn.is_nil pin then acc else (info.Txn_table.xid, pin) :: acc)
  in
  List.sort (fun (_, a) (_, b) -> Lsn.compare a b) pins

let log_pressure t = Log_store.pressure t.log

let set_backpressure t ~begins ~delegations =
  t.refuse_begins <- begins;
  t.refuse_delegations <- delegations

let backpressure t = (t.refuse_begins, t.refuse_delegations)

let crash t =
  if tracing t then
    Obs.Ring.emit t.ring
      (Obs.Event.Crash { durable = Log_store.durable t.log });
  (* an unforced commit group dies with the crash: its transactions have
     no durable commit record and roll back at restart, which is exactly
     the group-commit durability contract *)
  t.gc_waiters <- [];
  Log_store.crash t.log;
  Buffer_pool.crash t.pool;
  t.locks <- Lock_table.create ();
  t.tt <- Txn_table.create ();
  t.permits <- [];
  (* reservation ledgers and backpressure are volatile control state *)
  Hashtbl.reset t.reserves;
  t.refuse_begins <- false;
  t.refuse_delegations <- false;
  (* volatile too: recovery re-derives it from the durable log *)
  t.degraded <- false;
  (* an interrupted on-demand drain is volatile as well: the next
     restart's analysis re-derives a (smaller) backlog from the log *)
  t.od.live <- None

(* --- media recovery --- *)

(* Heal one page (shadow or snapshot base + page-LSN-conditioned WAL
   replay) with the fault injector parked: integrity maintenance must
   never shift a crash or corruption schedule. *)
let repair_quiet t pid base =
  let was = Fault.enabled t.fault in
  Fault.set_enabled t.fault false;
  Fun.protect
    ~finally:(fun () -> Fault.set_enabled t.fault was)
    (fun () -> ignore (Repair.page t.env pid base))

type backup = { pages : Page.t array; complete_upto : Lsn.t }

(* Whole-store media operations need a settled store: a snapshot taken
   mid-drain would bake un-redone pages and un-undone losers into the
   copy. Refuse (retryably) until the backlog converges. *)
let require_settled t =
  match t.od.live with
  | None -> ()
  | Some o ->
      raise (Errors.Recovery_incomplete { backlog = On_demand.backlog o })

let backup t =
  require_settled t;
  (* quiesce: every logged effect reaches the disk image *)
  Log_store.flush t.log ~upto:(Log_store.head t.log);
  settle_group t;
  Buffer_pool.flush_all t.pool;
  let b =
    {
      pages =
        Array.init (Disk.page_count t.disk) (fun i ->
            (* checked: a backup taken from a torn or stale (lost-write)
               main image would bake the corruption into the snapshot —
               heal first, then copy *)
            let pid = Page_id.of_int i in
            match Disk.read_page_checked t.disk pid with
            | Ok p -> p
            | Error shadow ->
                repair_quiet t pid shadow;
                Disk.peek_main t.disk pid);
      complete_upto = Log_store.durable t.log;
    }
  in
  (* media replay needs the log from the backup point forward: pin it so
     the governor cannot reclaim it out from under [restore_media]. The
     caller releases the pin ([release_backup_pin]) when it discards the
     backup. *)
  let pin = Lsn.next b.complete_upto in
  t.backup_pin <-
    (if Lsn.is_nil t.backup_pin then pin else Lsn.min t.backup_pin pin);
  b

let release_backup_pin t = t.backup_pin <- Lsn.nil
let backup_pin t = t.backup_pin

let media_failure t =
  if tracing t then
    Obs.Ring.emit t.ring
      (Obs.Event.Crash { durable = Log_store.durable t.log });
  let blank = Page.create ~slots:t.config.Config.objects_per_page in
  for i = 0 to Disk.page_count t.disk - 1 do
    Disk.write_page t.disk (Page_id.of_int i) blank
  done;
  t.gc_waiters <- [];
  Log_store.crash t.log;
  Buffer_pool.crash t.pool;
  t.locks <- Lock_table.create ();
  t.tt <- Txn_table.create ();
  t.permits <- [];
  Hashtbl.reset t.reserves;
  t.refuse_begins <- false;
  t.refuse_delegations <- false;
  t.degraded <- false;
  t.od.live <- None

let audit t = Audit.check t.env

let run_audit t =
  Obs.Ring.emit t.ring (Obs.Event.Restart_enter Obs.Event.Audit);
  Audit.run t.env;
  Obs.Ring.emit t.ring (Obs.Event.Restart_leave Obs.Event.Audit)

(* A degraded run may have left logical delegate records in the durable
   log; conventional ARIES cannot interpret them, so detect them
   (skipping any corrupt tail record — amputation has not run yet) and
   heal through the lazy recovery path, which splices them physically.
   After it, the log is purely physical again and the engine leaves
   degraded mode. *)
let has_delegate t =
  let exception Found in
  try
    ignore
      (Log_store.iter_valid_forward t.log
         ~from:(Log_store.truncated_below t.log)
         (fun _ r ->
           match r.Record.body with
           | Record.Delegate _ -> raise Found
           | _ -> ()));
    false
  with Found -> true

let recover t =
  (* re-entering restart subsumes any prior interrupted drain *)
  t.od.live <- None;
  let passes =
    match t.config.Config.forward_passes with
    | Config.Merged -> Forward.Merged
    | Config.Separate -> Forward.Separate
  in
  match t.config.Config.recovery_mode with
  | Config.Offline ->
      let report =
        match t.config.Config.impl with
        | Config.Rh -> Aries_rh.recover ~passes t.env
        | Config.Eager ->
            if has_delegate t then Aries_rh.recover_physical t.env
            else Aries.recover ~passes t.env
        | Config.Lazy -> Aries_rh.recover_physical t.env
      in
      t.degraded <- false;
      t.tt <- Txn_table.create ();
      t.locks <- Lock_table.create ();
      t.permits <- [];
      t.stats.recoveries <- t.stats.recoveries + 1;
      if t.config.Config.audit then run_audit t;
      report
  | Config.On_demand ->
      (* analysis only (bounded by the checkpoint interval), then open.
         The scope-sweep undo the drain uses works on every engine; the
         lazy splice ([physical]) is needed exactly where the offline
         path would have used [recover_physical]. *)
      let physical =
        match t.config.Config.impl with
        | Config.Rh -> false
        | Config.Eager -> has_delegate t
        | Config.Lazy -> true
      in
      let o, report = On_demand.start ~passes ~physical t.env in
      t.degraded <- false;
      t.tt <- Txn_table.create ();
      t.locks <- Lock_table.create ();
      t.permits <- [];
      t.stats.recoveries <- t.stats.recoveries + 1;
      if On_demand.backlog o = 0 then begin
        (* converged at once (e.g. clean shutdown): indistinguishable
           from an offline restart, audit now *)
        if t.config.Config.audit then run_audit t
      end
      else t.od.live <- Some o;
      report

(* Convergence: once the backlog is empty the store is exactly what the
   offline restart would have produced — drop the drain state, flush,
   and run the self-audit the open-for-traffic restart deferred. *)
let maybe_finalize_recovery t =
  match t.od.live with
  | None -> ()
  | Some o ->
      if On_demand.backlog o = 0 then begin
        t.od.live <- None;
        Log_store.flush t.log ~upto:(Log_store.head t.log);
        if t.config.Config.audit then run_audit t
      end

let recovery_step t =
  match t.od.live with
  | None -> false
  | Some o ->
      ignore (On_demand.step o);
      maybe_finalize_recovery t;
      t.od.live <> None

let await_recovery t =
  (match t.od.live with
  | None -> ()
  | Some o -> while On_demand.step o do () done);
  maybe_finalize_recovery t

let restore_media t (b : backup) =
  require_settled t;
  let replay_from = Lsn.next b.complete_upto in
  if Lsn.(Log_store.truncated_below t.log > replay_from) then
    raise
      (Errors.Log_truncated_past_backup
         {
           backup = b.complete_upto;
           retained = Log_store.truncated_below t.log;
         });
  Array.iteri (fun i page -> Disk.write_page t.disk (Page_id.of_int i) page)
    b.pages;
  Buffer_pool.crash t.pool;
  (* roll the archive image forward: redo everything since the backup,
     conditioned on page LSNs, then let normal restart recovery settle
     the in-flight transactions *)
  Log_store.iter_forward t.log ~from:replay_from (fun lsn record ->
      match record.Record.body with
      | Record.Update u -> ignore (Apply.redo t.env lsn u)
      | Record.Clr { upd; _ } -> ignore (Apply.redo t.env lsn upd)
      | _ -> ());
  recover t

(* --- the media archive: attach, backup, cold restore --- *)

let impl_tag_of = function
  | Config.Rh -> 0
  | Config.Eager -> 1
  | Config.Lazy -> 2

let archive t = t.archive

let set_archive t a =
  (match t.archive with
  | Some _ -> invalid_arg "Db.set_archive: an archive is already attached"
  | None -> ());
  let g = Archive.geometry a in
  if
    g.Archive.n_objects <> t.config.Config.n_objects
    || g.Archive.objects_per_page <> t.config.Config.objects_per_page
  then invalid_arg "Db.set_archive: archive geometry does not match";
  t.archive <- Some a;
  ignore (archive_catchup t)

let attach_archive ?dir t =
  let a =
    Archive.create ?dir ~n_objects:t.config.Config.n_objects
      ~objects_per_page:t.config.Config.objects_per_page
      ~impl_tag:(impl_tag_of t.config.Config.impl) ()
  in
  set_archive t a;
  a

let archived_upto t =
  match t.archive with None -> 0 | Some a -> Archive.archived_upto a

(* Full durable backup into the archive: page snapshot plus WAL catchup.
   After this, the archive alone can rebuild the exact committed state
   ([restore_from_archive]) — no in-memory pin needed. *)
let backup_to_archive t =
  require_settled t;
  match t.archive with
  | None -> invalid_arg "Db.backup_to_archive: no archive attached"
  | Some a ->
      Log_store.flush t.log ~upto:(Log_store.head t.log);
      settle_group t;
      Buffer_pool.flush_all t.pool;
      Disk.sync t.disk;
      let pages =
        Array.init (Disk.page_count t.disk) (fun i ->
            Disk.peek_main t.disk (Page_id.of_int i))
      in
      let complete_upto = Log_store.durable t.log in
      Archive.put_snapshot a ~pages ~complete_upto
        ~master:(Log_store.master t.log);
      ignore (archive_catchup t);
      complete_upto

(* Cold restore after total media loss: install the snapshot pages and
   the archived WAL into a {e fresh, empty} database of the same
   geometry, replay history since the snapshot (page-LSN conditioned),
   and run ordinary restart recovery to settle in-flight transactions.
   The database comes out exactly as a reopen after that history. *)
let restore_from_archive t a =
  if Log_store.length t.log > 0 then
    invalid_arg "Db.restore_from_archive: database is not empty";
  let g = Archive.geometry a in
  if
    g.Archive.n_objects <> t.config.Config.n_objects
    || g.Archive.objects_per_page <> t.config.Config.objects_per_page
  then invalid_arg "Db.restore_from_archive: archive geometry does not match";
  let s =
    match Archive.snapshot a with
    | Some s -> s
    | None ->
        raise
          (Archive.Archive_corrupt
             { path = "archive"; what = "no page snapshot to restore from" })
  in
  t.gc_waiters <- [];
  Buffer_pool.crash t.pool;
  Array.iteri
    (fun i p -> Disk.install_page t.disk (Page_id.of_int i) (Page.copy p))
    s.Archive.pages;
  let base = Archive.wal_base a in
  let frames = Array.make (Archive.archived_upto a - base) "" in
  Archive.iter_wal a (fun ~idx enc -> frames.(idx - base) <- enc);
  Log_store.install_archive t.log ~low:base
    ~master:(Lsn.to_int s.Archive.master)
    frames;
  let from =
    Lsn.max (Lsn.next s.Archive.complete_upto) (Log_store.truncated_below t.log)
  in
  Log_store.iter_forward t.log ~from (fun lsn record ->
      match record.Record.body with
      | Record.Update u -> ignore (Apply.redo t.env lsn u)
      | Record.Clr { upd; _ } -> ignore (Apply.redo t.env lsn upd)
      | _ -> ());
  let report = recover t in
  t.archive <- Some a;
  report

(* --- the scrubber: detect, quarantine, heal --- *)

type scrub_outcome = {
  checked : int;
  corrupt : int;
  healed : int;
  unhealable : int;
}

let zero_outcome = { checked = 0; corrupt = 0; healed = 0; unhealable = 0 }

let add_outcome a b =
  {
    checked = a.checked + b.checked;
    corrupt = a.corrupt + b.corrupt;
    healed = a.healed + b.healed;
    unhealable = a.unhealable + b.unhealable;
  }

let quarantined t = List.rev t.quarantined

let note_quarantine t ~target ~id =
  t.media.scrub_corrupt <- t.media.scrub_corrupt + 1;
  if tracing t then Obs.Ring.emit t.ring (Obs.Event.Quarantine { target; id })

let note_heal t ~target ~id ~how =
  t.media.media_heals <- t.media.media_heals + 1;
  t.quarantined <- List.filter (fun q -> q <> (target, id)) t.quarantined;
  if tracing t then
    Obs.Ring.emit t.ring (Obs.Event.Media_heal { target; id; how })

let note_unhealable t ~target ~id =
  t.media.scrub_unhealable <- t.media.scrub_unhealable + 1;
  if not (List.mem (target, id) t.quarantined) then
    t.quarantined <- (target, id) :: t.quarantined

(* Repair [pid] from an intact base image by replaying the durable log
   (page-LSN conditioned) with the fault injector held off: heal I/O
   must never shift a crash schedule or tear mid-heal. *)
(* Bridge a truncated gap from the archived WAL: replay archived records
   with LSN below the live log's retained start onto [img]. Used when a
   page must be rebuilt from the (older) archive snapshot. *)
let replay_archived_gap t a pid img =
  let low = Lsn.to_int (Log_store.truncated_below t.log) in
  let spp = t.config.Config.objects_per_page in
  Archive.iter_wal a (fun ~idx enc ->
      let lsn = idx + 1 in
      if lsn < low then
        match Record.decode enc with
        | Error _ -> ()
        | Ok r -> (
            match r.Record.body with
            | Record.Update u | Record.Clr { upd = u; _ } ->
                if
                  Page_id.to_int u.Record.page = Page_id.to_int pid
                  && Lsn.(Lsn.of_int lsn > Page.page_lsn img)
                then begin
                  let slot = Oid.to_int u.Record.oid mod spp in
                  (match u.Record.op with
                  | Record.Add d -> Page.set img slot (Page.get img slot + d)
                  | Record.Set { after; _ } -> Page.set img slot after);
                  Page.set_page_lsn img (Lsn.of_int lsn)
                end
            | _ -> ()))

(* One page: verify main, shadow, and their agreement. Clean writes
   update both images together, so two checksum-valid images that differ
   are the signature of a lost or misdirected write — and in every
   corrupt case the shadow (always WAL-covered: write-back forces the
   log first) plus durable replay reconstructs the true current image.
   Only when both images are dead does the archive snapshot serve as the
   base, bridging any truncated gap from the archived WAL. *)
let scrub_page t i =
  let pid = Page_id.of_int i in
  let main_ok = Disk.verify_main t.disk pid in
  let shadow_ok = Disk.verify_shadow t.disk pid in
  if main_ok && shadow_ok && Disk.main_matches_shadow t.disk pid then
    { zero_outcome with checked = 1 }
  else begin
    note_quarantine t ~target:"page" ~id:i;
    let healed ~how =
      note_heal t ~target:"page" ~id:i ~how;
      { checked = 1; corrupt = 1; healed = 1; unhealable = 0 }
    in
    let unhealable () =
      note_unhealable t ~target:"page" ~id:i;
      { checked = 1; corrupt = 1; healed = 0; unhealable = 1 }
    in
    if main_ok && not shadow_ok then begin
      (* the shadow itself rotted; main is intact *)
      Disk.reseal_shadow_from_main t.disk pid;
      healed ~how:"reseal-shadow"
    end
    else if shadow_ok then begin
      repair_quiet t pid (Disk.shadow_copy t.disk pid);
      if Disk.verify_main t.disk pid then healed ~how:"shadow-replay"
      else unhealable ()
    end
    else begin
      match t.archive with
      | Some a -> (
          match Archive.snapshot a with
          | Some s when Page.verify s.Archive.pages.(i) ->
              let img = Page.copy s.Archive.pages.(i) in
              replay_archived_gap t a pid img;
              Page.seal img;
              Disk.install_page t.disk pid img;
              repair_quiet t pid img;
              if Disk.verify_main t.disk pid then healed ~how:"archive-image"
              else unhealable ()
          | _ -> unhealable ())
      | None -> unhealable ()
    end
  end

(* One durable WAL record: every record carries its own trailing
   checksum, so rot anywhere in the payload is caught by a decode. The
   only source for a heal is the archive's copy. *)
let scrub_wal_record t idx =
  if Log_store.record_intact t.log ~idx then { zero_outcome with checked = 1 }
  else begin
    let heal_source =
      match t.archive with
      | None -> None
      | Some a -> (
          match Archive.wal_get a ~idx with
          | Some enc when Result.is_ok (Record.decode enc) -> Some enc
          | _ -> None)
    in
    match heal_source with
    | Some enc ->
        note_quarantine t ~target:"wal" ~id:idx;
        Log_store.heal_record t.log ~idx enc;
        note_heal t ~target:"wal" ~id:idx ~how:"archive-frame";
        { checked = 1; corrupt = 1; healed = 1; unhealable = 0 }
    | None when idx = Lsn.to_int (Log_store.durable t.log) - 1 ->
        (* the corrupt record is the very tail of the durable log and no
           archive copy exists: indistinguishable from a crash-torn
           flush, which is restart amputation's business, not the
           scrubber's — leave it to [recover_tail] *)
        { zero_outcome with checked = 1 }
    | None ->
        note_quarantine t ~target:"wal" ~id:idx;
        note_unhealable t ~target:"wal" ~id:idx;
        { checked = 1; corrupt = 1; healed = 0; unhealable = 1 }
  end

let scrub_pages ?(first = 0) ?count t =
  let n = Disk.page_count t.disk in
  let first = max 0 (min first n) in
  let count = match count with None -> n - first | Some c -> min c (n - first) in
  let out = ref zero_outcome in
  for i = first to first + count - 1 do
    out := add_outcome !out (scrub_page t i)
  done;
  t.media.scrub_checked <- t.media.scrub_checked + (!out).checked;
  if tracing t && count > 0 then
    Obs.Ring.emit t.ring
      (Obs.Event.Scrub_pass
         { target = "pages"; checked = (!out).checked; corrupt = (!out).corrupt });
  !out

let scrub_wal ?first ?count t =
  let low = Lsn.to_int (Log_store.truncated_below t.log) - 1 in
  let durable = Lsn.to_int (Log_store.durable t.log) in
  let first = match first with None -> low | Some f -> max f low in
  let avail = max 0 (durable - first) in
  let count = match count with None -> avail | Some c -> min c avail in
  let out = ref zero_outcome in
  for idx = first to first + count - 1 do
    out := add_outcome !out (scrub_wal_record t idx)
  done;
  t.media.scrub_checked <- t.media.scrub_checked + (!out).checked;
  if tracing t && count > 0 then
    Obs.Ring.emit t.ring
      (Obs.Event.Scrub_pass
         { target = "wal"; checked = (!out).checked; corrupt = (!out).corrupt });
  !out

(* The archive's own media rots too. An archived frame heals from the
   live log while the record is still retained and intact; a snapshot
   page heals from the live disk image (newer than the snapshot point is
   fine: restore's replay is page-LSN conditioned, so already-applied
   redos no-op). *)
let scrub_archive t =
  match t.archive with
  | None -> zero_outcome
  | Some a ->
      let bad_pages, bad_wal = Archive.check a in
      let checked =
        (match Archive.snapshot a with
        | Some s -> Array.length s.Archive.pages
        | None -> 0)
        + (Archive.archived_upto a - Archive.wal_base a)
      in
      let out = ref { zero_outcome with checked } in
      let low = Lsn.to_int (Log_store.truncated_below t.log) - 1 in
      let durable = Lsn.to_int (Log_store.durable t.log) in
      List.iter
        (fun idx ->
          note_quarantine t ~target:"archive-wal" ~id:idx;
          if idx >= low && idx < durable && Log_store.record_intact t.log ~idx
          then begin
            Archive.heal_wal a ~idx (Log_store.raw_get t.log ~idx);
            note_heal t ~target:"archive-wal" ~id:idx ~how:"live-log";
            out := add_outcome !out { zero_outcome with corrupt = 1; healed = 1 }
          end
          else begin
            note_unhealable t ~target:"archive-wal" ~id:idx;
            out :=
              add_outcome !out { zero_outcome with corrupt = 1; unhealable = 1 }
          end)
        bad_wal;
      (match (Archive.snapshot a, bad_pages) with
      | Some s, _ :: _ ->
          let pages = Array.map Page.copy s.Archive.pages in
          let healed_any = ref false in
          List.iter
            (fun i ->
              note_quarantine t ~target:"archive-page" ~id:i;
              let pid = Page_id.of_int i in
              if Disk.verify_main t.disk pid then begin
                pages.(i) <- Disk.peek_main t.disk pid;
                healed_any := true;
                note_heal t ~target:"archive-page" ~id:i ~how:"live-page";
                out :=
                  add_outcome !out
                    { zero_outcome with corrupt = 1; healed = 1 }
              end
              else begin
                note_unhealable t ~target:"archive-page" ~id:i;
                out :=
                  add_outcome !out
                    { zero_outcome with corrupt = 1; unhealable = 1 }
              end)
            bad_pages;
          if !healed_any then
            Archive.put_snapshot a ~pages
              ~complete_upto:s.Archive.complete_upto ~master:s.Archive.master
      | _ -> ());
      t.media.scrub_checked <- t.media.scrub_checked + (!out).checked;
      if tracing t then
        Obs.Ring.emit t.ring
          (Obs.Event.Scrub_pass
             {
               target = "archive";
               checked = (!out).checked;
               corrupt = (!out).corrupt;
             });
      !out

let scrub t =
  require_settled t;
  ignore (archive_catchup t);
  let out =
    add_outcome
      (add_outcome (scrub_pages t) (scrub_wal t))
      (scrub_archive t)
  in
  t.media.scrub_passes <- t.media.scrub_passes + 1;
  out

let media_counters t =
  ( t.media.scrub_checked,
    t.media.scrub_corrupt,
    t.media.media_heals,
    t.media.scrub_unhealable )

let recover_with_fuel t ~fuel =
  t.od.live <- None;
  match t.config.Config.impl with
  | Config.Eager | Config.Lazy ->
      invalid_arg "Db.recover_with_fuel: only supported for the Rh engine"
  | Config.Rh -> (
      match Aries_rh.recover ~fuel t.env with
      | report ->
          t.tt <- Txn_table.create ();
          t.locks <- Lock_table.create ();
          t.permits <- [];
          `Done report
      | exception Aries_rh.Interrupted -> `Interrupted)

let log_fsyncs t = Log_store.fsyncs t.log
let page_fsyncs t = Disk.fsyncs t.disk

let shutdown t =
  Log_store.flush t.log ~upto:(Log_store.head t.log);
  settle_group t;
  Buffer_pool.flush_all t.pool;
  (* the page writes flush_all issued are only durable once synced *)
  Disk.sync t.disk

let close t =
  Log_store.close t.log;
  Disk.close t.disk

(* --- inspection --- *)

let peek t oid =
  check_oid t oid;
  (* foreground repair: inspection never refuses — it lands the page's
     slice and drains every loser covering the object first *)
  (match t.od.live with
  | None -> ()
  | Some o ->
      On_demand.drain_object o oid;
      maybe_finalize_recovery t);
  let page, slot = place t oid in
  Buffer_pool.read_object t.pool page ~slot

let peek_all t =
  Array.init t.config.Config.n_objects (fun i -> peek t (Oid.of_int i))

let stable_value t oid =
  check_oid t oid;
  let page, slot = place t oid in
  Page.get (Disk.read_page t.disk page) slot

let chain_of t xid =
  let info = info_exn t xid in
  (* head (most recent) first *)
  let rec go lsn acc =
    if Lsn.is_nil lsn then List.rev acc
    else
      let record = Log_store.read t.log lsn in
      go (Record.prev_for record xid) (lsn :: acc)
  in
  go info.last_lsn []

let scopes_of t xid oid = Ob_list.scopes_of (info_exn t xid).ob_list oid
let active_count t = Txn_table.count t.tt
let last_lsn_of t xid = (info_exn t xid).last_lsn

type history_event =
  | Updated of { lsn : Lsn.t; invoker : Xid.t; op : Record.op }
  | Delegated of {
      lsn : Lsn.t;
      from_ : Xid.t;
      to_ : Xid.t;
      op_lsn : Lsn.t option;
    }
  | Compensated of { lsn : Lsn.t; by : Xid.t; undone : Lsn.t }

let object_history t oid =
  check_oid t oid;
  let events = ref [] in
  Log_store.iter_forward t.log
    ~from:(Log_store.truncated_below t.log)
    (fun lsn record ->
      match record.Record.body with
      | Record.Update u when Oid.equal u.oid oid ->
          events :=
            Updated { lsn; invoker = Record.writer_exn record; op = u.op }
            :: !events
      | Record.Delegate { tee; oid = d_oid; op; _ } when Oid.equal d_oid oid ->
          events :=
            Delegated
              {
                lsn;
                from_ = Record.writer_exn record;
                to_ = tee;
                op_lsn = Option.map fst op;
              }
            :: !events
      | Record.Clr { upd; undone; _ } when Oid.equal upd.oid oid ->
          events :=
            Compensated { lsn; by = Record.writer_exn record; undone }
            :: !events
      | _ -> ());
  List.rev !events

let responsible_now t oid =
  check_oid t oid;
  Txn_table.fold t.tt ~init:[] ~f:(fun acc info ->
      List.fold_left
        (fun acc (s : Scope.t) -> (info.xid, s.invoker) :: acc)
        acc
        (Ob_list.scopes_of info.ob_list oid))

let validate t =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun m -> errors := m :: !errors) fmt in
  let head = Log_store.head t.log in
  (* scopes: in-log ranges, and disjoint per (invoker, object) *)
  let all_scopes =
    Txn_table.fold t.tt ~init:[] ~f:(fun acc info ->
        List.map (fun s -> (info.xid, s)) (Ob_list.all_scopes info.ob_list)
        @ acc)
  in
  List.iter
    (fun ((owner : Xid.t), (s : Scope.t)) ->
      if Lsn.(s.first > s.last) then
        err "empty scope leaked into live set: %a (owner %a)" Scope.pp s Xid.pp
          owner;
      if Lsn.is_nil s.first || Lsn.(s.last > head) then
        err "scope %a outside the log (head %a)" Scope.pp s Lsn.pp head)
    all_scopes;
  let rec pairs = function
    | [] -> ()
    | (o1, (s1 : Scope.t)) :: rest ->
        List.iter
          (fun (o2, (s2 : Scope.t)) ->
            if
              Xid.equal s1.invoker s2.invoker
              && Oid.equal s1.oid s2.oid
              && Scope.overlaps s1 s2
            then
              err "same-invoker scopes overlap: %a (owner %a) and %a (owner %a)"
                Scope.pp s1 Xid.pp o1 Scope.pp s2 Xid.pp o2)
          rest;
        pairs rest
  in
  pairs all_scopes;
  (* locks: held by live transactions only; modes pairwise compatible or
     covered by permits *)
  let holders_by_oid : (int, (Xid.t * Mode.t) list) Hashtbl.t =
    Hashtbl.create 32
  in
  Lock_table.iter t.locks (fun oid xid mode ->
      if not (Txn_table.mem t.tt xid) then
        err "lock on %a held by dead transaction %a" Oid.pp oid Xid.pp xid;
      let k = Oid.to_int oid in
      Hashtbl.replace holders_by_oid k
        ((xid, mode) :: Option.value ~default:[] (Hashtbl.find_opt holders_by_oid k)));
  Hashtbl.iter
    (fun k holders ->
      let rec check = function
        | [] -> ()
        | (x1, m1) :: rest ->
            List.iter
              (fun (x2, m2) ->
                let permitted =
                  List.mem (x1, x2) t.permits || List.mem (x2, x1) t.permits
                in
                if
                  (not (Mode.compatible m1 m2))
                  && (not (Mode.compatible m2 m1))
                  && not permitted
                then
                  err "incompatible locks on ob%d: %a:%a vs %a:%a" k Xid.pp x1
                    Mode.pp m1 Xid.pp x2 Mode.pp m2)
              rest;
            check rest
      in
      check holders)
    holders_by_oid;
  (* chains: terminate, strictly decreasing *)
  Txn_table.iter t.tt (fun info ->
      let rec walk lsn last steps =
        if steps > Lsn.to_int head + 1 then
          err "chain of %a does not terminate" Xid.pp info.xid
        else if not (Lsn.is_nil lsn) then begin
          if Lsn.(lsn >= last) then
            err "chain of %a not strictly decreasing at %a" Xid.pp info.xid
              Lsn.pp lsn
          else
            match Log_store.read t.log lsn with
            | record -> walk (Record.prev_for record info.xid) lsn (steps + 1)
            | exception _ ->
                err "chain of %a points at unreadable %a" Xid.pp info.xid
                  Lsn.pp lsn
        end
      in
      walk info.last_lsn (Lsn.next head) 0);
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))
