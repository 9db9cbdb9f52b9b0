(** The database engine: WAL + buffer pool + locks + transactions +
    delegation, with ARIES/RH (or a baseline) restart recovery.

    Normal processing follows §3.5 of the paper; {!crash} simulates a
    failure (volatile state lost, stable log prefix and disk pages
    survive) and {!recover} runs the restart algorithm selected by the
    configuration. *)

open Ariesrh_types

type t

val create :
  ?fault:Ariesrh_fault.Fault.t ->
  ?backend:Ariesrh_storage.Backend.t ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?shard:int ->
  Config.t ->
  t
(** [fault] (default inert) is threaded into the disk, the log store and
    the buffer pool; a torn-page repair callback is installed so that
    checksum-failing pages are repaired transparently on fetch.

    [backend] (default [Sim]) selects the stable-storage device behind
    the disk and the log. With [File { dir }] the durable state lives in
    real files under [dir] (segmented WAL, fsynced on force; page file
    with a doublewrite shadow region), and creating a database over an
    existing directory is the {e reopen} path: the surviving WAL frames
    become the durable log prefix, the page images come back as stored
    (torn ones included), and xid allocation resumes above every xid the
    log mentions. Call {!recover} to bring the reopened state to a
    consistent point, exactly as after {!crash}.

    [tracing] (default [false]) enables the structured trace ring from
    the first operation; [trace_capacity] bounds its memory (default
    {!Ariesrh_obs.Ring.default_capacity} entries). Every database also
    carries a metrics registry ({!metrics}) into which the log store,
    disk, buffer pool, fault injector and the engine's own tallies are
    registered at creation — snapshotting it is always available and
    costs nothing until read. Every sample carries
    [backend="sim"|"file"] and [shard="<i>"] labels.

    [shard] (default [0]) is the index this database occupies inside a
    {!Sharded} engine; it only stamps the metrics label — a standalone
    database and shard 0 of a sharded one are indistinguishable. *)

val config : t -> Config.t

val shard : t -> int
(** The shard index given at {!create} ([0] for a standalone db). *)

val fault : t -> Ariesrh_fault.Fault.t

val backend : t -> Ariesrh_storage.Backend.t

val log_fsyncs : t -> int
(** Lifetime WAL fsyncs (segments + control file); [0] on sim. An
    accessor, not a metric, so forensic dumps stay byte-comparable
    across backends. *)

val page_fsyncs : t -> int
(** Lifetime page-file fsyncs; [0] on sim. *)

(** {1 Observability} *)

val ring : t -> Ariesrh_obs.Ring.t
(** The structured trace ring. Disabled by default; see {!set_tracing}. *)

val metrics : t -> Ariesrh_obs.Metrics.t
(** The database's metrics registry (pull-based; snapshot to read). *)

val set_tracing : t -> bool -> unit
(** Toggle trace-event capture at runtime. *)

val set_create_hook : (t -> unit) option -> unit
(** Session-global hook invoked with every database subsequently
    created; the CLI uses it to aggregate metrics across the many
    databases a command may build. [None] uninstalls. *)

val set_backend_factory : (unit -> Ariesrh_storage.Backend.t) option -> unit
(** Session-global default backend for databases created without an
    explicit [~backend] (a factory, because each file-backed database
    needs its own directory). The CLI's [--backend file] installs one so
    every database a subcommand builds — including those created deep
    inside figures or storms — lands on real files. [None] (the initial
    state) means [Sim]. *)

(** {1 Transactions} *)

val begin_txn : t -> Xid.t
(** Initiate and begin a fresh transaction (logs its begin record). *)

val commit : t -> Xid.t -> unit
(** Commit: commit record, log force, lock release, end record. Every
    update the transaction is responsible for — its own or delegated to
    it — becomes permanent. Raises {!Errors.Txn_not_active} as needed.

    With [Config.group_commit > 1] the per-commit force is replaced by a
    shared one: the commit joins a pending group and the log is forced
    once when the batch fills (or at {!flush_commits}, a checkpoint, a
    shutdown/backup quiesce, or as a side effect of any flush covering
    the group). Locks are still released and the transaction ends
    immediately — only {e durability} is deferred: a crash before the
    shared force loses the group's commit records and those transactions
    roll back at restart. Use {!set_commit_durable_hook} to learn when a
    commit actually hardened. *)

val flush_commits : t -> unit
(** Explicit group-commit barrier: force the log up to the highest
    pending commit record and notify every waiter. No-op when no commits
    are pending. *)

val set_commit_durable_hook : t -> (Xid.t -> unit) option -> unit
(** [f xid] fires exactly when [xid]'s commit record is known durable:
    synchronously inside {!commit} without group commit, at the closing
    force (or any covering flush) with it. Waiters lost to a crash never
    fire — their transactions roll back. Oracles that must track the set
    of durable commits even across log truncation hook in here. *)

val abort : t -> Xid.t -> unit
(** Roll back every update the transaction is responsible for (§3.5:
    CLRs over its scopes, sweeping the log backward no further than the
    oldest scope), then abort + end records. Updates it delegated away
    are untouched. *)

val is_active : t -> Xid.t -> bool

val savepoint : t -> Xid.t -> Lsn.t
(** Mark the current point in history (the log head). *)

val rollback_to : t -> Xid.t -> Lsn.t -> unit
(** Partial rollback: undo (with CLRs) every update the transaction is
    responsible for whose LSN is above the savepoint, leaving the
    transaction active. Updates invoked before the savepoint — it is a
    global point, so this includes updates later delegated in — are
    untouched; delegations {e out} performed after the savepoint are
    responsibility transfers, not updates, and are not reversed. *)

(** {1 Operations on objects} *)

val read : t -> Xid.t -> Oid.t -> int
(** S-lock then read. Raises {!Errors.Conflict} when blocked. *)

val write : t -> Xid.t -> Oid.t -> int -> unit
(** X-lock, log a [Set] with before/after images, apply in place. *)

val add : t -> Xid.t -> Oid.t -> int -> unit
(** Increment-lock, log an [Add] delta, apply in place. [Add]s commute,
    so several transactions may hold increment locks on one object —
    and each can delegate its own increments independently. *)

(** {1 Delegation and sharing} *)

val delegate : t -> from_:Xid.t -> to_:Xid.t -> Oid.t -> unit
(** [delegate(t1, t2, ob)]: transfer responsibility for every update on
    [ob] that [t1] is responsible for to [t2] (§3.5), together with
    [t1]'s lock on [ob]. Raises {!Errors.Not_responsible} if [t1] is not
    responsible for [ob], {!Errors.Txn_not_active} if either side is not
    active. *)

val delegate_update : t -> from_:Xid.t -> to_:Xid.t -> Oid.t -> Lsn.t -> unit
(** Operation-granularity delegation — the paper's general §2.1.2 model:
    transfer responsibility for the {e single} update identified by its
    LSN (as returned by a [write]/[add] at the time, or found in a
    scope). The covering scope is split around it. Only supported on the
    [Rh] and [Lazy] engines; raises [Invalid_argument] under [Eager]
    (whose physical surgery is object-granularity, like §3's
    implementation). Raises {!Errors.Not_responsible} if no scope of the
    delegator covers the operation. *)

val delegate_all : t -> from_:Xid.t -> to_:Xid.t -> unit
(** Delegate every object in the delegator's Ob_List (the [delegate
    (t2, t1)] form used by join and nested commit in §2.2).

    All or nothing: it either moves every object or raises before moving
    any. The typed refusals ([Errors.Overloaded], and
    [Ariesrh_wal.Log_store.Log_full] when the logical [Delegate] records
    of all the objects do not fit) are raised up front; the space of
    those records is reserved before the first object moves, so eager's
    per-object surgery falls back to its reserved logical record instead
    of refusing midway. A delegator with an empty Ob_List is a no-op. *)

val permit : t -> holder:Xid.t -> grantee:Xid.t -> unit
(** ASSET's [permit]: the grantee's lock requests ignore locks held by
    [holder]. Dies when either transaction terminates. *)

val responsible_objects : t -> Xid.t -> Oid.t list
(** The transaction's Ob_List (objects it is currently responsible
    for). *)

(** {1 Failure and recovery} *)

val checkpoint : t -> unit
(** Fuzzy checkpoint: begin/end records carrying the transaction table,
    dirty page table, and Ob_Lists with scopes; sets the master record. *)

val truncation_horizon : t -> Lsn.t
(** The oldest LSN any future restart or rollback could need: the
    minimum over the master checkpoint record, every dirty page's
    recLSN, and — with delegation — every live transaction's oldest
    {e scope} beginning. Delegated-in scopes reach back to updates whose
    invokers committed long ago, so delegation pins the log: the
    experiment harness measures this (E8). Returns [Lsn.nil] when no
    checkpoint has completed (nothing may be reclaimed yet). *)

val truncate_log : t -> int
(** Reclaim the log prefix below {!truncation_horizon}; returns how many
    records were discarded. *)

val set_external_pin : t -> Lsn.t -> unit
(** Extra truncation pin owned by an outer layer (combined with the
    media pins by {!truncate_log}): a {!Sharded} router pins each
    shard's log at the oldest in-flight transfer intent so restart
    resolution and home-table reconstruction can always read it.
    [Lsn.nil] (the initial value) removes the constraint. *)

(** {1 Cross-shard transfer primitives}

    The three forced system records of the [Sharded] two-phase
    migration protocol. Sequencing and resolution live in the router
    ([Ariesrh_shard.Sharded] / [Ariesrh_recovery.Xfer]); each primitive
    appends one record and forces the log through it. *)

val lock_holders : t -> Oid.t -> (Xid.t * Ariesrh_lock.Mode.t) list
(** Transactions currently holding a lock on the object (any mode). The
    router refuses to migrate an object that is locked. *)

val xfer_out :
  t -> xfer_id:int -> hop:int -> oid:Oid.t -> target:int -> value:int -> Lsn.t
(** Force the transfer intent on the source shard's log.
    Admission-checked: may raise [Ariesrh_wal.Log_store.Log_full], in
    which case nothing happened and the migration is simply abandoned. *)

val xfer_in :
  t -> xfer_id:int -> hop:int -> oid:Oid.t -> source:int -> value:int -> Lsn.t
(** Force the transfer record on the target shard's log and apply the
    carried value to the target page (page-LSN conditioned, exactly as
    the forward pass would redo it). The durable presence of this record
    is the commit point of the transfer. Admission-checked. *)

val xfer_end : t -> xfer_id:int -> oid:Oid.t -> committed:bool -> Lsn.t
(** Force the end record closing the intent on the source shard's log.
    Rides the reserved log headroom (like CLRs), so resolution never
    dies of [Log_full]. *)

(** {1 Log-space governance}

    With [Config.log_capacity_bytes] / [log_capacity_records] set, the
    WAL enforces admission: {!begin_txn}, {!write}, {!add}, {!delegate}
    and {!delegate_update} may raise [Ariesrh_wal.Log_store.Log_full].
    Rollback and resolution never do — every admitted update reserves
    space for its CLR up front, and every transaction reserves its
    Abort/End pair at begin. Delegation moves CLR reservations between
    transactions along with responsibility, so the guarantee survives
    arbitrary delegation chains and crash-restart. *)

val log_pressure : t -> float
(** [(used + reserved) / capacity] of the WAL, worse of the byte and
    record ratios; [0.] when unbounded. *)

val horizon_pinners : t -> (Xid.t * Lsn.t) list
(** Active transactions pinning the truncation horizon, each with the
    LSN it pins (its begin record or the start of its oldest scope,
    delegated-in scopes included), oldest pin first. Who to victimize
    when truncation cannot reclaim enough. *)

val set_backpressure : t -> begins:bool -> delegations:bool -> unit
(** Governor backpressure: with [begins] set, {!begin_txn} raises
    [Errors.Overloaded]; with [delegations] set, {!delegate} and
    {!delegate_update} do. Both flags reset on {!crash}. *)

val backpressure : t -> bool * bool
(** [(refuse_begins, refuse_delegations)]. *)

val crash : t -> unit
(** Lose all volatile state. Active transactions are gone; the log keeps
    its flushed prefix; the disk keeps previously written pages. *)

(** {1 Media recovery} *)

type backup
(** A fuzzy-free archive copy: {!backup} quiesces (flushes pages and
    log) and snapshots the disk image together with the LSN it is
    complete up to. *)

val backup : t -> backup
(** Also pins the log at the backup point (see {!truncate_log}): media
    replay needs every record from there forward, so truncation will not
    reclaim past it until {!release_backup_pin}. *)

val release_backup_pin : t -> unit
(** Drop the truncation pin the last {!backup} installed — the caller
    has discarded (or no longer trusts) the in-memory backup. After
    this, {!restore_media} with an old backup may legitimately raise
    [Errors.Log_truncated_past_backup]. *)

val backup_pin : t -> Lsn.t
(** The backup pin currently in force; [Lsn.nil] when none. *)

val media_failure : t -> unit
(** The data disk is destroyed (all pages zeroed) along with volatile
    state. The log device survives — as in ARIES, media recovery
    requires the log. *)

val restore_media : t -> backup -> Ariesrh_recovery.Report.t
(** Restore the archive image, roll it forward by replaying the log
    from the backup point (redo conditioned on page LSNs), then run
    normal restart recovery for the transactions in flight at the
    failure. Raises [Errors.Log_truncated_past_backup] if the log was
    truncated past the backup point (the records needed to roll forward
    are gone). *)

(** {1 The media archive}

    A durable copy of last resort ({!Ariesrh_storage.Archive}): a
    checksummed page snapshot plus a continuous copy of every sealed
    durable WAL record. While an archive is attached, {!truncate_log}
    pins reclamation behind the archive horizon — with continuous
    archiving on, [Errors.Log_truncated_past_backup] cannot happen —
    and catches the archive up before every truncation. *)

val attach_archive : ?dir:string -> t -> Ariesrh_storage.Archive.t
(** Create (or reopen, under [dir]) an archive matching this database's
    geometry, attach it, and copy the durable log in. *)

val set_archive : t -> Ariesrh_storage.Archive.t -> unit
(** Attach an existing archive. Raises [Invalid_argument] on a geometry
    mismatch or if one is already attached. *)

val archive : t -> Ariesrh_storage.Archive.t option

val archive_catchup : t -> int
(** Copy every newly-sealed durable record into the archive (never a
    record a pending torn flush may still amputate); returns how many
    were copied. Runs automatically on {!truncate_log} and from the
    governor's tick. Safe no-op without an archive. *)

val archived_upto : t -> int
(** Records with 0-based log index below this are archived ([0] without
    an archive). *)

val backup_to_archive : t -> Lsn.t
(** Quiesce, snapshot the full page image into the archive, and catch
    the WAL copy up: after this the archive alone rebuilds the exact
    committed state ({!restore_from_archive}). Returns the LSN the
    snapshot is complete up to. Raises [Invalid_argument] without an
    archive. *)

val restore_from_archive :
  t -> Ariesrh_storage.Archive.t -> Ariesrh_recovery.Report.t
(** Cold restore after {e total} media loss (data {e and} log devices):
    into a fresh, empty database of the same geometry, install the
    snapshot pages and the archived WAL, replay history since the
    snapshot (page-LSN conditioned), and run restart recovery. The
    archive is attached afterwards. Raises [Invalid_argument] if the
    database is not empty or the geometry differs, and
    [Archive.Archive_corrupt] if the archive holds no snapshot. *)

(** {1 The scrubber: detect, quarantine, heal}

    Incremental checksum sweeps over the three media: data pages (main
    {e and} doublewrite shadow, plus their agreement — two checksum-valid
    images that differ are the signature of a lost or misdirected
    write), the durable WAL (every record carries its own trailing
    checksum), and the archive's own files. Corruption is quarantined
    (traced, counted, listed) and healed from the best redundant source:
    a page from its shadow (or the archive snapshot) plus page-LSN
    conditioned replay via {!Ariesrh_recovery.Repair}; a WAL record
    from its archived copy; an archived frame from the live log. Heal
    I/O runs with the fault injector held off, so scrubbing never
    shifts a crash schedule. *)

type scrub_outcome = {
  checked : int;
  corrupt : int;  (** newly quarantined this sweep *)
  healed : int;
  unhealable : int;  (** left quarantined — no intact source *)
}

val scrub : t -> scrub_outcome
(** Full sweep: archive catchup, then pages, durable WAL, archive. *)

val scrub_pages : ?first:int -> ?count:int -> t -> scrub_outcome
(** Sweep [count] pages starting at page [first] (defaults: all). *)

val scrub_wal : ?first:int -> ?count:int -> t -> scrub_outcome
(** Sweep [count] durable records starting at 0-based absolute index
    [first] (clamped to the retained durable window; defaults: all). *)

val scrub_archive : t -> scrub_outcome
(** Recheck every archive checksum; heal from the live copies. *)

val quarantined : t -> (string * int) list
(** Corruption found but not healed, as [(target, id)] — [target] one of
    ["page"], ["wal"], ["archive-page"], ["archive-wal"]. A later sweep
    that heals the object removes it. *)

val media_counters : t -> int * int * int * int
(** [(checked, corrupt, heals, unhealable)] lifetime scrubber tallies —
    also exported as the [ariesrh_scrub_*] / [ariesrh_media_heals_total]
    metrics. *)

val recover : t -> Ariesrh_recovery.Report.t
(** Restart recovery per the configured implementation: [Rh] runs
    ARIES/RH; [Eager] runs conventional ARIES (the log was physically
    rewritten at delegation time); [Lazy] runs ARIES/RH plus the
    physical rewrite it models.

    With [Config.recovery_mode = On_demand], only the restart preamble
    and a pure analysis pass run before [recover] returns — cost bounded
    by the checkpoint interval — and the store opens for traffic
    immediately. Redo happens lazily per page (first touch or
    {!recovery_step}), undo lazily per loser; an access to an object a
    loser's scope still covers is refused with the retryable
    {!Errors.Recovering}. {!checkpoint} is a no-op, {!truncate_log}
    reclaims nothing, and whole-store media operations raise
    {!Errors.Recovery_incomplete} until the backlog drains
    ({!await_recovery}); [Config.audit]'s self-audit runs at
    convergence instead of at return. The returned report covers the
    analysis pass; undo work accrues afterwards.

    On every engine, restart first resolves rewrite system transactions
    ({!Ariesrh_recovery.Rewrite.recover_surgeries}): an un-ended eager
    chain surgery is rolled forward when its apply phase had completed
    and rolled back otherwise, so a crash at {e any} I/O point of a
    delegation leaves exactly the pre- or post-surgery log. If a
    degraded eager run ([rewrite_fallbacks]) left logical delegate
    records behind, recovery detects them and heals through the lazy
    path, splicing them physically; the engine leaves degraded mode.

    With [Config.audit] set, a self-audit pass ({!audit}) runs after
    recovery and raises [Ariesrh_recovery.Audit.Audit_failed] if the
    durable log violates a chain-closure invariant. *)

val audit : t -> string list
(** Walk the durable log and check the restart invariants (strictly
    decreasing chains, CLR targets, surgery bracketing, re-attribution
    provenance); returns the violations, [[]] when clean. {!recover}
    runs this automatically — and raises — when [Config.audit] is
    set. *)

val degraded : t -> bool
(** The store is up but not fully itself: the eager engine fell back to
    a logical delegate record (scope-based rollback is in force until
    the next {!recover} heals the log), or an on-demand restart is
    still draining its backlog ({!recovering}). *)

val recovering : t -> bool
(** An [On_demand] restart has opened the store but not yet drained its
    backlog. *)

val recovery_backlog : t -> int
(** Remaining on-demand restart work: pages awaiting their redo slice
    plus losers awaiting undo ([0] when not {!recovering}; also the
    [ariesrh_recovery_backlog] gauge). *)

val recovery_step : t -> bool
(** One unit of background drain (deterministic order: oldest loser,
    else lowest pending page); returns whether the store is {e still}
    recovering. The governor calls this from its tick. *)

val await_recovery : t -> unit
(** Drain the whole backlog, then finalize: flush, and run the deferred
    self-audit when [Config.audit] is set. No-op when not recovering. *)

val recovery_served_degraded : t -> int
(** Lifetime count of transactional accesses served while an on-demand
    restart was draining (also the
    [ariesrh_recovery_served_degraded_total] metric). *)

val rewrite_fallbacks : t -> int
(** How many eager delegations fell back to logical delegate records
    (also exported as the [ariesrh_rewrite_fallbacks_total] metric). *)

val recover_with_fuel :
  t -> fuel:int -> [ `Done of Ariesrh_recovery.Report.t | `Interrupted ]
(** Like {!recover} but (for [Rh] only) the backward pass dies after
    [fuel] CLRs, as if the machine crashed mid-recovery. On
    [`Interrupted], call {!crash} and recover again. *)

val shutdown : t -> unit
(** Clean stop: flush the log and all dirty pages (and on the file
    backend, sync the page file). Does not release file descriptors —
    see {!close}. *)

val close : t -> unit
(** Release the file backend's descriptors (idempotent; no-op on sim).
    The database must not be used afterwards. Distinct from {!shutdown}
    so harnesses can flush state yet keep operating the same handle. *)

(** {1 Inspection (tests, figures, experiments)} *)

val peek : t -> Oid.t -> int
(** Current value of an object, bypassing transactions and locks. While
    {!recovering}, peek never refuses: it repairs in the foreground
    (lands the page's redo slice, drains every covering loser) so the
    committed value is always inspectable. *)

val peek_all : t -> int array
(** Values of all objects in oid order. *)

val stable_value : t -> Oid.t -> int
(** Value on disk, ignoring the buffer pool — what a crash would leave
    behind before recovery. *)

val log_store : t -> Ariesrh_wal.Log_store.t

val disk_stats : t -> Ariesrh_storage.Disk.stats

val pool_counters : t -> int * int * int
(** (hits, misses, evictions) of the buffer pool. *)

val env : t -> Ariesrh_recovery.Env.t

val repairs_total : t -> int
(** Lifetime count of torn data pages repaired on fetch (normal
    operation and restart alike); see [Ariesrh_recovery.Repair.page]. *)

val place : t -> Oid.t -> Page_id.t * int
val chain_of : t -> Xid.t -> Lsn.t list
(** The live transaction's backward chain, head first. *)

val scopes_of : t -> Xid.t -> Oid.t -> Ariesrh_txn.Scope.t list
val active_count : t -> int
val last_lsn_of : t -> Xid.t -> Lsn.t

type history_event =
  | Updated of { lsn : Lsn.t; invoker : Xid.t; op : Ariesrh_wal.Record.op }
  | Delegated of {
      lsn : Lsn.t;
      from_ : Xid.t;
      to_ : Xid.t;
      op_lsn : Lsn.t option;  (** operation-granularity delegations *)
    }
  | Compensated of { lsn : Lsn.t; by : Xid.t; undone : Lsn.t }

val object_history : t -> Oid.t -> history_event list
(** Everything the log records about one object, oldest first: its
    updates, the delegations that rewrote their responsibility, and the
    compensations that undid them. The story ARIES/RH {e interprets}
    instead of rewriting, made visible (also: the [history] subcommand
    of the CLI). *)

val responsible_now : t -> Oid.t -> (Xid.t * Xid.t) list
(** Current (responsible transaction, invoker) pairs over the live
    scopes on the object, across all active transactions. *)

val validate : t -> (unit, string) result
(** Structural self-check of the live engine state:
    {ul
    {- live scopes lie within the log and, per (invoker, object), never
       overlap across Ob_Lists — the §3.5 remark's invariant;}
    {- every lock is held by a live transaction, and incompatible modes
       never coexist on one object;}
    {- every live transaction's backward chain walks to its beginning
       with strictly decreasing LSNs.}}
    Used by the property suite after random workloads. *)
