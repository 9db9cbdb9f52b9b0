(** N independent engines behind the single-database API.

    Objects are hash-partitioned across [config.shards] shards, each a
    complete {!Ariesrh_core.Db} of its own (per-shard WAL, buffer pool,
    lock table, metrics shard label). Transactions are pinned to one
    shard for their whole life; touching an object homed elsewhere
    first {e migrates} it — a crash-atomic two-phase transfer of the
    object's durably committed state, built from the same forced-intent
    discipline as the rewrite system transactions:

    + forced [Xfer_out] intent on the source shard,
    + forced [Xfer_in] (marker + value adoption in one record) on the
      target — its durable presence is the transfer's commit point,
    + [Xfer_end] closing the intent through reserved log headroom,
      posted to the source without waiting ({!Shard_pool.post}); the
      object stays claimed until it is logged.

    Every shard job runs through one executor: a {!Shard_pool} domain
    pool, or the single-domain executor ({!Shard_pool.inline}), which
    runs a posted close at once. Both run this one protocol.

    A crash at any I/O point leaves the pair resolvable at restart:
    {!recover} runs per-shard recovery (in parallel on a domain pool),
    closes in-doubt intents forward or
    backward from the target-side evidence ({!Ariesrh_recovery.Xfer}),
    rebuilds the routing tables from the durable logs alone, and — with
    [config.audit] — cross-checks every transfer pair across shards.

    Ops on an object run only on the shard its availability word
    names; the check is one atomic read inside the shard's job, off the
    router mutex.

    [shards = 1] never migrates and is byte-identical to a plain [Db]. *)

open Ariesrh_types
module Db = Ariesrh_core.Db
module Config = Ariesrh_core.Config

type t

type xid = { shard : int; txn : Xid.t }
(** A transaction handle: raw xids are per-shard and collide across
    shards, so the façade pairs them with the owning shard. *)

val pp_xid : Format.formatter -> xid -> unit

type counters = {
  migrations : int;  (** committed cross-shard transfers *)
  migrations_refused : int;  (** transfers refused because of live locks *)
  resolved_forward : int;  (** in-doubt intents rolled forward at restart *)
  resolved_back : int;  (** in-doubt intents rolled back at restart *)
}

val create :
  ?fault:Ariesrh_fault.Fault.t ->
  ?tracing:bool ->
  ?pool:Shard_pool.t ->
  Config.t ->
  t
(** [config.shards] engines. A [fault] injector, when given, is shared
    by every shard — the single logical I/O clock the deterministic
    storms count on (share one only on the single-domain executor);
    without one each shard gets its own inert injector. [pool] (size
    must equal [config.shards]) is the executor every shard job runs
    on, usually a domain pool that routes each shard's work to its own
    domain; without it the router runs on {!Shard_pool.inline}, every
    job on the caller. Backends come from {!Db.set_backend_factory}, so
    [--backend file] hands each shard its own directory. *)

val shards : t -> int
val config : t -> Config.t

val db : t -> int -> Db.t
(** Direct access to one shard's engine (forensics, metrics, tests). *)

val dbs : t -> Db.t array

val counters : t -> counters

val base_home : t -> Oid.t -> int
(** Hash home of an object: where it lives before any migration. *)

val home : t -> Oid.t -> int
(** Current home (base, unless the object has migrated). *)

(** {1 Cross-shard migration} *)

val migrate : t -> Oid.t -> target:int -> unit
(** Move an object's durably committed state to [target] with the
    two-phase transfer protocol. No-op if already homed there. Raises
    {!Ariesrh_core.Errors.Xfer_refused} while any transaction holds a
    lock on the object — migration never preempts — and re-raises
    [Log_full] from either side's admission check (source-side: nothing
    happened; target-side: the durable intent is rolled back first). *)

(** {1 The single-database API, routed}

    Ops route to the transaction's shard; {!read}, {!write} and {!add}
    migrate the object there first when it is homed elsewhere
    (migrate-on-touch). Delegation and permits are same-shard —
    cross-shard responsibility moves via {!migrate}, not across live
    transactions. *)

val begin_txn : t -> shard:int -> xid
val commit : t -> xid -> unit
val abort : t -> xid -> unit
(** Aborting a transaction after a transfer to its shard was refused
    runs the executor's {!Shard_pool.pause} before returning: on a
    domain pool up to 400 µs (random, serving the worker's queue), so
    that retrying at once cannot livelock against the holder; nothing
    on the single-domain executor. *)

val is_active : t -> xid -> bool
val savepoint : t -> xid -> Lsn.t
val rollback_to : t -> xid -> Lsn.t -> unit
val read : t -> xid -> Oid.t -> int
val write : t -> xid -> Oid.t -> int -> unit
val add : t -> xid -> Oid.t -> int -> unit
val delegate : t -> from_:xid -> to_:xid -> Oid.t -> unit
val delegate_update : t -> from_:xid -> to_:xid -> Oid.t -> Lsn.t -> unit
val delegate_all : t -> from_:xid -> to_:xid -> unit
val permit : t -> holder:xid -> grantee:xid -> unit
val responsible_objects : t -> xid -> Oid.t list

(** {1 Whole-engine operations} *)

val flush_commits : t -> unit
val checkpoint : t -> unit

val truncate_log : t -> int
(** Sum of records dropped across shards. Each shard's horizon also
    respects the router's external pin: the latest [Xfer_in] of every
    migrated object stays readable for home reconstruction. *)

val crash : t -> unit

val recover : t -> Ariesrh_recovery.Report.t array
(** Per-shard recovery (parallel on a domain pool, in shard order on
    the single-domain executor, stopping at the first raise), transfer
    resolution,
    routing-table rebuild, and — with [config.audit] — the cross-shard
    transfer audit (raising {!Ariesrh_recovery.Audit.Audit_failed} on
    violation), in that order.

    With [Config.recovery_mode = On_demand] each shard runs only its
    analysis pass before this returns (parallel on a domain pool — the
    forward pass is partitioned by shard), and every shard is
    incrementally available afterwards: accesses drain on first touch
    or refuse with [Errors.Recovering], and the backlog is drained by
    {!recovery_step}/{!await_recovery} or the per-shard governors.
    Transfer resolution and routing rebuild are log-only, so they are
    safe before any page is redone; a migration of an undrained object
    repairs it in the foreground first. *)

val recovering : t -> bool
(** Any shard still has on-demand restart backlog. *)

val recovery_backlog : t -> int
(** Total remaining on-demand restart work across shards. *)

val recovery_step : t -> bool
(** One background drain unit on {e every} shard still recovering (in
    parallel on a domain pool); returns whether any backlog remains. *)

val await_recovery : t -> unit
(** Drain every shard's backlog to convergence (parallel on a domain
    pool). *)

val audit : t -> string list
(** Per-shard {!Db.audit} findings (prefixed with the shard) plus the
    cross-shard transfer pairing audit. *)

val validate : t -> (unit, string) result
(** Per-shard {!Db.validate}, the cross-shard transfer audit, and the
    router's own state: no transfer claim or in-flight intent may be
    outstanding. Call it with no migration running; closes posted
    before it have drained by the time it checks. *)

val peek : t -> Oid.t -> int
(** Committed value, read at the object's current home. *)

val peek_all : t -> int array
val active_count : t -> int
val shutdown : t -> unit
val close : t -> unit
