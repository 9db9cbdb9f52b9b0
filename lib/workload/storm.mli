(** The storm harness core.

    Every storm is a fault plan over five shared pieces:

    - {b the engine handle}: a {!Ariesrh_shard.Sharded} engine at every
      shard count ([shards = 1] is byte-identical to a plain [Db]), one
      fault injector shared by all shards (a single logical I/O clock),
      and one backend scope giving each shard its own directory;
    - {b the workload}: the escalating crash-point sweep ({!sweep}) —
      one generated script replayed with a crash armed at the k-th I/O,
      k escalating until the script survives — or the seeded client
      loop ({!Clients}) against a responsibility ledger;
    - {b restart under fire} ({!recover_until_stable}): re-crashes armed
      into each restart up to a configured depth;
    - {b the checks}: the battery ({!check}) — state against the
      durable-commit oracle, structural invariants, optionally the
      self-audit, and restart idempotence — and the analytic
      time-travel reader ({!time_travel});
    - {b forensics}: per-shard {!Forensics} dumps of the failures a
      check round added.

    The crash, recovery, pressure and media storms all run on these.
    Only the external kill -9 storm keeps its own loop, over a forked
    child process; it shares the plain helpers ({!durable_commits},
    {!dump}, {!make_fault}). *)

open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Sharded = Ariesrh_shard.Sharded

type config = {
  seed : int64;
  tear_data_every : int;
      (** tear every n-th data page write (latent corruption); 0 = never *)
  tear_data_on_crash : bool;  (** tear the page write a crash lands on *)
  tear_log_on_crash : bool;  (** tear the log tail when a crash hits a flush *)
  crash_step : int;  (** escalate the crash I/O point by this *)
  recovery_crash_depth : int;  (** nested crash-during-recovery levels *)
  recovery_crash_gap : int;  (** I/Os into each recovery before re-crash *)
  group_commit : int;
      (** commit-force batch size (see {!Config.t}); [0] (the default)
          forces each commit record as it is written. The oracle is
          group-commit-proof either way: committed = the commit records
          that survived the crash, read straight off the log *)
  record_cache : int;
      (** decoded-record cache capacity ([0] disables); the storm must
          behave identically — same outcomes, same forensic bytes —
          at any setting *)
  audit : bool;
      (** run the restart self-audit ([Db.audit]) after every recovery;
          a violation surfaces as [Audit_failed] and fails the storm.
          Default [true] — storms are exactly where latent chain damage
          would hide *)
  time_travel : bool;
      (** run concurrent analytic time-travel readers: during the sim
          storm and after every check round, [Temporal.snapshot_at] at
          sampled durable commit LSNs must equal the harness's expected
          state at that point (the as_of-equals-ledger oracle). Readers
          run with faults gated off so crash schedules are unchanged.
          They run at [shards = 1] only: an as_of point is a per-shard
          LSN. Default [true] *)
  forensic_dir : string option;
      (** when set, storm databases run with the trace ring enabled and
          every check round that adds failures writes a
          {!Forensics.write} dump per shard into this directory, keyed by
          seed and crash point; [None] (the default) disables both *)
  backend_root : string option;
      (** when set, every storm engine runs on the file backend in its
          own fresh directory under this root, one subdirectory per
          shard (removed again as the iteration ends); [None] (the
          default) keeps the sim backend *)
  shards : int;
      (** shard count of the storm engine ([1], the default, is
          byte-identical to a single [Db]). With several shards, scripted
          sweeps co-home each transaction component on one shard
          ({!Shard_driver.assign_homes}) so the crash sweep walks every
          I/O point of the transfer protocol; sim storms let clients on
          different shards contend, so the refusal path fires too.
          Checks route through the current homes, recovery resolves
          in-doubt transfers and (with [audit]) runs the cross-shard
          pairing audit. Labels and dump names only mention shards when
          there are several *)
}

val default_config : config

(** Counters of every storm on this core; each storm's [pp_outcome]
    prints the ones its fault plan drives. *)
type outcome = {
  mutable runs : int;  (** sweep iterations, or crashes survived *)
  mutable actions : int;  (** workload actions executed *)
  mutable crashes : int;  (** top-level injected crashes *)
  mutable nested_crashes : int;  (** crashes injected during restart *)
  mutable recoveries : int;  (** restarts that completed *)
  mutable torn_writes : int;
  mutable torn_flushes : int;
  mutable amputated : int;  (** corrupt tail records dropped by restarts *)
  mutable repaired_pages : int;
  mutable fault_points : int;  (** crashes + nested + torn writes + tears *)
  mutable checks : int;  (** check-battery rounds *)
  mutable tt_reads : int;  (** time-travel as_of reads performed *)
  mutable tt_refused : int;
      (** reads refused with [History_unavailable] over truncated,
          unbridged history *)
  mutable migrations : int;  (** committed cross-shard transfers *)
  mutable migration_refusals : int;  (** transfers refused (locks held) *)
  mutable xfers_resolved : int;
      (** in-doubt transfer intents closed at restart (either way) *)
  mutable instant_opens : int;
      (** on-demand restarts that returned with a non-empty backlog *)
  mutable drain_steps : int;  (** background sweeper steps driven *)
  mutable refusals : int;  (** probes refused with [Errors.Recovering] *)
  mutable degraded_serves : int;  (** probes served while draining *)
  mutable foreground_repairs : int;  (** [peek] foreground repairs *)
  mutable twin_checks : int;  (** offline-twin equivalence checks *)
  mutable waits : int;  (** times a client parked on a lock *)
  mutable deadlocks : int;  (** waits-for cycles broken *)
  mutable failures : string list;  (** newest first; empty = storm passed *)
}

val fresh_outcome : unit -> outcome
val ok : outcome -> bool
val fail : outcome -> string -> unit

val merge : outcome -> outcome -> outcome
(** Field-wise sum (for aggregating several storms). *)

val pp_failures : Format.formatter -> string list -> unit
(** The [FAIL] lines closing every storm's outcome block. *)

val pp_arr : int array -> string

(** {1 Plain helpers} *)

val durable_commits : Ariesrh_wal.Log_store.t -> Xid.Set.t
(** Transactions whose commit records are durable and decode — what any
    restart will see. Call after a crash. *)

val make_fault :
  seed:int64 ->
  tear_data_every:int ->
  tear_data_on_crash:bool ->
  tear_log_on_crash:bool ->
  Fault.t

val dump :
  ?fault:Fault.t ->
  forensic_dir:string option ->
  seed:int64 ->
  kind:string ->
  ?crash_io:int ->
  ?tag:string ->
  ?expected:int array ->
  fail_before:int ->
  failures:string list ->
  Db.t ->
  unit
(** When a forensic directory is set and [failures] (newest first) grew
    past [fail_before] entries, write a {!Forensics.write} dump of the
    new ones — with [fault] gated off, and swallowing any error. *)

(** {1 The engine handle} *)

val shards_label : config -> string
(** [" shards=N"] with several shards, [""] at one: labels stay those
    of a single-[Db] storm. *)

val committed_in : Sharded.t -> Sharded.xid -> bool
(** Snapshot of the durable commit sets, one per shard. *)

val with_engine :
  config ->
  ?impl:Config.delegation_impl ->
  ?recovery_mode:Config.recovery_mode ->
  ?log_capacity_bytes:int ->
  tag:string ->
  salt:int ->
  ?crash_io:int ->
  n_objects:int ->
  (Fault.t -> Sharded.t -> 'a) ->
  'a
(** Run [f] on a fresh engine in a fresh backend scope ([backend_root/tag],
    removed afterwards), with a fault injector seeded [seed + salt] and,
    if given, a crash armed at I/O [crash_io]. *)

val absorb : outcome -> Fault.t -> Sharded.t -> unit
(** Add the injector's tears and fault points, the router's transfer
    counters and the shards' page repairs. *)

val dump_engine :
  config ->
  outcome ->
  fail_before:int ->
  kind:string ->
  ?crash_io:int ->
  ?tag:string ->
  ?expected:int array ->
  Fault.t ->
  Sharded.t ->
  unit
(** {!dump} per shard: kind [shard-<kind>] and tag [<tag>-s<i>] when
    there are several shards, the plain kind and tag at one. *)

(** {1 Schedule and checks} *)

val offline : outcome -> Sharded.t -> unit
(** The offline restart step: [Sharded.recover], counted. *)

val recover_until_stable :
  config ->
  outcome ->
  restart:(outcome -> Sharded.t -> unit) ->
  Fault.t ->
  Sharded.t ->
  (unit, string) result
(** Drive [restart] with a re-crash armed [recovery_crash_gap] I/Os in,
    answering each injected crash with a crash and another restart, up
    to [recovery_crash_depth] nested crashes; anything else escaping is
    an [Error]. *)

val check :
  outcome ->
  label:string ->
  ?audit:bool ->
  ?idempotence:bool ->
  Fault.t ->
  Sharded.t ->
  int array ->
  unit
(** The check battery against an expected state, faults gated off;
    [idempotence] (default [true]) adds the crash + restart round. *)

val restart_and_check :
  config ->
  outcome ->
  label:string ->
  ?failed:string ->
  ?restart:(outcome -> Sharded.t -> unit) ->
  ?idempotence:bool ->
  Fault.t ->
  Sharded.t ->
  expected:(unit -> int array) ->
  bool
(** Crash, {!recover_until_stable} with [restart] (default {!offline}),
    then {!check} against [expected ()]. [false] when the engine never
    came back; that failure is labelled [failed] (default [label]). *)

val spread : limit:int -> 'a list -> 'a list
(** At most [limit] evenly spaced points, first and last included. *)

val strided : limit:int -> 'a list -> 'a list
(** Every [ceil(n/limit)]-th point, and the last. *)

val time_travel :
  config ->
  outcome ->
  label:string ->
  sample:((Lsn.t * Xid.t) list -> (Lsn.t * Xid.t) list) ->
  expected_at:((Sharded.xid -> bool) -> int array) ->
  Fault.t ->
  Sharded.t ->
  unit
(** The analytic time-travel reader, with [config.time_travel] at one
    shard, faults gated off. While history is intact from the first
    LSN, [Temporal.snapshot_at] at each durable commit point [sample]
    keeps must equal [expected_at counts], [counts x] meaning "x's
    commit record is at or below that point". Once the log is truncated
    with no archive bridging it, reads at the first LSN and at the
    durable horizon must refuse with [Errors.History_unavailable]
    (counted in [tt_refused]). *)

val expect_no_tt_refusals : outcome -> label:string -> unit
(** Fail [outcome] if any time-travel read was refused: for storms whose
    history nothing truncates. *)

(** {1 The client loop} *)

type load = {
  clients : int;
  ops_per_txn : int;  (** max operations per transaction *)
  n_objects : int;
  p_delegate : float;  (** chance an op delegates a touched object *)
  p_read : float;  (** chance any other op reads rather than adds *)
  p_op : float;
      (** share of delegations that move a single update, on [Rh] and
          [Lazy] (§2.1.2's operation granularity); [Eager] always moves
          whole objects *)
}
(** The seeded client mix. At [p_read = 0.] and [p_op = 0.] no read or
    op-level draw is made, so such a load's schedule does not depend on
    those paths (the storms' defaults, pinned by [test/test_golden.ml]). *)

val contended : load
(** The lock-contention mix: 8 clients, up to 6 ops, 32 objects, 20%
    delegation, 30% reads, half of the delegations op-level. *)

type tally = {
  mutable committed : int;
  mutable accesses : int;  (** reads and adds tried, retries included *)
  mutable aborted : int;
      (** rollbacks: one finish in ten, deadlock victims, refused
          accesses *)
  mutable delegations : int;
  mutable overloads : int;  (** typed [Errors.Overloaded] refusals *)
  mutable log_fulls : int;  (** typed [Log_full] refusals *)
  mutable recoverings : int;
      (** typed [Errors.Recovering] refusals (an access landed on an
          object an on-demand restart had not yet drained) *)
  mutable backoffs : int;
  mutable stall_steps : int;  (** scheduler steps spent in backoff *)
  mutable abandoned : int;  (** retry cycles given up *)
  mutable victimized : int;  (** governor kills observed by clients *)
}

(** Closed-loop clients on a {!Sharded} engine — the one seeded client
    loop. Each transaction issues commutative increments and reads, and
    hands touched objects, or single updates, to other open
    transactions on its shard. Every move is recorded in a
    responsibility ledger keyed by façade xid: holder -> the increments
    (object, delta, update LSN) it is responsible for. Entries move only
    on delegation, each successful per-object or per-update call booking
    its own move; a durable commit's force covers every earlier delegate
    record, so summing the entries of durably committed holders is the
    expected state — delegated increments count for the committer.

    Each step draws begin / op count / delegate-or-access / object /
    read-or-add / delta / commit-or-abort from the PRNG in one fixed
    order. Typed refusals consume no randomness:
    - a lock [Conflict] parks the client on the op, retried at its next
      step, with waits-for edges to the holders; a cycle through the
      waiter aborts its youngest participant, whose client begins
      afresh (§2.1.2's 2PL, with commuting increment locks);
    - [Xfer_refused] skips the op;
    - [Overloaded], [Log_full] and [Recovering] keep the responsibility
      (a refused access also rolls the transaction back) and back off
      deterministically, as does victimization by a governor.
    [Injected_crash] propagates to the storm. *)
module Clients : sig
  type t

  val create :
    ?checkpoint_every:int ->
    ?backoff_base:int ->
    ?max_backoff:int ->
    ?max_retries:int ->
    outcome ->
    Sharded.t ->
    load:load ->
    rng:Ariesrh_util.Prng.t ->
    t
  (** Clients dealt round-robin onto the engine's shards. A checkpoint
      follows every [checkpoint_every]-th commit (default never); a
      refused client waits [min max_backoff (backoff_base * 2^(k-1))]
      steps on its k-th retry and gives up after [max_retries] (default
      0: refused work is abandoned at once). A rollback that raises
      [Log_full] fails [outcome]; lock waits and deadlocks are counted
      in it. *)

  val step : ?allow_begin:bool -> t -> now:int -> int -> unit
  (** One step of a client at scheduler time [now]; without
      [allow_begin] an idle client stays idle (a drain). *)

  val run : ?tick:(unit -> unit) -> t -> txns:int -> bool
  (** Run to quota: step the clients round-robin, [tick] once per step
      (the hook a {!Ariesrh_maintenance.Governor} ticks from), until
      each has finished [txns] transactions — committed, or abandoned
      after its retries. A voluntary abort, a deadlock victim or a
      victimization does not count: the client begins again. Then check
      the engine against the ledger over the clients' commits, and
      [Sharded.validate]; [true] when nothing failed. A run that
      exhausts its scheduling budget fails as a live-lock. It registers
      the [ariesrh_sim_*_total] counters and the per-class
      [ariesrh_sim_txn_latency_ios] histograms (begin->commit latency
      in logical I/O-clock ticks, class [read_only], [writer] or
      [delegating]) in shard 0's metrics registry. *)

  val settle : t -> now:int -> unit
  (** Commit (or one time in ten abort) every open transaction. *)

  val reset : t -> unit
  (** Forget every client's transaction (after a crash). *)

  val active : t -> Sharded.xid list
  (** The clients' open transactions. *)

  val state : t -> (Sharded.xid -> bool) -> int array
  (** The ledger's expected state over the holders that count. *)

  val tally : t -> tally

  val expect_no_refusals : t -> label:string -> unit
  (** Fail the outcome if any client saw [Overloaded], [Log_full] or
      victimization: for storms with no governor and no log bound. *)
end

type iteration = {
  sh : Sharded.t;
  fault : Fault.t;
  script : Script.t;
  homes : (int, int) Hashtbl.t;  (** transaction -> shard *)
  xid_map : (int, Sharded.xid) Hashtbl.t;
  executed : int;  (** actions completed before the crash *)
  crash_io : int;
  label : string;
}

val sweep :
  config:config ->
  impl:Config.delegation_impl ->
  ?recovery_mode:Config.recovery_mode ->
  ?audit:bool ->
  ?dump_kind:string ->
  name:string ->
  tag:string ->
  restart:(outcome -> Sharded.t -> unit) ->
  on_checked:(outcome -> iteration -> unit -> unit) ->
  Gen.spec ->
  outcome
(** The escalating crash-point sweep over [Gen.generate spec
    ~seed:config.seed]. Each iteration runs the script to the armed
    crash, restarts with {!recover_until_stable}, runs {!check} (with
    [audit]) and then [on_checked] inside the iteration's backend scope;
    the function [on_checked] returns runs after the scope is torn down.
    Failures are labelled [<name>[ shards=N] crash_io=K]; backend
    directories are [<tag>io<K>]; with [dump_kind] each check round that
    failed writes {!dump_engine} dumps. *)
