(** Crash storms under a bounded, shrinking log.

    The pressure storm crosses {!Crash_storm}'s simulated storm with the
    log-space machinery this repo grew around it: the WAL has a hard
    byte capacity, a {!Ariesrh_maintenance.Governor} ticks on every
    scheduler step (checkpointing, truncating, and applying
    delegation-aware backpressure), a {!Ariesrh_fault.Fault} squeeze
    shrinks the capacity mid-run, and injected crashes with torn log
    tails keep firing throughout.

    The clients are the shared {!Storm.Clients} loop on a one-shard
    engine: typed [Errors.Overloaded] / [Log_store.Log_full] refusals
    roll back and retry with deterministic exponential backoff, and the
    responsibility ledger reconciles the engine state against the
    oracle after {e every} restart.

    What the storm proves, beyond the state oracle:
    - rollback and restart recovery never raise [Log_full] — they draw
      on reserved space ([abort]) or bypass admission (recovery);
    - every refusal is a typed error; any raw [Invalid_argument] or
      assertion escaping the engine fails the storm;
    - after the storm, with crashes disarmed, surviving clients drain:
      backoff-retry eventually commits the remaining work even while
      the governor stays engaged.

    One wrinkle relative to the crash storm's oracle: the governor
    truncates the log while the storm runs, so "which commit records are
    durable" can no longer be re-derived by scanning — truncation
    reclaims old commit records. The harness accumulates the durable
    commit set monotonically instead: a scan at every crash (before
    recovery, when the stable prefix is intact) plus a
    {!Db.set_commit_durable_hook} subscription that fires exactly when
    each commit record hardens — at [commit] return when commits force
    eagerly, or at the batched force under group commit. *)

open Ariesrh_core
module Governor := Ariesrh_maintenance.Governor

type config = {
  seed : int64;
  impl : Config.delegation_impl;
  load : Storm.load;  (** the client mix *)
  steps : int;  (** scheduler steps of the storm phase *)
  capacity_bytes : int;  (** hard WAL byte budget *)
  crash_every : int;  (** I/Os between injected crashes; [0] = none *)
  recovery_crash_depth : int;  (** nested crashes during each restart *)
  recovery_crash_gap : int;  (** I/Os into recovery before a re-crash *)
  squeeze_every : int;  (** appends between capacity squeezes; [0] = none *)
  squeeze_keep : float;  (** capacity multiplier per squeeze *)
  max_squeezes : int;
  governor : Governor.config;
  backoff_base : int;
  max_backoff : int;
  max_retries : int;
  group_commit : int;
      (** commit-force batch size passed through to {!Config.t}; [0]
          (the default) forces every commit record individually. The
          storm's durable-commit oracle tracks hardening via
          {!Db.set_commit_durable_hook}, so it stays exact either way *)
  record_cache : int;  (** decoded-record cache capacity ([0] disables) *)
  audit : bool;
      (** run the restart self-audit after every recovery (default
          [true]); violations fail the storm *)
  time_travel : bool;
      (** run {!Storm.time_travel} in every check round (default
          [true]): exact answers while the log is untruncated, typed
          [Errors.History_unavailable] refusals once the governor
          truncates (no archive is attached here) *)
  forensic_dir : string option;
      (** when set, the storm database runs with the trace ring enabled
          and every check round that adds failures writes a
          {!Forensics.write} dump into this directory; [None] (the
          default) disables both *)
  backend_root : string option;
      (** when set, the storm database runs on the file backend in a
          fresh directory under this root (removed again when the storm
          ends); [None] (the default) keeps the sim backend *)
}
(** The storm runs at one shard, with torn log tails on every crash and
    no torn pages. *)

val default_config : config
(** 4 clients, 800 steps, 6 KiB log budget, a crash roughly every 40
    I/Os with torn log tails and one nested re-crash, 3 squeezes of 0.9
    each, the default governor, Rh delegation. *)

type outcome = {
  storm : Storm.outcome;
      (** [actions] = scheduler steps run; crashes, nested crashes,
          recoveries, check rounds, time-travel reads and refusals,
          failures *)
  clients : Storm.tally;  (** commits, aborts, delegations, refusals *)
  squeezes : int;
  drain_commits : int;  (** commits after crashes were disarmed *)
  governor : Governor.stats;
  reservations : int;  (** log-store reservation operations *)
  admission_rejects : int;  (** appends the log store refused *)
  peak_pressure : float;  (** highest {!Db.log_pressure} seen *)
}

val ok : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

val run : ?config:config -> unit -> outcome
(** Run one storm; deterministic for a given config. *)
