(** The external kill -9 storm: crash injection by process death.

    The in-process storms ({!Crash_storm}) model a crash as an
    exception — everything the engine believes about volatile state
    being lost is enforced by [Db.crash] discarding it. This harness
    removes that layer of pretence for the file backend: the workload
    runs in a {e forked child process} whose fault injector is in
    [Kill_process] mode, so the armed crash point delivers a real
    [SIGKILL] to the child mid-operation. The parent then reopens the
    database directory in its own process — over exactly the bytes the
    dead process left behind, torn tails included — recovers, and holds
    the result against the semantic oracle.

    Each kill point gets the same three-way verification as the
    in-process storm (oracle state, structural invariants, restart
    idempotence) plus one only a real process boundary can provide:
    after the in-process idempotence check, the handle is closed and
    the directory reopened cold a second time, proving that a restart's
    own on-disk artifacts are themselves recoverable.

    What this proves — and doesn't: SIGKILL discards the process, not
    the kernel page cache, so unfsynced writes survive the kill. The
    volatile-tail-is-lost semantics hold anyway because the file
    backend only ever writes the durable prefix to the device; fsync
    placement is exercised and counted, but actual power loss is out of
    scope (see [lib/storage/backend.mli]). *)

open Ariesrh_core

type config = {
  seed : int64;
  kill_step : int;  (** escalate the scheduled kill I/O point by this *)
  max_kills : int;
      (** stop after this many child runs even if the script never
          finishes (CI smoke runs bound the sweep; [max_int] = sweep
          every I/O of the history) *)
  tear_data_every : int;
  tear_data_on_crash : bool;
  tear_log_on_crash : bool;
  group_commit : int;
  record_cache : int;
  audit : bool;  (** run the restart self-audit in the parent's reopens *)
  root : string;
      (** scratch root; each kill point gets its own database directory
          [io<k>] underneath, removed when its iteration ends *)
  forensic_dir : string option;
      (** when set, parent reopens run with tracing and failing check
          rounds write a {!Forensics.write} dump here *)
  keep_dirs : bool;
      (** keep per-iteration database directories (post-mortem
          debugging / CI artifacts) *)
}

val default_config : config

val run :
  ?config:config -> ?impl:Config.delegation_impl -> Gen.spec -> Storm.outcome
(** Sweep scheduled kill points [kill_step, 2*kill_step, ...] over
    [Gen.generate spec ~seed:config.seed], one forked child per point,
    until a child survives the whole script (its clean end state is
    verified too) or [max_kills] runs have happened. [crashes] counts
    children that died on the scheduled SIGKILL; a child exiting any
    other way is a failure. *)
