(** Crash storms: scripted and simulated histories driven under an
    escalating fault plan, checking recovered state after every restart.

    A scripted storm is the {!Storm.sweep}: one generated script
    replayed with a crash armed at the k-th I/O, k escalating each
    iteration until the script survives untouched — so every I/O
    operation of the history gets its turn to be the crash point. A sim
    storm runs a closed-loop multi-client increment/delegate workload,
    crashing every few I/Os, forever reconciling against a
    responsibility ledger.

    Every crash is followed by offline restart under continued fault
    injection: re-crashes are armed during recovery up to a configured
    depth, torn data pages and torn log tails fire per the plan. After
    each restart the {!Storm.check} battery runs: engine state against
    the oracle (committed = the transactions whose commit records are
    durable and intact in the log), structural invariants, and restart
    idempotence. At one shard, time-travel readers also check
    [Temporal.snapshot_at] against the oracle at sampled commit LSNs.
    Both storms run on a {!Ariesrh_shard.Sharded} engine of
    [config.shards] shards; one shard is a plain database byte for
    byte. *)

open Ariesrh_core

type config = Storm.config
type outcome = Storm.outcome

val default_config : config

val pp_outcome : Format.formatter -> outcome -> unit

val run_script :
  ?config:config -> ?impl:Config.delegation_impl -> Gen.spec -> outcome
(** Scripted storm over [Gen.generate spec ~seed:config.seed]. Failing
    check rounds dump as kind [crash] ([shard-crash] with several
    shards). *)

type sim_config = {
  clients : int;
  steps : int;  (** scheduler steps (one client action each) *)
  ops_per_txn : int;  (** max adds/delegations per transaction *)
  n_objects : int;
  p_delegate : float;
  checkpoint_every : int;  (** fuzzy checkpoint every n commits; 0 = never *)
  crash_every : int;  (** arm a crash this many I/Os after each restart *)
}

val default_sim : sim_config

val run_sim : ?config:config -> ?sim:sim_config -> unit -> outcome
(** Closed-loop simulated storm: concurrent clients issuing commutative
    increments with random delegation, periodic checkpoints, and a crash
    armed every [crash_every] I/Os. Clients are dealt round-robin onto
    shards; with several, most touches migrate an object first and
    contended migrations are refused and skipped. State is reconciled
    after every restart against a {!Storm.Ledger} filtered by the
    durable commit set. Failing check rounds dump as kind [sim]
    ([shard-sim] with several shards). *)
