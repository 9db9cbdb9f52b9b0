(** Recovery storms: crashing {e during} on-demand restart.

    The crash sweep of {!Storm.sweep}, pointed at
    [Config.On_demand] restart. Each iteration crashes the workload at
    the k-th I/O and restarts in on-demand mode — analysis only, open
    for traffic immediately — then drives the drain like a live system:
    background sweeper steps ({!Ariesrh_core.Db.recovery_step})
    interleaved with foreground read transactions (served degraded, or
    refused with the typed retryable [Errors.Recovering]) and
    [Db.peek] probes taking the foreground-repair path. Re-crashes stay
    armed throughout, so the injected crash can land inside the
    analysis pass, a sweeper step, or a foreground repair — every such
    crash is answered with a fresh restart, proving the lazy path is
    re-entrant.

    After convergence each iteration checks: recovered state equals the
    durable-commit oracle; [Db.validate] and [Db.audit] are clean; a
    bare crash + restart + full drain is idempotent; and — the
    equivalence oracle — an {e offline twin} replay of the identical
    history (same script, same fault schedule, same crash point,
    [Config.Offline]) reaches the same final state element-wise.

    Like every {!Storm.sweep}, it runs on a {!Ariesrh_shard.Sharded}
    engine of [config.shards] shards (one shard is a plain database byte
    for byte): with several, analysis is per shard (the partitioned
    forward pass), each shard is incrementally available, and probes
    route to each object's current home. [config.forensic_dir] only
    enables tracing here; recovery storms do not write forensic
    dumps. *)

open Ariesrh_core

type config = Storm.config
(** Same knobs as the crash storm ([time_travel] is unused here). *)

val default_config : config

type outcome = Storm.outcome

val pp_outcome : Format.formatter -> outcome -> unit
(** Prints the on-demand counters: [instant_opens] (restarts that
    opened for traffic with a backlog), [drain_steps], probe
    [refusals] and [degraded_serves], [foreground_repairs], and
    [twin_checks]. *)

val run_script :
  ?config:config -> ?impl:Config.delegation_impl -> Gen.spec -> outcome
(** Scripted recovery storm over [Gen.generate spec ~seed:config.seed]. *)
