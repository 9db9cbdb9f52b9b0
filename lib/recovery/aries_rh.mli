(** Offline restart recovery: the forward pass (analysis + redo of every
    page), then every loser undone in one {!Undo} walk and terminated.

    With the default walk this is ARIES/RH (§3.6): the forward pass
    rebuilds scopes and the cluster-based backward pass undoes exactly
    the updates that were ultimately delegated to loser transactions.
    The log is never rewritten; history is {e interpreted} according to
    the logged delegations. With [~walk:Undo.Chains] it is conventional
    ARIES (§3.3) over the chains eager rewriting keeps authoritative. *)

exception Interrupted
(** Raised by {!recover} when its [fuel] runs out. *)

val recover :
  ?passes:Forward.passes -> ?fuel:int -> ?walk:Undo.walk -> Env.t -> Report.t
(** Run full restart recovery and terminate every loser (CLRs,
    abort/end records, flushed). Afterwards the system state reflects
    every winner update and no loser update, per the paper's undo/redo
    properties (§4.1).

    [walk] (default [Undo.Scopes { splice = false }]) picks the undo
    walk and, through {!Undo.mode}, the analysis mode.
    [passes] selects the forward-pass organisation (default
    {!Forward.Merged}).

    [fuel] is a fault-injection hook: after that many CLRs the backward
    pass stops and {!Interrupted} is raised with the log flushed — the
    observable state of a crash in the middle of recovery. Tests use it
    to verify that re-running recovery from scratch is idempotent. *)

val recover_naive_sweep : Env.t -> Report.t
(** Ablation: same recovery decisions, but the backward pass scans every
    record between the newest and oldest loser scope instead of jumping
    between clusters ({!Scope_sweep.sweep_naive}). *)

val recover_physical : Env.t -> Report.t
(** The "lazy rewriting" baseline of §3.2: identical decisions, but the
    backward pass additionally performs the physical history rewrite it
    implies — attributing each delegated loser update to its responsible
    transaction in place, plus the matching backward-chain pointer patch
    — so the log I/O cost of actually rewriting history during recovery
    can be measured. *)
