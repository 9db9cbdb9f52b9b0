(** The cluster-based backward sweep of Fig. 8.

    Given the loser scopes (each tagged with its {e owner}: whatever the
    caller names the responsible loser by), the sweep visits the log strictly
    backwards, examining records only inside {e clusters} — maximal sets
    of overlapping loser scopes — and jumping over the gaps between
    clusters. Every update covered by a live scope of a matching invoker
    and object is undone through the [on_undo] callback, and the scope is
    trimmed below the undone LSN so it is never undone again.

    This one function implements both normal-processing abort (§3.5: the
    scopes of a single transaction) and the restart backward pass (§3.6.2:
    the scopes of every loser). *)

open Ariesrh_types
open Ariesrh_wal

type stats = {
  mutable examined : int;  (** records read inside clusters *)
  mutable skipped : int;  (** records jumped over between clusters *)
  mutable clusters : int;
  mutable undone : int;
}

val zero : unit -> stats
(** Fresh counters, all 0. *)

val sweep :
  ?floor:Lsn.t ->
  Env.t ->
  scopes:('a * Ariesrh_txn.Scope.t) list ->
  on_undo:
    (owner:'a ->
    invoker:Xid.t ->
    undone:Lsn.t ->
    undo_next:Lsn.t ->
    Record.update ->
    Lsn.t) ->
  stats
(** [on_undo] receives the {e inverse} update; it must append the CLR to
    the log (on [owner]'s backward chain) and return the CLR's LSN — the
    sweep then applies the inverse to the page stamped with that LSN.
    Empty scopes in the input are ignored.

    [floor] (default [Lsn.nil]) stops the sweep: records at or below it
    are neither examined nor undone. This is partial rollback — undoing
    a transaction back to a savepoint undoes only the scope suffixes
    above the savepoint's LSN, and the per-undo scope trimming keeps the
    remaining scopes exact. *)

val sweep_naive :
  Env.t ->
  scopes:('a * Ariesrh_txn.Scope.t) list ->
  on_undo:
    (owner:'a ->
    invoker:Xid.t ->
    undone:Lsn.t ->
    undo_next:Lsn.t ->
    Record.update ->
    Lsn.t) ->
  stats
(** The strawman §3.6.2 rejects: examine {e every} record from the
    newest loser-scope end down to the oldest loser-scope beginning,
    with no cluster jumps. Undo decisions are identical to {!sweep};
    only the visit pattern differs. Exists for the ablation experiment
    that measures what cluster skipping buys. *)
