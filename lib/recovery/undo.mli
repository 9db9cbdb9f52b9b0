(** Every undo in the engine: runtime abort and partial rollback, the
    offline restart's backward pass and the on-demand drain all run one
    of two walks, and restart terminates losers with one finish.

    - {!chains} follows each loser's own backward chain. Eager rewriting
      (§3.1) makes that chain the authority on what the loser must undo.
    - {!scopes} is the ARIES/RH cluster sweep over loser scopes (§3.5
      abort, §3.6.2 restart), plus the lazy engine's restart splice.

    The engine picks the walk in one place ([Db.undo_walk]); the callers
    differ only in their {!on_undo} hook and in how many losers they
    hand a walk at a time. *)

open Ariesrh_types
open Ariesrh_wal
open Ariesrh_txn

type walk =
  | Chains  (** eager, not degraded *)
  | Scopes of { splice : bool }
      (** rh, lazy and degraded eager; [splice] performs the lazy
          engine's physical re-attribution (restart only) *)

val mode : walk -> Forward.mode
(** The analysis mode a restart using this walk needs: [Conventional]
    for chains (no scopes to rebuild, no delegate records allowed),
    [Rh_rewritten] for splicing scopes (tolerates already-spliced
    history), [Rh] otherwise. *)

type on_undo = Txn_table.info -> undone:Lsn.t -> Record.update -> unit
(** Called before each CLR is written, with the loser it goes to, the
    LSN it compensates and the inverse update. Runtime rollback releases
    the CLR's reserved log space here; the on-demand drain lands the
    page's pending redo first (redo before undo); the offline restart's
    fuel hook may raise. *)

val chains :
  ?floor:Lsn.t ->
  Env.t ->
  on_undo:on_undo ->
  Txn_table.info list ->
  Scope_sweep.stats
(** Undo the losers by their chains, merged by LSN, largest first:
    start at each [last_lsn], follow {!Record.prev_for} down (past the
    begin record, where surgery may have spliced delegated-in records),
    never dereference a CLR's [undo_next], and skip updates that a CLR
    higher up compensated. Each undo writes a CLR on the loser's chain
    and forces the inverse. Records at or below [floor] (a savepoint;
    default [Lsn.nil]) are neither read nor undone. [examined] counts
    records read; [skipped] and [clusters] stay 0. *)

val scopes :
  ?floor:Lsn.t ->
  ?naive:bool ->
  splice:bool ->
  Env.t ->
  on_undo:on_undo ->
  Txn_table.info list ->
  Scope_sweep.stats
(** Undo the losers over their scopes with {!Scope_sweep.sweep} (or
    {!Scope_sweep.sweep_naive} when [naive]). With [splice], every
    undone update whose invoker is not its owner is re-attributed to the
    owner, with its CLR's invoker flipped to agree, and the rewrites are
    installed after the sweep as one rewrite system transaction. *)

val run :
  ?floor:Lsn.t ->
  ?naive:bool ->
  walk ->
  Env.t ->
  on_undo:on_undo ->
  Txn_table.info list ->
  Scope_sweep.stats
(** {!chains} or {!scopes}, as [walk] says. *)

val chain_objects : Env.t -> Txn_table.info -> Oid.Set.t
(** The objects of the loser's uncompensated chain updates: what
    {!chains} would undo for it. *)

val finish : Env.t -> Txn_table.t -> Txn_table.info -> unit
(** Terminate a restart loser (or a committed transaction missing its
    end record): Abort if it was still active, then End, both on
    reserved space; then drop it from the table. Not flushed. *)
