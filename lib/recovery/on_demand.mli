(** On-demand (incremental) restart: analysis only, then open.

    [start] runs the restart preamble (tail amputation, surgery
    resolution) and a pure analysis pass — transaction table, loser
    scopes, dirty-page table — whose cost is bounded by the checkpoint
    interval, not the log length. The store then serves traffic while
    the remaining restart work drains lazily:

    - {b redo} is per page: a dirty page's missing updates are exactly
      the log slice from its recLSN to the durable horizon, page-LSN
      conditioned, replayed the first time anything touches the page
      ([ensure_page]/[ensure_object]) or by the sweeper;
    - {b undo} is per loser: the engine's {!Undo} walk over that one
      loser (its chain on eager, its scopes otherwise, with the lazy
      engine's physical splice), then abort/end, flushed as a unit
      ([drain_loser] via [step]/[drain_object]).
      Per-loser draining is sound because X locks leave at most one
      loser with uncommitted [Set]s on any object and [Add]s commute;
    - an object a loser still covers is {b not servable} to
      transactions (the engine refuses with [Errors.Recovering]); the
      cover clears when the loser drains — the early-lock-release rule:
      post-restart transactions never wait on loser locks, they wait on
      the (shrinking) backlog.

    All state here is volatile and every durable effect (CLR, splice,
    end record, conditioned redo) is idempotent, so a crash at any point
    during the drain re-enters as a smaller instance of the same
    restart. *)

open Ariesrh_types
open Ariesrh_txn

type t

val start : ?passes:Forward.passes -> walk:Undo.walk -> Env.t -> Report.t * t
(** Analysis-only restart, in the mode the undo [walk] needs
    ({!Undo.mode}); the drain and the servability guard use the same
    walk. Committed-but-unended transactions are ended immediately
    (bounded work); the returned report covers the analysis pass only —
    [undos]/[backward_*] are 0 and accrue lazily afterwards. *)

val backlog : t -> int
(** Remaining restart work: pages awaiting slice redo + losers awaiting
    undo. 0 = converged with the offline restart's final state. *)

val pending_pages : t -> int
val loser_count : t -> int

val lazy_redo : t -> int
(** Updates applied by slice redo since [start]. *)

val lazy_undos : t -> int
(** CLRs written by lazy drains since [start]. *)

val covered : t -> Oid.t -> bool
(** Does an undrained loser still cover the object (i.e. it is not
    servable to transactions)? On a scope walk, a loser covers what its
    scopes cover; on a chain walk, the objects of its uncompensated
    chain updates ({!Undo.chain_objects}, read once per loser). *)

val ensure_page : t -> Page_id.t -> unit
(** Replay the page's missing redo slice if it is still pending.
    Idempotent; interrupted runs retry in full (conditioned redo makes
    the replayed prefix skip). *)

val ensure_object : t -> Oid.t -> unit

val drain_loser : t -> Txn_table.info -> unit
(** Undo one loser completely and end it. *)

val drain_object : t -> Oid.t -> unit
(** Foreground repair: bring the object's page current, then drain every
    loser covering the object, so its committed value is servable. *)

val step : t -> bool
(** One unit of background work — drain the oldest loser, else redo the
    lowest pending page. [false] = nothing left. Deterministic order, so
    fault-injection schedules reproduce. *)
