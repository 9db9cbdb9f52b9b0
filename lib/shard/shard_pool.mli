(** One OCaml domain per shard, each draining its own job queue.

    The router uses this to pin each shard's engine to a single domain:
    any domain that wants to touch shard [i]'s state ships a closure to
    worker [i], so no [Db.t] is ever shared across domains. Without a
    pool the router runs inline on the calling domain (the
    deterministic mode the storms use). *)

type t

val create : int -> t
(** Spawn one worker domain per shard. *)

val size : t -> int

val exec : t -> int -> (unit -> 'a) -> 'a
(** [exec t i f] runs [f] on shard [i]'s worker and returns its result
    (re-raising its exception). From worker [i] itself, [f] runs
    inline. A worker waiting on a peer drains its own queue while
    blocked, so cross-shard calls between workers never deadlock. *)

val post : t -> int -> (unit -> unit) -> unit
(** [post t i f] is {!exec} without the wait: it queues [f] on shard
    [i]'s worker and returns at once. From worker [i] itself, [f] runs
    inline, and its exception reaches the caller as from [exec].

    A posted job runs before any job queued to shard [i] after it, so a
    later [exec] (or {!map}) on shard [i] sees its effects. If a queued
    posted job raises, the exception is kept and re-raised to the next
    [exec] or [map] on that shard, in place of running that caller's
    job; further failures before then are dropped (the first one is the
    cause). {!shutdown} runs every job still queued and re-raises a
    failure nobody has collected. *)

val poll : t -> unit
(** Run one pending job of the calling worker's own queue, if any; a
    no-op from the main domain. A worker running a long job (a
    closed-loop benchmark driver, say) must call this periodically so
    peers' cross-shard calls make progress. *)

val map : t -> (int -> 'a) -> 'a array
(** Run [f i] on every shard's worker concurrently and collect the
    results; re-raises the first exception encountered. How per-shard
    recovery becomes parallel. *)

val shutdown : t -> unit
(** Drain every queue (posted jobs included), stop the workers and join
    the domains. Re-raises a posted job's failure that no later caller
    collected. *)
