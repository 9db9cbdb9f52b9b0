(** The router's executor: where each shard's jobs run.

    The domain pool ({!create}) runs one OCaml domain per shard, each
    draining its own job queue: any domain that wants to touch shard
    [i]'s state ships a closure to worker [i], so no [Db.t] is ever
    shared across domains. The single-domain executor ({!inline}) runs
    every job on the caller at once: the deterministic mode the storms
    use. The router runs one protocol on either. *)

type t

val create : int -> t
(** The domain pool: spawn one worker domain per shard. *)

val inline : int -> t
(** The single-domain executor for [n] shards: {!exec} runs the job in
    place, {!post} runs it at once (its exception reaches the caller),
    {!map} is [Array.init] in shard order (stopping at the first
    raise), {!poll} does nothing and {!pause} is empty. It spawns
    nothing, so {!shutdown} is a no-op. *)

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

val relax : t -> int -> int
(** [relax t tries] is one step of a cooperative wait for a condition
    outside the executor: serve one job of the calling worker's own
    queue ({!poll}), then spin, or sleep 100 µs once [tries] reaches
    1000. Returns the next step's [tries]. *)

val pause : t -> unit
(** On the domain pool, wait a random moment of up to 400 µs of wall
    clock, serving the calling worker's queue. Empty on the
    single-domain executor, where nothing else could run meanwhile. *)

val map : t -> (int -> 'a) -> 'a array
(** Run [f i] on every shard's worker concurrently and collect the
    results; re-raises the first exception encountered. How per-shard
    recovery becomes parallel. *)

val shutdown : t -> unit
(** Drain every queue (posted jobs included), stop the workers and join
    the domains. Re-raises a posted job's failure that no later caller
    collected. *)
