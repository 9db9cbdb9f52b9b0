(** The storm harness core.

    Every storm is a fault plan over four shared pieces:

    - {b the engine handle}: a {!Ariesrh_shard.Sharded} engine at every
      shard count ([shards = 1] is byte-identical to a plain [Db]), one
      fault injector shared by all shards (a single logical I/O clock),
      and one backend scope giving each shard its own directory;
    - {b the schedule}: the escalating crash-point sweep ({!sweep}) —
      one generated script replayed with a crash armed at the k-th I/O,
      k escalating until the script survives — and restart under
      continued fault injection ({!recover_until_stable});
    - {b the check battery} ({!check}): state against the durable-commit
      oracle, structural invariants, optionally the self-audit, and
      restart idempotence;
    - {b forensics}: per-shard {!Forensics} dumps of the failures a
      check round added.

    The crash storm and the recovery storm run on all four; the
    pressure, media and external storms keep their own single-[Db]
    loops and share only the plain helpers ({!durable_commits},
    {!Ledger}, {!fresh_backend}, {!dump}, {!make_fault}). *)

open Ariesrh_types
open Ariesrh_core
module Fault = Ariesrh_fault.Fault
module Sharded = Ariesrh_shard.Sharded

type config = {
  seed : int64;
  tear_data_every : int;
      (** tear every n-th data page write (latent corruption); 0 = never *)
  tear_data_on_crash : bool;  (** tear the page write a crash lands on *)
  tear_log_on_crash : bool;  (** tear the log tail when a crash hits a flush *)
  crash_step : int;  (** escalate the crash I/O point by this *)
  recovery_crash_depth : int;  (** nested crash-during-recovery levels *)
  recovery_crash_gap : int;  (** I/Os into each recovery before re-crash *)
  group_commit : int;
      (** commit-force batch size (see {!Config.t}); [0] (the default)
          forces each commit record as it is written. The oracle is
          group-commit-proof either way: committed = the commit records
          that survived the crash, read straight off the log *)
  record_cache : int;
      (** decoded-record cache capacity ([0] disables); the storm must
          behave identically — same outcomes, same forensic bytes —
          at any setting *)
  audit : bool;
      (** run the restart self-audit ([Db.audit]) after every recovery;
          a violation surfaces as [Audit_failed] and fails the storm.
          Default [true] — storms are exactly where latent chain damage
          would hide *)
  time_travel : bool;
      (** run concurrent analytic time-travel readers: during the sim
          storm and after every check round, [Temporal.snapshot_at] at
          sampled durable commit LSNs must equal the harness's expected
          state at that point (the as_of-equals-ledger oracle). Readers
          run with faults gated off so crash schedules are unchanged.
          They run at [shards = 1] only: an as_of point is a per-shard
          LSN. Default [true] *)
  forensic_dir : string option;
      (** when set, storm databases run with the trace ring enabled and
          every check round that adds failures writes a
          {!Forensics.write} dump per shard into this directory, keyed by
          seed and crash point; [None] (the default) disables both *)
  backend_root : string option;
      (** when set, every storm engine runs on the file backend in its
          own fresh directory under this root, one subdirectory per
          shard (removed again as the iteration ends); [None] (the
          default) keeps the sim backend *)
  shards : int;
      (** shard count of the storm engine ([1], the default, is
          byte-identical to a single [Db]). With several shards, scripted
          sweeps co-home each transaction component on one shard
          ({!Shard_driver.assign_homes}) so the crash sweep walks every
          I/O point of the transfer protocol; sim storms let clients on
          different shards contend, so the refusal path fires too.
          Checks route through the current homes, recovery resolves
          in-doubt transfers and (with [audit]) runs the cross-shard
          pairing audit. Labels and dump names only mention shards when
          there are several *)
}

val default_config : config

(** Counters of every storm on this core; each storm's [pp_outcome]
    prints the ones its fault plan drives. *)
type outcome = {
  mutable runs : int;  (** sweep iterations, or crashes survived *)
  mutable actions : int;  (** workload actions executed *)
  mutable crashes : int;  (** top-level injected crashes *)
  mutable nested_crashes : int;  (** crashes injected during restart *)
  mutable recoveries : int;  (** restarts that completed *)
  mutable torn_writes : int;
  mutable torn_flushes : int;
  mutable amputated : int;  (** corrupt tail records dropped by restarts *)
  mutable repaired_pages : int;
  mutable fault_points : int;  (** crashes + nested + torn writes + tears *)
  mutable checks : int;  (** check-battery rounds *)
  mutable tt_reads : int;  (** time-travel as_of reads performed *)
  mutable migrations : int;  (** committed cross-shard transfers *)
  mutable migration_refusals : int;  (** transfers refused (locks held) *)
  mutable xfers_resolved : int;
      (** in-doubt transfer intents closed at restart (either way) *)
  mutable instant_opens : int;
      (** on-demand restarts that returned with a non-empty backlog *)
  mutable drain_steps : int;  (** background sweeper steps driven *)
  mutable refusals : int;  (** probes refused with [Errors.Recovering] *)
  mutable degraded_serves : int;  (** probes served while draining *)
  mutable foreground_repairs : int;  (** [peek] foreground repairs *)
  mutable twin_checks : int;  (** offline-twin equivalence checks *)
  mutable failures : string list;  (** newest first; empty = storm passed *)
}

val fresh_outcome : unit -> outcome
val ok : outcome -> bool
val fail : outcome -> string -> unit

val merge : outcome -> outcome -> outcome
(** Field-wise sum (for aggregating several storms). *)

val pp_failures : Format.formatter -> string list -> unit
(** The [FAIL] lines closing every storm's outcome block. *)

val pp_arr : int array -> string

(** {1 Helpers for storms on one [Db]} *)

val durable_commits : Ariesrh_wal.Log_store.t -> Xid.Set.t
(** Transactions whose commit records are durable and decode — what any
    restart will see. Call after a crash. *)

val make_fault :
  seed:int64 ->
  tear_data_every:int ->
  tear_data_on_crash:bool ->
  tear_log_on_crash:bool ->
  Fault.t

val fresh_backend : string option -> tag:string -> Ariesrh_storage.Backend.t
(** [fresh_backend root ~tag]: the sim backend without a root, else the
    file backend in a freshly emptied [root/tag]. *)

val close_and_remove : Db.t -> unit
(** Close, and delete the directory of a file-backed database. *)

val dump :
  ?fault:Fault.t ->
  forensic_dir:string option ->
  seed:int64 ->
  kind:string ->
  ?crash_io:int ->
  ?tag:string ->
  ?expected:int array ->
  fail_before:int ->
  failures:string list ->
  Db.t ->
  unit
(** When a forensic directory is set and [failures] (newest first) grew
    past [fail_before] entries, write a {!Forensics.write} dump of the
    new ones — with [fault] gated off, and swallowing any error. *)

(** The responsibility ledger of the simulated storms: holder ->
    increments it is currently responsible for. Entries move only on
    delegation; a durable commit's force covers every earlier delegate
    record, so summing the entries of durably committed holders is the
    expected state. *)
module Ledger : sig
  type 'x t

  val create : unit -> 'x t
  val add : 'x t -> 'x -> int -> int -> unit
  (** [add t holder obj delta] *)

  val move : 'x t -> from_:'x -> to_:'x -> int -> unit
  (** Move every entry on an object from one holder to another. *)

  val state : 'x t -> n_objects:int -> ('x -> bool) -> int array
  (** Sum of the entries of the holders that count. *)
end

(** {1 The engine handle} *)

val shards_label : config -> string
(** [" shards=N"] with several shards, [""] at one: labels stay those
    of a single-[Db] storm. *)

val committed_in : Sharded.t -> Sharded.xid -> bool
(** Snapshot of the durable commit sets, one per shard. *)

val with_engine :
  config ->
  ?impl:Config.delegation_impl ->
  ?recovery_mode:Config.recovery_mode ->
  tag:string ->
  salt:int ->
  ?crash_io:int ->
  n_objects:int ->
  (Fault.t -> Sharded.t -> 'a) ->
  'a
(** Run [f] on a fresh engine in a fresh backend scope ([backend_root/tag],
    removed afterwards), with a fault injector seeded [seed + salt] and,
    if given, a crash armed at I/O [crash_io]. *)

val absorb : outcome -> Fault.t -> Sharded.t -> unit
(** Add the injector's tears and fault points, the router's transfer
    counters and the shards' page repairs. *)

val dump_engine :
  config ->
  outcome ->
  fail_before:int ->
  kind:string ->
  ?crash_io:int ->
  ?tag:string ->
  ?expected:int array ->
  Fault.t ->
  Sharded.t ->
  unit
(** {!dump} per shard: kind [shard-<kind>] and tag [<tag>-s<i>] when
    there are several shards, the plain kind and tag at one. *)

(** {1 Schedule and checks} *)

val offline : outcome -> Sharded.t -> unit
(** The offline restart step: [Sharded.recover], counted. *)

val recover_until_stable :
  config ->
  outcome ->
  restart:(outcome -> Sharded.t -> unit) ->
  Fault.t ->
  Sharded.t ->
  (unit, string) result
(** Drive [restart] with a re-crash armed [recovery_crash_gap] I/Os in,
    answering each injected crash with a crash and another restart, up
    to [recovery_crash_depth] nested crashes; anything else escaping is
    an [Error]. *)

val check :
  outcome ->
  label:string ->
  ?audit:bool ->
  Fault.t ->
  Sharded.t ->
  int array ->
  unit
(** The check battery against an expected state, faults gated off. *)

type iteration = {
  sh : Sharded.t;
  fault : Fault.t;
  script : Script.t;
  homes : (int, int) Hashtbl.t;  (** transaction -> shard *)
  xid_map : (int, Sharded.xid) Hashtbl.t;
  executed : int;  (** actions completed before the crash *)
  crash_io : int;
  label : string;
}

val sweep :
  config:config ->
  impl:Config.delegation_impl ->
  ?recovery_mode:Config.recovery_mode ->
  ?audit:bool ->
  ?dump_kind:string ->
  name:string ->
  tag:string ->
  restart:(outcome -> Sharded.t -> unit) ->
  on_checked:(outcome -> iteration -> unit -> unit) ->
  Gen.spec ->
  outcome
(** The escalating crash-point sweep over [Gen.generate spec
    ~seed:config.seed]. Each iteration runs the script to the armed
    crash, restarts with {!recover_until_stable}, runs {!check} (with
    [audit]) and then [on_checked] inside the iteration's backend scope;
    the function [on_checked] returns runs after the scope is torn down.
    Failures are labelled [<name>[ shards=N] crash_io=K]; backend
    directories are [<tag>io<K>]; with [dump_kind] each check round that
    failed writes {!dump_engine} dumps. *)
