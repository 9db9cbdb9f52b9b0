(** Scripted workloads on a sharded engine.

    Scripts come from a generator that knows nothing about shards, so
    the driver {e co-homes} them first: {!assign_homes} groups
    transactions into components (union-find over shared objects and
    delegation pairs) and pins each component to one shard. Every
    object is then only ever touched from a single shard — its one
    migration, base home to component home on first touch, always finds
    it lock-free, so a valid script stays valid. The crash sweep still
    walks every I/O point of every migration. *)

open Ariesrh_core
module Sharded = Ariesrh_shard.Sharded

val assign_homes : Script.t -> shards:int -> (int, int) Hashtbl.t
(** Symbolic transaction index -> shard, deterministic for a script. *)

val fresh :
  ?fault:Ariesrh_fault.Fault.t ->
  ?impl:Config.delegation_impl ->
  ?group_commit:int ->
  ?record_cache:int ->
  ?audit:bool ->
  ?recovery_mode:Config.recovery_mode ->
  ?log_capacity_bytes:int ->
  ?tracing:bool ->
  shards:int ->
  n_objects:int ->
  unit ->
  Sharded.t
(** A sharded engine with the same storm geometry as
    {!Driver.fresh_db}. Backends come from {!Db.set_backend_factory}. *)

val run :
  ?upto:int ->
  ?on_action:(int -> unit) ->
  ?xid_map:(int, Sharded.xid) Hashtbl.t ->
  homes:(int, int) Hashtbl.t ->
  Sharded.t ->
  Script.t ->
  unit
(** Like {!Driver.run}, routed: [Begin t] starts on [homes(t)]. *)
