(** The media-storm: silent corruption under fire.

    The shared {!Storm.Clients} loop on a one-shard engine, interleaved with
    silent-corruption injections — at-rest bitrot on pages and the
    durable WAL, lost and misdirected data-page writes, rot in the
    archive's own files — plus crashes, while the incremental scrubber
    rides along and full sweeps run every round. Every round asserts
    that everything the scrubber quarantined was healed from a redundant
    source (shadow, archive frame, live log) and that recovered state
    matches the responsibility-ledger oracle. The final phase takes a
    full archive backup, destroys {e all} media, and proves a cold
    {!Ariesrh_core.Db.restore_from_archive} — from the archive's own
    files when mirrored — reproduces the exact committed state.

    Schedules are keyed on the fault injector's I/O clock, so a given
    seed injects the identical corruption sequence on the Sim and File
    backends. *)

open Ariesrh_core

type config = {
  seed : int64;
  load : Storm.load;  (** the client mix *)
  rounds : int;
  steps_per_round : int;
  crash_every_rounds : int;  (** arm a crash every n-th round; [0] never *)
  scrub_batch : int;
  group_commit : int;
  audit : bool;
  backend_root : string option;
      (** run on the file backend, one directory per storm under this
          root; [None] (default) = Sim *)
  archive_root : string option;
      (** mirror the archive to disk and cold-open it for the final
          restore; [None] = in-memory archive *)
  forensic_dir : string option;
}
(** The storm runs at one shard, without torn pages or log tails,
    without re-crashes during restart (restart runs with faults parked,
    after a scrub) and without time-travel readers. *)

val default_config : config
(** seed 1, 12 rounds of 80 steps, 4 clients, crash every 3rd round,
    scrub batch 8, audit on, Sim backend, in-memory archive. *)

type outcome = {
  storm : Storm.outcome;
      (** [runs] = rounds, [actions], crashes, recoveries, check rounds,
          failures *)
  mutable injected_bitrot : int;
  mutable injected_lost : int;
  mutable injected_misdirected : int;
  mutable injected_archive_rot : int;
  mutable detected : int;
  mutable healed : int;
  mutable unhealable : int;
  mutable scrub_checked : int;
  mutable archived : int;
  mutable cold_restores : int;
}

val ok : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

val run : ?config:config -> ?impl:Config.delegation_impl -> unit -> outcome
(** One full storm on one engine: rounds of workload + injection +
    scrub + oracle checks, then the total-media-loss cold restore. *)

val run_seeds :
  ?config:config -> ?impl:Config.delegation_impl -> seeds:int -> unit -> outcome
(** [seeds] storms with distinct seeds, counters summed. *)
