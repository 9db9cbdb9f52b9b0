(** What a restart recovery did, for tests and experiments. *)

open Ariesrh_types

type t = {
  winners : Xid.Set.t;
  losers : Xid.Set.t;  (** includes transactions found mid-rollback *)
  forward_records : int;  (** records processed by the forward pass *)
  redo_applied : int;  (** updates/CLRs actually re-applied to pages *)
  backward_examined : int;  (** records read inside loser clusters *)
  backward_skipped : int;  (** records jumped over between clusters *)
  clusters : int;
  undos : int;  (** CLRs written by the backward pass *)
  amputated : int;  (** corrupt stable tail records dropped at restart *)
  repaired_pages : int;  (** torn data pages repaired at restart *)
  surgery_rolled_back : int;
      (** interrupted rewrite surgeries rolled back by this restart *)
  surgery_rolled_forward : int;
      (** ended rewrite surgeries idempotently re-installed *)
  log_io : Ariesrh_wal.Log_stats.t;  (** log device activity during recovery *)
  profile : Ariesrh_obs.Profiler.t;
      (** per-pass timings and counters for this restart
          (amputate / forward / backward / repair / finish) *)
}

val pp : Format.formatter -> t -> unit

val measure :
  Env.t ->
  (unit ->
  Forward.result * Ariesrh_txn.Txn_table.info list * Scope_sweep.stats * 'a) ->
  t * 'a
(** Run one restart and report it: the thunk returns the forward pass's
    result, the losers it found and what the undo done up front cost.
    The profile starts fresh; log I/O, torn-page repairs and surgery
    resolutions are the deltas across the run. *)
