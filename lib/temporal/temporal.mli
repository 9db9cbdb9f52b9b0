(** Time-travel queries over the rewritten log.

    Everything here is reconstructed from the durable history alone:
    the live log's records (including the before/after images carried by
    {!Ariesrh_wal.Record.Rewrite_clr} surgery compensations), bridged
    below the truncation horizon by the media archive's dense WAL
    frames. Nothing is answered from in-memory engine state, so the
    same query gives the same answer before and after a restart.

    Three layers:

    - {!as_of} / {!snapshot_at} — the committed value of an object at an
      arbitrary LSN: fold every durable update with [lsn <= L] whose
      responsible holder (initial writer as it stood at [L], then each
      durable delegation with [lsn <= L]) has a durable commit at or
      below [L], skipping
      updates compensated by a CLR at or below [L]. Because a
      delegation always precedes the delegator's termination, all three
      engines (logical delegate records, eager in-place surgery, lazy
      restart splice) yield the same value at every LSN even though
      their logs read differently.

    - {!history} — the full version chain of one object with, per
      version, the physical writer as the log reads {e now}, the
      original invoker (recovered from surgery before-images when
      history was rewritten in place), the post-delegation responsible
      party, commit/abort/compensated status, and the rewrite surgeries
      that re-attributed it.

    - {!explain} — reenactment: replay a transaction's invoked
      operations against the {!as_of} snapshot at its begin LSN and
      report where {e provenance} (who physically performed an
      operation) and {e attribution} (who is responsible for it after
      delegation / history rewriting) diverge.

    A surgery committed above [L] rewrote some updates at or below [L]
    in place after the fact (a lazy restart splice does so long after
    their commit points): the writer the log shows now is not the one
    that stood at [L]. So each query also walks the surgery records
    above [L] and starts such an update's holder at the writer of the
    earliest of those before-images.

    Coverage is all-or-nothing: a query at [L] needs the history
    [[1, L]], and every surgery record above [L]. If the prefix was
    truncated and no attached archive bridges the gap from genesis, the
    query raises [Errors.History_unavailable] — never a silently
    partial answer. A single-object query reads only the records the
    log index ({!Ariesrh_wal.Log_index}) files under its object, so
    rot in a record it skips is the scrubber's to find; rot in a record
    it reads still refuses. *)

open Ariesrh_types
module Record := Ariesrh_wal.Record
module Db := Ariesrh_core.Db
module Json := Ariesrh_obs.Json

(** {2 Coverage} *)

type coverage = {
  from_ : Lsn.t;  (** first LSN answerable from log + archive *)
  upto : Lsn.t;  (** durable horizon: last answerable LSN *)
  bridged : bool;  (** true when the archive supplies a truncated prefix *)
}

val coverage : Db.t -> coverage
(** What the durable history (live log, plus the attached archive's WAL
    frames when they reach back to genesis) can answer right now. *)

val commit_points : Db.t -> (Lsn.t * Xid.t) list
(** Commit records present in the durable retained log, ascending —
    the natural sample points for time-travel readers. Unlike the
    queries below this never needs genesis coverage. *)

(** {2 Version chains} *)

type transfer = {
  t_at : Lsn.t;  (** LSN of the Delegate record *)
  t_from : Xid.t;
  t_to : Xid.t;
  t_op_level : bool;  (** single-operation (vs whole-object) delegation *)
}

type surgery = {
  s_intent : Lsn.t;  (** Rewrite_begin of the system transaction *)
  s_clr : Lsn.t;  (** the Rewrite_clr holding this version's images *)
  s_committed : bool;  (** false: rolled back (or never closed) *)
  s_writer_before : Xid.t option;  (** writer in the before image *)
  s_writer_after : Xid.t option;  (** writer in the after image *)
  s_deleg : (Xid.t * Xid.t * Oid.t) option;
      (** the delegation the surgery served, when recorded *)
}

type status =
  | Live
  | Committed of { by : Xid.t; at : Lsn.t }
  | Aborted of { by : Xid.t; at : Lsn.t }
  | Compensated of { by : Xid.t; clr : Lsn.t }

type version = {
  v_lsn : Lsn.t;
  v_oid : Oid.t;
  v_op : Record.op;
  v_writer : Xid.t;
      (** physical writer as the log reads now, even when a surgery
          above the query bound rewrote it *)
  v_provenance : Xid.t;
      (** original invoker: the writer as it stood at the query bound,
          unless a committed surgery at or below the bound rewrote it in
          place, in which case the earliest such surgery's
          before-image writer *)
  v_holder : Xid.t;
      (** responsible party at the query bound: the writer as it stood
          there, moved by each durable delegation at or below it *)
  v_transfers : transfer list;  (** durable delegations, oldest first *)
  v_surgeries : surgery list;
      (** in-place rewrites at or below the query bound, oldest first *)
  v_status : status;
}

val status_str : status -> string

(** {2 Queries}

    All of these raise [Errors.History_unavailable] when the durable
    history does not cover [[1, lsn]] (truncated prefix without an
    archive bridging from genesis, or [lsn] above the durable horizon),
    and never answer from a partial prefix. [Lsn.nil] asks for genesis —
    its covering range is empty, so it always answers.

    {!snapshot_at} and {!explain} read every record in the covered
    prefix. {!as_of} and {!history} read only what the log index files
    under their object at or below the bound, the surgery records, and
    the first [Commit] or [Abort] of each transaction left holding one
    of its live versions: their cost follows that object's history,
    not the log's depth. Below the index floor (the prefix a cold
    reopen or an archive install did not load) they read every
    archived record, like a snapshot. *)

val as_of : Db.t -> lsn:Lsn.t -> Oid.t -> int
(** Committed value of one object at [lsn]. *)

val snapshot_at : Db.t -> Lsn.t -> int array
(** Committed values of every object at [lsn], indexed by oid. *)

val history : Db.t -> ?upto:Lsn.t -> Oid.t -> version list
(** Version chain of one object up to [upto] (default: the durable
    horizon), ascending by LSN. *)

(** {2 Reenactment} *)

type divergence = {
  d_lsn : Lsn.t;
  d_oid : Oid.t;
  d_provenance : Xid.t;
  d_attribution : Xid.t;
  d_direction : [ `Delegated_away | `Received ];
  d_via : [ `Delegate of Lsn.t | `Surgery of Lsn.t | `Unknown ];
      (** the durable record that moved responsibility: a Delegate
          record, or the Rewrite_clr of an in-place surgery *)
}

type explain = {
  e_xid : Xid.t;
  e_impl : string;  (** engine the log was produced under *)
  e_begin : Lsn.t;
  e_commit : Lsn.t option;  (** None: no durable commit *)
  e_snapshot : (Oid.t * int) list;
      (** as_of at [e_begin] for every oid the report touches *)
  e_invoked : version list;  (** operations this transaction performed *)
  e_received : version list;
      (** operations performed by others but attributed to this
          transaction after delegation *)
  e_replayed : (Oid.t * int) list;
      (** snapshot + the transaction's own non-compensated operations:
          what the transaction believes it produced *)
  e_attributed : (Oid.t * int) list;
      (** snapshot + the operations history now holds it responsible
          for: what the rewritten log says it produced *)
  e_as_of_end : (Oid.t * int) list;
      (** actual committed values at the commit LSN (or the durable
          horizon when uncommitted) — includes concurrent committers *)
  e_divergences : divergence list;
}

val explain : Db.t -> Xid.t -> explain
(** Reenact one transaction. Raises [Errors.No_such_txn] when no Begin
    record for [xid] is in the covered history, and
    [Errors.History_unavailable] on a coverage gap. *)

(** {2 Lineage cross-check} *)

val lineage_check :
  Db.t -> version -> [ `Agree | `Disagree of string | `No_data ]
(** Compare a log-reconstructed version against [Obs.Lineage]'s
    ring-reconstructed verdict for the same LSN. [`No_data] when the
    trace ring was disabled or has evicted the events. *)

(** {2 JSON} *)

val op_to_json : Record.op -> Json.t
val version_to_json : version -> Json.t
val history_to_json : oid:Oid.t -> upto:Lsn.t -> version list -> Json.t
val coverage_to_json : coverage -> Json.t
val explain_to_json : explain -> Json.t
