(** Engine exceptions. *)

open Ariesrh_types

exception Conflict of { requester : Xid.t; holders : Xid.t list }
(** A lock request was denied. The caller may wait (see
    {!Ariesrh_lock.Deadlock}) or abort. *)

exception No_such_txn of Xid.t
exception Txn_not_active of Xid.t

exception Not_responsible of { xid : Xid.t; oid : Oid.t }
(** The delegation precondition failed: the would-be delegator is not
    responsible for any update on the object (§2.1.2). *)

type overload_reason = Begin_refused | Delegation_refused

exception Overloaded of { xid : Xid.t option; reason : overload_reason }
(** Admission control under log pressure: the governor has engaged
    backpressure and the engine refuses the request rather than risk an
    unrecoverable [Log_full] later. Retry after backing off. *)

exception Log_truncated_past_backup of { backup : Lsn.t; retained : Lsn.t }
(** Media recovery needs the log from the backup point forward, but
    truncation already reclaimed part of that range. *)

exception Unsupported_by_engine of { op : string; impl : string }
(** The operation requires a capability this engine variant lacks (e.g.
    operation-granularity delegation under [Eager]). *)

exception Archive_lagging of { durable : Lsn.t; archived : Lsn.t }
(** Continuous WAL archiving fell further behind the durable head than
    [Config.max_archive_lag] allows; admission refuses new transactions
    (typed backpressure) until the archiver catches up. *)

exception Xfer_refused of { oid : Oid.t; holders : Xid.t list }
(** A cross-shard migration was refused because live transactions still
    hold locks on the object. Migration only moves durably committed
    state, so it never preempts a lock; retry once the holders finish
    (or route the work to the object's current home shard). *)

exception Recovering of { oid : Oid.t; backlog : int }
(** On-demand restart ([Config.On_demand]): an unresolved loser
    transaction still covers the object (by its scopes, or on eager by
    its uncompensated chain updates), so serving it now would expose
    uncommitted state. Retryable backpressure — [backlog] is the
    remaining restart work ([Db.recovery_backlog]) and shrinks with
    every sweeper step; the refusal clears once the covering losers are
    undone (first foreground touch via [Db.peek], a [Db.recovery_step],
    or [Db.await_recovery]). *)

exception Recovery_incomplete of { backlog : int }
(** A whole-store operation (backup, scrub, restore, media swap) was
    asked for while an on-demand restart is still draining its backlog.
    These operations need a settled store; retry after
    [Db.await_recovery]. *)

exception Media_unhealable of { target : string; id : int }
(** The scrubber found corruption it could not repair from any source
    (shadow, archive snapshot, archived WAL); [target] is
    ["page"], ["wal"] or an archive component and [id] the page number
    or 0-based record index. The object stays quarantined. *)

exception
  History_unavailable of {
    lsn : Lsn.t;
    available_from : Lsn.t;
    available_upto : Lsn.t;
  }
(** A time-travel query asked for a point the durable history does not
    cover: [lsn] lies outside [[available_from, available_upto]] — the
    prefix was truncated and no attached archive bridges the gap from
    genesis, or [lsn] is above the durable horizon. Raised by
    [Ariesrh_temporal.Temporal] instead of ever answering from a
    silently partial history. *)

val history_unavailable :
  lsn:Lsn.t -> available_from:Lsn.t -> available_upto:Lsn.t -> 'a
(** Raise {!History_unavailable}. *)

val pp_overload_reason : Format.formatter -> overload_reason -> unit

val pp_exn : Format.formatter -> exn -> unit
(** Also renders the storage/WAL corruption and capacity exceptions
    ([Ariesrh_wal.Log_store.Corrupt_record],
    [Ariesrh_wal.Log_store.Log_full],
    [Ariesrh_storage.Buffer_pool.Torn_page]), the file-backend I/O
    exceptions ([Ariesrh_storage.Backend.Io_error],
    [Ariesrh_wal.Log_device.Wal_frame_corrupt]) — so no raw
    [Unix.Unix_error] ever reaches the user —
    [Ariesrh_fault.Fault.Injected_crash], the restart-integrity
    exceptions ([Ariesrh_recovery.Audit.Audit_failed],
    [Ariesrh_recovery.Rewrite.Surgery_corrupt]), and the media-archive
    exception ([Ariesrh_storage.Archive.Archive_corrupt]). *)
