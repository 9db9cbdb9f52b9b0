open Ariesrh_types

exception Conflict of { requester : Xid.t; holders : Xid.t list }
exception No_such_txn of Xid.t
exception Txn_not_active of Xid.t
exception Not_responsible of { xid : Xid.t; oid : Oid.t }

type overload_reason = Begin_refused | Delegation_refused

exception Overloaded of { xid : Xid.t option; reason : overload_reason }
exception Log_truncated_past_backup of { backup : Lsn.t; retained : Lsn.t }
exception Unsupported_by_engine of { op : string; impl : string }

exception Archive_lagging of { durable : Lsn.t; archived : Lsn.t }
(** Continuous WAL archiving fell further behind the durable head than
    the configured bound; admission backpressure until it catches up. *)

exception Xfer_refused of { oid : Oid.t; holders : Xid.t list }
(** A cross-shard migration was refused because live transactions still
    hold locks on the object; retry after they finish. Migration only
    moves durably committed state, so it never preempts a lock. *)

exception Recovering of { oid : Oid.t; backlog : int }
(** On-demand restart: the object is still covered by an unresolved
    loser transaction's scope, so serving it now would expose
    uncommitted state. Retryable — the backlog shrinks with every
    sweeper step, and the refusal clears once the covering losers are
    undone. *)

exception Recovery_incomplete of { backlog : int }
(** A whole-store operation (backup, scrub, restore, media swap) was
    asked for while an on-demand restart is still draining its backlog;
    retry after [Db.await_recovery]. *)

exception Media_unhealable of { target : string; id : int }
(** The scrubber found corruption it could not repair from any source
    (shadow, archive snapshot, archived WAL) — the object stays
    quarantined. *)

exception
  History_unavailable of {
    lsn : Lsn.t;
    available_from : Lsn.t;
    available_upto : Lsn.t;
  }
(** A time-travel query asked for a point the durable history no longer
    (or does not yet) covers: [lsn] lies outside
    [[available_from, available_upto]], and neither the live log nor an
    attached archive bridges the gap. Raised by [Temporal] instead of
    ever answering from a silently partial prefix. *)

let history_unavailable ~lsn ~available_from ~available_upto =
  raise (History_unavailable { lsn; available_from; available_upto })

let pp_overload_reason ppf = function
  | Begin_refused ->
      Format.pp_print_string ppf "new transactions refused under log pressure"
  | Delegation_refused ->
      Format.pp_print_string ppf "delegations refused under log pressure"

let pp_exn ppf = function
  | Conflict { requester; holders } ->
      Format.fprintf ppf "lock conflict: %a blocked by %a" Xid.pp requester
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Xid.pp)
        holders
  | No_such_txn x -> Format.fprintf ppf "no such transaction: %a" Xid.pp x
  | Txn_not_active x -> Format.fprintf ppf "transaction not active: %a" Xid.pp x
  | Not_responsible { xid; oid } ->
      Format.fprintf ppf "%a is not responsible for %a" Xid.pp xid Oid.pp oid
  | Overloaded { xid; reason } ->
      Format.fprintf ppf "overloaded%a: %a"
        (fun ppf -> function
          | None -> ()
          | Some x -> Format.fprintf ppf " (%a)" Xid.pp x)
        xid pp_overload_reason reason
  | Log_truncated_past_backup { backup; retained } ->
      Format.fprintf ppf
        "log truncated past the backup point (backup at %a, log retained \
         from %a)"
        Lsn.pp backup Lsn.pp retained
  | Unsupported_by_engine { op; impl } ->
      Format.fprintf ppf "%s is not supported by the %s engine" op impl
  | Archive_lagging { durable; archived } ->
      Format.fprintf ppf
        "WAL archiving lagging (durable at %a, archived up to %a); \
         admission refused until the archiver catches up"
        Lsn.pp durable Lsn.pp archived
  | Xfer_refused { oid; holders } ->
      Format.fprintf ppf
        "cross-shard transfer of %a refused: locks held by %a" Oid.pp oid
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Xid.pp)
        holders
  | Recovering { oid; backlog } ->
      Format.fprintf ppf
        "still recovering %a: an undrained loser transaction covers it \
         (restart backlog %d); retry after the sweep"
        Oid.pp oid backlog
  | Recovery_incomplete { backlog } ->
      Format.fprintf ppf
        "restart recovery incomplete (backlog %d); retry once the \
         on-demand sweep has drained"
        backlog
  | Media_unhealable { target; id } ->
      Format.fprintf ppf
        "unhealable media corruption: %s %d has no intact source \
         (shadow, archive snapshot or archived WAL)"
        target id
  | History_unavailable { lsn; available_from; available_upto } ->
      Format.fprintf ppf
        "history unavailable at %a: durable history covers %a..%a \
         (truncated prefix not bridged by any archive)"
        Lsn.pp lsn Lsn.pp available_from Lsn.pp available_upto
  | Ariesrh_storage.Archive.Archive_corrupt { path; what } ->
      Format.fprintf ppf "media archive corrupt: %s (%s)" path what
  | Ariesrh_wal.Log_store.Log_full { dimension; need; used; reserved; capacity }
    ->
      Format.fprintf ppf
        "log full: need %d %a, %d used + %d reserved of %d" need
        Ariesrh_wal.Log_store.pp_dimension dimension used reserved capacity
  | Ariesrh_wal.Log_store.Corrupt_record { lsn; error } ->
      Format.fprintf ppf "corrupt log record at %a: %a" Lsn.pp lsn
        Ariesrh_wal.Record.pp_decode_error error
  | Ariesrh_storage.Buffer_pool.Torn_page pid ->
      Format.fprintf ppf "torn data page %a (checksum failed, no repair)"
        Page_id.pp pid
  | Ariesrh_storage.Backend.Io_error { op; path; error } ->
      Format.fprintf ppf "storage backend I/O error: %s on %s: %s" op path
        (Unix.error_message error)
  | Ariesrh_wal.Log_device.Wal_frame_corrupt { offset; expected; got } ->
      Format.fprintf ppf
        "WAL frame corrupt away from the tail at byte %d (expected %d, got \
         %d)"
        offset expected got
  | Ariesrh_fault.Fault.Injected_crash { io; site } ->
      Format.fprintf ppf "injected crash at io #%d (%a)" io
        Ariesrh_fault.Fault.pp_site site
  | Ariesrh_recovery.Audit.Audit_failed violations ->
      Format.fprintf ppf "restart self-audit failed (%d violation%s):@ %a"
        (List.length violations)
        (if List.length violations = 1 then "" else "s")
        (Format.pp_print_list ~pp_sep:Format.pp_print_space
           Format.pp_print_string)
        violations
  | Ariesrh_recovery.Rewrite.Surgery_corrupt msg ->
      Format.fprintf ppf "rewrite surgery protocol violated: %s" msg
  | e -> Format.pp_print_string ppf (Printexc.to_string e)
