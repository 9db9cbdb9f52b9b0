(** Log records and their binary codec.

    A record is written by at most one transaction (checkpoints have no
    writer). [prev] is the backward-chain pointer of the writer: the LSN
    of the previous record written on behalf of the same transaction
    ([Lsn.nil] for the first). A {!Delegate} record sits on {e two}
    backward chains (Fig. 6 of the paper): [prev] is the delegator's
    pointer ([torBC]) and [tee_prev] the delegatee's ([teeBC]). *)

open Ariesrh_types

type op =
  | Set of { before : int; after : int }
      (** Overwrite; conflicts with everything. Undone by restoring
          [before]. *)
  | Add of int
      (** Commutative increment by a (possibly negative) delta. Undone by
          adding the negation; commutes with other [Add]s, which is how
          several transactions can be responsible for updates to the same
          object at once (§2.1.2). *)

type update = { oid : Oid.t; page : Page_id.t; op : op }

type ckpt_status = Ck_active | Ck_committed | Ck_rolling_back

type ckpt_txn = {
  ck_xid : Xid.t;
  ck_status : ckpt_status;
  ck_last_lsn : Lsn.t;
  ck_undo_next : Lsn.t;
}

type ckpt_scope = { ck_invoker : Xid.t; ck_first : Lsn.t; ck_last : Lsn.t }

type ckpt_ob = {
  ck_owner : Xid.t;  (** transaction whose Ob_List holds the entry *)
  ck_oid : Oid.t;
  ck_deleg : Xid.t option;  (** last delegator of the object, if any *)
  ck_scopes : ckpt_scope list;
}

type ckpt = {
  ck_txns : ckpt_txn list;
  ck_dpt : (Page_id.t * Lsn.t) list;  (** dirty page table: (page, recLSN) *)
  ck_obs : ckpt_ob list;  (** Ob_Lists with scopes, needed by ARIES/RH *)
}

type body =
  | Begin
  | Update of update
  | Commit
  | Abort  (** rollback has started; an [End] follows when it completes *)
  | End
  | Clr of {
      upd : update;  (** the {e inverse} operation, as applied — redoable *)
      undone : Lsn.t;  (** LSN of the update record this CLR compensates *)
      invoker : Xid.t;  (** invoking transaction of the undone update *)
      undo_next : Lsn.t;  (** next record of the writer left to undo *)
    }
      (** Compensation log record. [undone]/[invoker] let the ARIES/RH
          forward pass trim the covering scope so that re-recovery (and
          recovery after a crash mid-rollback) never undoes twice. *)
  | Delegate of {
      tee : Xid.t;
      tee_prev : Lsn.t;
      oid : Oid.t;
      op : (Lsn.t * Xid.t) option;
          (** [None]: the whole object (the granularity §3 implements);
              [Some (lsn, invoker)]: a single operation — the paper's
              general model of §2.1.2, where one update is delegated *)
    }
  | Ckpt_begin
  | Ckpt_end of ckpt
  | Anchor
      (** chain-head anchor: a no-op record whose only job is to make a
          transaction's current backward-chain head durable. Written (and
          force-flushed) by {e eager} delegation after its log surgery —
          without it, a spliced stable record can become unreachable when
          a crash eats the volatile records that pointed at it. ARIES/RH
          never needs one; the delegate record plays this role. *)
  | Rewrite_begin of {
      deleg : (Xid.t * Xid.t * Oid.t) option;
          (** the pending delegation this surgery serves:
              (delegator, delegatee, object); [None] for surgeries with
              no driving delegation (e.g. lazy restart splices) *)
      targets : Lsn.t list;  (** LSNs the surgery will rewrite in place *)
    }
      (** Intent record of a rewrite system transaction. Forced to disk
          {e before} any in-place rewrite touches the stable log, so
          restart knows a surgery may be half-applied. *)
  | Rewrite_clr of { target : Lsn.t; before : string; after : string }
      (** Redo-idempotent compensation for one in-place rewrite: the
          encoded bytes of [target]'s record before and after surgery
          (same length — only writer/chain fields differ). Restart rolls
          the surgery forward by re-applying [after], or back by
          restoring [before]; both are idempotent. *)
  | Rewrite_end of { begin_lsn : Lsn.t; committed : bool }
      (** Closes the system transaction opened at [begin_lsn].
          [committed = true]: all rewrites (and the justifying
          delegation/anchor records) are in the log — restart re-applies
          the [after] images if in doubt. [committed = false]: the
          surgery was rolled back (restart or fallback); the [before]
          images have been restored. *)
  | Xfer_out of { xfer_id : int; hop : int; oid : Oid.t; target : int; value : int }
      (** Cross-shard transfer intent, forced on the {e source} shard's
          log before anything touches the target. [hop] is the per-object
          transfer sequence number (strictly increasing across the
          object's whole migration history); [value] is the durably
          committed value being carried. An [Xfer_out] with no matching
          [Xfer_end] on the same log is an in-doubt transfer: restart
          resolves it against the target shard's durable log. *)
  | Xfer_in of {
      xfer_id : int;
      hop : int;
      oid : Oid.t;
      page : Page_id.t;
      source : int;
      before : int;
      value : int;
    }
      (** Transfer record forced on the {e target} shard's log. It is
          both the durable transfer marker and a redo-conditioned page
          update ([before]→[value] on [page], applied by the forward
          pass like an [Update]), so adopting the value and recording
          the adoption are one atomic log write. Its durable presence is
          the commit point of the transfer. *)
  | Xfer_end of { xfer_id : int; oid : Oid.t; committed : bool }
      (** Closes the transfer opened by the matching [Xfer_out] on the
          same (source) log. [committed = true]: the target's [Xfer_in]
          is durable — the object now lives there. [committed = false]:
          the transfer was rolled back; the object never left. Written
          via reserved log space so resolution cannot die of
          [Log_full]. *)

type t = {
  xid : Xid.t option;  (** writer; [None] only for checkpoint records *)
  prev : Lsn.t;  (** writer's backward-chain pointer *)
  body : body;
}

val mk : Xid.t -> prev:Lsn.t -> body -> t
val mk_system : body -> t

val writer_exn : t -> Xid.t
(** Raises [Invalid_argument] on checkpoint records. *)

val prev_for : t -> Xid.t -> Lsn.t
(** [prev_for r x]: the next-older LSN on [x]'s backward chain, assuming
    [r] lies on it. For a delegate record this is [prev] when [x] is the
    delegator and [tee_prev] when [x] is the delegatee. Raises
    [Invalid_argument] if [r] is not on [x]'s chain. *)

val set_writer : t -> Xid.t -> t
(** [set_writer r x] is [setTransID] from Fig. 1: the same record
    attributed to [x]. Only meaningful for [Update]/[Clr] records. *)

val set_prev_for : t -> Xid.t -> Lsn.t -> t
(** Patch the backward-chain pointer that [x] follows through this
    record (the [prev] field, or [tee_prev] when [x] is the delegatee of
    a delegate record). Used only by the history-rewriting baselines. *)

val is_update : t -> bool
val pp : Format.formatter -> t -> unit

val encode : t -> string
(** Binary encoding: a one-byte tag, the writer (0 for none) and [prev]
    as little-endian u32s, the body's fields, then a u32 FNV-1a
    checksum of everything before it. Every field has a fixed width
    (flags one byte, ids, LSNs and lengths four, values eight), so a
    record's size depends only on its body's shape: the list lengths of
    a [Ckpt_end] or [Rewrite_begin] and the image lengths of a
    [Rewrite_clr], and nothing else. The bytes are written in one pass
    into a buffer of exactly {!encoded_size} bytes. Raises
    [Invalid_argument] if a u32 field is negative or above 2{^32} - 1;
    i64 fields take any [int]. *)

type decode_error =
  | Truncated  (** fewer bytes than the fixed header + trailer *)
  | Checksum_mismatch
  | Bad_tag of int
  | Bad_encoding of string

val pp_decode_error : Format.formatter -> decode_error -> unit

val decode : string -> (t, decode_error) result
(** Inverse of {!encode}, total: any bytes yield a record or a typed
    [Error], never an exception. A torn or bit-flipped stable record surfaces
    as [Error] — recovery treats a corrupt record at the stable tail as
    end-of-log rather than failing restart. *)

val encoded_size : t -> int
(** [String.length (encode r)], computed from the body's shape without
    encoding. Two records of the same shape have the same size, which is
    what lets [Db] reserve space for a future record (a CLR, an abort
    and end pair) as a constant. *)
