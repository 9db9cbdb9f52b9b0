(** The log's secondary index: which records are control records, which
    object each data record names, and where each transaction's outcome
    record sits.

    {!Log_store} keeps one entry per record, in a slot parallel to its
    encoded records (slot = LSN - 1), and updates it at every point that
    changes the stored records: append, crash, tail amputation, rewrite,
    heal, cold reopen and archive install. Truncation keeps the entries
    of the reclaimed prefix, so a history read bridged by the media
    archive can find the archived frames it needs without decoding the
    others.

    An entry is filled from the record in hand when it is appended, so
    appending decodes nothing; it only stores the record's tag. The
    per-object and per-transaction chains are linked lazily, by the
    first walk along them after new appends. The object chains' heads
    sit in a flat open-addressing table keyed by oid, sized by the
    objects the log names rather than by the store's (a dense array of
    heads would cost a cell per stored object), so linking costs one
    probe and no allocation per record. A reopen or an archive
    install rebuilds the entries by decoding the loaded bytes; a record
    that does not decode gets the {e unknown} entry, which every walk
    visits, so a rotted record is never skipped as "another object's".

    Three walks, each in ascending slot order:
    - by {!control} kind: the rare records restart's preambles resolve;
    - by object: the [Update], [Clr], [Delegate] and [Xfer_in] records
      naming it, the records a time-travel query for that object folds;
    - by transaction: its [Commit] and [Abort] records. *)

open Ariesrh_types

type control =
  | Delegation  (** [Delegate] *)
  | Surgery  (** [Rewrite_begin], [Rewrite_clr], [Rewrite_end] *)
  | Transfer  (** [Xfer_out], [Xfer_in], [Xfer_end] *)

type key =
  | Kind of control
  | Object of Oid.t
      (** [Update] and [Clr] by their update's object; [Delegate] and
          [Xfer_in] by theirs *)
  | Txn of Xid.t  (** [Commit] and [Abort] by their writer *)

type tag = private int
(** What the index records about one record: its classes and its
    object or transaction. *)

val tag_of : Record.t -> tag

val tag_of_encoded : string -> tag
(** The tag of stored bytes; {!unknown} when they do not decode. Not
    charged to any decode counter. *)

val unknown : tag

type t

val create : unit -> t

val floor : t -> int
(** Slots below this are not indexed: the prefix a reopen or an archive
    install did not load. *)

val push : t -> tag -> unit
(** Index the record in the next slot: the index holds an entry for
    every slot from {!floor} up to the last one pushed. *)

val drop_from : t -> int -> unit
(** Forget the entries of every slot from the given one up: a crash's
    volatile tail, an amputated torn tail. *)

val rebuild : t -> floor:int -> length:int -> (int -> tag) -> unit
(** Re-index slots [\[floor, length)] from scratch. *)

val tag_at : t -> int -> tag
(** The entry of an indexed slot. *)

val retag : t -> int -> tag -> unit
(** Replace the entry of an indexed slot: an unknown record healed or
    rewritten, or an outcome record re-attributed. *)

val same_kind : tag -> tag -> bool
(** Same classes: a rewrite may change a record's writer, never what it
    is. *)

val on_object_chain : tag -> bool
(** A record the object walk finds by its object. *)

val iter_kind :
  t -> control option -> lo:int -> hi:int -> (int -> unit) -> unit
(** The control slots of the given kind ([None]: every kind) within
    [\[lo, hi)] (clamped to the indexed range), plus every unknown slot
    there, ascending, without allocating. [hi] is fixed when the walk
    starts. *)

val slots : t -> key -> lo:int -> hi:int -> int list
(** The indexed slots of [key] within [\[lo, hi)] (clamped to the
    indexed range), plus every unknown slot there, ascending. *)
