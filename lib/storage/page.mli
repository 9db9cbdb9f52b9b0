(** A database page: a fixed array of integer-valued object slots plus
    the page LSN (the LSN of the last log record whose update was applied
    to this page). Redo is conditioned on the page LSN, which is what
    makes ARIES redo idempotent. *)

open Ariesrh_types

type t

val create : slots:int -> t
(** All slots start at 0 with [page_lsn = Lsn.nil]. *)

val placeholder : t
(** A page that is never read or written: the long-lived [~fill] for
    building a page array with {!Ariesrh_util.Major_array}. *)

val copy : t -> t
val slots : t -> int
val page_lsn : t -> Lsn.t
val set_page_lsn : t -> Lsn.t -> unit
val get : t -> int -> int
val set : t -> int -> int -> unit

val seal : t -> unit
(** Recompute the stored checksum from the current LSN and slot values.
    [Disk.write_page] seals pages as they reach stable storage; in-memory
    buffer pool frames carry stale checksums between writes. *)

val verify : t -> bool
(** Whether the stored checksum matches the current contents. False for a
    torn write that persisted only part of a page image. *)

val checksum : t -> int

val restore : page_lsn:Lsn.t -> checksum:int -> int array -> t
(** Rebuild a page from its stored representation, keeping the stored
    checksum verbatim (it may legitimately mismatch: a torn page read
    back from the file backend must still fail {!verify}). The value
    array is copied. *)

val pp : Format.formatter -> t -> unit
