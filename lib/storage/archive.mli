(** The media archive: durable copy of last resort.

    Holds a checksummed snapshot of the full page image (taken by
    [Db.backup]) plus a continuous, append-only copy of every durable
    WAL record from {!wal_base} onwards. The live log truncates;
    the archive never does — so any page lost to bit-rot and any
    reclaimed or rotted durable WAL record can be fetched back from
    here, and a cold [ariesrh restore] can rebuild the exact committed
    state after total media loss.

    In-memory state is authoritative in-process (the Sim backend works
    with no directory); with [?dir] every mutation is written through to
    [MANIFEST] / [pages.arc] / [wal.arc], each independently
    checksummed. *)

open Ariesrh_types

exception Archive_corrupt of { path : string; what : string }

type geometry = { n_objects : int; objects_per_page : int; impl_tag : int }

type snapshot = {
  pages : Page.t array;
  complete_upto : Lsn.t;
      (** every update with lsn <= this is reflected in [pages] *)
  master : Lsn.t;  (** checkpoint master pointer at backup time *)
}

type t

val create :
  ?dir:string ->
  n_objects:int ->
  objects_per_page:int ->
  impl_tag:int ->
  unit ->
  t
(** Fresh archive, or reopen of an existing one under [dir] (raises
    {!Archive_corrupt} on a geometry mismatch or damaged files). *)

val open_dir : string -> t
(** Cold open: geometry comes from the manifest. Raises
    {!Archive_corrupt} when there is no (valid) manifest. *)

val geometry : t -> geometry
val snapshot : t -> snapshot option

val put_snapshot :
  t -> pages:Page.t array -> complete_upto:Lsn.t -> master:Lsn.t -> unit
(** Install (and persist, when mirrored) a full page snapshot. *)

val append_wal : t -> idx:int -> string -> unit
(** Archive the encoded record at absolute log index [idx]. The first
    append fixes {!wal_base}; appends must be consecutive. *)

val archived_upto : t -> int
(** Records with idx < this are archived ([0] when none are). *)

val wal_base : t -> int
val wal_get : t -> idx:int -> string option

val wal_reads : t -> int
(** Lifetime count of frames {!wal_get} handed out: what time travel
    read below the live log's truncation horizon. *)

val iter_wal : t -> (idx:int -> string -> unit) -> unit

val sync : t -> unit
(** [fsync] the WAL archive file (no-op when unmirrored). *)

val fsyncs : t -> int

val check : t -> int list * int list
(** Recompute every stored checksum: [(bad_page_ids, bad_wal_idxs)]. *)

val heal_wal : t -> idx:int -> string -> unit
(** Replace a rotted archived frame with an intact live copy. *)

val bitrot_wal : t -> idx:int -> unit
(** Injection primitive: flip bits in one archived frame, memory and
    mirror alike, leaving the recorded crc as the detector. *)

val close : t -> unit
