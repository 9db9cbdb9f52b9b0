(** The simulated stable log.

    Records are appended to a volatile tail and become durable when
    flushed; a {!crash} discards the unflushed tail, exactly the failure
    model the WAL protocol assumes. LSNs are dense (the n-th record ever
    appended has LSN n), so recovery's "K <- K - 1" sweep from the paper's
    Fig. 1/Fig. 8 maps directly onto {!read}.

    Records are held encoded; {!read} decodes (and verifies the checksum
    of) the stored bytes, so every recovery run exercises the codec.

    In-place {!rewrite} exists solely for the eager/lazy
    history-rewriting baselines of §3.1–3.2; ARIES/RH never calls it. *)

open Ariesrh_types

exception Corrupt_record of { lsn : Lsn.t; error : Record.decode_error }
(** Raised by {!read} when the stored bytes fail to decode — a torn or
    bit-flipped stable tail. Restart amputates such records up front
    ({!recover_tail}); seeing this exception later means the log was
    corrupted somewhere other than the tail, which the failure model
    does not produce. *)

type dimension = Bytes | Records

val pp_dimension : Format.formatter -> dimension -> unit

exception
  Log_full of {
    dimension : dimension;
    need : int;  (** bytes or records the rejected operation asked for *)
    used : int;  (** live bytes / retained records at the rejection *)
    reserved : int;  (** pool set aside for rollback obligations *)
    capacity : int;
  }
(** Raised by admission-checked appends and by {!reserve} when the
    request does not fit within the configured capacity net of existing
    reservations. Typed so callers can distinguish log pressure from
    programming errors and react (back off, checkpoint, truncate). *)

type t

val create :
  ?page_size:int ->
  ?capacity_bytes:int ->
  ?capacity_records:int ->
  ?record_cache:int ->
  ?fault:Ariesrh_fault.Fault.t ->
  ?backend:Ariesrh_storage.Backend.t ->
  unit ->
  t
(** [backend] (default [Sim]) selects the stable device behind the log.
    With [File { dir }] the durable prefix is mirrored write-through into
    a segmented WAL under [dir] (frames fsynced on flush — the commit
    force), and an existing WAL's surviving frames are loaded back as the
    reopened durable prefix: the restart path after a real process death.
    The in-memory array stays authoritative in-process, so I/O accounting
    and fault scheduling are identical across backends.

    [page_size] (bytes, default 4096) governs the I/O cost model; see
    {!Log_stats}. [capacity_bytes] / [capacity_records] bound the log
    (default: unbounded); see {!append} and {!reserve}. [record_cache]
    (default 8192, [0] disables) bounds the decoded-record cache: {!read}
    memoises successful decodes by LSN so repeated reads — backward
    rollback chains, restart passes, history scans — skip the codec. The
    cache is semantically invisible: the I/O cost model charges hits and
    misses identically, and {!rewrite}, {!truncate}, {!crash} (volatile
    tail + applied tears) and {!recover_tail} evict the affected entries.
    It is direct-mapped: record [idx] lives in slot [idx mod record_cache],
    a read of a different record in that slot replaces it, and its two
    arrays are allocated on the first cached decode. The policy is
    deterministic, keeping same-seed runs byte-identical. A live [fault]
    injector can tear the last record of a crashing flush, raise
    [Fault.Injected_crash] at flush points, and squeeze the byte budget
    at append points. *)

val stats : t -> Log_stats.t

val decode_calls : t -> int
(** Lifetime number of [Record.decode] invocations — the counter the E16
    perf gate tracks. Deliberately {e not} a registered metric: it
    differs cache-on vs cache-off, and forensic dumps embed the metrics
    snapshot, which must stay byte-identical either way. *)

val record_cache_hits : t -> int
(** Reads served from the decoded-record cache. *)

val record_cache_misses : t -> int
(** Cache-enabled reads that had to decode. *)

val amputated_total : t -> int
(** Lifetime count of corrupt tail records dropped by {!recover_tail}.
    Fault harnesses read this rather than the restart report because an
    injected crash can kill the very restart that amputated the tail —
    the work still happened and must be observable. *)

val head : t -> Lsn.t
(** LSN of the most recently appended record; [Lsn.nil] when empty. *)

val durable : t -> Lsn.t
(** LSN up to which the log is flushed; [Lsn.nil] when nothing is. *)

val append : t -> Record.t -> Lsn.t
(** Admission-checked: raises {!Log_full} if the encoded record does not
    fit within the capacity net of the reservation pool. *)

val append_reserved : t -> Record.t -> Lsn.t
(** Append bypassing admission, for records whose space was secured up
    front by {!reserve} (rollback CLRs, Abort/Commit/End, checkpoint
    records) and for everything restart recovery writes. Does {e not}
    draw down the pool — the caller releases exact obligations via
    {!unreserve}, keeping the pool equal to the sum of live
    obligations. *)

val append_with_reserve :
  t -> reserve_bytes:int -> reserve_records:int -> Record.t -> Lsn.t
(** Atomically admit [record + reservation] and take the reservation,
    then append. Used for updates: an update is only admitted if the CLR
    that may later undo it is guaranteed to fit too. Raises {!Log_full}
    without any side effect if the combined request does not fit. *)

val reserve : t -> bytes:int -> records:int -> unit
(** Set aside space for future {!append_reserved} calls. Raises
    {!Log_full} (with no side effect) if the request does not fit. *)

val unreserve : t -> bytes:int -> records:int -> unit
(** Release previously reserved space (clamped at zero). *)

val capacity_bytes : t -> int option
val capacity_records : t -> int option
val set_capacity_bytes : t -> int option -> unit
val set_capacity_records : t -> int option -> unit

val used_bytes : t -> int
(** Encoded bytes of all retained records (stable + volatile tail). *)

val used_records : t -> int
(** Retained records, i.e. [length] minus the truncated prefix. *)

val reserved_bytes : t -> int
val reserved_records : t -> int

val pressure : t -> float
(** [(used + reserved) / capacity], the worse of the byte and record
    ratios; [0.] when unbounded. The governor's watermark input. *)

val flush : t -> upto:Lsn.t -> unit
(** No-op if already durable up to [upto]. Clamped to [head]. *)

val crash : t -> unit
(** Discard the unflushed tail. The stable prefix survives — except that
    a tear scheduled by the fault injector at the last flush is applied
    to the final stable record now (the power failure interrupted that
    log page write). *)

val read : t -> Lsn.t -> Record.t
(** Raises [Invalid_argument] for [Lsn.nil] or beyond [head], and
    {!Corrupt_record} if the stored bytes fail to decode. Reads above
    [durable] come from the in-memory tail and cost nothing. *)

val read_result : t -> Lsn.t -> (Record.t, Record.decode_error) result
(** Like {!read} but surfaces corruption as a typed result. Still raises
    [Invalid_argument] for out-of-range or truncated-away LSNs. *)

val rewrite : t -> Lsn.t -> Record.t -> unit
(** Replace the record at an LSN (history surgery, baselines only).
    Charged as a page fetch + page write when the record is stable.
    Raises [Invalid_argument] if the encoded size, the record's kind or
    the object it names would change. *)

val set_rewrite_hook : t -> (idx:int -> string -> unit) option -> unit
(** Observe every in-place {!rewrite} (surgery apply {e and} its
    crash-recovery rollback) with the new encoded bytes. The WAL
    archiver uses this to refresh its copy of an already-archived
    record — without it a cold restore would resurrect pre-surgery
    attributions the live log has since disowned. *)

val iter_forward :
  ?upto:Lsn.t -> t -> from:Lsn.t -> (Lsn.t -> Record.t -> unit) -> unit
(** Sequential sweep from [from] (or [Lsn.first] if nil) to [upto]
    (default: [head]). *)

val iter_valid_forward :
  ?upto:Lsn.t ->
  t ->
  from:Lsn.t ->
  (Lsn.t -> Record.t -> unit) ->
  (Lsn.t * Record.decode_error) option
(** Like {!iter_forward} but stops at the first record that fails to
    decode and returns it, instead of raising. [None] means the whole
    range decoded. This is how scans treat a corrupt record as
    end-of-log. *)

type control = Log_index.control =
  | Delegation  (** [Delegate] *)
  | Surgery  (** [Rewrite_begin], [Rewrite_clr], [Rewrite_end] *)
  | Transfer  (** [Xfer_out], [Xfer_in], [Xfer_end] *)
(** The control records: the rare records restart's preambles resolve
    before (surgeries, degraded-mode delegations) or after (transfers)
    the forward pass. *)

type key = Log_index.key =
  | Kind of control
  | Object of Oid.t
  | Txn of Xid.t  (** see {!Log_index.key} *)

val iter_control :
  ?upto:Lsn.t ->
  ?kind:control ->
  t ->
  from:Lsn.t ->
  (Lsn.t -> Record.t -> unit) ->
  unit
(** {!iter_forward} restricted to the control records (of [kind] only,
    when given), in ascending LSN order, without touching the records
    between them. The walk goes through the store's {!Log_index}, kept
    on every append and on every change to the stored records
    ({!crash}, {!recover_tail}, {!rewrite}, {!heal_record}, a reopen,
    {!install_archive}). Each visited record goes through {!read}: same
    decode, checksum, cache and I/O accounting, and a corrupt one raises
    {!Corrupt_record}. A reopened or installed record that does not
    decode has no known kind and is visited by every walk, so it is
    never skipped silently. *)

val index_floor : t -> Lsn.t
(** The first LSN the index has an entry for. Entries below
    {!truncated_below} are kept; a reopen or {!install_archive} indexes
    only the records it loads, so below this LSN a caller must read
    every record. *)

val index_walk : t -> key -> from:Lsn.t -> upto:Lsn.t -> Lsn.t list
(** The LSNs in [[from, upto]] (from [Lsn.first] if [from] is nil) that
    the index files under [key], plus every record of unknown kind
    there, ascending, from {!index_floor} up. Reads nothing: LSNs below
    {!truncated_below} are the caller's to read from an archive. *)

val iter_backward : t -> from:Lsn.t -> (Lsn.t -> Record.t -> unit) -> unit
(** Sequential sweep from [from] (or [head] if nil) down to [Lsn.first]. *)

val recover_tail : t -> (Lsn.t * Record.decode_error) list
(** Restart preamble: drop trailing stable records that fail to decode
    (in the failure model only the very last record of the crashing
    flush can be corrupt, but amputation loops to be safe). Returns the
    dropped (lsn, error) pairs, oldest first; the freed LSNs will be
    reused by new appends, exactly as if those records had never been
    flushed. If the master checkpoint pointer points into the amputated
    tail it falls back to [0] (full-scan restart); raises
    [Invalid_argument] if that fallback is impossible because the log
    prefix was truncated. *)

val length : t -> int
(** Total records (stable + tail). *)

val truncate : t -> below:Lsn.t -> int
(** [truncate t ~below] reclaims every record with LSN strictly below
    [below]; returns how many were discarded. LSNs are never renumbered;
    reading a reclaimed LSN raises. Requires a completed checkpoint with
    [master >= below] (restart must never need the reclaimed prefix) and
    [below <= durable]. *)

val truncated_below : t -> Lsn.t
(** First retained LSN ([Lsn.first] if nothing was ever truncated). *)

val master : t -> Lsn.t
(** The master record: LSN of the end record of the last complete
    checkpoint, where restart recovery begins. [Lsn.nil] if no
    checkpoint ever completed. Stable: survives {!crash}. *)

val set_master : t -> Lsn.t -> unit
(** Raises [Invalid_argument] unless the LSN is durable — the WAL rule
    for the master record itself. *)

(** {2 Media: archive access, scrub and heal}

    None of these advance the fault injector's I/O clock or the decode
    counters — integrity maintenance must never shift a crash schedule
    or an E16-gated counter. All take 0-based absolute record indices
    (idx = lsn - 1) within the durable retained window. *)

val raw_get : t -> idx:int -> string
(** Encoded bytes of a durable record, verbatim — the archiver's read.
    Raises [Invalid_argument] outside the durable retained window. *)

val archive_bound : t -> int
(** Records with idx < this are safe to archive: durable, and not
    scheduled to tear by a pending torn flush (archiving a record whose
    stable copy may still tear would resurrect bytes a crash
    amputates). *)

val record_intact : t -> idx:int -> bool
(** Does the stored record still decode? Every record carries its own
    trailing FNV-1a checksum, so rot anywhere in the payload is caught.
    Cache-bypassing. *)

val heal_record : t -> idx:int -> string -> unit
(** Replace a rotted durable record with its archived copy (same
    length), in memory and on the device. *)

val bitrot_record : t -> idx:int -> unit
(** Injection primitive: flip bits in one durable record's stored
    bytes, memory and device alike. The device frame keeps a valid
    frame crc so a reopen loads the rot verbatim — detection happens,
    as on Sim, at the record checksum. *)

val install_archive : t -> low:int -> master:int -> string array -> unit
(** Cold-restore install on an empty, freshly created store: adopt the
    archived record sequence (absolute indices [low..]) as the durable
    prefix, with [master] set and everything below [low] reclaimed.
    The store comes out exactly as a reopen after that history. *)

val sync : t -> unit
(** [fsync] the active WAL segment on the file backend; no-op on sim. *)

val fsyncs : t -> int
(** Lifetime WAL fsyncs — segments plus the control file ([0] on sim).
    An accessor rather than a registered metric so forensic dumps stay
    byte-identical across backends (same precedent as {!decode_calls}). *)

val close : t -> unit
(** Release the WAL file descriptors (idempotent; no-op on sim). *)

val register_metrics : t -> Ariesrh_obs.Metrics.t -> unit
(** Register this log's counters (via {!Log_stats.register}), the
    record-size histogram, and gauges for usage, reservations, head,
    durable horizon, and pressure. *)
