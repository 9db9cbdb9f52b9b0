open Ariesrh_types
module Fault = Ariesrh_fault.Fault

exception Corrupt_record of { lsn : Lsn.t; error : Record.decode_error }

type dimension = Bytes | Records

let pp_dimension ppf = function
  | Bytes -> Format.pp_print_string ppf "bytes"
  | Records -> Format.pp_print_string ppf "records"

exception
  Log_full of {
    dimension : dimension;
    need : int;
    used : int;
    reserved : int;
    capacity : int;
  }

type t = {
  page_size : int;
  mutable enc : string array;  (* encoded records, index = lsn - 1 *)
  mutable offsets : int array;  (* byte offset of each record *)
  mutable count : int;  (* total records, stable + tail *)
  mutable next_offset : int;
  mutable durable_count : int;  (* records flushed *)
  mutable buffered_page : int;  (* log page currently in the device buffer *)
  mutable master : int;  (* stable pointer to the last complete checkpoint *)
  mutable low : int;  (* records with lsn <= low were truncated away *)
  (* A tear scheduled for the last record of the most recent flush:
     (index, corrupted bytes). It materialises only if a crash happens
     before the next flush rewrites that log page. *)
  mutable pending_tear : (int * string) option;
  mutable amputated_total : int;
      (* lifetime count of corrupt tail records dropped by recover_tail;
         lets harnesses observe amputation even when the restart that
         performed it is itself killed by an injected crash *)
  (* --- bounded-log accounting --- *)
  mutable cap_bytes : int option;  (* hard byte budget; None = unbounded *)
  mutable cap_records : int option;
  mutable live_bytes : int;  (* encoded bytes of retained records *)
  mutable reserved_bytes : int;  (* pool set aside for rollback CLRs *)
  mutable reserved_records : int;
  fault : Fault.t;
  stats : Log_stats.t;
  (* The stable device mirroring the durable prefix: a no-op for the sim
     backend, the segmented WAL file for the file backend. The in-memory
     arrays stay authoritative in-process. *)
  device : Log_device.t;
  (* Observer for in-place history surgery: continuous WAL archiving
     must see rewritten bytes, or a cold restore resurrects the
     pre-surgery attribution the live log has since disowned. *)
  mutable rewrite_hook : (idx:int -> string -> unit) option;
  (* --- decoded-record cache: record [idx] lives in slot
     [idx mod cache_cap]; both arrays stay empty until the first cached
     decode --- *)
  cache_cap : int;  (* 0 = caching disabled *)
  mutable cache_keys : int array;  (* idx each slot holds, -1 = empty *)
  mutable cache_recs : Record.t array;  (* the decoded record beside it *)
  mutable decode_calls : int;  (* lifetime Record.decode invocations *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  (* One entry per record, slot = array index, kept at every mutation of
     [enc] below. Truncation keeps the entries of the reclaimed prefix
     for archive-bridged reads. *)
  index : Log_index.t;
}

type control = Log_index.control = Delegation | Surgery | Transfer
type key = Log_index.key = Kind of control | Object of Oid.t | Txn of Xid.t

(* Rebuild from the stored bytes (reopen, archive install). Decoding is
   the only way to know a loaded record's entry; one that does not decode
   is indexed as unknown. Like the scrubber's checks, this pass is not
   charged to the decode counters. *)
let index_rebuild t =
  Log_index.rebuild t.index ~floor:t.low ~length:t.count (fun i ->
      Log_index.tag_of_encoded t.enc.(i))

let create ?(page_size = 4096) ?capacity_bytes ?capacity_records
    ?(record_cache = 8192) ?(fault = Fault.none ())
    ?(backend = Ariesrh_storage.Backend.Sim) () =
  let device =
    match backend with
    | Ariesrh_storage.Backend.Sim -> Log_device.sim
    | Ariesrh_storage.Backend.File { dir } -> Log_device.create ~dir ()
  in
  let t =
    {
      page_size;
      enc = [||];
      offsets = [||];
      count = 0;
      next_offset = 0;
      durable_count = 0;
      buffered_page = -1;
      master = 0;
      low = 0;
      pending_tear = None;
      amputated_total = 0;
      cap_bytes = capacity_bytes;
      cap_records = capacity_records;
      live_bytes = 0;
      reserved_bytes = 0;
      reserved_records = 0;
      fault;
      stats = Log_stats.create ();
      device;
      rewrite_hook = None;
      cache_cap = max 0 record_cache;
      cache_keys = [||];
      cache_recs = [||];
      decode_calls = 0;
      cache_hits = 0;
      cache_misses = 0;
      index = Log_index.create ();
    }
  in
  (* Reopen path: rebuild the durable prefix from whatever frames the
     previous process (possibly killed mid-run) left on disk. Everything
     loaded was flushed — the volatile tail died with that process. *)
  (match Log_device.load device with
  | None -> ()
  | Some l ->
      t.enc <- Array.copy l.Log_device.enc;
      t.count <- l.Log_device.count;
      t.durable_count <- l.Log_device.count;
      t.master <- l.Log_device.master;
      t.low <- l.Log_device.low;
      t.offsets <- Array.make (max 1 t.count) 0;
      let off = ref 0 in
      for i = 0 to t.count - 1 do
        t.offsets.(i) <- !off;
        off := !off + String.length t.enc.(i);
        if i >= t.low then
          t.live_bytes <- t.live_bytes + String.length t.enc.(i)
      done;
      t.next_offset <- !off;
      index_rebuild t);
  t

let stats t = t.stats
let decode_calls t = t.decode_calls
let record_cache_hits t = t.cache_hits
let record_cache_misses t = t.cache_misses

(* The cache holds only successfully decoded records, keyed by array
   index. It must be invisible: I/O accounting (reads, page fetches,
   seeks) is charged identically on hits and misses, and every mutation
   of [enc] — rewrite, truncate, crash-applied tears, tail amputation,
   LSN reuse after a crash — evicts the affected indices. It is
   direct-mapped: a hit is one key compare, a miss overwrites the slot,
   and eviction clears a slot only if it holds that index. The policy
   has no recency or randomness, so same-seed runs stay byte-identical,
   and a read costs no allocation beyond the decode itself. *)
let raw_decode t s =
  t.decode_calls <- t.decode_calls + 1;
  Record.decode s

(* What an empty slot's record holds; never read. Filling the array with
   a long-lived value matters: [Array.make] of a major-heap-sized array
   forces a minor collection to promote a young fill value first. *)
let empty_slot = Record.mk_system Record.End

let decode_at t idx =
  if t.cache_cap = 0 then raw_decode t t.enc.(idx)
  else
    let slot = idx mod t.cache_cap in
    if Array.length t.cache_keys > 0 && t.cache_keys.(slot) = idx then begin
      t.cache_hits <- t.cache_hits + 1;
      Ok t.cache_recs.(slot)
    end
    else begin
      t.cache_misses <- t.cache_misses + 1;
      let res = raw_decode t t.enc.(idx) in
      (match res with
      | Ok r ->
          if Array.length t.cache_keys = 0 then begin
            t.cache_keys <- Array.make t.cache_cap (-1);
            t.cache_recs <- Array.make t.cache_cap empty_slot
          end;
          t.cache_keys.(slot) <- idx;
          t.cache_recs.(slot) <- r
      | Error _ -> ());
      res
    end

let cache_invalidate t idx =
  if Array.length t.cache_keys > 0 then begin
    let slot = idx mod t.cache_cap in
    if t.cache_keys.(slot) = idx then t.cache_keys.(slot) <- -1
  end

(* [lo .. lo + cache_cap - 1] names every slot once *)
let cache_invalidate_range t lo hi =
  if Array.length t.cache_keys > 0 then
    for i = lo to min hi (lo + t.cache_cap - 1) do
      let slot = i mod t.cache_cap in
      let k = t.cache_keys.(slot) in
      if k >= lo && k <= hi then t.cache_keys.(slot) <- -1
    done

let amputated_total t = t.amputated_total
let head t = Lsn.of_int t.count
let durable t = Lsn.of_int t.durable_count
let length t = t.count

let ensure_capacity t =
  let cap = Array.length t.enc in
  if t.count = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ne = Array.make ncap "" in
    Array.blit t.enc 0 ne 0 t.count;
    t.enc <- ne;
    let no = Array.make ncap 0 in
    Array.blit t.offsets 0 no 0 t.count;
    t.offsets <- no
  end

let capacity_bytes t = t.cap_bytes
let capacity_records t = t.cap_records
let set_capacity_bytes t c = t.cap_bytes <- c
let set_capacity_records t c = t.cap_records <- c
let used_bytes t = t.live_bytes
let used_records t = t.count - t.low
let reserved_bytes t = t.reserved_bytes
let reserved_records t = t.reserved_records

let pressure t =
  let ratio used reserved = function
    | None -> 0.
    | Some cap when cap <= 0 -> 1.
    | Some cap -> float_of_int (used + reserved) /. float_of_int cap
  in
  max
    (ratio t.live_bytes t.reserved_bytes t.cap_bytes)
    (ratio (used_records t) t.reserved_records t.cap_records)

(* A log-pressure squeeze shrinks the byte budget mid-run. On an
   unbounded log it imposes one, scaled from current usage, so the fault
   is meaningful in every configuration. *)
let apply_squeeze t =
  match Fault.on_log_append t.fault with
  | None -> ()
  | Some keep ->
      let base =
        match t.cap_bytes with
        | Some c -> c
        | None -> max 1 (t.live_bytes + t.reserved_bytes)
      in
      let floor = t.live_bytes + t.reserved_bytes in
      t.cap_bytes <-
        Some (max floor (int_of_float (keep *. float_of_int base)))

let admit t ~bytes ~records =
  (match t.cap_bytes with
  | Some cap when t.live_bytes + t.reserved_bytes + bytes > cap ->
      t.stats.admission_rejects <- t.stats.admission_rejects + 1;
      raise
        (Log_full
           {
             dimension = Bytes;
             need = bytes;
             used = t.live_bytes;
             reserved = t.reserved_bytes;
             capacity = cap;
           })
  | _ -> ());
  match t.cap_records with
  | Some cap when used_records t + t.reserved_records + records > cap ->
      t.stats.admission_rejects <- t.stats.admission_rejects + 1;
      raise
        (Log_full
           {
             dimension = Records;
             need = records;
             used = used_records t;
             reserved = t.reserved_records;
             capacity = cap;
           })
  | _ -> ()

let reserve t ~bytes ~records =
  admit t ~bytes ~records;
  t.reserved_bytes <- t.reserved_bytes + bytes;
  t.reserved_records <- t.reserved_records + records;
  t.stats.reservations <- t.stats.reservations + 1

let unreserve t ~bytes ~records =
  t.reserved_bytes <- max 0 (t.reserved_bytes - bytes);
  t.reserved_records <- max 0 (t.reserved_records - records)

let store t r s =
  ensure_capacity t;
  Log_index.push t.index (Log_index.tag_of r);
  (* this index may have held an amputated/crash-discarded record whose
     LSN is being reused — a stale decode must not survive that *)
  cache_invalidate t t.count;
  t.enc.(t.count) <- s;
  t.offsets.(t.count) <- t.next_offset;
  t.next_offset <- t.next_offset + String.length s;
  t.count <- t.count + 1;
  t.live_bytes <- t.live_bytes + String.length s;
  t.stats.appends <- t.stats.appends + 1;
  Log_stats.observe_size t.stats (String.length s);
  Lsn.of_int t.count

let append t r =
  apply_squeeze t;
  let s = Record.encode r in
  admit t ~bytes:(String.length s) ~records:1;
  store t r s

(* Bypasses admission: for records whose space was paid for up front by
   [reserve] (rollback CLRs, Abort/Commit/End, checkpoint records) and
   for everything restart recovery writes. The pool is not drawn down
   here — the caller releases exact obligations via [unreserve], so the
   pool always equals the sum of live obligations. *)
let append_reserved t r =
  apply_squeeze t;
  store t r (Record.encode r)

let append_with_reserve t ~reserve_bytes ~reserve_records r =
  apply_squeeze t;
  let s = Record.encode r in
  admit t
    ~bytes:(String.length s + reserve_bytes)
    ~records:(1 + reserve_records);
  t.reserved_bytes <- t.reserved_bytes + reserve_bytes;
  t.reserved_records <- t.reserved_records + reserve_records;
  t.stats.reservations <- t.stats.reservations + 1;
  store t r s

let flush t ~upto =
  let target = min (Lsn.to_int upto) t.count in
  if target > t.durable_count then begin
    let start_idx = t.durable_count in
    let bytes = ref 0 in
    for i = t.durable_count to target - 1 do
      bytes := !bytes + String.length t.enc.(i)
    done;
    (* rewriting the tail log page heals any previously scheduled tear —
       on the file backend the torn frame must be healed for real *)
    (match t.pending_tear with
    | Some (idx, _) when idx < t.durable_count ->
        Log_device.rewrite t.device ~idx t.enc.(idx)
    | _ -> ());
    t.pending_tear <- None;
    t.durable_count <- target;
    t.stats.flushes <- t.stats.flushes + 1;
    t.stats.bytes_flushed <- t.stats.bytes_flushed + !bytes;
    let last = t.enc.(target - 1) in
    let d = Fault.on_log_flush t.fault ~last_len:(String.length last) in
    (* the device write happens before the injected power failure fires:
       a torn flush leaves a genuinely damaged file tail and no fsync *)
    (if Log_device.is_file t.device then
       let frames = ref [] in
       (for i = target - 1 downto start_idx do
          frames := t.enc.(i) :: !frames
        done);
       Log_device.flush t.device ~start_idx ~frames:!frames ~tear:d.Fault.tear);
    (match d.Fault.tear with
    | None -> ()
    | Some (Fault.Truncate_tail n) ->
        t.pending_tear <-
          Some (target - 1, String.sub last 0 (max 0 (String.length last - n)))
    | Some (Fault.Flip_byte i) ->
        let b = Bytes.of_string last in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        t.pending_tear <- Some (target - 1, Bytes.to_string b));
    if d.Fault.crash then Fault.die t.fault Fault.Log_flush
  end

let crash t =
  (match t.pending_tear with
  | Some (idx, bytes) ->
      if idx < t.durable_count then begin
        t.live_bytes <-
          t.live_bytes - String.length t.enc.(idx) + String.length bytes;
        t.enc.(idx) <- bytes;
        cache_invalidate t idx
      end;
      t.pending_tear <- None
  | None -> ());
  (* volatile tail dies with the crash — cached decodes of it must too *)
  cache_invalidate_range t t.durable_count (t.count - 1);
  Log_index.drop_from t.index t.durable_count;
  for i = t.durable_count to t.count - 1 do
    t.live_bytes <- t.live_bytes - String.length t.enc.(i)
  done;
  t.count <- t.durable_count;
  t.next_offset <-
    (if t.count = 0 then 0
     else t.offsets.(t.count - 1) + String.length t.enc.(t.count - 1));
  t.buffered_page <- -1;
  (* reservations are volatile bookkeeping for live transactions; after a
     crash no transaction is live, so the pool resets and restart's own
     CLRs go through [append_reserved] unchecked *)
  t.reserved_bytes <- 0;
  t.reserved_records <- 0

let master t = Lsn.of_int t.master

let set_master t lsn =
  if Lsn.to_int lsn > t.durable_count then
    invalid_arg "Log_store.set_master: checkpoint record not durable";
  t.master <- Lsn.to_int lsn;
  Log_device.set_master t.device t.master

let page_of t idx = t.offsets.(idx) / t.page_size

let touch_page t idx =
  let page = page_of t idx in
  if page <> t.buffered_page then begin
    t.stats.page_fetches <- t.stats.page_fetches + 1;
    if t.buffered_page >= 0 && abs (page - t.buffered_page) > 1 then
      t.stats.random_seeks <- t.stats.random_seeks + 1;
    t.buffered_page <- page
  end

let check_lsn t lsn =
  let i = Lsn.to_int lsn in
  if i <= t.low then
    invalid_arg (Printf.sprintf "Log_store: lsn %d was truncated away" i);
  if i < 1 || i > t.count then
    invalid_arg
      (Printf.sprintf "Log_store: lsn %d out of range [1..%d]" i t.count);
  i - 1

let truncate t ~below =
  let b = Lsn.to_int below in
  if t.master = 0 || b > t.master then
    invalid_arg "Log_store.truncate: would discard records restart needs";
  if b > t.durable_count then
    invalid_arg "Log_store.truncate: prefix not durable";
  let reclaimed = max 0 (b - 1 - t.low) in
  if reclaimed > 0 then begin
    (* drop the encoded bytes so the space is really gone *)
    cache_invalidate_range t t.low (b - 2);
    for i = t.low to b - 2 do
      t.live_bytes <- t.live_bytes - String.length t.enc.(i);
      t.enc.(i) <- ""
    done;
    t.low <- b - 1;
    Log_device.set_low t.device t.low
  end;
  reclaimed

let truncated_below t = Lsn.of_int (t.low + 1)

let read_result t lsn =
  let idx = check_lsn t lsn in
  if idx < t.durable_count then begin
    t.stats.reads <- t.stats.reads + 1;
    touch_page t idx
  end;
  decode_at t idx

let read t lsn =
  match read_result t lsn with
  | Ok r -> r
  | Error error -> raise (Corrupt_record { lsn; error })

let rewrite t lsn r =
  let idx = check_lsn t lsn in
  let s = Record.encode r in
  if String.length s <> String.length t.enc.(idx) then
    invalid_arg "Log_store.rewrite: record size changed";
  (* surgery re-attributes records, it never changes what they are or
     which object they name; an unknown entry takes its replacement's *)
  let tag = Log_index.tag_of r in
  let old = Log_index.tag_at t.index idx in
  if old <> Log_index.unknown then begin
    if not (Log_index.same_kind old tag) then
      invalid_arg "Log_store.rewrite: record kind changed";
    if Log_index.on_object_chain old && old <> tag then
      invalid_arg "Log_store.rewrite: record object changed"
  end;
  (* rewriting a durable record is a synchronous in-place I/O: it gets
     its own crash point, fired before the bytes change so an injected
     crash leaves the record intact *)
  if idx < t.durable_count then Fault.on_log_rewrite t.fault;
  t.enc.(idx) <- s;
  cache_invalidate t idx;
  Log_index.retag t.index idx tag;
  t.stats.rewrites <- t.stats.rewrites + 1;
  if idx < t.durable_count then begin
    Log_device.rewrite t.device ~idx s;
    touch_page t idx;
    t.stats.rewrite_page_writes <- t.stats.rewrite_page_writes + 1
  end;
  match t.rewrite_hook with None -> () | Some h -> h ~idx s

let set_rewrite_hook t h = t.rewrite_hook <- h

(* 1-based inclusive LSN bounds of a forward sweep *)
let forward_range ?upto t ~from =
  let start = if Lsn.is_nil from then 1 else Lsn.to_int from in
  let stop =
    match upto with None -> t.count | Some l -> min (Lsn.to_int l) t.count
  in
  (max start (t.low + 1), stop)

let iter_forward ?upto t ~from f =
  let start, stop = forward_range ?upto t ~from in
  for i = start to stop do
    f (Lsn.of_int i) (read t (Lsn.of_int i))
  done

let iter_valid_forward ?upto t ~from f =
  let start, stop = forward_range ?upto t ~from in
  let corrupt = ref None in
  let i = ref start in
  while !corrupt = None && !i <= stop do
    let lsn = Lsn.of_int !i in
    (match read_result t lsn with
    | Ok r -> f lsn r
    | Error e -> corrupt := Some (lsn, e));
    incr i
  done;
  !corrupt

(* [stop] is fixed when the walk starts: records [f] appends are not
   visited. *)
let iter_control ?upto ?kind t ~from f =
  let start, stop = forward_range ?upto t ~from in
  Log_index.iter_kind t.index kind ~lo:(start - 1) ~hi:stop (fun i ->
      f (Lsn.of_int (i + 1)) (read t (Lsn.of_int (i + 1))))

let index_floor t = Lsn.of_int (Log_index.floor t.index + 1)

let index_walk t key ~from ~upto =
  let lo = if Lsn.is_nil from then 0 else Lsn.to_int from - 1 in
  List.map
    (fun i -> Lsn.of_int (i + 1))
    (Log_index.slots t.index key ~lo ~hi:(min (Lsn.to_int upto) t.count))

let iter_backward t ~from f =
  let start = if Lsn.is_nil from then t.count else Lsn.to_int from in
  for i = start downto t.low + 1 do
    f (Lsn.of_int i) (read t (Lsn.of_int i))
  done

let recover_tail t =
  let dropped = ref [] in
  let continue = ref true in
  while !continue && t.count > t.low do
    (* decode the raw bytes, never a cached entry: this is the integrity
       check on what actually survived the crash *)
    match raw_decode t t.enc.(t.count - 1) with
    | Ok _ -> continue := false
    | Error e ->
        dropped := (Lsn.of_int t.count, e) :: !dropped;
        cache_invalidate t (t.count - 1);
        t.live_bytes <- t.live_bytes - String.length t.enc.(t.count - 1);
        t.enc.(t.count - 1) <- "";
        t.count <- t.count - 1;
        t.durable_count <- min t.durable_count t.count;
        t.amputated_total <- t.amputated_total + 1
  done;
  Log_index.drop_from t.index t.count;
  t.next_offset <-
    (if t.count = 0 then 0
     else t.offsets.(t.count - 1) + String.length t.enc.(t.count - 1));
  t.pending_tear <- None;
  if t.master > t.count then begin
    (* the master checkpoint was amputated with the corrupt tail; fall
       back to a full-scan restart from the log's beginning *)
    if t.low > 0 then
      invalid_arg
        "Log_store.recover_tail: master checkpoint corrupt after truncation";
    t.master <- 0
  end;
  !dropped

(* --- media: archive access, scrub and heal -------------------------- *)

(* None of these advance the fault injector's I/O clock or the decode
   counters: they are the archiver's and the scrubber's own access
   paths, and integrity maintenance must never shift a crash schedule
   (or an E16-gated counter). *)

let check_idx t idx =
  if idx < t.low || idx >= t.durable_count then
    invalid_arg
      (Printf.sprintf "Log_store: idx %d outside durable window [%d..%d)"
         idx t.low t.durable_count)

(* Encoded bytes of a durable record, verbatim — the archiver's read. *)
let raw_get t ~idx =
  check_idx t idx;
  t.enc.(idx)

(* The continuous archiver must stop short of a record whose stable copy
   is scheduled to tear: archiving it clean would resurrect bytes that a
   crash before the next flush amputates. *)
let archive_bound t =
  match t.pending_tear with
  | Some (idx, _) -> min idx t.durable_count
  | None -> t.durable_count

(* Raw integrity check: does the stored record still decode? Every
   record carries its own trailing FNV-1a checksum, so rot anywhere in
   the payload is caught here. Cache-bypassing by construction. *)
let record_intact t ~idx =
  check_idx t idx;
  match Record.decode t.enc.(idx) with Ok _ -> true | Error _ -> false

(* Heal a rotted durable record from its archive copy. *)
let heal_record t ~idx s =
  check_idx t idx;
  if String.length s <> String.length t.enc.(idx) then
    invalid_arg "Log_store.heal_record: archived copy length mismatch";
  t.enc.(idx) <- s;
  cache_invalidate t idx;
  Log_index.retag t.index idx (Log_index.tag_of_encoded s);
  Log_device.rewrite t.device ~idx s

(* Injection primitive: flip bits in one durable record's stored bytes,
   memory and device alike. The device frame is rewritten with a crc
   over the rotted payload, so the reopen scan loads the rot verbatim
   and detection happens — as on Sim — at the record checksum. *)
let bitrot_record t ~idx =
  check_idx t idx;
  if String.length t.enc.(idx) > 0 then begin
    let b = Bytes.of_string t.enc.(idx) in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x08));
    t.enc.(idx) <- Bytes.to_string b;
    cache_invalidate t idx;
    (* the index keeps a known entry (rot in memory does not change what
       the record is); an unknown one is re-read, in case the flip undid
       an earlier one *)
    if Log_index.tag_at t.index idx = Log_index.unknown then
      Log_index.retag t.index idx (Log_index.tag_of_encoded t.enc.(idx));
    Log_device.rewrite t.device ~idx t.enc.(idx)
  end

(* Cold-restore install: populate an empty, freshly created store with
   the archived record sequence (absolute indices [low..low+n)). The
   store comes out exactly as a reopen after the archived history:
   everything durable, master set, records below [low] reclaimed. *)
let install_archive t ~low ~master frames =
  if t.count <> 0 then
    invalid_arg "Log_store.install_archive: store not empty";
  let n = Array.length frames in
  let count = low + n in
  if master > count then
    invalid_arg "Log_store.install_archive: master beyond archived head";
  t.enc <- Array.make (max 1 count) "";
  Array.blit frames 0 t.enc low n;
  t.offsets <- Array.make (max 1 count) 0;
  let off = ref 0 in
  for i = 0 to count - 1 do
    t.offsets.(i) <- !off;
    off := !off + String.length t.enc.(i);
    if i >= low then t.live_bytes <- t.live_bytes + String.length t.enc.(i)
  done;
  t.next_offset <- !off;
  t.count <- count;
  t.durable_count <- count;
  t.master <- master;
  t.low <- low;
  t.pending_tear <- None;
  cache_invalidate_range t low (count - 1);
  index_rebuild t;
  Log_device.install t.device ~low ~master ~frames:(Array.to_list frames)

let sync t = Log_device.sync t.device
let fsyncs t = Log_device.fsyncs t.device
let close t = Log_device.close t.device

let register_metrics t m =
  let module M = Ariesrh_obs.Metrics in
  Log_stats.register t.stats m;
  M.counter m ~help:"corrupt stable tail records dropped at restart"
    "ariesrh_log_amputated_total" (fun () -> t.amputated_total);
  M.gauge m ~help:"encoded bytes of retained records"
    "ariesrh_log_used_bytes" (fun () -> t.live_bytes);
  M.gauge m ~help:"retained record count" "ariesrh_log_used_records"
    (fun () -> used_records t);
  M.gauge m ~help:"bytes reserved for rollback CLRs"
    "ariesrh_log_reserved_bytes" (fun () -> t.reserved_bytes);
  M.gauge m ~help:"records reserved for rollback CLRs"
    "ariesrh_log_reserved_records" (fun () -> t.reserved_records);
  M.gauge m ~help:"LSN of the next record to be appended"
    "ariesrh_log_head" (fun () -> t.count);
  M.gauge m ~help:"durable LSN" "ariesrh_log_durable" (fun () ->
      t.durable_count);
  M.gauge_f m ~help:"log-space pressure in [0,1]" "ariesrh_log_pressure"
    (fun () -> pressure t)
