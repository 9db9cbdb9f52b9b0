open Ariesrh_types
module Major_array = Ariesrh_util.Major_array

(* A media archive: the durable copy of last resort.

   In-memory state is authoritative in-process (the Sim backend works
   without any directory at all); when a directory is attached, every
   mutation is written through, so a cold process can rebuild the whole
   archive from the files alone — that is what [ariesrh restore] does
   after total media loss.

   On-disk representation (all integers int64 little-endian unless
   noted):

     MANIFEST   : magic "ARAMv1\n\000" | complete_upto | master
                  | n_objects | objects_per_page | impl_tag | checksum
                  (checksum = FNV-1a over the preceding 48 bytes)
     pages.arc  : magic "ARAPv1\n\000" | pages | slots_per_page
                  then pages x [checksum | page_lsn | value_0 ..]
                  (same image encoding as the page device)
     wal.arc    : magic "ARAWv1\n\000" | wal_base
                  then frames [len u32 LE][crc u32 LE][payload],
                  consecutive record idxs starting at wal_base

   [wal.arc] is append-only: the archive never truncates, which is the
   whole point — any durable WAL record the live log has reclaimed or
   lost to rot can be fetched back from here. *)

exception Archive_corrupt of { path : string; what : string }

let manifest_magic = "ARAMv1\n\000"
let pages_magic = "ARAPv1\n\000"
let wal_magic = "ARAWv1\n\000"

let crc32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

let fnv_bytes b len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xffffffff
  done;
  !h

type geometry = { n_objects : int; objects_per_page : int; impl_tag : int }

type snapshot = {
  pages : Page.t array;  (** full committed page image at backup *)
  complete_upto : Lsn.t;  (** every update with lsn <= this is in it *)
  master : Lsn.t;  (** checkpoint master pointer at backup time *)
}

type t = {
  dir : string option;
  geometry : geometry;
  mutable snapshot : snapshot option;
  mutable wal_base : int;  (* absolute idx of the first archived record *)
  mutable frames : string array;  (* grows; [wal_count] are valid *)
  mutable crcs : int array;  (* crc recorded at append: rot detector *)
  mutable wal_count : int;
  mutable wal_fd : Unix.file_descr option;
  mutable fsyncs : int;
  mutable wal_reads : int;  (* frames handed out by [wal_get] *)
}

(* --- file helpers --------------------------------------------------- *)

let write_all fd path b len =
  let written = ref 0 in
  while !written < len do
    let n =
      Backend.wrap ~op:"write" ~path (fun () ->
          Unix.write fd b !written (len - !written))
    in
    if n <= 0 then
      raise (Backend.Io_error { op = "write"; path; error = Unix.EIO });
    written := !written + n
  done

let read_upto fd path ~off b len =
  Backend.wrap ~op:"lseek" ~path (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET));
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n =
      Backend.wrap ~op:"read" ~path (fun () ->
          Unix.read fd b !got (len - !got))
    in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

let with_file path flags k =
  let fd =
    Backend.wrap ~op:"open" ~path (fun () -> Unix.openfile path flags 0o644)
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> k fd)

let manifest_path dir = Filename.concat dir "MANIFEST"
let pages_path dir = Filename.concat dir "pages.arc"
let wal_path dir = Filename.concat dir "wal.arc"

(* --- manifest ------------------------------------------------------- *)

let write_manifest t dir =
  let b = Bytes.make 56 '\000' in
  Bytes.blit_string manifest_magic 0 b 0 8;
  let upto, master =
    match t.snapshot with
    | None -> (0, 0)
    | Some s -> (Lsn.to_int s.complete_upto, Lsn.to_int s.master)
  in
  Bytes.set_int64_le b 8 (Int64.of_int upto);
  Bytes.set_int64_le b 16 (Int64.of_int master);
  Bytes.set_int64_le b 24 (Int64.of_int t.geometry.n_objects);
  Bytes.set_int64_le b 32 (Int64.of_int t.geometry.objects_per_page);
  Bytes.set_int64_le b 40 (Int64.of_int t.geometry.impl_tag);
  Bytes.set_int64_le b 48 (Int64.of_int (fnv_bytes b 48));
  let tmp = manifest_path dir ^ ".tmp" in
  with_file tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] (fun fd ->
      write_all fd tmp b 56;
      Backend.wrap ~op:"fsync" ~path:tmp (fun () -> Unix.fsync fd);
      t.fsyncs <- t.fsyncs + 1);
  Backend.wrap ~op:"rename" ~path:tmp (fun () ->
      Unix.rename tmp (manifest_path dir))

let read_manifest dir =
  let path = manifest_path dir in
  with_file path [ Unix.O_RDONLY ] (fun fd ->
      let b = Bytes.create 56 in
      if read_upto fd path ~off:0 b 56 < 56 then
        raise (Archive_corrupt { path; what = "manifest truncated" });
      if Bytes.sub_string b 0 8 <> manifest_magic then
        raise (Archive_corrupt { path; what = "bad manifest magic" });
      let stored = Int64.to_int (Bytes.get_int64_le b 48) in
      if stored <> fnv_bytes b 48 then
        raise (Archive_corrupt { path; what = "manifest checksum mismatch" });
      let gi o = Int64.to_int (Bytes.get_int64_le b o) in
      ( Lsn.of_int (gi 8),
        Lsn.of_int (gi 16),
        {
          n_objects = gi 24;
          objects_per_page = gi 32;
          impl_tag = gi 40;
        } ))

(* --- page snapshot file --------------------------------------------- *)

let page_bytes slots = (2 + slots) * 8

let write_pages_file t dir (s : snapshot) =
  let path = pages_path dir in
  let slots =
    if Array.length s.pages = 0 then 1 else Page.slots s.pages.(0)
  in
  let pb = page_bytes slots in
  let b = Bytes.make (16 + (Array.length s.pages * pb)) '\000' in
  Bytes.blit_string pages_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int (Array.length s.pages));
  Array.iteri
    (fun i p ->
      let off = 16 + (i * pb) in
      Bytes.set_int64_le b off (Int64.of_int (Page.checksum p));
      Bytes.set_int64_le b (off + 8)
        (Int64.of_int (Lsn.to_int (Page.page_lsn p)));
      for sl = 0 to slots - 1 do
        Bytes.set_int64_le b (off + ((2 + sl) * 8))
          (Int64.of_int (Page.get p sl))
      done)
    s.pages;
  with_file path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] (fun fd ->
      write_all fd path b (Bytes.length b);
      Backend.wrap ~op:"fsync" ~path (fun () -> Unix.fsync fd);
      t.fsyncs <- t.fsyncs + 1)

let read_pages_file dir ~slots ~complete_upto ~master =
  let path = pages_path dir in
  if not (Sys.file_exists path) then None
  else
    with_file path [ Unix.O_RDONLY ] (fun fd ->
        let h = Bytes.create 16 in
        if read_upto fd path ~off:0 h 16 < 16 then
          raise (Archive_corrupt { path; what = "pages header truncated" });
        if Bytes.sub_string h 0 8 <> pages_magic then
          raise (Archive_corrupt { path; what = "bad pages magic" });
        let n = Int64.to_int (Bytes.get_int64_le h 8) in
        let pb = page_bytes slots in
        let b = Bytes.create pb in
        let pages =
          Major_array.init ~fill:Page.placeholder n (fun i ->
              if read_upto fd path ~off:(16 + (i * pb)) b pb < pb then
                raise (Archive_corrupt { path; what = "pages image truncated" });
              let checksum = Int64.to_int (Bytes.get_int64_le b 0) in
              let page_lsn =
                Lsn.of_int (Int64.to_int (Bytes.get_int64_le b 8))
              in
              let values =
                Array.init slots (fun sl ->
                    Int64.to_int (Bytes.get_int64_le b ((2 + sl) * 8)))
              in
              Page.restore ~page_lsn ~checksum values)
        in
        Some { pages; complete_upto; master })

(* --- WAL archive file ----------------------------------------------- *)

let wal_fd t dir =
  match t.wal_fd with
  | Some fd -> fd
  | None ->
      let path = wal_path dir in
      let fd =
        Backend.wrap ~op:"open" ~path (fun () ->
            Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644)
      in
      t.wal_fd <- Some fd;
      fd

let write_wal_header t dir =
  let path = wal_path dir in
  let fd = wal_fd t dir in
  let b = Bytes.make 16 '\000' in
  Bytes.blit_string wal_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int t.wal_base);
  Backend.wrap ~op:"lseek" ~path (fun () ->
      ignore (Unix.lseek fd 0 Unix.SEEK_SET));
  write_all fd path b 16

let append_wal_file t dir payload =
  let path = wal_path dir in
  let fd = wal_fd t dir in
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b 8 len;
  Backend.wrap ~op:"lseek" ~path (fun () ->
      ignore (Unix.lseek fd 0 Unix.SEEK_END));
  write_all fd path b (8 + len)

let load_wal_file t dir =
  let path = wal_path dir in
  if not (Sys.file_exists path) then ()
  else begin
    let fd = wal_fd t dir in
    let size =
      Backend.wrap ~op:"fstat" ~path (fun () -> (Unix.fstat fd).Unix.st_size)
    in
    if size < 16 then ()
    else begin
      let h = Bytes.create 16 in
      if read_upto fd path ~off:0 h 16 < 16 then
        raise (Archive_corrupt { path; what = "wal header truncated" });
      if Bytes.sub_string h 0 8 <> wal_magic then
        raise (Archive_corrupt { path; what = "bad wal magic" });
      t.wal_base <- Int64.to_int (Bytes.get_int64_le h 8);
      let off = ref 16 in
      let frames = ref [] in
      let hdr = Bytes.create 8 in
      (* an archive append cut short by a crash is dropped: everything
         before it is intact (append-only file), and the live log still
         holds whatever the tail was *)
      let stop = ref false in
      while (not !stop) && !off < size do
        if read_upto fd path ~off:!off hdr 8 < 8 then stop := true
        else begin
          let len = Int32.to_int (Bytes.get_int32_le hdr 0) land 0xffffffff in
          let crc = Int32.to_int (Bytes.get_int32_le hdr 4) land 0xffffffff in
          if len <= 0 || len > 16 * 1024 * 1024 then stop := true
          else begin
            let payload = Bytes.create len in
            if read_upto fd path ~off:(!off + 8) payload len < len then
              stop := true
            else begin
              frames := (Bytes.to_string payload, crc) :: !frames;
              off := !off + 8 + len
            end
          end
        end
      done;
      let l = List.rev !frames in
      t.wal_count <- List.length l;
      t.frames <- Array.make (max 1 t.wal_count) "";
      t.crcs <- Array.make (max 1 t.wal_count) 0;
      List.iteri
        (fun i (p, c) ->
          t.frames.(i) <- p;
          t.crcs.(i) <- c)
        l;
      (* drop the possibly-cut bytes so future appends land cleanly *)
      if !off < size then
        Backend.wrap ~op:"ftruncate" ~path (fun () ->
            Unix.ftruncate fd !off)
    end
  end

(* --- construction --------------------------------------------------- *)

let create ?dir ~n_objects ~objects_per_page ~impl_tag () =
  let t =
    {
      dir;
      geometry = { n_objects; objects_per_page; impl_tag };
      snapshot = None;
      wal_base = -1;
      frames = [||];
      crcs = [||];
      wal_count = 0;
      wal_fd = None;
      fsyncs = 0;
      wal_reads = 0;
    }
  in
  (match dir with
  | None -> ()
  | Some d ->
      Backend.mkdir_p d;
      if Sys.file_exists (manifest_path d) then begin
        let upto, master, g = read_manifest d in
        if g.n_objects <> n_objects || g.objects_per_page <> objects_per_page
        then
          raise
            (Archive_corrupt
               { path = manifest_path d; what = "geometry mismatch" });
        let slots = objects_per_page in
        t.snapshot <-
          read_pages_file d ~slots ~complete_upto:upto ~master;
        load_wal_file t d
      end);
  t

(* Cold open: geometry comes from the manifest itself. *)
let open_dir dir =
  if not (Sys.file_exists (manifest_path dir)) then
    raise
      (Archive_corrupt { path = manifest_path dir; what = "no manifest" });
  let _, _, g = read_manifest dir in
  create ~dir ~n_objects:g.n_objects ~objects_per_page:g.objects_per_page
    ~impl_tag:g.impl_tag ()

let geometry t = t.geometry
let snapshot t = t.snapshot

(* --- WAL archiving -------------------------------------------------- *)

let archived_upto t = if t.wal_base < 0 then 0 else t.wal_base + t.wal_count

let ensure_frames t =
  if t.wal_count >= Array.length t.frames then begin
    let ncap = max 64 (Array.length t.frames * 2) in
    let nf = Array.make ncap "" in
    Array.blit t.frames 0 nf 0 t.wal_count;
    t.frames <- nf;
    let nc = Array.make ncap 0 in
    Array.blit t.crcs 0 nc 0 t.wal_count;
    t.crcs <- nc
  end

let append_wal t ~idx payload =
  if t.wal_base < 0 then begin
    t.wal_base <- idx;
    match t.dir with None -> () | Some d -> write_wal_header t d
  end;
  if idx <> archived_upto t then
    invalid_arg
      (Printf.sprintf "Archive.append_wal: idx %d, expected %d" idx
         (archived_upto t));
  ensure_frames t;
  t.frames.(t.wal_count) <- payload;
  t.crcs.(t.wal_count) <- crc32 payload;
  t.wal_count <- t.wal_count + 1;
  match t.dir with None -> () | Some d -> append_wal_file t d payload

let wal_base t = max 0 t.wal_base

let frame t ~idx =
  if t.wal_base < 0 || idx < t.wal_base || idx >= archived_upto t then None
  else Some t.frames.(idx - t.wal_base)

let wal_get t ~idx =
  let f = frame t ~idx in
  if f <> None then t.wal_reads <- t.wal_reads + 1;
  f

let wal_reads t = t.wal_reads

let iter_wal t f =
  for i = 0 to t.wal_count - 1 do
    f ~idx:(t.wal_base + i) t.frames.(i)
  done

(* --- snapshot ------------------------------------------------------- *)

let put_snapshot t ~pages ~complete_upto ~master =
  let s =
    {
      pages = Major_array.map ~fill:Page.placeholder Page.copy pages;
      complete_upto;
      master;
    }
  in
  t.snapshot <- Some s;
  match t.dir with
  | None -> ()
  | Some d ->
      write_pages_file t d s;
      write_manifest t d

let sync t =
  match (t.dir, t.wal_fd) with
  | Some d, Some fd ->
      Backend.wrap ~op:"fsync" ~path:(wal_path d) (fun () -> Unix.fsync fd);
      t.fsyncs <- t.fsyncs + 1
  | _ -> ()

let fsyncs t = t.fsyncs

(* --- integrity ------------------------------------------------------ *)

(* Scrub support: recompute every stored checksum. Returns the indices of
   damaged archived WAL frames and damaged snapshot pages. *)
let check t =
  let bad_wal = ref [] in
  for i = t.wal_count - 1 downto 0 do
    if crc32 t.frames.(i) <> t.crcs.(i) then
      bad_wal := (t.wal_base + i) :: !bad_wal
  done;
  let bad_pages = ref [] in
  (match t.snapshot with
  | None -> ()
  | Some s ->
      for i = Array.length s.pages - 1 downto 0 do
        if not (Page.verify s.pages.(i)) then bad_pages := i :: !bad_pages
      done);
  (!bad_pages, !bad_wal)

(* Heal an archived frame back from an intact live copy. *)
let heal_wal t ~idx payload =
  if t.wal_base >= 0 && idx >= t.wal_base && idx < archived_upto t then begin
    t.frames.(idx - t.wal_base) <- payload;
    t.crcs.(idx - t.wal_base) <- crc32 payload;
    (* rewrite the whole mirror: frames are variable-length, and archive
       heals are rare enough that simplicity wins *)
    match t.dir with
    | None -> ()
    | Some d ->
        let path = wal_path d in
        let fd = wal_fd t d in
        Backend.wrap ~op:"ftruncate" ~path (fun () -> Unix.ftruncate fd 0);
        write_wal_header t d;
        for i = 0 to t.wal_count - 1 do
          append_wal_file t d t.frames.(i)
        done
  end

(* Test / injection primitive: rot one archived frame in place. *)
let bitrot_wal t ~idx =
  match frame t ~idx with
  | None -> ()
  | Some payload when String.length payload > 0 ->
      let b = Bytes.of_string payload in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
      let rotted = Bytes.to_string b in
      t.frames.(idx - t.wal_base) <- rotted;
      (* the recorded crc keeps the intact value: that is the detector *)
      (match t.dir with
      | None -> ()
      | Some d ->
          let path = wal_path d in
          let fd = wal_fd t d in
          (* frames are append-only and contiguous: walk to the frame *)
          let off = ref 16 in
          let hdr = Bytes.create 8 in
          (try
             for _ = t.wal_base to idx - 1 do
               if read_upto fd path ~off:!off hdr 8 < 8 then raise Exit;
               let len =
                 Int32.to_int (Bytes.get_int32_le hdr 0) land 0xffffffff
               in
               off := !off + 8 + len
             done;
             Backend.wrap ~op:"lseek" ~path (fun () ->
                 ignore (Unix.lseek fd (!off + 8) Unix.SEEK_SET));
             let rb = Bytes.of_string rotted in
             write_all fd path rb (Bytes.length rb)
           with Exit -> ()))
  | Some _ -> ()

let close t =
  match t.wal_fd with
  | None -> ()
  | Some fd ->
      t.wal_fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
