module Backend = Ariesrh_storage.Backend
module Fault = Ariesrh_fault.Fault

exception Wal_frame_corrupt of { offset : int; expected : int; got : int }

(* On-disk layout.

   Control file [wal.ctl] (all int64 little-endian after the magic):

     magic "ARWLv1\n\000" | master | low | reserved

   Segment files [<id>.wal], id ascending, each:

     magic "ARWSv1\n\000" | first_idx          (16-byte segment header)
     frame*                                    (consecutive record idxs)

   Frame: [len : u32 LE][crc : u32 LE][payload : len bytes]. [crc] is a
   32-bit FNV-1a over the payload. Frames are append-only; the only
   in-place mutation is {!rewrite} (same-length payload, baselines only)
   and the ftruncate that reclaims amputated/discarded tail frames when
   their LSNs are reused.

   Torn-tail realism: an injected [Truncate_tail n] is written as the
   full frame header followed by only [len - n] payload bytes — a
   genuinely cut file tail. [Flip_byte i] writes the full frame with the
   payload byte flipped under the original crc. Either way the reopen
   scan loads the damaged payload as the record's stored bytes, and
   restart's [recover_tail] amputates it exactly as on the sim backend. *)

let ctl_magic = "ARWLv1\n\000"
let seg_magic = "ARWSv1\n\000"
let ctl_bytes = 32
let seg_header_bytes = 16
let max_frame_payload = 16 * 1024 * 1024

let crc32 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
    s;
  !h

type seg = {
  id : int;
  path : string;
  mutable fd : Unix.file_descr option;
  mutable first_idx : int;
  mutable size : int;  (* bytes, including the segment header *)
}

type file = {
  dir : string;
  ctl_path : string;
  ctl_fd : Unix.file_descr;
  seg_max : int;
  mutable segs : seg list;  (* oldest first; never empty after open *)
  (* idx -> (segment id, byte offset, bytes actually on disk) *)
  mutable pos_seg : int array;
  mutable pos_off : int array;
  mutable pos_len : int array;
  mutable count : int;
  mutable master : int;
  mutable low : int;
  mutable fsyncs : int;
  mutable need_sync : bool;
  mutable closed : bool;
}

type t = Sim_dev | File_dev of file

let sim = Sim_dev
let is_file = function File_dev _ -> true | Sim_dev -> false

(* --- raw I/O helpers ------------------------------------------------ *)

let write_all fd path b off len =
  let written = ref 0 in
  while !written < len do
    let n =
      Backend.wrap ~op:"write" ~path (fun () ->
          Unix.write fd b (off + !written) (len - !written))
    in
    if n <= 0 then
      raise (Backend.Io_error { op = "write"; path; error = Unix.EIO });
    written := !written + n
  done

let pwrite fd path ~off b len =
  Backend.wrap ~op:"lseek" ~path (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET));
  write_all fd path b 0 len

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

let seg_path dir id = Filename.concat dir (Printf.sprintf "%08d.wal" id)

let seg_fd s =
  match s.fd with
  | Some fd -> fd
  | None ->
      let fd =
        Backend.wrap ~op:"open" ~path:s.path (fun () ->
            Unix.openfile s.path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644)
      in
      s.fd <- Some fd;
      fd

let fsync_fd f path fd =
  Backend.wrap ~op:"fsync" ~path (fun () -> Unix.fsync fd);
  f.fsyncs <- f.fsyncs + 1

let ensure_pos f idx =
  let cap = Array.length f.pos_seg in
  if idx >= cap then begin
    let ncap = max 64 (max (idx + 1) (cap * 2)) in
    let grow a = Array.append a (Array.make (ncap - cap) 0) in
    f.pos_seg <- grow f.pos_seg;
    f.pos_off <- grow f.pos_off;
    f.pos_len <- grow f.pos_len
  end

let record_pos f idx ~seg ~off ~len =
  ensure_pos f idx;
  f.pos_seg.(idx) <- seg;
  f.pos_off.(idx) <- off;
  f.pos_len.(idx) <- len

let find_seg f id = List.find (fun s -> s.id = id) f.segs
let last_seg f = List.nth f.segs (List.length f.segs - 1)

(* --- open / reopen -------------------------------------------------- *)

let write_ctl f =
  let b = Bytes.make ctl_bytes '\000' in
  Bytes.blit_string ctl_magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int f.master);
  Bytes.set_int64_le b 16 (Int64.of_int f.low);
  pwrite f.ctl_fd f.ctl_path ~off:0 b ctl_bytes;
  fsync_fd f f.ctl_path f.ctl_fd

let new_segment f ~first_idx =
  let id =
    match List.rev f.segs with [] -> 1 | s :: _ -> s.id + 1
  in
  let s =
    { id; path = seg_path f.dir id; fd = None; first_idx;
      size = seg_header_bytes }
  in
  let h = Bytes.make seg_header_bytes '\000' in
  Bytes.blit_string seg_magic 0 h 0 8;
  Bytes.set_int64_le h 8 (Int64.of_int first_idx);
  pwrite (seg_fd s) s.path ~off:0 h seg_header_bytes;
  f.segs <- f.segs @ [ s ];
  s

(* Scan one segment's frames, loading payloads into [acc] (a reversed
   list of strings). Returns [`Clean end_off | `Stop end_off] — [`Stop]
   means the scan hit a damaged tail and nothing after it may be kept. *)
let scan_segment f s ~is_last acc =
  let fd = seg_fd s in
  let size =
    Backend.wrap ~op:"fstat" ~path:s.path (fun () ->
        (Unix.fstat fd).Unix.st_size)
  in
  let hdr = Bytes.create 8 in
  let off = ref seg_header_bytes in
  let stop = ref None in
  let idx = ref s.first_idx in
  (* a crc-damaged frame is only tolerable as the very last frame of the
     log; remember it and fail if anything follows *)
  let pending_corrupt = ref None in
  while !stop = None && !off < size do
    (match !pending_corrupt with
    | Some (o, expected, got) ->
        raise (Wal_frame_corrupt { offset = o; expected; got })
    | None -> ());
    let got_h = read_upto fd s.path ~off:!off hdr 8 in
    if got_h < 8 then
      if is_last then stop := Some !off  (* partial header: never flushed *)
      else raise (Wal_frame_corrupt { offset = !off; expected = 8; got = got_h })
    else begin
      let len = Int32.to_int (Bytes.get_int32_le hdr 0) land 0xffffffff in
      let crc = Int32.to_int (Bytes.get_int32_le hdr 4) land 0xffffffff in
      if len <= 0 || len > max_frame_payload then
        if is_last then stop := Some !off
        else raise (Wal_frame_corrupt { offset = !off; expected = 1; got = len })
      else begin
        let payload = Bytes.create len in
        let got_p = read_upto fd s.path ~off:(!off + 8) payload len in
        if got_p < len then
          if is_last then begin
            (* torn tail: the frame header promises [len] bytes but the
               file was cut mid-payload — load what survived so restart
               amputates it like any corrupt tail record *)
            acc := Bytes.sub_string payload 0 got_p :: !acc;
            record_pos f !idx ~seg:s.id ~off:!off ~len:(8 + got_p);
            incr idx;
            stop := Some (!off + 8 + got_p)
          end
          else
            raise (Wal_frame_corrupt { offset = !off; expected = len; got = got_p })
        else begin
          let payload = Bytes.to_string payload in
          let computed = crc32 payload in
          if computed <> crc then
            (* tolerated only if nothing follows (torn tail flip) *)
            pending_corrupt := Some (!off, crc, computed);
          acc := payload :: !acc;
          record_pos f !idx ~seg:s.id ~off:!off ~len:(8 + len);
          incr idx;
          off := !off + 8 + len
        end
      end
    end
  done;
  (match !pending_corrupt with
  | Some _ when not is_last ->
      (* the damaged frame closed this segment but later segments exist *)
      let o, expected, got = Option.get !pending_corrupt in
      raise (Wal_frame_corrupt { offset = o; expected; got })
  | _ -> ());
  match !stop with Some e -> `Stop e | None -> `Clean !off

type loaded = {
  enc : string array;  (* [""] below [low] *)
  count : int;
  low : int;
  master : int;
}

let open_file ~dir ~seg_max =
  Backend.mkdir_p dir;
  let ctl_path = Filename.concat dir "wal.ctl" in
  let ctl_fd =
    Backend.wrap ~op:"open" ~path:ctl_path (fun () ->
        Unix.openfile ctl_path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644)
  in
  let f =
    {
      dir;
      ctl_path;
      ctl_fd;
      seg_max;
      segs = [];
      pos_seg = [||];
      pos_off = [||];
      pos_len = [||];
      count = 0;
      master = 0;
      low = 0;
      fsyncs = 0;
      need_sync = false;
      closed = false;
    }
  in
  let size =
    Backend.wrap ~op:"fstat" ~path:ctl_path (fun () ->
        (Unix.fstat ctl_fd).Unix.st_size)
  in
  let fresh = size < ctl_bytes in
  if fresh then write_ctl f
  else begin
    let b = Bytes.create ctl_bytes in
    if read_upto ctl_fd ctl_path ~off:0 b ctl_bytes < ctl_bytes then
      raise (Backend.Io_error { op = "read-ctl"; path = ctl_path; error = Unix.EIO });
    if Bytes.sub_string b 0 8 <> ctl_magic then
      invalid_arg (Printf.sprintf "Log_device: %s is not a WAL control file" ctl_path);
    f.master <- Int64.to_int (Bytes.get_int64_le b 8);
    f.low <- Int64.to_int (Bytes.get_int64_le b 16)
  end;
  (* discover segments *)
  let ids =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           if Filename.check_suffix name ".wal" then
             int_of_string_opt (Filename.chop_suffix name ".wal")
           else None)
    |> List.sort compare
  in
  let segs =
    List.map
      (fun id ->
        let path = seg_path dir id in
        let s = { id; path; fd = None; first_idx = 0; size = 0 } in
        let fd = seg_fd s in
        let h = Bytes.create seg_header_bytes in
        if read_upto fd path ~off:0 h seg_header_bytes < seg_header_bytes
           || Bytes.sub_string h 0 8 <> seg_magic
        then invalid_arg (Printf.sprintf "Log_device: %s is not a WAL segment" path);
        s.first_idx <- Int64.to_int (Bytes.get_int64_le h 8);
        s)
      ids
  in
  f.segs <- segs;
  f

let load = function
  | Sim_dev -> None
  | File_dev f ->
      if f.segs = [] then begin
        ignore (new_segment f ~first_idx:0);
        None
      end
      else begin
        let acc = ref [] in
        let n = List.length f.segs in
        let stopped = ref false in
        List.iteri
          (fun i s ->
            if !stopped then begin
              (* a damaged tail amputated the log inside an earlier
                 segment; later segments must not exist *)
              (match s.fd with Some fd -> Unix.close fd; s.fd <- None | None -> ());
              (try Sys.remove s.path with Sys_error _ -> ())
            end
            else begin
              match scan_segment f s ~is_last:(i = n - 1) acc with
              | `Clean e -> s.size <- e
              | `Stop e ->
                  s.size <- e;
                  stopped := true;
                  (* cut dead bytes so future appends land cleanly *)
                  Backend.wrap ~op:"ftruncate" ~path:s.path (fun () ->
                      Unix.ftruncate (seg_fd s) e)
            end)
          f.segs;
        f.segs <- List.filter (fun s -> Sys.file_exists s.path) f.segs;
        let frames = List.rev !acc in
        let first_idx = (List.hd f.segs).first_idx in
        f.count <- first_idx + List.length frames;
        if f.count = 0 then None
        else begin
          let enc = Array.make f.count "" in
          List.iteri (fun i s -> enc.(first_idx + i) <- s) frames;
          (* anything below the truncation point is reclaimed space *)
          for i = 0 to min f.low f.count - 1 do
            enc.(i) <- ""
          done;
          Some { enc; count = f.count; low = f.low; master = f.master }
        end
      end

let create ~dir ?(seg_max = 65536) () = File_dev (open_file ~dir ~seg_max)

(* --- appends / flush ------------------------------------------------ *)

let frame_bytes payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b 8 len;
  b

(* Drop every frame with idx >= start_idx: ftruncate the owning segment
   and unlink any later segments. Reuses of amputated / crash-discarded
   LSNs land here before their replacement frames are written. *)
let truncate_to (f : file) start_idx =
  if start_idx < f.count then begin
    let seg_id = f.pos_seg.(start_idx) in
    let off = f.pos_off.(start_idx) in
    let keep, drop = List.partition (fun s -> s.id <= seg_id) f.segs in
    List.iter
      (fun s ->
        (match s.fd with Some fd -> Unix.close fd; s.fd <- None | None -> ());
        (try Sys.remove s.path with Sys_error _ -> ()))
      drop;
    f.segs <- keep;
    let s = find_seg f seg_id in
    Backend.wrap ~op:"ftruncate" ~path:s.path (fun () ->
        Unix.ftruncate (seg_fd s) off);
    s.size <- off;
    f.count <- start_idx
  end

let flush t ~start_idx ~frames ~tear =
  match t with
  | Sim_dev -> ()
  | File_dev f ->
      truncate_to f start_idx;
      if f.segs = [] then ignore (new_segment f ~first_idx:start_idx);
      let n = List.length frames in
      let idx = ref start_idx in
      (* batch contiguous writes per segment: one write() per segment
         touched, so a kill between syscalls can only cut at a frame
         boundary or inside the deliberately torn tail *)
      let buf = Buffer.create 512 in
      let buf_seg = ref (last_seg f) in
      let buf_off = ref !buf_seg.size in
      let flush_buf () =
        if Buffer.length buf > 0 then begin
          let s = !buf_seg in
          let b = Buffer.to_bytes buf in
          pwrite (seg_fd s) s.path ~off:!buf_off b (Bytes.length b);
          s.size <- !buf_off + Bytes.length b;
          Buffer.clear buf
        end
      in
      List.iteri
        (fun i payload ->
          let is_last = i = n - 1 in
          let s = !buf_seg in
          let full = frame_bytes payload in
          if
            s.size + Buffer.length buf + Bytes.length full > f.seg_max
            && s.first_idx < !idx
          then begin
            flush_buf ();
            let ns = new_segment f ~first_idx:!idx in
            buf_seg := ns;
            buf_off := ns.size
          end;
          let written =
            match (tear, is_last) with
            | Some (Fault.Truncate_tail cut), true ->
                let keep = max 0 (String.length payload - cut) in
                Bytes.sub full 0 (8 + keep)
            | Some (Fault.Flip_byte i), true ->
                let b = Bytes.copy full in
                let p = 8 + i in
                Bytes.set b p
                  (Char.chr (Char.code (Bytes.get b p) lxor 0x40));
                b
            | _ -> full
          in
          record_pos f !idx ~seg:!buf_seg.id
            ~off:(!buf_off + Buffer.length buf)
            ~len:(Bytes.length written);
          Buffer.add_bytes buf written;
          incr idx)
        frames;
      flush_buf ();
      f.count <- start_idx + n;
      (* force: the whole point. A torn flush is a power failure mid-write;
         the sync never happened. *)
      if tear = None then begin
        let s = last_seg f in
        fsync_fd f s.path (seg_fd s);
        f.need_sync <- false
      end

(* Cold-restore install: replace whatever a fresh open created with the
   archived frame sequence starting at absolute idx [low]. Only valid on
   a device that has not accepted any flushes yet. *)
let install t ~low ~master ~frames =
  match t with
  | Sim_dev -> ()
  | File_dev f ->
      List.iter
        (fun s ->
          (match s.fd with
          | Some fd -> Unix.close fd; s.fd <- None
          | None -> ());
          try Sys.remove s.path with Sys_error _ -> ())
        f.segs;
      f.segs <- [];
      f.pos_seg <- [||];
      f.pos_off <- [||];
      f.pos_len <- [||];
      f.count <- low;
      ignore (new_segment f ~first_idx:low);
      flush t ~start_idx:low ~frames ~tear:None;
      f.master <- master;
      f.low <- low;
      write_ctl f

(* --- in-place rewrite (history surgery, baselines only) ------------- *)

let rewrite t ~idx payload =
  match t with
  | Sim_dev -> ()
  | File_dev f ->
      if idx < f.count then begin
        let s = find_seg f f.pos_seg.(idx) in
        let b = frame_bytes payload in
        pwrite (seg_fd s) s.path ~off:(f.pos_off.(idx)) b (Bytes.length b);
        (* healing a previously torn tail frame can extend the segment *)
        let endpos = f.pos_off.(idx) + Bytes.length b in
        if endpos > s.size then s.size <- endpos;
        f.pos_len.(idx) <- Bytes.length b;
        f.need_sync <- true
      end

(* --- control-state updates ------------------------------------------ *)

let set_master t master =
  match t with
  | Sim_dev -> ()
  | File_dev f ->
      f.master <- master;
      write_ctl f

let set_low t low =
  match t with
  | Sim_dev -> ()
  | File_dev f ->
      f.low <- low;
      write_ctl f;
      (* reclaim whole segments that fell entirely below the truncation
         point (a straddling segment keeps its dead frames; the reopen
         scan skips them) *)
      let rec keep_from = function
        | a :: (b :: _ as rest) when b.first_idx <= low ->
            (match a.fd with Some fd -> Unix.close fd; a.fd <- None | None -> ());
            (try Sys.remove a.path with Sys_error _ -> ());
            keep_from rest
        | segs -> segs
      in
      f.segs <- keep_from f.segs

let sync t =
  match t with
  | Sim_dev -> ()
  | File_dev f ->
      let s = last_seg f in
      fsync_fd f s.path (seg_fd s);
      f.need_sync <- false

let fsyncs = function Sim_dev -> 0 | File_dev f -> f.fsyncs

let close t =
  match t with
  | Sim_dev -> ()
  | File_dev f ->
      if not f.closed then begin
        f.closed <- true;
        List.iter
          (fun s ->
            match s.fd with
            | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()); s.fd <- None
            | None -> ())
          f.segs;
        try Unix.close f.ctl_fd with Unix.Unix_error _ -> ()
      end
