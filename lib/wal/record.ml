open Ariesrh_types

type op = Set of { before : int; after : int } | Add of int

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
  ck_owner : Xid.t;
  ck_oid : Oid.t;
  ck_deleg : Xid.t option;
  ck_scopes : ckpt_scope list;
}

type ckpt = {
  ck_txns : ckpt_txn list;
  ck_dpt : (Page_id.t * Lsn.t) list;
  ck_obs : ckpt_ob list;
}

type body =
  | Begin
  | Update of update
  | Commit
  | Abort
  | End
  | Clr of { upd : update; undone : Lsn.t; invoker : Xid.t; undo_next : Lsn.t }
  | Delegate of {
      tee : Xid.t;
      tee_prev : Lsn.t;
      oid : Oid.t;
      op : (Lsn.t * Xid.t) option;
    }
  | Ckpt_begin
  | Ckpt_end of ckpt
  | Anchor
  | Rewrite_begin of {
      deleg : (Xid.t * Xid.t * Oid.t) option;
      targets : Lsn.t list;
    }
  | Rewrite_clr of { target : Lsn.t; before : string; after : string }
  | Rewrite_end of { begin_lsn : Lsn.t; committed : bool }
  | Xfer_out of {
      xfer_id : int;
      hop : int;
      oid : Oid.t;
      target : int;
      value : int;
    }
  | Xfer_in of {
      xfer_id : int;
      hop : int;
      oid : Oid.t;
      page : Page_id.t;
      source : int;
      before : int;
      value : int;
    }
  | Xfer_end of { xfer_id : int; oid : Oid.t; committed : bool }

type t = { xid : Xid.t option; prev : Lsn.t; body : body }

let mk xid ~prev body = { xid = Some xid; prev; body }
let mk_system body = { xid = None; prev = Lsn.nil; body }

let writer_exn t =
  match t.xid with
  | Some x -> x
  | None -> invalid_arg "Record.writer_exn: checkpoint record has no writer"

let prev_for t x =
  match (t.body, t.xid) with
  | Delegate { tee; tee_prev; _ }, Some tor ->
      if Xid.equal x tor then t.prev
      else if Xid.equal x tee then tee_prev
      else invalid_arg "Record.prev_for: not on this transaction's chain"
  | _, Some w when Xid.equal w x -> t.prev
  | _ -> invalid_arg "Record.prev_for: not on this transaction's chain"

let set_writer t x = { t with xid = Some x }

let set_prev_for t x lsn =
  match (t.body, t.xid) with
  | Delegate d, Some tor when Xid.equal x d.tee && not (Xid.equal x tor) ->
      { t with body = Delegate { d with tee_prev = lsn } }
  | _, Some w when Xid.equal w x -> { t with prev = lsn }
  | _ -> invalid_arg "Record.set_prev_for: not on this transaction's chain"

let is_update t = match t.body with Update _ -> true | _ -> false

let pp_op ppf = function
  | Set { before; after } -> Format.fprintf ppf "set %d->%d" before after
  | Add d -> Format.fprintf ppf "add %+d" d

let pp_body ppf = function
  | Begin -> Format.pp_print_string ppf "begin"
  | Update u -> Format.fprintf ppf "update %a (%a)" Oid.pp u.oid pp_op u.op
  | Commit -> Format.pp_print_string ppf "commit"
  | Abort -> Format.pp_print_string ppf "abort"
  | End -> Format.pp_print_string ppf "end"
  | Clr { upd; undone; invoker; undo_next } ->
      Format.fprintf ppf "clr %a (%a) undone=%a invoker=%a undo_next=%a" Oid.pp
        upd.oid pp_op upd.op Lsn.pp undone Xid.pp invoker Lsn.pp undo_next
  | Delegate { tee; tee_prev; oid; op } ->
      Format.fprintf ppf "delegate %a%s -> %a (teeBC=%a)" Oid.pp oid
        (match op with
        | None -> ""
        | Some (l, x) -> Format.asprintf "@@%a by %a" Lsn.pp l Xid.pp x)
        Xid.pp tee Lsn.pp tee_prev
  | Ckpt_begin -> Format.pp_print_string ppf "ckpt_begin"
  | Ckpt_end _ -> Format.pp_print_string ppf "ckpt_end"
  | Anchor -> Format.pp_print_string ppf "anchor"
  | Rewrite_begin { deleg; targets } ->
      Format.fprintf ppf "rewrite_begin%s targets=[%a]"
        (match deleg with
        | None -> ""
        | Some (tor, tee, oid) ->
            Format.asprintf " %a: %a->%a" Oid.pp oid Xid.pp tor Xid.pp tee)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Lsn.pp)
        targets
  | Rewrite_clr { target; before; after } ->
      Format.fprintf ppf "rewrite_clr target=%a before=%dB after=%dB" Lsn.pp
        target (String.length before) (String.length after)
  | Rewrite_end { begin_lsn; committed } ->
      Format.fprintf ppf "rewrite_end begin=%a %s" Lsn.pp begin_lsn
        (if committed then "committed" else "aborted")
  | Xfer_out { xfer_id; hop; oid; target; value } ->
      Format.fprintf ppf "xfer_out #%d hop=%d %a -> shard%d value=%d" xfer_id
        hop Oid.pp oid target value
  | Xfer_in { xfer_id; hop; oid; source; before; value; _ } ->
      Format.fprintf ppf "xfer_in #%d hop=%d %a <- shard%d %d->%d" xfer_id hop
        Oid.pp oid source before value
  | Xfer_end { xfer_id; oid; committed } ->
      Format.fprintf ppf "xfer_end #%d %a %s" xfer_id Oid.pp oid
        (if committed then "committed" else "aborted")

let pp ppf t =
  (match t.xid with
  | Some x -> Format.fprintf ppf "[%a prev=%a] " Xid.pp x Lsn.pp t.prev
  | None -> Format.fprintf ppf "[sys] ");
  pp_body ppf t.body

(* --- codec --- *)

let tag_of_body = function
  | Begin -> 1
  | Update _ -> 2
  | Commit -> 3
  | Abort -> 4
  | End -> 5
  | Clr _ -> 6
  | Delegate _ -> 7
  | Ckpt_begin -> 8
  | Ckpt_end _ -> 9
  | Anchor -> 10
  | Rewrite_begin _ -> 11
  | Rewrite_clr _ -> 12
  | Rewrite_end _ -> 13
  | Xfer_out _ -> 14
  | Xfer_in _ -> 15
  | Xfer_end _ -> 16

(* Every field has a fixed width: a tag or flag is one byte, an id, LSN
   or length a 4-byte little-endian u32, a value an 8-byte little-endian
   i64. So a record's size follows from its body's shape alone, and
   [encode] writes each field once, at its final offset. *)

let header_size = 9 (* tag, writer, prev *)
let trailer_size = 4 (* FNV-1a checksum of everything before it *)
let update_size (u : update) = match u.op with Set _ -> 25 | Add _ -> 17

(* three counted lists: 13 bytes a transaction, 8 a dirty page, and 16
   an object entry plus 12 a scope *)
let ckpt_size ck =
  let ob n (o : ckpt_ob) = n + 16 + (12 * List.length o.ck_scopes) in
  12 + (13 * List.length ck.ck_txns) + (8 * List.length ck.ck_dpt)
  + List.fold_left ob 0 ck.ck_obs

let body_size = function
  | Begin | Commit | Abort | End | Ckpt_begin | Anchor -> 0
  | Update u -> update_size u
  | Clr { upd; _ } -> update_size upd + 12
  | Delegate { op = None; _ } -> 13
  | Delegate { op = Some _; _ } -> 21
  | Ckpt_end ck -> ckpt_size ck
  | Rewrite_begin { deleg; targets } ->
      (match deleg with None -> 1 | Some _ -> 13) + 4 + (4 * List.length targets)
  | Rewrite_clr { before; after; _ } ->
      12 + String.length before + String.length after
  | Rewrite_end _ -> 5
  | Xfer_out _ -> 24
  | Xfer_in _ -> 36
  | Xfer_end _ -> 9

let encoded_size t = header_size + body_size t.body + trailer_size

(* Each writer stores one field at [pos] and returns the offset after
   it. *)
let set_u8 b pos v =
  Bytes.set b pos (Char.unsafe_chr (v land 0xff));
  pos + 1

let set_u32 b pos v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg "Record codec: u32 out of range";
  Bytes.set_int32_le b pos (Int32.of_int v);
  pos + 4

let set_i64 b pos v =
  Bytes.set_int64_le b pos (Int64.of_int v);
  pos + 8

let set_bool b pos v = set_u8 b pos (if v then 1 else 0)

let set_update b pos (u : update) =
  let pos = set_u32 b pos (Oid.to_int u.oid) in
  let pos = set_u32 b pos (Page_id.to_int u.page) in
  match u.op with
  | Set { before; after } ->
      let pos = set_u8 b pos 1 in
      let pos = set_i64 b pos before in
      set_i64 b pos after
  | Add d -> set_i64 b (set_u8 b pos 2) d

let set_list b pos set xs =
  List.fold_left (set b) (set_u32 b pos (List.length xs)) xs

let set_bytes b pos s =
  let n = String.length s in
  let pos = set_u32 b pos n in
  Bytes.blit_string s 0 b pos n;
  pos + n

let set_ckpt_txn b pos (c : ckpt_txn) =
  let pos = set_u32 b pos (Xid.to_int c.ck_xid) in
  let pos =
    set_u8 b pos
      (match c.ck_status with
      | Ck_active -> 0
      | Ck_committed -> 1
      | Ck_rolling_back -> 2)
  in
  let pos = set_u32 b pos (Lsn.to_int c.ck_last_lsn) in
  set_u32 b pos (Lsn.to_int c.ck_undo_next)

let set_dpt_entry b pos (p, l) =
  set_u32 b (set_u32 b pos (Page_id.to_int p)) (Lsn.to_int l)

let set_scope b pos (s : ckpt_scope) =
  let pos = set_u32 b pos (Xid.to_int s.ck_invoker) in
  let pos = set_u32 b pos (Lsn.to_int s.ck_first) in
  set_u32 b pos (Lsn.to_int s.ck_last)

let set_ob b pos (o : ckpt_ob) =
  let pos = set_u32 b pos (Xid.to_int o.ck_owner) in
  let pos = set_u32 b pos (Oid.to_int o.ck_oid) in
  let pos =
    set_u32 b pos (match o.ck_deleg with None -> 0 | Some x -> Xid.to_int x)
  in
  set_list b pos set_scope o.ck_scopes

let set_body b pos = function
  | Begin | Commit | Abort | End | Ckpt_begin | Anchor -> pos
  | Update u -> set_update b pos u
  | Clr { upd; undone; invoker; undo_next } ->
      let pos = set_update b pos upd in
      let pos = set_u32 b pos (Lsn.to_int undone) in
      let pos = set_u32 b pos (Xid.to_int invoker) in
      set_u32 b pos (Lsn.to_int undo_next)
  | Delegate { tee; tee_prev; oid; op } -> (
      let pos = set_u32 b pos (Xid.to_int tee) in
      let pos = set_u32 b pos (Lsn.to_int tee_prev) in
      let pos = set_u32 b pos (Oid.to_int oid) in
      match op with
      | None -> set_u8 b pos 0
      | Some (l, x) ->
          let pos = set_u8 b pos 1 in
          let pos = set_u32 b pos (Lsn.to_int l) in
          set_u32 b pos (Xid.to_int x))
  | Ckpt_end ck ->
      let pos = set_list b pos set_ckpt_txn ck.ck_txns in
      let pos = set_list b pos set_dpt_entry ck.ck_dpt in
      set_list b pos set_ob ck.ck_obs
  | Rewrite_begin { deleg; targets } ->
      let pos =
        match deleg with
        | None -> set_u8 b pos 0
        | Some (tor, tee, oid) ->
            let pos = set_u8 b pos 1 in
            let pos = set_u32 b pos (Xid.to_int tor) in
            let pos = set_u32 b pos (Xid.to_int tee) in
            set_u32 b pos (Oid.to_int oid)
      in
      set_list b pos (fun b pos l -> set_u32 b pos (Lsn.to_int l)) targets
  | Rewrite_clr { target; before; after } ->
      let pos = set_u32 b pos (Lsn.to_int target) in
      set_bytes b (set_bytes b pos before) after
  | Rewrite_end { begin_lsn; committed } ->
      set_bool b (set_u32 b pos (Lsn.to_int begin_lsn)) committed
  | Xfer_out { xfer_id; hop; oid; target; value } ->
      let pos = set_u32 b pos xfer_id in
      let pos = set_u32 b pos hop in
      let pos = set_u32 b pos (Oid.to_int oid) in
      let pos = set_u32 b pos target in
      set_i64 b pos value
  | Xfer_in { xfer_id; hop; oid; page; source; before; value } ->
      let pos = set_u32 b pos xfer_id in
      let pos = set_u32 b pos hop in
      let pos = set_u32 b pos (Oid.to_int oid) in
      let pos = set_u32 b pos (Page_id.to_int page) in
      let pos = set_u32 b pos source in
      let pos = set_i64 b pos before in
      set_i64 b pos value
  | Xfer_end { xfer_id; oid; committed } ->
      let pos = set_u32 b pos xfer_id in
      set_bool b (set_u32 b pos (Oid.to_int oid)) committed

(* FNV-1a over the first [len] bytes of [s] *)
let fnv1a s len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h :=
      (!h lxor Char.code (Bytes.unsafe_get s i)) * 0x01000193 land 0x7fffffff
  done;
  !h

(* One pass: the buffer is allocated at the record's exact size, the
   fields land at their final offsets, the checksum is taken over them
   in place, and the buffer becomes the string without a copy. *)
let encode t =
  let size = encoded_size t in
  let b = Bytes.create size in
  let pos = set_u8 b 0 (tag_of_body t.body) in
  let pos = set_u32 b pos (match t.xid with None -> 0 | Some x -> Xid.to_int x) in
  let pos = set_u32 b pos (Lsn.to_int t.prev) in
  let lim = set_body b pos t.body in
  assert (lim = size - trailer_size);
  ignore (set_u32 b lim (fnv1a b lim));
  Bytes.unsafe_to_string b

type decode_error =
  | Truncated
  | Checksum_mismatch
  | Bad_tag of int
  | Bad_encoding of string

let pp_decode_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated"
  | Checksum_mismatch -> Format.pp_print_string ppf "checksum mismatch"
  | Bad_tag n -> Format.fprintf ppf "bad tag %d" n
  | Bad_encoding what -> Format.fprintf ppf "bad encoding (%s)" what

exception Bad of decode_error

(* The payload is parsed in place: the cursor reads [s] up to [lim], the
   start of the checksum trailer, so nothing is copied out of the frame. *)
type cursor = { s : string; mutable pos : int; lim : int }

let need c n = if c.pos + n > c.lim then raise (Bad Truncated)

let get_u8 c =
  need c 1;
  let v = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  v

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xffff_ffff

let get_u32 c =
  need c 4;
  let v = u32_at c.s c.pos in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = Int64.to_int (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

(* xids are positive: a zero where a transaction must be named is a
   malformed record, not a reason to raise *)
let get_xid c =
  match get_u32 c with
  | 0 -> raise (Bad (Bad_encoding "xid 0"))
  | n -> Xid.of_int n

let get_op c =
  match get_u8 c with
  | 1 ->
      let before = get_i64 c in
      let after = get_i64 c in
      Set { before; after }
  | 2 -> Add (get_i64 c)
  | n -> raise (Bad (Bad_encoding (Printf.sprintf "op tag %d" n)))

let get_update c =
  let oid = Oid.of_int (get_u32 c) in
  let page = Page_id.of_int (get_u32 c) in
  let op = get_op c in
  { oid; page; op }

let get_list c get =
  let n = get_u32 c in
  List.init n (fun _ -> get c)

let get_bytes c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_ckpt c =
  let ck_txns =
    get_list c (fun c ->
        let ck_xid = get_xid c in
        let ck_status =
          match get_u8 c with
          | 0 -> Ck_active
          | 1 -> Ck_committed
          | 2 -> Ck_rolling_back
          | n -> raise (Bad (Bad_encoding (Printf.sprintf "ckpt status %d" n)))
        in
        let ck_last_lsn = Lsn.of_int (get_u32 c) in
        let ck_undo_next = Lsn.of_int (get_u32 c) in
        { ck_xid; ck_status; ck_last_lsn; ck_undo_next })
  in
  let ck_dpt =
    get_list c (fun c ->
        let p = Page_id.of_int (get_u32 c) in
        let l = Lsn.of_int (get_u32 c) in
        (p, l))
  in
  let ck_obs =
    get_list c (fun c ->
        let ck_owner = get_xid c in
        let ck_oid = Oid.of_int (get_u32 c) in
        let d = get_u32 c in
        let ck_deleg = if d = 0 then None else Some (Xid.of_int d) in
        let ck_scopes =
          get_list c (fun c ->
              let ck_invoker = get_xid c in
              let ck_first = Lsn.of_int (get_u32 c) in
              let ck_last = Lsn.of_int (get_u32 c) in
              { ck_invoker; ck_first; ck_last })
        in
        { ck_owner; ck_oid; ck_deleg; ck_scopes })
  in
  { ck_txns; ck_dpt; ck_obs }

let decode_exn s =
  if String.length s < 13 then raise (Bad Truncated);
  let lim = String.length s - 4 in
  if u32_at s lim <> fnv1a (Bytes.unsafe_of_string s) lim then raise (Bad Checksum_mismatch);
  let c = { s; pos = 0; lim } in
  let tag = get_u8 c in
  let xid_raw = get_u32 c in
  let xid = if xid_raw = 0 then None else Some (Xid.of_int xid_raw) in
  let prev = Lsn.of_int (get_u32 c) in
  let body =
    match tag with
    | 1 -> Begin
    | 2 -> Update (get_update c)
    | 3 -> Commit
    | 4 -> Abort
    | 5 -> End
    | 6 ->
        let upd = get_update c in
        let undone = Lsn.of_int (get_u32 c) in
        let invoker = get_xid c in
        let undo_next = Lsn.of_int (get_u32 c) in
        Clr { upd; undone; invoker; undo_next }
    | 7 ->
        let tee = get_xid c in
        let tee_prev = Lsn.of_int (get_u32 c) in
        let oid = Oid.of_int (get_u32 c) in
        let op =
          match get_u8 c with
          | 0 -> None
          | _ ->
              let l = Lsn.of_int (get_u32 c) in
              let x = get_xid c in
              Some (l, x)
        in
        Delegate { tee; tee_prev; oid; op }
    | 8 -> Ckpt_begin
    | 9 -> Ckpt_end (get_ckpt c)
    | 10 -> Anchor
    | 11 ->
        let deleg =
          match get_u8 c with
          | 0 -> None
          | _ ->
              let tor = get_xid c in
              let tee = get_xid c in
              let oid = Oid.of_int (get_u32 c) in
              Some (tor, tee, oid)
        in
        let targets = get_list c (fun c -> Lsn.of_int (get_u32 c)) in
        Rewrite_begin { deleg; targets }
    | 12 ->
        let target = Lsn.of_int (get_u32 c) in
        let before = get_bytes c in
        let after = get_bytes c in
        Rewrite_clr { target; before; after }
    | 13 ->
        let begin_lsn = Lsn.of_int (get_u32 c) in
        let committed = get_u8 c <> 0 in
        Rewrite_end { begin_lsn; committed }
    | 14 ->
        let xfer_id = get_u32 c in
        let hop = get_u32 c in
        let oid = Oid.of_int (get_u32 c) in
        let target = get_u32 c in
        let value = get_i64 c in
        Xfer_out { xfer_id; hop; oid; target; value }
    | 15 ->
        let xfer_id = get_u32 c in
        let hop = get_u32 c in
        let oid = Oid.of_int (get_u32 c) in
        let page = Page_id.of_int (get_u32 c) in
        let source = get_u32 c in
        let before = get_i64 c in
        let value = get_i64 c in
        Xfer_in { xfer_id; hop; oid; page; source; before; value }
    | 16 ->
        let xfer_id = get_u32 c in
        let oid = Oid.of_int (get_u32 c) in
        let committed = get_u8 c <> 0 in
        Xfer_end { xfer_id; oid; committed }
    | n -> raise (Bad (Bad_tag n))
  in
  if c.pos <> lim then
    raise (Bad (Bad_encoding "trailing bytes"));
  { xid; prev; body }

let decode s = match decode_exn s with t -> Ok t | exception Bad e -> Error e

