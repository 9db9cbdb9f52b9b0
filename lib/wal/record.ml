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

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 then invalid_arg "Record codec: negative u32";
  put_u8 b (v land 0xff);
  put_u8 b ((v lsr 8) land 0xff);
  put_u8 b ((v lsr 16) land 0xff);
  put_u8 b ((v lsr 24) land 0xff)

let put_i64 b v =
  let v = Int64.of_int v in
  for i = 0 to 7 do
    put_u8 b (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
  done

let put_op b = function
  | Set { before; after } ->
      put_u8 b 1;
      put_i64 b before;
      put_i64 b after
  | Add d ->
      put_u8 b 2;
      put_i64 b d

let put_update b (u : update) =
  put_u32 b (Oid.to_int u.oid);
  put_u32 b (Page_id.to_int u.page);
  put_op b u.op

let put_list b put xs =
  put_u32 b (List.length xs);
  List.iter (put b) xs

let put_bytes b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_ckpt b ck =
  put_list b
    (fun b (c : ckpt_txn) ->
      put_u32 b (Xid.to_int c.ck_xid);
      put_u8 b
        (match c.ck_status with
        | Ck_active -> 0
        | Ck_committed -> 1
        | Ck_rolling_back -> 2);
      put_u32 b (Lsn.to_int c.ck_last_lsn);
      put_u32 b (Lsn.to_int c.ck_undo_next))
    ck.ck_txns;
  put_list b
    (fun b (p, l) ->
      put_u32 b (Page_id.to_int p);
      put_u32 b (Lsn.to_int l))
    ck.ck_dpt;
  put_list b
    (fun b (o : ckpt_ob) ->
      put_u32 b (Xid.to_int o.ck_owner);
      put_u32 b (Oid.to_int o.ck_oid);
      put_u32 b (match o.ck_deleg with None -> 0 | Some x -> Xid.to_int x);
      put_list b
        (fun b (s : ckpt_scope) ->
          put_u32 b (Xid.to_int s.ck_invoker);
          put_u32 b (Lsn.to_int s.ck_first);
          put_u32 b (Lsn.to_int s.ck_last))
        o.ck_scopes)
    ck.ck_obs

(* FNV-1a over the first [len] bytes of [s] *)
let fnv1a s len =
  let h = ref 0x811c9dc5 in
  for i = 0 to len - 1 do
    h :=
      (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0x7fffffff
  done;
  !h

let encode t =
  let b = Buffer.create 64 in
  put_u8 b (tag_of_body t.body);
  put_u32 b (match t.xid with None -> 0 | Some x -> Xid.to_int x);
  put_u32 b (Lsn.to_int t.prev);
  (match t.body with
  | Begin | Commit | Abort | End | Ckpt_begin | Anchor -> ()
  | Update u -> put_update b u
  | Clr { upd; undone; invoker; undo_next } ->
      put_update b upd;
      put_u32 b (Lsn.to_int undone);
      put_u32 b (Xid.to_int invoker);
      put_u32 b (Lsn.to_int undo_next)
  | Delegate { tee; tee_prev; oid; op } ->
      put_u32 b (Xid.to_int tee);
      put_u32 b (Lsn.to_int tee_prev);
      put_u32 b (Oid.to_int oid);
      (match op with
      | None -> put_u8 b 0
      | Some (l, x) ->
          put_u8 b 1;
          put_u32 b (Lsn.to_int l);
          put_u32 b (Xid.to_int x))
  | Ckpt_end ck -> put_ckpt b ck
  | Rewrite_begin { deleg; targets } ->
      (match deleg with
      | None -> put_u8 b 0
      | Some (tor, tee, oid) ->
          put_u8 b 1;
          put_u32 b (Xid.to_int tor);
          put_u32 b (Xid.to_int tee);
          put_u32 b (Oid.to_int oid));
      put_list b (fun b l -> put_u32 b (Lsn.to_int l)) targets
  | Rewrite_clr { target; before; after } ->
      put_u32 b (Lsn.to_int target);
      put_bytes b before;
      put_bytes b after
  | Rewrite_end { begin_lsn; committed } ->
      put_u32 b (Lsn.to_int begin_lsn);
      put_u8 b (if committed then 1 else 0)
  | Xfer_out { xfer_id; hop; oid; target; value } ->
      put_u32 b xfer_id;
      put_u32 b hop;
      put_u32 b (Oid.to_int oid);
      put_u32 b target;
      put_i64 b value
  | Xfer_in { xfer_id; hop; oid; page; source; before; value } ->
      put_u32 b xfer_id;
      put_u32 b hop;
      put_u32 b (Oid.to_int oid);
      put_u32 b (Page_id.to_int page);
      put_u32 b source;
      put_i64 b before;
      put_i64 b value
  | Xfer_end { xfer_id; oid; committed } ->
      put_u32 b xfer_id;
      put_u32 b (Oid.to_int oid);
      put_u8 b (if committed then 1 else 0));
  let payload = Buffer.contents b in
  let b2 = Buffer.create (String.length payload + 4) in
  Buffer.add_string b2 payload;
  put_u32 b2 (fnv1a payload (String.length payload));
  Buffer.contents b2

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
  if u32_at s lim <> fnv1a s lim then raise (Bad Checksum_mismatch);
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

let encoded_size t = String.length (encode t)
