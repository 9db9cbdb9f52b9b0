(* The record encoder as it stood before the one-pass codec: it builds
   the payload in a [Buffer] byte by byte and appends the FNV-1a trailer
   through a second buffer. Kept only as the reference the codec's bytes
   are checked against (test_wal.ml); nothing in the engine calls it. *)

open Ariesrh_types
open Ariesrh_wal.Record

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
