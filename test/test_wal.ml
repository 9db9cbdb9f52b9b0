(* Log record codec and simulated stable log. *)

open Ariesrh_types
open Ariesrh_wal

let xid = Xid.of_int
let oid = Oid.of_int
let pid = Page_id.of_int
let lsn = Lsn.of_int

let sample_records =
  [
    Record.mk (xid 1) ~prev:Lsn.nil Record.Begin;
    Record.mk (xid 1) ~prev:(lsn 1)
      (Record.Update
         { oid = oid 3; page = pid 0; op = Record.Set { before = 0; after = 42 } });
    Record.mk (xid 2) ~prev:(lsn 2)
      (Record.Update { oid = oid 7; page = pid 1; op = Record.Add (-5) });
    Record.mk (xid 1) ~prev:(lsn 2) Record.Commit;
    Record.mk (xid 1) ~prev:(lsn 4) Record.End;
    Record.mk (xid 2) ~prev:(lsn 3) Record.Abort;
    Record.mk (xid 2) ~prev:(lsn 6)
      (Record.Clr
         {
           upd = { oid = oid 7; page = pid 1; op = Record.Add 5 };
           undone = lsn 3;
           invoker = xid 2;
           undo_next = Lsn.nil;
         });
    Record.mk (xid 3) ~prev:(lsn 9)
      (Record.Delegate { tee = xid 4; tee_prev = lsn 5; oid = oid 2; op = None });
    Record.mk (xid 3) ~prev:(lsn 9)
      (Record.Delegate
         {
           tee = xid 4;
           tee_prev = lsn 5;
           oid = oid 2;
           op = Some (lsn 4, xid 3);
         });
    Record.mk (xid 4) ~prev:(lsn 12) Record.Anchor;
    Record.mk_system
      (Record.Rewrite_begin { deleg = None; targets = [ lsn 3; lsn 7 ] });
    Record.mk_system
      (Record.Rewrite_begin
         { deleg = Some (xid 3, xid 4, oid 2); targets = [ lsn 5 ] });
    Record.mk_system
      (Record.Rewrite_clr
         {
           target = lsn 5;
           (* real encoded records: the images a live surgery stores *)
           before =
             Record.encode
               (Record.mk (xid 3) ~prev:(lsn 2)
                  (Record.Update
                     { oid = oid 2; page = pid 0; op = Record.Add 1 }));
           after =
             Record.encode
               (Record.mk (xid 4) ~prev:(lsn 2)
                  (Record.Update
                     { oid = oid 2; page = pid 0; op = Record.Add 1 }));
         });
    Record.mk_system (Record.Rewrite_end { begin_lsn = lsn 13; committed = true });
    Record.mk_system
      (Record.Rewrite_end { begin_lsn = lsn 13; committed = false });
    Record.mk_system
      (Record.Xfer_out
         { xfer_id = 9; hop = 3; oid = oid 5; target = 2; value = -17 });
    Record.mk_system
      (Record.Xfer_in
         {
           xfer_id = 9;
           hop = 3;
           oid = oid 5;
           page = pid 0;
           source = 1;
           before = 4;
           value = -17;
         });
    Record.mk_system (Record.Xfer_end { xfer_id = 9; oid = oid 5; committed = true });
    Record.mk_system
      (Record.Xfer_end { xfer_id = 10; oid = oid 6; committed = false });
    Record.mk_system Record.Ckpt_begin;
    Record.mk_system
      (Record.Ckpt_end
         {
           ck_txns =
             [
               {
                 Record.ck_xid = xid 3;
                 ck_status = Record.Ck_active;
                 ck_last_lsn = lsn 10;
                 ck_undo_next = lsn 9;
               };
               {
                 Record.ck_xid = xid 4;
                 ck_status = Record.Ck_committed;
                 ck_last_lsn = lsn 11;
                 ck_undo_next = Lsn.nil;
               };
             ];
           ck_dpt = [ (pid 0, lsn 2); (pid 1, lsn 3) ];
           ck_obs =
             [
               {
                 Record.ck_owner = xid 4;
                 ck_oid = oid 2;
                 ck_deleg = Some (xid 3);
                 ck_scopes =
                   [
                     {
                       Record.ck_invoker = xid 3;
                       ck_first = lsn 2;
                       ck_last = lsn 9;
                     };
                   ];
               };
             ];
         });
  ]

let roundtrip () =
  List.iteri
    (fun i r ->
      match Record.decode (Record.encode r) with
      | Ok r' when r = r' -> ()
      | Ok r' ->
          Alcotest.failf "record %d did not roundtrip: %a vs %a" i Record.pp r
            Record.pp r'
      | Error e ->
          Alcotest.failf "record %d did not decode: %a" i
            Record.pp_decode_error e)
    sample_records

let checksum_detects_corruption () =
  let s = Record.encode (List.nth sample_records 1) in
  let b = Bytes.of_string s in
  Bytes.set b 6 (Char.chr (Char.code (Bytes.get b 6) lxor 0xff));
  match Record.decode (Bytes.to_string b) with
  | Error Record.Checksum_mismatch -> ()
  | Ok _ -> Alcotest.fail "corrupted record decoded"
  | Error e ->
      Alcotest.failf "wrong error: %a" Record.pp_decode_error e

let truncation_detected () =
  let s = Record.encode (List.nth sample_records 1) in
  match Record.decode (String.sub s 0 (String.length s - 1)) with
  | Ok _ -> Alcotest.fail "truncated record decoded"
  | Error (Record.Truncated | Record.Checksum_mismatch) -> ()
  | Error e ->
      Alcotest.failf "wrong error: %a" Record.pp_decode_error e

(* random record generator for the codec properties, over three field
   generators: u32 naturals (objects, pages, LSNs, ids, lengths), xids,
   and i64 values *)
type fields = {
  nat : int QCheck.Gen.t;
  pos : int QCheck.Gen.t;
  value : int QCheck.Gen.t;
}

let small_fields =
  QCheck.Gen.
    {
      nat = int_bound 1000;
      pos = int_range 1 1000;
      value = int_range (-1000000) 1000000;
    }

(* the ends of each field's range, and anything in between *)
let edge_fields =
  let u32_max = 0xffff_ffff in
  QCheck.Gen.
    {
      nat =
        oneof
          [
            oneofl [ 0; 1; 0x7fff_ffff; 0x8000_0000; u32_max - 1; u32_max ];
            int_bound u32_max;
          ];
      pos = oneof [ oneofl [ 1; 0x8000_0000; u32_max ]; int_range 1 u32_max ];
      value =
        oneof
          [
            oneofl [ min_int; max_int; -1; 0; 1; 1 lsl 32; -(1 lsl 32) ];
            int;
          ];
    }

let gen_op f =
  QCheck.Gen.(
    oneof
      [
        map2 (fun before after -> Record.Set { before; after }) f.value f.value;
        map (fun d -> Record.Add d) f.value;
      ])

let gen_update f =
  QCheck.Gen.(
    map3
      (fun o p op -> { Record.oid = oid o; page = pid p; op })
      f.nat f.nat (gen_op f))

let gen_ckpt f =
  QCheck.Gen.(
    let small_list g = list_size (int_bound 3) g in
    let gen_txn =
      map3
        (fun x status (last, undo) ->
          {
            Record.ck_xid = xid x;
            ck_status = status;
            ck_last_lsn = lsn last;
            ck_undo_next = lsn undo;
          })
        f.pos
        (oneofl [ Record.Ck_active; Record.Ck_committed; Record.Ck_rolling_back ])
        (pair f.nat f.nat)
    in
    let gen_scope =
      map3
        (fun inv first last ->
          { Record.ck_invoker = xid inv; ck_first = lsn first; ck_last = lsn last })
        f.pos f.nat f.nat
    in
    let gen_ob =
      map3
        (fun (owner, o) deleg scopes ->
          {
            Record.ck_owner = xid owner;
            ck_oid = oid o;
            ck_deleg = Option.map xid deleg;
            ck_scopes = scopes;
          })
        (pair f.pos f.nat) (option f.pos) (small_list gen_scope)
    in
    map3
      (fun ck_txns ck_dpt ck_obs -> { Record.ck_txns; ck_dpt; ck_obs })
      (small_list gen_txn)
      (small_list (map2 (fun p l -> (pid p, lsn l)) f.nat f.nat))
      (small_list gen_ob))

(* all 16 body shapes *)
let gen_record_of f =
  QCheck.Gen.(
    let* x = f.pos in
    let* prev = f.nat in
    let mk body = Record.mk (xid x) ~prev:(lsn prev) body in
    oneof
      [
        return (mk Record.Begin);
        map (fun u -> mk (Record.Update u)) (gen_update f);
        return (mk Record.Commit);
        return (mk Record.Abort);
        return (mk Record.End);
        map3
          (fun u undone inv ->
            mk
              (Record.Clr
                 {
                   upd = u;
                   undone = lsn undone;
                   invoker = xid inv;
                   undo_next = lsn prev;
                 }))
          (gen_update f) f.nat f.pos;
        map3
          (fun tee tp o ->
            mk
              (Record.Delegate
                 { tee = xid tee; tee_prev = lsn tp; oid = oid o; op = None }))
          f.pos f.nat f.nat;
        map3
          (fun tee o (l, inv) ->
            mk
              (Record.Delegate
                 {
                   tee = xid tee;
                   tee_prev = lsn prev;
                   oid = oid o;
                   op = Some (lsn l, xid inv);
                 }))
          f.pos f.nat (pair f.nat f.pos);
        return (mk Record.Anchor);
        return (Record.mk_system Record.Ckpt_begin);
        map (fun ck -> Record.mk_system (Record.Ckpt_end ck)) (gen_ckpt f);
        map3
          (fun (xfer_id, hop) (o, target) value ->
            Record.mk_system
              (Record.Xfer_out { xfer_id; hop; oid = oid o; target; value }))
          (pair f.nat f.nat) (pair f.nat f.nat) f.value;
        map3
          (fun (xfer_id, hop) (o, p, source) (before, value) ->
            Record.mk_system
              (Record.Xfer_in
                 { xfer_id; hop; oid = oid o; page = pid p; source; before; value }))
          (pair f.nat f.nat) (triple f.nat f.nat f.nat) (pair f.value f.value);
        map3
          (fun xfer_id o committed ->
            Record.mk_system (Record.Xfer_end { xfer_id; oid = oid o; committed }))
          f.nat f.nat bool;
        map2
          (fun targets deleg ->
            Record.mk_system
              (Record.Rewrite_begin
                 {
                   deleg =
                     Option.map
                       (fun (a, b, o) -> (xid a, xid b, oid o))
                       deleg;
                   targets = List.map lsn targets;
                 }))
          (list_size (int_bound 8) f.nat)
          (option (triple f.pos f.pos f.nat));
        map3
          (fun target before after ->
            Record.mk_system (Record.Rewrite_clr { target = lsn target; before; after }))
          f.nat
          (string_size (int_bound 40))
          (string_size (int_bound 40));
        map2
          (fun b committed ->
            Record.mk_system
              (Record.Rewrite_end { begin_lsn = lsn b; committed }))
          f.nat bool;
      ])

let gen_record = gen_record_of small_fields

let codec_roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"codec roundtrips on random records"
    (QCheck.make (gen_record_of edge_fields))
    (fun r -> Record.decode (Record.encode r) = Ok r)

(* The one-pass encoder writes exactly the bytes of the buffer-built
   encoder it replaced (test/record_ref.ml), and its size function
   agrees with what it writes, on every body shape and at the ends of
   every field's range. *)
let codec_matches_reference_prop =
  QCheck.Test.make ~count:1000
    ~name:"codec bytes equal the reference encoder's"
    (QCheck.make
       ~print:(fun r -> Format.asprintf "%a" Record.pp r)
       (gen_record_of edge_fields))
    (fun r ->
      let s = Record.encode r in
      String.equal s (Record_ref.encode r)
      && Record.encoded_size r = String.length s)

(* A u32 field refuses what it cannot hold, at either end. The reference
   encoder kept only the low 32 bits, so oid 2^32+5 read back as 5. *)
let codec_refuses_wide_u32 () =
  let upd o =
    Record.mk (xid 1) ~prev:(lsn o)
      (Record.Update { oid = oid o; page = pid 0; op = Record.Add 1 })
  in
  let too_wide = (1 lsl 32) + 5 in
  Alcotest.(check bool) "2^32 - 1 roundtrips" true
    (Record.decode (Record.encode (upd 0xffff_ffff)) = Ok (upd 0xffff_ffff));
  List.iter
    (fun r ->
      Alcotest.check_raises "u32 above 2^32 - 1"
        (Invalid_argument "Record codec: u32 out of range") (fun () ->
          ignore (Record.encode r)))
    [
      upd too_wide;
      upd (1 lsl 32);
      Record.mk_system
        (Record.Xfer_end { xfer_id = too_wide; oid = oid 0; committed = true });
    ];
  Alcotest.check_raises "negative u32"
    (Invalid_argument "Record codec: u32 out of range") (fun () ->
      ignore
        (Record.encode
           (Record.mk_system
              (Record.Xfer_end { xfer_id = -1; oid = oid 0; committed = true }))))

(* --- decoder totality: adversarial bytes --- *)

let arb_record =
  QCheck.make ~print:(fun r -> Format.asprintf "%a" Record.pp r) gen_record

let decode_total input =
  match Record.decode input with
  | r -> r
  | exception e ->
      QCheck.Test.fail_reportf "decode raised %s on %S" (Printexc.to_string e)
        input

let flip s i c = String.mapi (fun j x -> if j = i then c else x) s

(* Every single-byte change, every proper prefix and every 1-8 byte
   extension of a valid encoding is refused with a typed error, or
   decodes to a record that encodes back to exactly those bytes. *)
let decoder_total_on_damage =
  QCheck.Test.make ~count:150
    ~name:"decode is total on flipped, cut and extended encodings" arb_record
    (fun r ->
      let s = Record.encode r in
      let n = String.length s in
      let honest input =
        match decode_total input with
        | Error _ -> ()
        | Ok r' ->
            if Record.encode r' <> input then
              QCheck.Test.fail_reportf "accepted %S as %a" input Record.pp r'
      in
      if decode_total s <> Ok r then QCheck.Test.fail_report "no roundtrip";
      for i = 0 to n - 1 do
        for v = 0 to 255 do
          if Char.chr v <> s.[i] then honest (flip s i (Char.chr v))
        done
      done;
      for len = 0 to n - 1 do
        honest (String.sub s 0 len)
      done;
      for k = 1 to 8 do
        honest (s ^ String.make k '\000');
        honest (s ^ String.sub s 0 (min k n))
      done;
      true)

(* the frame checksum, recomputed so damage reaches the parser *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x7fffffff)
    s;
  !h

let reframe payload =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (fnv1a payload));
  payload ^ Bytes.to_string b

(* Past the checksum: payloads with a changed byte or cut short, framed
   with a matching checksum, still decode to a typed error or to a
   record that roundtrips — never an exception. *)
let decoder_total_past_checksum =
  QCheck.Test.make ~count:150
    ~name:"decode is total on re-checksummed damaged payloads"
    QCheck.(pair arb_record (make QCheck.Gen.(list_repeat 4 (int_bound 255))))
    (fun (r, values) ->
      let s = Record.encode r in
      let payload = String.sub s 0 (String.length s - 4) in
      let sound input =
        match decode_total (reframe input) with
        | Error _ -> ()
        | Ok r' ->
            if Record.decode (Record.encode r') <> Ok r' then
              QCheck.Test.fail_reportf "%a does not roundtrip" Record.pp r'
      in
      String.iteri
        (fun i _ ->
          List.iter (fun v -> sound (flip payload i (Char.chr v))) (0 :: values))
        payload;
      for len = 0 to String.length payload - 1 do
        sound (String.sub payload 0 len)
      done;
      true)

(* rendering: forensic trails print surgery records by tag, and the CLR
   images print as byte counts, never as raw bytes *)
let rewrite_records_render () =
  let printed body = Format.asprintf "%a" Record.pp (Record.mk_system body) in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "begin names the delegation" true
    (contains
       (printed
          (Record.Rewrite_begin
             { deleg = Some (xid 3, xid 4, oid 2); targets = [ lsn 5 ] }))
       "rewrite_begin ob2: t3->t4");
  Alcotest.(check bool) "clr prints image sizes" true
    (contains
       (printed
          (Record.Rewrite_clr { target = lsn 5; before = "abc"; after = "xyz" }))
       "before=3B after=3B");
  Alcotest.(check bool) "end prints the verdict" true
    (contains
       (printed (Record.Rewrite_end { begin_lsn = lsn 13; committed = false }))
       "aborted")

let store_append_read () =
  let log = Log_store.create () in
  let lsns = List.map (Log_store.append log) sample_records in
  Alcotest.(check int) "dense lsns" (List.length sample_records)
    (Lsn.to_int (Log_store.head log));
  List.iter2
    (fun l r ->
      Alcotest.(check bool) "read back" true (Log_store.read log l = r))
    lsns sample_records

let store_crash_drops_tail () =
  let log = Log_store.create () in
  let l1 = Log_store.append log (List.nth sample_records 0) in
  let _l2 = Log_store.append log (List.nth sample_records 1) in
  Log_store.flush log ~upto:l1;
  let _l3 = Log_store.append log (List.nth sample_records 2) in
  Log_store.crash log;
  Alcotest.(check int) "only flushed survives" 1 (Log_store.length log);
  (* appending after crash reuses the LSNs of the lost tail *)
  let l2' = Log_store.append log (List.nth sample_records 3) in
  Alcotest.(check int) "lsn 2 reissued" 2 (Lsn.to_int l2')

let store_flush_clamps () =
  let log = Log_store.create () in
  let l1 = Log_store.append log (List.nth sample_records 0) in
  Log_store.flush log ~upto:(lsn 999);
  Alcotest.(check int) "durable clamped to head" (Lsn.to_int l1)
    (Lsn.to_int (Log_store.durable log))

let store_master () =
  let log = Log_store.create () in
  let l1 = Log_store.append log (List.nth sample_records 0) in
  Alcotest.check_raises "master must be durable"
    (Invalid_argument "Log_store.set_master: checkpoint record not durable")
    (fun () -> Log_store.set_master log l1);
  Log_store.flush log ~upto:l1;
  Log_store.set_master log l1;
  Log_store.crash log;
  Alcotest.(check int) "master survives crash" 1 (Lsn.to_int (Log_store.master log))

let store_rewrite () =
  let log = Log_store.create () in
  let r = List.nth sample_records 1 in
  let l = Log_store.append log r in
  Log_store.flush log ~upto:l;
  let r' = Record.set_writer r (xid 9) in
  Log_store.rewrite log l r';
  Alcotest.(check bool) "rewritten in place" true (Log_store.read log l = r');
  Alcotest.(check int) "rewrite counted" 1 (Log_store.stats log).rewrites

let store_iteration () =
  let log = Log_store.create () in
  List.iter (fun r -> ignore (Log_store.append log r)) sample_records;
  let fwd = ref [] in
  Log_store.iter_forward log ~from:Lsn.nil (fun l _ -> fwd := Lsn.to_int l :: !fwd);
  Alcotest.(check (list int)) "forward order"
    (List.init (List.length sample_records) (fun i -> i + 1))
    (List.rev !fwd);
  let bwd = ref [] in
  Log_store.iter_backward log ~from:Lsn.nil (fun l _ -> bwd := Lsn.to_int l :: !bwd);
  Alcotest.(check (list int)) "backward order"
    (List.init (List.length sample_records) (fun i -> i + 1))
    !bwd

let sequential_vs_random_io () =
  let log = Log_store.create ~page_size:256 () in
  let lsns = ref [] in
  for i = 1 to 200 do
    let r =
      Record.mk (xid 1) ~prev:(lsn (i - 1))
        (Record.Update
           { oid = oid 1; page = pid 0; op = Record.Set { before = i; after = i } })
    in
    lsns := Log_store.append log r :: !lsns
  done;
  Log_store.flush log ~upto:(Log_store.head log);
  (* sequential sweep: few seeks *)
  let before = (Log_store.stats log).random_seeks in
  Log_store.iter_forward log ~from:Lsn.nil (fun _ _ -> ());
  let seq_seeks = (Log_store.stats log).random_seeks - before in
  (* ping-pong access: many seeks *)
  let before = (Log_store.stats log).random_seeks in
  for i = 1 to 50 do
    ignore (Log_store.read log (lsn i));
    ignore (Log_store.read log (lsn (201 - i)))
  done;
  let rnd_seeks = (Log_store.stats log).random_seeks - before in
  Alcotest.(check int) "sequential sweep seeks nothing" 0 seq_seeks;
  Alcotest.(check bool)
    (Printf.sprintf "random access seeks a lot (%d)" rnd_seeks)
    true (rnd_seeks > 50)

let prev_for_delegate () =
  let d = List.nth sample_records 7 in
  Alcotest.(check int) "delegator side" 9 (Lsn.to_int (Record.prev_for d (xid 3)));
  Alcotest.(check int) "delegatee side" 5 (Lsn.to_int (Record.prev_for d (xid 4)));
  Alcotest.check_raises "stranger"
    (Invalid_argument "Record.prev_for: not on this transaction's chain")
    (fun () -> ignore (Record.prev_for d (xid 9)))

let set_prev_for_delegate () =
  let d = List.nth sample_records 7 in
  let d' = Record.set_prev_for d (xid 4) (lsn 77) in
  Alcotest.(check int) "tee side patched" 77 (Lsn.to_int (Record.prev_for d' (xid 4)));
  Alcotest.(check int) "tor side untouched" 9 (Lsn.to_int (Record.prev_for d' (xid 3)));
  let d'' = Record.set_prev_for d (xid 3) (lsn 66) in
  Alcotest.(check int) "tor side patched" 66 (Lsn.to_int (Record.prev_for d'' (xid 3)))

(* --- the control-record index ---------------------------------------- *)

module Backend = Ariesrh_storage.Backend
module Fault = Ariesrh_fault.Fault

let kind_of (r : Record.t) =
  match r.Record.body with
  | Record.Delegate _ -> Some Log_store.Delegation
  | Record.Rewrite_begin _ | Record.Rewrite_clr _ | Record.Rewrite_end _ ->
      Some Log_store.Surgery
  | Record.Xfer_out _ | Record.Xfer_in _ | Record.Xfer_end _ ->
      Some Log_store.Transfer
  | _ -> None

let walk_kinds =
  None
  :: List.map Option.some Log_store.[ Delegation; Surgery; Transfer ]

let of_kind kind r =
  match (kind, kind_of r) with
  | _, None -> false
  | None, Some _ -> true
  | Some k, Some k' -> k = k'

(* the reference: every record in range, decoded, filtered to [kind];
   the scan stops at the first corrupt record and returns it *)
let scan_control ?kind log ~from ~upto =
  let acc = ref [] in
  let corrupt =
    Log_store.iter_valid_forward log ~from ~upto (fun l r ->
        if of_kind kind r then acc := (l, r) :: !acc)
  in
  (List.rev !acc, corrupt)

let walk_control ?kind log ~from ~upto =
  let acc = ref [] in
  Log_store.iter_control ?kind log ~from ~upto (fun l r -> acc := (l, r) :: !acc);
  List.rev !acc

(* Does the index file [r] under [key]? The reference for its walks. *)
let filed key (r : Record.t) =
  match (key, r.Record.body) with
  | Log_store.Kind k, _ -> kind_of r = Some k
  | ( Log_store.Object o,
      ( Record.Update { Record.oid; _ }
      | Record.Clr { upd = { Record.oid; _ }; _ }
      | Record.Delegate { oid; _ }
      | Record.Xfer_in { oid; _ } ) ) ->
      Oid.equal oid o
  | Log_store.Txn x, (Record.Commit | Record.Abort) -> r.Record.xid = Some x
  | _ -> false

(* [r] with its object mapped by [f] and its writer folded to 1..6 *)
let remap f (r : Record.t) =
  let o x = oid (f (Oid.to_int x)) in
  let upd (u : Record.update) = { u with Record.oid = o u.Record.oid } in
  let body =
    match r.Record.body with
    | Record.Update u -> Record.Update (upd u)
    | Record.Clr c -> Record.Clr { c with upd = upd c.upd }
    | Record.Delegate d -> Record.Delegate { d with oid = o d.oid }
    | Record.Xfer_in x -> Record.Xfer_in { x with oid = o x.oid }
    | b -> b
  in
  let r = { r with Record.body } in
  match r.Record.xid with
  | Some x -> Record.set_writer r (xid (1 + (Xid.to_int x mod 6)))
  | None -> r

(* Few objects and writers, so chains grow long and keys collide. *)
let narrow = remap (fun x -> x mod 5)

let lsns l =
  String.concat "," (List.map (fun (l, _) -> string_of_int (Lsn.to_int l)) l)

let index_keys =
  List.map
    (fun k -> Log_store.Kind k)
    Log_store.[ Delegation; Surgery; Transfer ]
  @ List.init 5 (fun o -> Log_store.Object (oid o))
  @ List.init 6 (fun x -> Log_store.Txn (xid (x + 1)))

let store_rewrite_keeps_kind () =
  let log = Log_store.create () in
  let upd = List.nth sample_records 1 in
  let l = Log_store.append log upd in
  let clr pad =
    Record.mk_system
      (Record.Rewrite_clr
         { target = lsn 1; before = String.make pad 'x'; after = "" })
  in
  let pad =
    String.length (Record.encode upd) - String.length (Record.encode (clr 0))
  in
  Alcotest.check_raises "a surgery record cannot replace an update"
    (Invalid_argument "Log_store.rewrite: record kind changed") (fun () ->
      Log_store.rewrite log l (clr pad));
  Alcotest.(check bool) "record untouched" true (Log_store.read log l = upd)

let store_rewrite_keeps_object () =
  let log = Log_store.create () in
  let upd = List.nth sample_records 1 in
  let l = Log_store.append log upd in
  let moved =
    match upd.Record.body with
    | Record.Update u ->
        { upd with Record.body = Record.Update { u with Record.oid = oid 4 } }
    | _ -> assert false
  in
  Alcotest.(check int) "same size" (String.length (Record.encode upd))
    (String.length (Record.encode moved));
  Alcotest.check_raises "an update cannot move to another object"
    (Invalid_argument "Log_store.rewrite: record object changed") (fun () ->
      Log_store.rewrite log l moved);
  Alcotest.(check bool) "record untouched" true (Log_store.read log l = upd);
  (* re-attributing it to another writer is what surgery does *)
  Log_store.rewrite log l (Record.set_writer upd (xid 9));
  Alcotest.(check (list int)) "still filed under its object" [ 1 ]
    (List.map Lsn.to_int
       (Log_store.index_walk log (Log_store.Object (oid 3)) ~from:Lsn.nil
          ~upto:(Log_store.head log)))

let control_walk_reads_only_control () =
  let log = Log_store.create () in
  List.iter (fun r -> ignore (Log_store.append log r)) sample_records;
  Log_store.flush log ~upto:(Log_store.head log);
  let expected, _ = scan_control log ~from:Lsn.nil ~upto:(Log_store.head log) in
  let reads = (Log_store.stats log).Log_stats.reads in
  let got = walk_control log ~from:Lsn.nil ~upto:(Log_store.head log) in
  Alcotest.(check bool) "same records" true (got = expected);
  Alcotest.(check int) "one read per control record" (List.length expected)
    ((Log_store.stats log).Log_stats.reads - reads)

type ctl_op =
  | Append of Record.t
  | Flush
  | Crash of bool  (* tear the last record of a crashing flush *)
  | Truncate of int
  | Rewrite of int
  | Heal of int
  | Bitrot of int
  | Install
  | Reopen
  | Check of int * int

let pp_ctl_op = function
  | Append r -> Format.asprintf "append %a" Record.pp r
  | Flush -> "flush"
  | Crash torn -> Printf.sprintf "crash torn=%b" torn
  | Truncate k -> Printf.sprintf "truncate %d" k
  | Rewrite k -> Printf.sprintf "rewrite %d" k
  | Heal k -> Printf.sprintf "heal %d" k
  | Bitrot k -> Printf.sprintf "bitrot %d" k
  | Install -> "install_archive"
  | Reopen -> "reopen"
  | Check (a, b) -> Printf.sprintf "check %d %d" a b

let gen_ctl_op =
  QCheck.Gen.(
    frequency
      [
        (12, map (fun r -> Append (narrow r)) gen_record);
        (3, return Flush);
        (2, map (fun torn -> Crash torn) bool);
        (1, map (fun k -> Truncate k) nat);
        (2, map (fun k -> Rewrite k) nat);
        (1, map (fun k -> Heal k) nat);
        (1, map (fun k -> Bitrot k) nat);
        (1, return Install);
        (1, return Reopen);
        (3, map2 (fun a b -> Check (a, b)) nat nat);
      ])

let dir_seq = ref 0

let fresh_dir () =
  incr dir_seq;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ariesrh-ctl-%d-%d" (Unix.getpid ()) !dir_seq)
  in
  Backend.remove_tree d;
  d

(* Over random histories of every record kind — flushes, crashes with
   torn tails, their amputation, truncation, in-place rewrites, heals
   and bit rot, archive installs and cold reopens of a file-backed log —
   the control walk yields exactly what a full scan filtered to control
   records yields, over any range and for every kind filter. And every
   index walk — by kind, by object, by transaction — yields exactly the
   indexed LSNs whose record is filed under its key, plus the records
   of unknown kind: a reference kept beside the store holds what each
   slot logically contains (rot in memory does not change it; a reopen
   or an install re-reads it, and bytes that do not decode there are
   unknown), down to the index floor and below the truncation horizon.
   Then one durable record is bit-flipped: if it is a control record
   the walk must raise at it, and after a cold reopen (where its kind is
   no longer known) every walk must, and every index walk must name
   it, until the scrubber's heal restores it. *)
let control_index_matches_scan =
  QCheck.Test.make ~count:80
    ~name:
      "control walk = full scan filtered to control records, index walks = \
       filtered decode"
    (QCheck.make
       ~print:(fun (ops, _) -> String.concat "; " (List.map pp_ctl_op ops))
       QCheck.Gen.(pair (list_size (int_range 1 60) gen_ctl_op) nat))
    (fun (ops, pick) ->
      let dirs = ref [] in
      let file_backend () =
        let dir = fresh_dir () in
        dirs := dir :: !dirs;
        Backend.File { dir }
      in
      let fault = Fault.create ~seed:5L () in
      let backend = ref (file_backend ()) in
      let log = ref (Log_store.create ~fault ~backend:!backend ()) in
      (* slot -> what it holds ([None]: unknown), and its intact bytes *)
      let truth : (int, Record.t option) Hashtbl.t = Hashtbl.create 64 in
      let good : (int, string) Hashtbl.t = Hashtbl.create 64 in
      let forget_from n =
        Hashtbl.filter_map_inplace
          (fun i v -> if i >= n then None else Some v)
          truth
      in
      (* a reopen or an install: the index holds the loaded slots only,
         and knows what they hold by decoding them *)
      let reload () =
        let low = Lsn.to_int (Log_store.truncated_below !log) - 1 in
        Hashtbl.reset truth;
        for i = low to Log_store.length !log - 1 do
          Hashtbl.replace truth i
            (Result.to_option (Record.decode (Log_store.raw_get !log ~idx:i)))
        done
      in
      let check_index ~from ~upto =
        List.iter
          (fun key ->
            let lo = max 1 (Lsn.to_int from) and hi = Lsn.to_int upto in
            let want =
              List.sort Lsn.compare
                (Hashtbl.fold
                   (fun i r acc ->
                     let l = i + 1 in
                     if l >= lo && l <= hi
                        && (match r with None -> true | Some r -> filed key r)
                     then lsn l :: acc
                     else acc)
                   truth [])
            in
            if Log_store.index_walk !log key ~from ~upto <> want then
              QCheck.Test.fail_reportf "index walk differs over [%d, %d]" lo hi)
          index_keys
      in
      let check ~from ~upto =
        List.iter
          (fun kind ->
            let expected, corrupt = scan_control ?kind !log ~from ~upto in
            let upto =
              match corrupt with
              | None -> upto
              | Some (c, _) -> Lsn.of_int (Lsn.to_int c - 1)
            in
            let got = walk_control ?kind !log ~from ~upto in
            if got <> expected then
              QCheck.Test.fail_reportf
                "walk differs from scan over [%d, %d]: walk %s, scan %s"
                (Lsn.to_int from) (Lsn.to_int upto) (lsns got) (lsns expected))
          walk_kinds;
        check_index ~from ~upto
      in
      (* a torn tail is observable until restart amputates it; nothing
         is appended behind it (an untorn crash may be appended to
         directly) *)
      let restart () =
        check ~from:Lsn.nil ~upto:(Log_store.head !log);
        ignore (Log_store.recover_tail !log);
        forget_from (Log_store.length !log)
      in
      (* a durable retained record other than the last: rot there is
         never amputated, so the master checkpoint survives it *)
      let durable_slot k =
        let low = Lsn.to_int (Log_store.truncated_below !log) - 1 in
        let n = Lsn.to_int (Log_store.durable !log) - 1 - low in
        if n > 0 then Some (low + (k mod n)) else None
      in
      let apply = function
        | Append r ->
            let i = Log_store.length !log in
            ignore (Log_store.append_reserved !log r);
            Hashtbl.replace truth i (Some r);
            Hashtbl.replace good i (Record.encode r)
        | Flush -> Log_store.flush !log ~upto:(Log_store.head !log)
        | Crash torn ->
            if torn && Lsn.(Log_store.durable !log < Log_store.head !log)
            then begin
              Fault.set_tear_log_on_crash fault true;
              Fault.arm_crash_in fault 1;
              (try Log_store.flush !log ~upto:(Log_store.head !log)
               with Fault.Injected_crash _ -> ());
              Fault.set_tear_log_on_crash fault false;
              Fault.disarm_crash fault
            end;
            Log_store.crash !log;
            forget_from (Log_store.length !log);
            if torn then restart ()
            else check ~from:Lsn.nil ~upto:(Log_store.head !log)
        | Truncate k ->
            let tb = Lsn.to_int (Log_store.truncated_below !log) in
            let d = Lsn.to_int (Log_store.durable !log) in
            if d >= tb then begin
              Log_store.set_master !log (lsn d);
              let below = lsn (tb + (k mod (d - tb + 1))) in
              ignore (Log_store.truncate !log ~below)
            end
        | Rewrite k -> (
            let tb = Lsn.to_int (Log_store.truncated_below !log) in
            let n = Lsn.to_int (Log_store.head !log) - tb + 1 in
            if n > 0 then
              let l = lsn (tb + (k mod n)) in
              let r' =
                match Log_store.read_result !log l with
                | Ok ({ Record.xid = Some _; _ } as r) ->
                    Some (Record.set_writer r (xid 7))
                | Ok r -> Some r
                | Error _ -> None
              in
              match r' with
              | Some r' ->
                  Log_store.rewrite !log l r';
                  Hashtbl.replace truth (Lsn.to_int l - 1) (Some r');
                  Hashtbl.replace good (Lsn.to_int l - 1) (Record.encode r')
              | None -> ())
        | Heal k -> (
            match durable_slot k with
            | Some i -> (
                match Hashtbl.find_opt good i with
                | Some s
                  when String.length s
                       = String.length (Log_store.raw_get !log ~idx:i) ->
                    Log_store.heal_record !log ~idx:i s;
                    Hashtbl.replace truth i (Result.to_option (Record.decode s))
                | _ -> ())
            | None -> ())
        | Bitrot k ->
            Option.iter
              (fun i ->
                Log_store.bitrot_record !log ~idx:i;
                if Hashtbl.find truth i = None then
                  Hashtbl.replace truth i
                    (Result.to_option
                       (Record.decode (Log_store.raw_get !log ~idx:i))))
              (durable_slot k)
        | Install ->
            let old = !log in
            let low = Lsn.to_int (Log_store.truncated_below old) - 1 in
            let frames =
              Array.init
                (Lsn.to_int (Log_store.durable old) - low)
                (fun i -> Log_store.raw_get old ~idx:(low + i))
            in
            let master = Lsn.to_int (Log_store.master old) in
            Log_store.close old;
            backend := file_backend ();
            log := Log_store.create ~fault ~backend:!backend ();
            Log_store.install_archive !log ~low ~master frames;
            reload ()
        | Reopen ->
            Log_store.close !log;
            log := Log_store.create ~fault ~backend:!backend ();
            reload ();
            restart ()
        | Check (a, b) ->
            let span = Lsn.to_int (Log_store.head !log) + 2 in
            check ~from:(lsn (a mod span)) ~upto:(lsn (b mod span))
      in
      Fun.protect
        ~finally:(fun () ->
          Log_store.close !log;
          List.iter Backend.remove_tree !dirs)
        (fun () ->
          List.iter apply ops;
          check ~from:Lsn.nil ~upto:(Log_store.head !log);
          (* the scrubber's pass: heal every rotted durable record, so the
             flip below is the only rot *)
          for i = Lsn.to_int (Log_store.truncated_below !log) - 1
              to Lsn.to_int (Log_store.durable !log) - 1 do
            if not (Log_store.record_intact !log ~idx:i) then begin
              Log_store.heal_record !log ~idx:i (Hashtbl.find good i);
              Hashtbl.replace truth i
                (Result.to_option (Record.decode (Hashtbl.find good i)))
            end
          done;
          check ~from:Lsn.nil ~upto:(Log_store.head !log);
          let tb = Lsn.to_int (Log_store.truncated_below !log) in
          let d = Lsn.to_int (Log_store.durable !log) in
          let l = lsn (tb + (pick mod max 1 (d - tb + 1))) in
          let victim =
            if d < tb then None
            else Result.to_option (Log_store.read_result !log l)
          in
          (match victim with
          | None -> ()
          | Some r ->
              let idx = Lsn.to_int l - 1 in
              let intact = Log_store.raw_get !log ~idx in
              Log_store.bitrot_record !log ~idx;
              let raised_at kind =
                let walk () =
                  Log_store.iter_control ?kind !log ~from:Lsn.nil (fun _ _ -> ())
                in
                match walk () with
                | () -> None
                | exception Log_store.Corrupt_record { lsn; _ } -> Some lsn
              in
              (* rot in a control record raises; rot elsewhere is left to
                 the scrubber *)
              List.iter
                (fun kind ->
                  if raised_at kind <> (if of_kind kind r then Some l else None)
                  then QCheck.Test.fail_reportf "rot at %a misreported" Lsn.pp l)
                walk_kinds;
              (* reopened, the rotted record's kind is unknown: every walk
                 raises at it, and every index walk names it; healed, it
                 is classified again *)
              Log_store.close !log;
              log := Log_store.create ~backend:!backend ();
              List.iter
                (fun kind ->
                  if raised_at kind <> Some l then
                    QCheck.Test.fail_reportf "rot at %a not raised after reopen"
                      Lsn.pp l)
                walk_kinds;
              List.iter
                (fun key ->
                  if not
                       (List.mem l
                          (Log_store.index_walk !log key ~from:Lsn.nil
                             ~upto:(Log_store.head !log)))
                  then
                    QCheck.Test.fail_reportf
                      "unknown record at %a skipped by an index walk" Lsn.pp l)
                index_keys;
              Log_store.heal_record !log ~idx intact;
              reload ();
              check ~from:Lsn.nil ~upto:(Log_store.head !log));
          true))

type index_op =
  | Push of Record.t option  (* [None]: bytes that do not decode *)
  | Walk of int * int
  | Drop of int
  | Retag of int * Record.t option
  | Rebuild of int

let pp_slot = function
  | Some r -> Format.asprintf "%a" Record.pp r
  | None -> "unknown"

let pp_index_op = function
  | Push r -> "push " ^ pp_slot r
  | Walk (a, b) -> Printf.sprintf "walk %d %d" a b
  | Drop k -> Printf.sprintf "drop %d" k
  | Retag (k, r) -> Printf.sprintf "retag %d %s" k (pp_slot r)
  | Rebuild k -> Printf.sprintf "rebuild %d" k

(* Sparse objects up to 2^18, a few of them hot, so the object heads
   outgrow their first table and each key's chain still grows. *)
let gen_slot =
  QCheck.Gen.(
    frequency
      [
        (1, return None);
        ( 19,
          map2
            (fun o r -> Some (remap (fun _ -> o) r))
            (oneof [ int_bound (1 lsl 18); map (fun i -> i * 4099) (int_bound 40) ])
            gen_record );
      ])

(* Walks from every few pushes down to none before the final one, so
   link batches run from one record to the whole log. *)
let gen_index_ops =
  QCheck.Gen.(
    let* walks = int_bound 4 in
    list_size (int_range 1 600)
      (frequency
         [
           (40, map (fun r -> Push r) gen_slot);
           (walks, map2 (fun a b -> Walk (a, b)) nat nat);
           (1, map (fun k -> Drop k) nat);
           (2, map2 (fun k r -> Retag (k, r)) nat gen_slot);
           (1, map (fun k -> Rebuild k) nat);
         ]))

(* The log index alone, on many sparse objects: after any mix of
   appends, chain walks, crashes that drop a linked tail, retags of
   linked and unlinked slots (a heal, a rewrite) and rebuilds from a
   floor, every object, transaction and kind walk over any range yields
   exactly the slots a brute-force filter of the reference files under
   its key, plus the unknown ones. *)
let index_matches_filter =
  QCheck.Test.make ~count:150
    ~name:"index walks on sparse objects = filtered reference"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_index_op ops))
       gen_index_ops)
    (fun ops ->
      let idx = Log_index.create () in
      let slots : (int, Record.t option) Hashtbl.t = Hashtbl.create 64 in
      let floor = ref 0 and n = ref 0 in
      let tag = function Some r -> Log_index.tag_of r | None -> Log_index.unknown in
      let walk lo hi =
        let lo = max lo !floor and hi = min hi !n in
        let filed_in key =
          List.filter
            (fun i ->
              match Hashtbl.find slots i with
              | None -> true
              | Some r -> filed key r)
            (List.init (max 0 (hi - lo)) (fun i -> lo + i))
        in
        let objects =
          Hashtbl.fold
            (fun _ r acc ->
              match r with
              | Some { Record.body = Record.Update { Record.oid; _ }
                       | Record.Clr { upd = { Record.oid; _ }; _ }
                       | Record.Delegate { oid; _ }
                       | Record.Xfer_in { oid; _ }; _ } ->
                  Log_store.Object oid :: acc
              | _ -> acc)
            slots
            [ Log_store.Object (oid ((1 lsl 18) + 1)) ]
        in
        List.iter
          (fun key ->
            if Log_index.slots idx key ~lo ~hi <> filed_in key then
              QCheck.Test.fail_reportf "walk differs over [%d, %d)" lo hi)
          (index_keys @ List.sort_uniq compare objects)
      in
      let apply = function
        | Push r ->
            Log_index.push idx (tag r);
            Hashtbl.replace slots !n r;
            incr n
        | Walk (a, b) -> walk (a mod (!n + 2)) (b mod (!n + 2))
        | Drop k ->
            let s = max !floor (!n - (k mod 16)) in
            Log_index.drop_from idx s;
            for i = s to !n - 1 do
              Hashtbl.remove slots i
            done;
            n := s
        | Retag (k, r) ->
            if !n > !floor then begin
              let s = !floor + (k mod (!n - !floor)) in
              Log_index.retag idx s (tag r);
              Hashtbl.replace slots s r
            end
        | Rebuild k ->
            floor := !floor + (k mod (1 + ((!n - !floor) / 4)));
            for i = 0 to !floor - 1 do
              Hashtbl.remove slots i
            done;
            Log_index.rebuild idx ~floor:!floor ~length:!n (fun i ->
                tag (Hashtbl.find slots i))
      in
      List.iter apply ops;
      walk 0 !n;
      true)

let suite =
  [
    Alcotest.test_case "codec roundtrip (samples)" `Quick roundtrip;
    Alcotest.test_case "checksum detects corruption" `Quick checksum_detects_corruption;
    Alcotest.test_case "truncation detected" `Quick truncation_detected;
    Alcotest.test_case "rewrite records render" `Quick rewrite_records_render;
    QCheck_alcotest.to_alcotest codec_roundtrip_prop;
    QCheck_alcotest.to_alcotest codec_matches_reference_prop;
    Alcotest.test_case "codec refuses a u32 above 2^32 - 1" `Quick
      codec_refuses_wide_u32;
    QCheck_alcotest.to_alcotest decoder_total_on_damage;
    QCheck_alcotest.to_alcotest decoder_total_past_checksum;
    Alcotest.test_case "store append/read" `Quick store_append_read;
    Alcotest.test_case "store crash drops tail" `Quick store_crash_drops_tail;
    Alcotest.test_case "store flush clamps" `Quick store_flush_clamps;
    Alcotest.test_case "store master record" `Quick store_master;
    Alcotest.test_case "store rewrite in place" `Quick store_rewrite;
    Alcotest.test_case "store iteration" `Quick store_iteration;
    Alcotest.test_case "sequential vs random io model" `Quick sequential_vs_random_io;
    Alcotest.test_case "prev_for on delegate records" `Quick prev_for_delegate;
    Alcotest.test_case "set_prev_for on delegate records" `Quick set_prev_for_delegate;
    Alcotest.test_case "store rewrite keeps the control kind" `Quick
      store_rewrite_keeps_kind;
    Alcotest.test_case "store rewrite keeps the object" `Quick
      store_rewrite_keeps_object;
    Alcotest.test_case "control walk reads only control records" `Quick
      control_walk_reads_only_control;
    QCheck_alcotest.to_alcotest control_index_matches_scan;
    QCheck_alcotest.to_alcotest index_matches_filter;
  ]
