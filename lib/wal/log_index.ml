open Ariesrh_types

type control = Delegation | Surgery | Transfer
type key = Kind of control | Object of Oid.t | Txn of Xid.t

(* A tag is the record's class bits with its object or transaction
   above them. The unknown tag carries every class bit, so every kind
   filter visits it; it names no key and sits on no chain. *)
type tag = int

let c_delegation = 1
let c_surgery = 2
let c_transfer = 4
let c_object = 8
let c_commit = 16
let c_abort = 32
let cls_bits = 6
let unknown = (1 lsl cls_bits) - 1
let control_mask = c_delegation lor c_surgery lor c_transfer
let cls tag = tag land unknown
let key_of tag = tag lsr cls_bits

let bit = function
  | Delegation -> c_delegation
  | Surgery -> c_surgery
  | Transfer -> c_transfer

let tag_of (r : Record.t) =
  let on_object c oid = (Oid.to_int oid lsl cls_bits) lor c lor c_object in
  let outcome c =
    match r.Record.xid with
    | Some x -> (Xid.to_int x lsl cls_bits) lor c
    | None -> c
  in
  match r.Record.body with
  | Record.Update u -> on_object 0 u.Record.oid
  | Record.Clr { upd; _ } -> on_object 0 upd.Record.oid
  | Record.Delegate { oid; _ } -> on_object c_delegation oid
  | Record.Xfer_in { oid; _ } -> on_object c_transfer oid
  | Record.Xfer_out _ | Record.Xfer_end _ -> c_transfer
  | Record.Rewrite_begin _ | Record.Rewrite_clr _ | Record.Rewrite_end _ ->
      c_surgery
  | Record.Commit -> outcome c_commit
  | Record.Abort -> outcome c_abort
  | Record.Begin | Record.End | Record.Ckpt_begin | Record.Ckpt_end _
  | Record.Anchor ->
      0

let tag_of_encoded s =
  match Record.decode s with Ok r -> tag_of r | Error _ -> unknown

let same_kind a b = cls a = cls b
let on_object_chain tag = tag <> unknown && tag land c_object <> 0

(* growable ascending int vector *)
type vec = { mutable a : int array; mutable len : int }

let vec () = { a = [||]; len = 0 }

let vec_push v x =
  if v.len = Array.length v.a then begin
    let a = Array.make (max 16 (2 * v.len)) 0 in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

(* position of the first element >= [x] *)
let vec_search v x =
  let lo = ref 0 and hi = ref v.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let vec_drop_from v x = v.len <- vec_search v x

let vec_insert v x =
  let j = vec_search v x in
  vec_push v x;
  Array.blit v.a j v.a (j + 1) (v.len - 1 - j);
  v.a.(j) <- x

let vec_remove v x =
  let j = vec_search v x in
  if j < v.len && v.a.(j) = x then begin
    Array.blit v.a (j + 1) v.a j (v.len - j - 1);
    v.len <- v.len - 1
  end

(* [a] with room for index [n - 1], new cells set to [fill]; callers
   test first, so the common case stores no pointer *)
let grow a n fill =
  let len = Array.length a in
  let b = Array.make (max n (max 64 (2 * len))) fill in
  Array.blit a 0 b 0 len;
  b

(* Object heads: an oid -> slot table in one int array, each key (-1:
   empty) in an even cell and its head after it, linear probing, at most
   half full; a probe allocates nothing. A dense array by oid would cost
   a cell per object of the store, not per object the log names. *)
let cell cells k =
  let mask = Array.length cells - 2 in
  let rec probe i =
    if cells.(i) = k || cells.(i) < 0 then i else probe ((i + 2) land mask)
  in
  probe (((k * 0x2545F4914F6CDD1D) lsr 23) land mask)

(* An append only stores the record's tag. The object and transaction
   chains are linked lazily: a chain walk first links the slots appended
   since the last one, so that work lands on queries, not on commits. *)
type t = {
  mutable tags : int array;  (* slot -> tag, for slots [floor, n) *)
  mutable links : int array;
      (* slot -> next lower slot on its chain (-1 ends it), for the
         chained slots in [floor, linked) *)
  mutable floor : int;
  mutable n : int;
  mutable linked : int;
  mutable objects : int array;  (* oid -> highest linked slot, -1 *)
  mutable n_objects : int;
  mutable txns : int array;  (* xid -> highest linked slot, -1 *)
  ctl : vec;  (* slots whose tag has a control bit, unknown ones included *)
  unknowns : vec;
}

let create () =
  {
    tags = [||];
    links = [||];
    floor = 0;
    n = 0;
    linked = 0;
    objects = Array.make 128 (-1);
    n_objects = 0;
    txns = [||];
    ctl = vec ();
    unknowns = vec ();
  }

let floor t = t.floor

(* Objects are sparse keys (a store may hold far more objects than its
   log names), transactions dense ones. *)
type chain = Objects | Txns

let chain_of tag =
  if tag = unknown then None
  else if tag land c_object <> 0 then Some Objects
  else if tag land (c_commit lor c_abort) <> 0 then Some Txns
  else None

(* The cell of [k], claimed if new. A new key that would fill the table
   past half first grows it, in one rehash that drops emptied chains, to
   fit [room] (at least one) more keys. *)
let rec object_cell t k ~room =
  let i = cell t.objects k in
  if t.objects.(i) >= 0 then i
  else if 4 * (t.n_objects + 1) > Array.length t.objects then (
    reserve t room;
    object_cell t k ~room)
  else (
    t.objects.(i) <- k;
    t.n_objects <- t.n_objects + 1;
    i)

and reserve t room =
  let len = ref (Array.length t.objects) in
  while 4 * (t.n_objects + room) > !len do len := 2 * !len done;
  let old = t.objects in
  t.objects <- Array.make !len (-1);
  t.n_objects <- 0;
  for i = 0 to (Array.length old / 2) - 1 do
    if old.((2 * i) + 1) >= 0 then
      t.objects.(object_cell t old.(2 * i) ~room + 1) <- old.((2 * i) + 1)
  done

let head t c k =
  match c with
  | Objects -> t.objects.(cell t.objects k + 1)
  | Txns -> if k < Array.length t.txns then t.txns.(k) else -1

let set_head t c k s =
  match c with
  | Objects -> t.objects.(object_cell t k ~room:1 + 1) <- s
  | Txns ->
      if k >= Array.length t.txns then t.txns <- grow t.txns (k + 1) (-1);
      t.txns.(k) <- s

let push t tag =
  let s = t.n in
  if s >= Array.length t.tags then t.tags <- grow t.tags (s + 1) 0;
  t.tags.(s) <- tag;
  if tag land control_mask <> 0 then vec_push t.ctl s;
  if tag = unknown then vec_push t.unknowns s;
  t.n <- s + 1

(* Link every slot appended since the last chain walk, ascending, so
   each becomes its chain's head. The object records left, and the span
   of the batch's oids, bound the keys it can still add, so the heads
   grow at most once a batch, and only when full. *)
let link_new t =
  if t.linked < t.n then begin
    if t.n > Array.length t.links then t.links <- grow t.links t.n 0;
    let left = ref 0 and lo = ref max_int and hi = ref 0 in
    for s = t.linked to t.n - 1 do
      let k = key_of t.tags.(s) in
      if on_object_chain t.tags.(s) then (
        incr left; lo := Int.min !lo k; hi := Int.max !hi k)
    done;
    for s = t.linked to t.n - 1 do
      let tag = t.tags.(s) in
      match chain_of tag with
      | Some Objects ->
          let room = Int.min !left (!hi - !lo + 1) in
          let i = object_cell t (key_of tag) ~room + 1 in
          decr left;
          t.links.(s) <- t.objects.(i);
          t.objects.(i) <- s
      | Some c ->
          let k = key_of tag in
          t.links.(s) <- head t c k;
          set_head t c k s
      | None -> ()
    done;
    t.linked <- t.n
  end

(* Top down, each dropped linked slot is the head of its chain. *)
let drop_from t s =
  if s < t.n then begin
    for i = t.linked - 1 downto max s t.floor do
      let tag = t.tags.(i) in
      match chain_of tag with
      | Some c -> set_head t c (key_of tag) t.links.(i)
      | None -> ()
    done;
    vec_drop_from t.ctl s;
    vec_drop_from t.unknowns s;
    t.n <- s;
    t.linked <- min t.linked s;
    t.floor <- min t.floor s
  end

let rebuild t ~floor ~length tag_at =
  Array.fill t.objects 0 (Array.length t.objects) (-1);
  t.n_objects <- 0;
  Array.fill t.txns 0 (Array.length t.txns) (-1);
  t.ctl.len <- 0;
  t.unknowns.len <- 0;
  t.floor <- floor;
  t.n <- floor;
  t.linked <- floor;
  for s = floor to length - 1 do
    push t (tag_at s)
  done

let check t s =
  if s < t.floor || s >= t.n then
    invalid_arg
      (Printf.sprintf "Log_index: slot %d outside the indexed range [%d..%d)"
         s t.floor t.n)

let tag_at t s =
  check t s;
  t.tags.(s)

(* Take a linked slot off its chain, or put it back in order. Rare
   (heal, rewrite of an unknown record), so a chain is walked. *)
let unlink t s tag =
  match chain_of tag with
  | Some c ->
      let k = key_of tag in
      if head t c k = s then set_head t c k t.links.(s)
      else begin
        let j = ref (head t c k) in
        while t.links.(!j) <> s do
          j := t.links.(!j)
        done;
        t.links.(!j) <- t.links.(s)
      end
  | None -> ()

let link t s tag =
  match chain_of tag with
  | Some c ->
      let k = key_of tag in
      if head t c k < s then begin
        t.links.(s) <- head t c k;
        set_head t c k s
      end
      else begin
        let j = ref (head t c k) in
        while t.links.(!j) > s do
          j := t.links.(!j)
        done;
        t.links.(s) <- t.links.(!j);
        t.links.(!j) <- s
      end
  | None -> ()

let retag t s tag =
  check t s;
  let old = t.tags.(s) in
  if old <> tag then begin
    if s < t.linked then unlink t s old;
    if old land control_mask <> 0 then vec_remove t.ctl s;
    if old = unknown then vec_remove t.unknowns s;
    t.tags.(s) <- tag;
    if s < t.linked then link t s tag;
    if tag land control_mask <> 0 then vec_insert t.ctl s;
    if tag = unknown then vec_insert t.unknowns s
  end

let unknowns_in t ~lo ~hi =
  let acc = ref [] in
  let j = ref (t.unknowns.len - 1) in
  while !j >= 0 && t.unknowns.a.(!j) >= lo do
    if t.unknowns.a.(!j) < hi then acc := t.unknowns.a.(!j) :: !acc;
    decr j
  done;
  !acc

let chain_slots t c k ~lo ~hi =
  link_new t;
  let acc = ref [] in
  let s = ref (head t c k) in
  while !s >= lo do
    if !s < hi then acc := !s :: !acc;
    s := t.links.(!s)
  done;
  match unknowns_in t ~lo ~hi with
  | [] -> !acc
  | u -> List.merge Int.compare !acc u

let iter_mask t m ~lo ~hi f =
  let j = ref (vec_search t.ctl lo) in
  while !j < t.ctl.len && t.ctl.a.(!j) < hi do
    let s = t.ctl.a.(!j) in
    if t.tags.(s) land m <> 0 then f s;
    incr j
  done

let clamp t ~lo ~hi = (max lo t.floor, min hi t.n)

let iter_kind t kind ~lo ~hi f =
  let lo, hi = clamp t ~lo ~hi in
  if lo < hi then
    iter_mask t
      (match kind with None -> control_mask | Some k -> bit k)
      ~lo ~hi f

let slots t key ~lo ~hi =
  let lo, hi = clamp t ~lo ~hi in
  if lo >= hi then []
  else
    match key with
    | Kind k ->
        let acc = ref [] in
        iter_mask t (bit k) ~lo ~hi (fun s -> acc := s :: !acc);
        List.rev !acc
    | Object o -> chain_slots t Objects (Oid.to_int o) ~lo ~hi
    | Txn x -> chain_slots t Txns (Xid.to_int x) ~lo ~hi
