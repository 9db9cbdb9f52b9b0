open Ariesrh_types

type t = { mutable page_lsn : Lsn.t; values : int array; mutable checksum : int }

(* FNV-1a-style mix over the page LSN and all slot values, truncated to
   62 bits so it stays a valid OCaml int on 64-bit platforms. *)
let fingerprint page_lsn values =
  let mask = (1 lsl 62) - 1 in
  let h = ref 0x811c9dc5 in
  let mix v =
    h := (!h lxor (v land 0xff)) * 0x01000193 land mask;
    h := (!h lxor ((v lsr 8) land 0xffff)) * 0x01000193 land mask;
    h := (!h lxor ((v lsr 24) land mask)) * 0x01000193 land mask
  in
  mix (Lsn.to_int page_lsn);
  Array.iter mix values;
  !h

let create ~slots =
  if slots <= 0 then invalid_arg "Page.create: slots must be positive";
  let values = Array.make slots 0 in
  { page_lsn = Lsn.nil; values; checksum = fingerprint Lsn.nil values }

(* never read or written: the long-lived fill of a page array under
   construction *)
let placeholder = create ~slots:1

let copy t = { page_lsn = t.page_lsn; values = Array.copy t.values; checksum = t.checksum }
let slots t = Array.length t.values
let page_lsn t = t.page_lsn
let set_page_lsn t lsn = t.page_lsn <- lsn
let get t i = t.values.(i)
let set t i v = t.values.(i) <- v
let seal t = t.checksum <- fingerprint t.page_lsn t.values
let verify t = t.checksum = fingerprint t.page_lsn t.values
let checksum t = t.checksum

let restore ~page_lsn ~checksum values =
  if Array.length values = 0 then
    invalid_arg "Page.restore: slots must be positive";
  { page_lsn; values = Array.copy values; checksum }

let pp ppf t =
  Format.fprintf ppf "page_lsn=%a [%s]" Lsn.pp t.page_lsn
    (String.concat ";" (Array.to_list (Array.map string_of_int t.values)))
