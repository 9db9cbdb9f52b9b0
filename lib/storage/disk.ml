open Ariesrh_types
module Major_array = Ariesrh_util.Major_array
module Fault = Ariesrh_fault.Fault

type stats = { mutable page_reads : int; mutable page_writes : int }

type t = {
  pages : Page.t array;
  (* Last known-good image of each page (doublewrite-style before-image):
     updated only by clean writes, so it always verifies. Torn-page repair
     starts from here and replays the log forward. *)
  shadow : Page.t array;
  slots_per_page : int;
  stats : stats;
  fault : Fault.t;
  (* The stable device behind the arrays: a no-op for the sim backend, a
     write-through page file for the file backend. The arrays stay
     authoritative in-process; the device is what a kill -9 leaves
     behind. *)
  device : Page_device.t;
}

let create ?(fault = Fault.none ()) ?(backend = Backend.Sim) ~pages
    ~slots_per_page () =
  if pages <= 0 then invalid_arg "Disk.create: pages must be positive";
  let device =
    match backend with
    | Backend.Sim -> Page_device.sim
    | Backend.File { dir } -> Page_device.create ~dir ~pages ~slots_per_page
  in
  let main, shadow =
    match Page_device.load device with
    | Some (main, shadow) -> (main, shadow)
    | None ->
        let fresh () =
          Major_array.init ~fill:Page.placeholder pages (fun _ ->
              Page.create ~slots:slots_per_page)
        in
        (fresh (), fresh ())
  in
  {
    pages = main;
    shadow;
    slots_per_page;
    stats = { page_reads = 0; page_writes = 0 };
    fault;
    device;
  }

let page_count t = Array.length t.pages
let slots_per_page t = t.slots_per_page

let check t pid =
  let i = Page_id.to_int pid in
  if i >= Array.length t.pages then
    invalid_arg (Printf.sprintf "Disk: page %d out of range" i);
  i

let read_page t pid =
  let i = check t pid in
  Fault.on_disk_read t.fault;
  t.stats.page_reads <- t.stats.page_reads + 1;
  Page.copy t.pages.(i)

let images_agree a b =
  Lsn.equal (Page.page_lsn a) (Page.page_lsn b)
  && Page.slots a = Page.slots b
  &&
  let rec eq s = s >= Page.slots a || (Page.get a s = Page.get b s && eq (s + 1)) in
  eq 0

let read_page_checked t pid =
  let i = check t pid in
  Fault.on_disk_read t.fault;
  t.stats.page_reads <- t.stats.page_reads + 1;
  let p = t.pages.(i) and s = t.shadow.(i) in
  if not (Page.verify p) then Error (Page.copy s)
  else if Page.verify s && not (images_agree p s) then
    (* Two checksum-valid images that disagree: a lost or misdirected
       write, caught at read time. Returning the stale main copy here
       would launder the corruption — the caller builds new updates on
       top of it and the next clean flush overwrites both copies, putting
       the lost delta beyond any detector forever. The shadow plus
       page-LSN-conditioned WAL replay reconstructs the true image
       whichever copy is really newer, so route it through the same
       repair path as a torn page. *)
    Error (Page.copy s)
  else Ok (Page.copy p)

let write_page t pid p =
  let i = check t pid in
  let d =
    Fault.on_disk_write t.fault ~slots:(Page.slots p)
      ~pages:(Array.length t.pages)
  in
  t.stats.page_writes <- t.stats.page_writes + 1;
  (if d.Fault.lost then begin
     (* the device acknowledged the write but the main image never made
        it: the old — still checksum-valid — image survives on both the
        array and the file. The doublewrite pair is two physical writes,
        so the shadow still lands; main <> shadow is what the scrubber
        later catches. *)
     let stored = Page.copy p in
     Page.seal stored;
     t.shadow.(i) <- Page.copy stored;
     Page_device.write_shadow t.device i stored
   end
   else
     match d.Fault.misdirect with
     | Some r ->
         (* the full — checksum-valid — new image lands on the wrong
            page; the intended target keeps its old image. Shadows stay
            where they should: the victim's shadow still holds its own
            last clean image, the target's shadow gets the new one. *)
         let n = Array.length t.pages in
         let v = (i + 1 + r) mod n in
         let stored = Page.copy p in
         Page.seal stored;
         t.pages.(v) <- Page.copy stored;
         Page_device.write_main t.device v stored;
         t.shadow.(i) <- Page.copy stored;
         Page_device.write_shadow t.device i stored
     | None -> (
         match d.Fault.torn_keep with
         | None ->
             let stored = Page.copy p in
             Page.seal stored;
             t.pages.(i) <- stored;
             t.shadow.(i) <- Page.copy stored;
             Page_device.write_main t.device i stored;
             Page_device.write_shadow t.device i stored
         | Some keep ->
             (* Only the first [keep] slots of the new image reach the
                platter; the tail keeps the old contents. The checksum is
                the one intended for the full new image, so verification
                fails unless the tear happened to change nothing. The
                shadow is left alone. *)
             let torn = Page.copy p in
             Page.seal torn;
             (* the device tears for real: a partial write of the new
                image over the old bytes leaves exactly [torn] in the
                file *)
             Page_device.write_main_torn t.device i torn ~keep;
             let old = t.pages.(i) in
             for s = keep to Page.slots p - 1 do
               Page.set torn s (Page.get old s)
             done;
             t.pages.(i) <- torn));
  if d.Fault.crash then Fault.die t.fault Fault.Disk_write

(* --- media scrub / heal primitives --------------------------------- *)

(* All of these bypass fault injection: they are the scrubber's and the
   injector's own access paths and must never advance the I/O clock
   (healing or rotting a page must not shift a crash schedule). *)

let verify_main t pid = Page.verify t.pages.(check t pid)
let verify_shadow t pid = Page.verify t.shadow.(check t pid)

let main_matches_shadow t pid =
  let i = check t pid in
  images_agree t.pages.(i) t.shadow.(i)

let peek_main t pid = Page.copy t.pages.(check t pid)
let shadow_copy t pid = Page.copy t.shadow.(check t pid)

(* Heal write: install a clean image on both the main and shadow copies
   of both the arrays and the device. *)
let install_page t pid p =
  let i = check t pid in
  let stored = Page.copy p in
  Page.seal stored;
  t.pages.(i) <- stored;
  t.shadow.(i) <- Page.copy stored;
  Page_device.write_main t.device i stored;
  Page_device.write_shadow t.device i stored

(* The shadow itself rotted while main is fine: refresh it from main. *)
let reseal_shadow_from_main t pid =
  let i = check t pid in
  let fresh = Page.copy t.pages.(i) in
  t.shadow.(i) <- fresh;
  Page_device.write_shadow t.device i fresh

(* Injection: flip low bits of one slot of the main image in place — the
   stored checksum keeps the value {!Page.seal} computed for the intact
   image, so the page no longer verifies, on the arrays and on the file
   alike. *)
let bitrot_main t pid ~slot =
  let i = check t pid in
  let p = t.pages.(i) in
  let s = if Page.slots p = 0 then 0 else slot mod Page.slots p in
  Page.set p s (Page.get p s lxor 0b101);
  Page_device.write_main t.device i p

let sync t = Page_device.sync t.device
let fsyncs t = Page_device.fsyncs t.device
let close t = Page_device.close t.device

let stats t = t.stats

let reset_stats t =
  t.stats.page_reads <- 0;
  t.stats.page_writes <- 0

let register_metrics t m =
  let module M = Ariesrh_obs.Metrics in
  let s = stats t in
  M.counter m ~help:"data pages read from stable storage"
    "ariesrh_disk_page_reads_total" (fun () -> s.page_reads);
  M.counter m ~help:"data pages written to stable storage"
    "ariesrh_disk_page_writes_total" (fun () -> s.page_writes)
