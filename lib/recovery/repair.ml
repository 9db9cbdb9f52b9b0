open Ariesrh_types
open Ariesrh_wal
module Page = Ariesrh_storage.Page
module Disk = Ariesrh_storage.Disk
module Buffer_pool = Ariesrh_storage.Buffer_pool

let replay_onto (env : Env.t) pid page =
  let apply lsn (u : Record.update) =
    if Page_id.equal u.page pid && Lsn.(Page.page_lsn page < lsn) then begin
      let _pid, slot = env.place u.oid in
      Apply.run_op page ~slot u.op;
      Page.set_page_lsn page lsn
    end
  in
  (* Durable records only. A disk image never holds volatile effects (the
     WAL rule flushes up to the page LSN before any page write, this one
     included), so the durable prefix is enough to overtake the torn
     intent. Stopping there also keeps repair honest about who installs
     volatile effects: the caller that appended them does, page-LSN
     conditioned — replaying them here as well would race that caller.
     iter_valid_forward tolerates a corrupt trailing record: at restart
     this runs after tail amputation, and mid-run the stable prefix is
     intact — either way a corrupt record means end-of-log. *)
  ignore
    (Log_store.iter_valid_forward env.log
       ~from:(Log_store.truncated_below env.log)
       ~upto:(Log_store.durable env.log) (fun lsn r ->
         match r.Record.body with
         | Record.Update u -> apply lsn u
         | Record.Clr { upd; _ } -> apply lsn upd
         | Record.Xfer_in { oid; page; before; value; _ } ->
             apply lsn
               { Record.oid; page; op = Record.Set { before; after = value } }
         | _ -> ()))

let page (env : Env.t) pid shadow =
  let module Obs = Ariesrh_obs in
  Obs.Profiler.time env.prof "restart.repair" (fun () ->
      let p = Page.copy shadow in
      replay_onto env pid p;
      Disk.write_page (Buffer_pool.disk env.pool) pid p;
      env.repairs <- env.repairs + 1;
      Obs.Profiler.count env.prof "restart.repair" "pages" 1;
      p)

let torn_pages (env : Env.t) =
  let disk = Buffer_pool.disk env.pool in
  let repaired = ref 0 in
  for i = 0 to Disk.page_count disk - 1 do
    let pid = Page_id.of_int i in
    match Disk.read_page_checked disk pid with
    | Ok _ -> ()
    | Error shadow ->
        incr repaired;
        ignore (page env pid shadow)
  done;
  !repaired
