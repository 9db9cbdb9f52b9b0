open Ariesrh_types
open Ariesrh_wal
open Ariesrh_txn
module Obs = Ariesrh_obs

(* On-demand (incremental) restart, after Sauer & Härder's single-pass
   instant recovery: run only the bounded analysis pass, open for
   traffic, and do the rest lazily.

   The analysis pass (Forward.run ~apply_redo:false) rebuilds the
   transaction table, the loser scopes (unless the walk is by chain),
   and the dirty-page table — but touches no page. Afterwards:

   - every dirty page's missing redo is exactly the log slice
     [recLSN .. horizon] filtered to that page, page-LSN conditioned, so
     it can be replayed the first time anything touches the page
     ([ensure_page]) — or by the background sweeper;

   - every loser can be undone on its own ([drain_loser]): the engine's
     undo walk ({!Undo}) restricted to that loser, CLRs, then
     abort/end, flushed as a unit. Draining per loser is sound: X locks
     mean at most one loser holds uncommitted Sets on any object, and
     concurrent Adds commute, so no cross-loser undo ordering exists to
     violate;

   - an object a live loser still covers — by its scopes, or on a chain
     walk by its uncompensated chain updates — is NOT servable to
     transactions (its committed value is not yet separable from the
     loser's uncommitted writes); the engine refuses such accesses with
     the retryable [Errors.Recovering] until the loser drains.

   Everything here is re-entrant: this state is volatile, CLRs trim
   scopes durably, redo is page-LSN conditioned, and ended losers
   vanish from the next analysis — a crash at any point during the
   drain simply re-runs a smaller instance of the same restart. *)

type t = {
  env : Env.t;
  walk : Undo.walk;  (* the engine's undo walk: the drain's and the guard's *)
  tt : Txn_table.t;  (* losers only; entries leave as they drain *)
  pending : Lsn.t Page_id.Tbl.t;  (* page -> recLSN, removed once redone *)
  horizon : Lsn.t;  (* durable head at analysis time: redo replays to here *)
  chain_objects : Oid.Set.t Xid.Tbl.t;
      (* chain walk: each loser's uncompensated objects, read once *)
  mutable lazy_redo : int;  (* updates applied by slice redo *)
  mutable undos : int;  (* CLRs written by lazy drains *)
}

let start ?passes ~walk (env : Env.t) =
  Report.measure env @@ fun () ->
  let fwd =
    Forward.run ?passes ~apply_redo:false env ~mode:(Undo.mode walk)
  in
  (* everything lazily replayed stops at the durable head as analysis
     saw it; records appended from here on are applied at append time,
     to pages whose slice redo has already run *)
  let horizon = Log_store.head env.log in
  (* committed-but-not-ended transactions need no undo and no page
     work: end them now (bounded, one record each) so only real losers
     survive into the lazy phase *)
  Txn_table.fold fwd.tt ~init:[] ~f:(fun acc info ->
      if info.Txn_table.status = Txn_table.Committed then info :: acc
      else acc)
  |> List.iter (Undo.finish env fwd.tt);
  Log_store.flush env.log ~upto:(Log_store.head env.log);
  ( fwd,
    Forward.losers fwd,
    Scope_sweep.zero (),
    {
      env;
      walk;
      tt = fwd.tt;
      pending = fwd.dpt;
      horizon;
      chain_objects = Xid.Tbl.create 8;
      lazy_redo = 0;
      undos = 0;
    } )

let backlog t = Page_id.Tbl.length t.pending + Txn_table.count t.tt
let pending_pages t = Page_id.Tbl.length t.pending
let loser_count t = Txn_table.count t.tt
let lazy_redo t = t.lazy_redo
let lazy_undos t = t.undos

(* Does the loser still hold uncommitted work on the object? The guard
   reads the same authority the drain undoes from: the scopes analysis
   rebuilt, or — on a chain walk — the loser's uncompensated chain
   updates, which are the only record of what eager surgery spliced
   onto it. *)
let covers t (info : Txn_table.info) oid =
  match t.walk with
  | Undo.Scopes _ -> Ob_list.mem info.ob_list oid
  | Undo.Chains ->
      let objects =
        match Xid.Tbl.find_opt t.chain_objects info.xid with
        | Some s -> s
        | None ->
            let s = Undo.chain_objects t.env info in
            Xid.Tbl.replace t.chain_objects info.xid s;
            s
      in
      Oid.Set.mem oid objects

let covered t oid =
  Txn_table.fold t.tt ~init:false ~f:(fun acc info -> acc || covers t info oid)

(* Replay the page's missing redo slice: every update/CLR/transfer-in
   for this page in [recLSN .. horizon], page-LSN conditioned (so
   records already on disk, or already replayed by a torn-page repair,
   skip harmlessly). Removing the pending entry only after the slice
   completes keeps an interrupted ensure retryable. *)
let ensure_page t page =
  match Page_id.Tbl.find_opt t.pending page with
  | None -> ()
  | Some rec_lsn ->
      let applied = ref 0 in
      Obs.Profiler.time t.env.prof "restart.ondemand.redo" (fun () ->
          Log_store.iter_forward t.env.log ~from:rec_lsn ~upto:t.horizon
            (fun lsn record ->
              let redo (u : Record.update) =
                if
                  Page_id.equal u.page page
                  && Lsn.(lsn >= rec_lsn)
                  && Apply.redo t.env lsn u
                then incr applied
              in
              match record.Record.body with
              | Record.Update u -> redo u
              | Record.Clr { upd; _ } -> redo upd
              | Record.Xfer_in { oid; page = p; before; value; _ } ->
                  redo
                    {
                      Record.oid;
                      page = p;
                      op = Record.Set { before; after = value };
                    }
              | _ -> ()));
      t.lazy_redo <- t.lazy_redo + !applied;
      Obs.Profiler.count t.env.prof "restart.ondemand.redo" "pages" 1;
      Obs.Profiler.count t.env.prof "restart.ondemand.redo" "redo_applied"
        !applied;
      Page_id.Tbl.remove t.pending page

let ensure_object t oid = ensure_page t (fst (t.env.place oid))

(* Undo one loser completely with the engine's walk, then abort/end it,
   flushed as a unit: the offline restart's undo restricted to a single
   loser. A splicing walk installs this loser's rewrites as their own
   surgery, so a crash between losers leaves each delegation either
   fully logical or fully physical. *)
let drain_loser t (info : Txn_table.info) =
  let on_undo _ ~undone:_ (upd : Record.update) =
    (* the walk will force the inverse stamped with the CLR's (high)
       LSN; the page's pending redo must land first or the stamp would
       make it silently skip — the redo-before-undo rule *)
    ensure_page t upd.page;
    t.undos <- t.undos + 1
  in
  let undo =
    Obs.Profiler.time t.env.prof "restart.ondemand.undo" (fun () ->
        Undo.run t.walk t.env ~on_undo [ info ])
  in
  Obs.Profiler.count t.env.prof "restart.ondemand.undo" "undos" undo.undone;
  Undo.finish t.env t.tt info;
  Xid.Tbl.remove t.chain_objects info.xid;
  Log_store.flush t.env.log ~upto:(Log_store.head t.env.log)

(* smallest-xid first: deterministic regardless of hash-table iteration
   order, so fault-injection I/O points reproduce *)
let oldest_loser t =
  Txn_table.fold t.tt ~init:None ~f:(fun acc info ->
      match acc with
      | Some (best : Txn_table.info) when Xid.compare best.xid info.xid <= 0 ->
          acc
      | _ -> Some info)

let min_pending_page t =
  Page_id.Tbl.fold
    (fun page _ acc ->
      match acc with
      | Some best when Page_id.compare best page <= 0 -> acc
      | _ -> Some page)
    t.pending None

(* Drain every loser covering the object (after its page is current);
   the foreground-repair path behind [Db.peek]. *)
let drain_object t oid =
  ensure_object t oid;
  let rec go () =
    match
      Txn_table.fold t.tt ~init:None ~f:(fun acc info ->
          match acc with
          | Some _ -> acc
          | None -> if covers t info oid then Some info else None)
    with
    | Some info ->
        drain_loser t info;
        go ()
    | None -> ()
  in
  go ()

(* One unit of background work; [false] = nothing left, the store has
   fully converged with what an offline restart would have produced. *)
let step t =
  match oldest_loser t with
  | Some info ->
      drain_loser t info;
      true
  | None -> (
      match min_pending_page t with
      | Some page ->
          ensure_page t page;
          true
      | None -> false)
