open Ariesrh_types
module Record = Ariesrh_wal.Record
module Log_store = Ariesrh_wal.Log_store
module Archive = Ariesrh_storage.Archive
module Json = Ariesrh_obs.Json
module Lineage = Ariesrh_obs.Lineage
module Db = Ariesrh_core.Db
module Config = Ariesrh_core.Config
module Errors = Ariesrh_core.Errors
module Major_array = Ariesrh_util.Major_array

type coverage = { from_ : Lsn.t; upto : Lsn.t; bridged : bool }

let coverage db =
  let log = Db.log_store db in
  let upto = Log_store.durable log in
  let tb = Log_store.truncated_below log in
  if Lsn.equal tb Lsn.first then { from_ = Lsn.first; upto; bridged = false }
  else
    match Db.archive db with
    | Some ar
      when Archive.wal_base ar = 0
           && Archive.archived_upto ar >= Lsn.to_int tb - 1 ->
        { from_ = Lsn.first; upto; bridged = true }
    | _ -> { from_ = tb; upto; bridged = false }

let unavailable ~lsn cov =
  Errors.history_unavailable ~lsn ~available_from:cov.from_
    ~available_upto:cov.upto

(* The record at [lsn] for a read bounded by [upto]: the archived WAL
   frame below the live log's truncation horizon, the live record from
   there. A missing or rotted frame surfaces as History_unavailable —
   never as a silently shorter history. *)
let read_at db ~upto lsn =
  let log = Db.log_store db in
  let tb = Log_store.truncated_below log in
  if Lsn.(lsn >= tb) then Log_store.read log lsn
  else
    (* frame [idx] holds LSN [idx + 1] *)
    let idx = Lsn.to_int lsn - 1 in
    match
      Option.map Record.decode
        (Option.bind (Db.archive db) (fun ar -> Archive.wal_get ar ~idx))
    with
    | Some (Ok r) -> r
    | Some (Error _) | None ->
        unavailable ~lsn { from_ = tb; upto; bridged = false }

(* The archived WAL frames for LSNs in [from, upto] below the live log's
   truncation horizon, in LSN order. *)
let iter_archived db ~from ~upto f =
  let tb = Log_store.truncated_below (Db.log_store db) in
  for i = Lsn.to_int from to min (Lsn.to_int upto) (Lsn.to_int tb - 1) do
    let lsn = Lsn.of_int i in
    f lsn (read_at db ~upto lsn)
  done

(* Every record with LSN in [1, upto], in LSN order: archived frames
   below the truncation horizon, live records from there. *)
let iter_history db ~upto f =
  let log = Db.log_store db in
  let tb = Log_store.truncated_below log in
  iter_archived db ~from:Lsn.first ~upto f;
  if Lsn.(tb <= upto) then Log_store.iter_forward log ~from:tb ~upto f

(* The records the log index files under any of [keys] with LSN in
   [from, upto], in LSN order, each read once: the walk reads only
   those, archived or live. Below the index floor (the prefix a reopen
   or an archive install did not load) the index knows nothing, so
   there every archived record in range is read and passed to [f]. *)
let iter_indexed db keys ~from ~upto f =
  let log = Db.log_store db in
  let floor_lsn = Log_store.index_floor log in
  if Lsn.compare from floor_lsn < 0 then
    iter_archived db ~from ~upto:(Lsn.min upto (Lsn.prev floor_lsn)) f;
  let from = Lsn.max from floor_lsn in
  List.iter
    (fun lsn -> f lsn (read_at db ~upto lsn))
    (List.sort_uniq Lsn.compare
       (List.concat_map (fun k -> Log_store.index_walk log k ~from ~upto) keys))

let writer_of_bytes bytes =
  match Record.decode bytes with Ok r -> r.Record.xid | Error _ -> None

(* The surgery records ([Rewrite_begin], [Rewrite_clr], [Rewrite_end])
   with LSN in [from, upto], in LSN order, found through the log index
   whether archived or live. *)
let surgeries db ~from ~upto =
  let acc = ref [] in
  iter_indexed db [ Log_store.Kind Log_store.Surgery ] ~from ~upto
    (fun lsn r ->
      match r.Record.body with
      | Record.Rewrite_begin _ | Record.Rewrite_clr _ | Record.Rewrite_end _ ->
          acc := (lsn, r) :: !acc
      | _ -> ());
  List.rev !acc

(* The writer each update had at [upto], for the updates that a surgery
   committed above [upto] rewrote in place: the writer of the earliest
   such before-image. A lazy restart splice rewrites an update's writer
   long after the fact, so the log now shows the spliced writer; history
   as it stood at [upto] must not see it. A surgery that straddles
   [upto] (intent at or below, commit above) counts as above; only then
   are surgery records at or below [upto] read. Rh writes no surgery
   records, so it skips the walk. *)
let writers_at db ~upto =
  let writers = Hashtbl.create 8 in
  (if Lsn.(upto >= first) && (Db.config db).Config.impl <> Config.Rh then
     let above =
       surgeries db ~from:(Lsn.next upto)
         ~upto:(Log_store.durable (Db.log_store db))
     in
     let later =
       List.filter_map
         (fun (_, r) ->
           match r.Record.body with
           | Record.Rewrite_end { begin_lsn; committed = true } ->
               Some begin_lsn
           | _ -> None)
         above
     in
     match later with
     | [] -> ()
     | b :: bs ->
         let first_begin = List.fold_left Lsn.min b bs in
         let below =
           if Lsn.(first_begin <= upto) then
             surgeries db ~from:first_begin ~upto
           else []
         in
         let open_ = ref [] in
         List.iter
           (fun (lsn, r) ->
             match r.Record.body with
             | Record.Rewrite_begin _ -> open_ := lsn :: !open_
             | Record.Rewrite_clr { target; before; _ } -> (
                 match !open_ with
                 | s :: _
                   when List.exists (Lsn.equal s) later
                        && Lsn.(target <= upto)
                        && not (Hashtbl.mem writers (Lsn.to_int target)) ->
                     Option.iter
                       (Hashtbl.replace writers (Lsn.to_int target))
                       (writer_of_bytes before)
                 | _ -> ())
             | Record.Rewrite_end { begin_lsn; _ } ->
                 open_ :=
                   List.filter (fun s -> not (Lsn.equal s begin_lsn)) !open_
             | _ -> ())
           (below @ above));
  writers

let commit_points db =
  let log = Db.log_store db in
  let acc = ref [] in
  ignore
    (Log_store.iter_valid_forward log ~from:(Log_store.truncated_below log)
       ~upto:(Log_store.durable log) (fun lsn r ->
         match r.Record.body with
         | Record.Commit -> acc := (lsn, Record.writer_exn r) :: !acc
         | _ -> ()));
  List.rev !acc

(* {2 Version chains} *)

type transfer = { t_at : Lsn.t; t_from : Xid.t; t_to : Xid.t; t_op_level : bool }

type surgery = {
  s_intent : Lsn.t;
  s_clr : Lsn.t;
  s_committed : bool;
  s_writer_before : Xid.t option;
  s_writer_after : Xid.t option;
  s_deleg : (Xid.t * Xid.t * Oid.t) option;
}

type status =
  | Live
  | Committed of { by : Xid.t; at : Lsn.t }
  | Aborted of { by : Xid.t; at : Lsn.t }
  | Compensated of { by : Xid.t; clr : Lsn.t }

type version = {
  v_lsn : Lsn.t;
  v_oid : Oid.t;
  v_op : Record.op;
  v_writer : Xid.t;
  v_provenance : Xid.t;
  v_holder : Xid.t;
  v_transfers : transfer list;
  v_surgeries : surgery list;
  v_status : status;
}

(* never read: the long-lived fill of [sc_versions] under construction *)
let no_version =
  {
    v_lsn = Lsn.nil;
    v_oid = Oid.of_int 0;
    v_op = Record.Add 0;
    v_writer = Xid.of_int 1;
    v_provenance = Xid.of_int 1;
    v_holder = Xid.of_int 1;
    v_transfers = [];
    v_surgeries = [];
    v_status = Live;
  }

let status_str = function
  | Live -> "live"
  | Committed _ -> "committed"
  | Aborted _ -> "aborted"
  | Compensated _ -> "compensated"

(* mutable accumulator for one update record during the scan *)
type vmut = {
  m_lsn : Lsn.t;
  m_oid : Oid.t;
  m_op : Record.op;
  m_writer : Xid.t;
  m_start : Xid.t; (* the writer as it stood at the query bound *)
  mutable m_holder : Xid.t;
  mutable m_transfers : transfer list; (* newest first *)
  mutable m_surgeries : surgery list; (* newest first *)
  mutable m_comp : (Xid.t * Lsn.t) option;
}

type open_surgery = {
  os_begin : Lsn.t;
  os_deleg : (Xid.t * Xid.t * Oid.t) option;
  mutable os_clrs : (Lsn.t * Lsn.t * string * string) list;
      (* (clr lsn, target, before image, after image); the images are
         decoded only when the target is a tracked version *)
}

type scan = {
  sc_upto : Lsn.t;
  sc_versions : version array; (* ascending LSN *)
  sc_commits : Lsn.t Xid.Tbl.t;
  sc_begins : Lsn.t Xid.Tbl.t;
  sc_adoptions : (Lsn.t * Oid.t * int) list;
      (* cross-shard [Xfer_in] adoptions, ascending LSN: system-written
         value sets with no writer transaction, durably committed by
         their presence alone *)
}

(* The objects a scan builds state for: versions, CLR links, transfers,
   surgeries and transfer adoptions are built only for tracked objects.
   [All] reads every record in [1, upto]; [Only] reads what the log
   index files under its objects, the surgery records, and the outcome
   of each transaction left holding one of their live versions. *)
type objects = All | Only of Oid.Set.t

let tracks objects oid =
  match objects with All -> true | Only s -> Oid.Set.mem oid s

let scan db ~objects ~upto =
  let cov = coverage db in
  (* [upto = nil] asks for genesis: the covering range [1, 0] is empty,
     so it is answerable even over a fully truncated log *)
  if Lsn.(upto > cov.upto) then unavailable ~lsn:upto cov;
  if Lsn.(upto >= Lsn.first) && Lsn.(cov.from_ > Lsn.first) then
    unavailable ~lsn:upto cov;
  let rewritten = writers_at db ~upto in
  let by_lsn : (int, vmut) Hashtbl.t = Hashtbl.create 256 in
  let by_oid : (int, vmut list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let commits = Xid.Tbl.create 64 in
  let aborts = Xid.Tbl.create 16 in
  let begins = Xid.Tbl.create 64 in
  let open_surgeries = ref [] in
  let closed = ref [] in
  let adoptions = ref [] in
  let oid_list oid =
    match Hashtbl.find_opt by_oid (Oid.to_int oid) with
    | Some l -> !l
    | None -> []
  in
  let note_outcome lsn r =
    match r.Record.body with
    | Record.Commit ->
        let x = Record.writer_exn r in
        if not (Xid.Tbl.mem commits x) then Xid.Tbl.replace commits x lsn
    | Record.Abort ->
        let x = Record.writer_exn r in
        if not (Xid.Tbl.mem aborts x) then Xid.Tbl.replace aborts x lsn
    | _ -> ()
  in
  let visit lsn r =
    match r.Record.body with
    | Record.Begin ->
        let x = Record.writer_exn r in
        if not (Xid.Tbl.mem begins x) then Xid.Tbl.replace begins x lsn
    | Record.Update u when tracks objects u.Record.oid ->
        let w = Record.writer_exn r in
        let w0 =
          Option.value ~default:w
            (Hashtbl.find_opt rewritten (Lsn.to_int lsn))
        in
        let v =
          {
            m_lsn = lsn;
            m_oid = u.Record.oid;
            m_op = u.Record.op;
            m_writer = w;
            m_start = w0;
            m_holder = w0;
            m_transfers = [];
            m_surgeries = [];
            m_comp = None;
          }
        in
        Hashtbl.replace by_lsn (Lsn.to_int lsn) v;
        (match Hashtbl.find_opt by_oid (Oid.to_int u.Record.oid) with
        | Some l -> l := v :: !l
        | None ->
            Hashtbl.replace by_oid (Oid.to_int u.Record.oid) (ref [ v ]));
        order := v :: !order
    | Record.Update _ -> ()
    | Record.Clr { undone; _ } -> (
        match Hashtbl.find_opt by_lsn (Lsn.to_int undone) with
        | Some v when v.m_comp = None ->
            v.m_comp <- Some (Record.writer_exn r, lsn)
        | _ -> ())
    | Record.Commit | Record.Abort -> note_outcome lsn r
    | Record.Delegate { tee; oid; op; _ } -> (
        let tor = Record.writer_exn r in
        (* a compensated update is closed — its CLR already named the
           responsible party, so a later delegation of the object
           moves only the still-live operations (Lineage agrees:
           transfers apply to Live versions only) *)
        let move v op_level =
          if Xid.equal v.m_holder tor && v.m_comp = None then begin
            v.m_holder <- tee;
            v.m_transfers <-
              { t_at = lsn; t_from = tor; t_to = tee; t_op_level = op_level }
              :: v.m_transfers
          end
        in
        match op with
        | None -> List.iter (fun v -> move v false) (oid_list oid)
        | Some (ulsn, _invoker) -> (
            match Hashtbl.find_opt by_lsn (Lsn.to_int ulsn) with
            | Some v -> move v true
            | None -> ()))
    | Record.Rewrite_begin { deleg; _ } ->
        open_surgeries :=
          { os_begin = lsn; os_deleg = deleg; os_clrs = [] }
          :: !open_surgeries
    | Record.Rewrite_clr { target; before; after } -> (
        match !open_surgeries with
        | os :: _ -> os.os_clrs <- (lsn, target, before, after) :: os.os_clrs
        | [] -> ())
    | Record.Rewrite_end { begin_lsn; committed } ->
        let matching, rest =
          List.partition
            (fun os -> Lsn.equal os.os_begin begin_lsn)
            !open_surgeries
        in
        open_surgeries := rest;
        List.iter (fun os -> closed := (os, committed) :: !closed) matching
    | Record.Xfer_in { oid; value; _ } when tracks objects oid ->
        adoptions := (lsn, oid, value) :: !adoptions
    | Record.End | Record.Anchor | Record.Ckpt_begin | Record.Ckpt_end _
    | Record.Xfer_out _ | Record.Xfer_in _ | Record.Xfer_end _ ->
        ()
  in
  (match objects with
  | All -> iter_history db ~upto visit
  | Only s ->
      iter_indexed db
        (Log_store.Kind Log_store.Surgery
        :: List.map (fun o -> Log_store.Object o) (Oid.Set.elements s))
        ~from:Lsn.first ~upto visit;
      (* A holder's first Commit or Abort at or below [upto]. Below the
         index floor every record was just read, outcomes included. *)
      let from = Log_store.index_floor (Db.log_store db) in
      let seen = Xid.Tbl.create 16 in
      List.iter
        (fun v ->
          let h = v.m_holder in
          if v.m_comp = None && not (Xid.Tbl.mem seen h) then begin
            Xid.Tbl.replace seen h ();
            List.iter
              (fun lsn ->
                if not (Xid.Tbl.mem commits h) then
                  note_outcome lsn (read_at db ~upto lsn))
              (Log_store.index_walk (Db.log_store db) (Log_store.Txn h) ~from
                 ~upto)
          end)
        (List.rev !order));
  (* a surgery never closed by [upto] counts as not committed: its
     intent is durable but nothing proves the rewrites completed *)
  List.iter (fun os -> closed := (os, false) :: !closed) !open_surgeries;
  List.iter
    (fun (os, committed) ->
      List.iter
        (fun (clr_lsn, target, before, after) ->
          match Hashtbl.find_opt by_lsn (Lsn.to_int target) with
          | Some v ->
              v.m_surgeries <-
                {
                  s_intent = os.os_begin;
                  s_clr = clr_lsn;
                  s_committed = committed;
                  s_writer_before = writer_of_bytes before;
                  s_writer_after = writer_of_bytes after;
                  s_deleg = os.os_deleg;
                }
                :: v.m_surgeries
          | None -> ())
        os.os_clrs)
    !closed;
  let finalize v =
    let transfers = List.rev v.m_transfers in
    let surgeries =
      List.sort (fun a b -> Lsn.compare a.s_clr b.s_clr) v.m_surgeries
    in
    let provenance =
      let rec first_rewrite = function
        | [] -> v.m_start
        | s :: rest -> (
            match (s.s_committed, s.s_writer_before, s.s_writer_after) with
            | true, Some wb, Some wa when not (Xid.equal wb wa) -> wb
            | _ -> first_rewrite rest)
      in
      first_rewrite surgeries
    in
    let status =
      match v.m_comp with
      | Some (by, clr) -> Compensated { by; clr }
      | None -> (
          match Xid.Tbl.find_opt commits v.m_holder with
          | Some at -> Committed { by = v.m_holder; at }
          | None -> (
              match Xid.Tbl.find_opt aborts v.m_holder with
              | Some at -> Aborted { by = v.m_holder; at }
              | None -> Live))
    in
    {
      v_lsn = v.m_lsn;
      v_oid = v.m_oid;
      v_op = v.m_op;
      v_writer = v.m_writer;
      v_provenance = provenance;
      v_holder = v.m_holder;
      v_transfers = transfers;
      v_surgeries = surgeries;
      v_status = status;
    }
  in
  let versions =
    Major_array.of_list ~fill:no_version (List.rev_map finalize !order)
  in
  { sc_upto = upto; sc_versions = versions; sc_commits = commits;
    sc_begins = begins; sc_adoptions = List.rev !adoptions }

let apply_op value = function
  | Record.Set { after; _ } -> after
  | Record.Add d -> value + d

(* Fold [f acc oid op] over the committed versions and the transfer
   adoptions in ascending LSN order. Both streams are already ascending,
   so this merges them. *)
let fold_committed sc f init =
  let vs = sc.sc_versions in
  let n = Array.length vs in
  let rec go i ads acc =
    match ads with
    | (l, oid, value) :: rest when i >= n || Lsn.(l < vs.(i).v_lsn) ->
        go i rest (f acc oid (Record.Set { before = 0; after = value }))
    | _ when i < n ->
        let v = vs.(i) in
        let acc =
          match v.v_status with Committed _ -> f acc v.v_oid v.v_op | _ -> acc
        in
        go (i + 1) ads acc
    | _ -> acc
  in
  go 0 sc.sc_adoptions init

(* Committed value at [lsn] of each object in [oids], from a scan that
   tracks only them. *)
let values_at db lsn oids =
  let sc = scan db ~objects:(Only oids) ~upto:lsn in
  let vals =
    fold_committed sc
      (fun m o op ->
        Oid.Map.add o
          (apply_op (Option.value (Oid.Map.find_opt o m) ~default:0) op)
          m)
      Oid.Map.empty
  in
  fun o -> Option.value (Oid.Map.find_opt o vals) ~default:0

let as_of db ~lsn oid = values_at db lsn (Oid.Set.singleton oid) oid

let snapshot_at db lsn =
  let sc = scan db ~objects:All ~upto:lsn in
  let n = (Db.config db).Config.n_objects in
  let out = Array.make n 0 in
  fold_committed sc
    (fun () o op ->
      let i = Oid.to_int o in
      if i < n then out.(i) <- apply_op out.(i) op)
    ();
  out

let history db ?upto oid =
  let upto =
    match upto with
    | Some l -> l
    | None -> Log_store.durable (Db.log_store db)
  in
  let sc = scan db ~objects:(Only (Oid.Set.singleton oid)) ~upto in
  Array.to_list sc.sc_versions

(* {2 Reenactment} *)

type divergence = {
  d_lsn : Lsn.t;
  d_oid : Oid.t;
  d_provenance : Xid.t;
  d_attribution : Xid.t;
  d_direction : [ `Delegated_away | `Received ];
  d_via : [ `Delegate of Lsn.t | `Surgery of Lsn.t | `Unknown ];
}

type explain = {
  e_xid : Xid.t;
  e_impl : string;
  e_begin : Lsn.t;
  e_commit : Lsn.t option;
  e_snapshot : (Oid.t * int) list;
  e_invoked : version list;
  e_received : version list;
  e_replayed : (Oid.t * int) list;
  e_attributed : (Oid.t * int) list;
  e_as_of_end : (Oid.t * int) list;
  e_divergences : divergence list;
}

let impl_str = function
  | Config.Rh -> "rh"
  | Config.Eager -> "eager"
  | Config.Lazy -> "lazy"

let explain db xid =
  let durable = Log_store.durable (Db.log_store db) in
  let sc = scan db ~objects:All ~upto:durable in
  let begin_lsn =
    match Xid.Tbl.find_opt sc.sc_begins xid with
    | Some l -> l
    | None -> raise (Errors.No_such_txn xid)
  in
  let commit = Xid.Tbl.find_opt sc.sc_commits xid in
  let versions = Array.to_list sc.sc_versions in
  let invoked =
    List.filter (fun v -> Xid.equal v.v_provenance xid) versions
  in
  let received =
    List.filter
      (fun v ->
        Xid.equal v.v_holder xid && not (Xid.equal v.v_provenance xid))
      versions
  in
  let touched =
    List.sort_uniq Oid.compare (List.map (fun v -> v.v_oid) (invoked @ received))
  in
  let values_of_touched lsn =
    let value = values_at db lsn (Oid.Set.of_list touched) in
    List.map (fun o -> (o, value o)) touched
  in
  let snapshot = values_of_touched begin_lsn in
  let not_compensated v =
    match v.v_status with Compensated _ -> false | _ -> true
  in
  let replay keep =
    List.map
      (fun (o, base) ->
        ( o,
          List.fold_left
            (fun acc v ->
              if Oid.equal v.v_oid o && not_compensated v && keep v then
                apply_op acc v.v_op
              else acc)
            base versions ))
      snapshot
  in
  let replayed = replay (fun v -> Xid.equal v.v_provenance xid) in
  let attributed = replay (fun v -> Xid.equal v.v_holder xid) in
  let end_lsn = match commit with Some c -> c | None -> durable in
  let as_of_end = values_of_touched end_lsn in
  let via v =
    match v.v_transfers with
    | t :: _ -> `Delegate t.t_at
    | [] -> (
        match
          List.find_opt
            (fun s -> s.s_committed && s.s_writer_before <> s.s_writer_after)
            v.v_surgeries
        with
        | Some s -> `Surgery s.s_clr
        | None -> `Unknown)
  in
  let divergences =
    List.filter_map
      (fun v ->
        if Xid.equal v.v_provenance v.v_holder then None
        else
          let direction =
            if Xid.equal v.v_provenance xid then `Delegated_away else `Received
          in
          Some
            {
              d_lsn = v.v_lsn;
              d_oid = v.v_oid;
              d_provenance = v.v_provenance;
              d_attribution = v.v_holder;
              d_direction = direction;
              d_via = via v;
            })
      (invoked @ received)
  in
  {
    e_xid = xid;
    e_impl = impl_str (Db.config db).Config.impl;
    e_begin = begin_lsn;
    e_commit = commit;
    e_snapshot = snapshot;
    e_invoked = invoked;
    e_received = received;
    e_replayed = replayed;
    e_attributed = attributed;
    e_as_of_end = as_of_end;
    e_divergences = divergences;
  }

(* {2 Lineage cross-check} *)

let lineage_check db v =
  match Lineage.query (Db.ring db) ~lsn:v.v_lsn () with
  | None -> `No_data
  | Some l ->
      let fail fmt = Format.kasprintf (fun s -> `Disagree s) fmt in
      if not (Xid.equal l.Lineage.holder v.v_holder) then
        fail "holder: lineage %a, log %a" Xid.pp l.Lineage.holder Xid.pp
          v.v_holder
      else
        let agree =
          match (l.Lineage.status, v.v_status) with
          | Lineage.Live, Live -> true
          | Lineage.Committed { by; at }, Committed c ->
              Xid.equal by c.by && Lsn.equal at c.at
          | Lineage.Aborted { by; _ }, Aborted a -> Xid.equal by a.by
          | Lineage.Compensated { clr; _ }, Compensated c ->
              Lsn.equal clr c.clr
          (* rollback writes the CLR before the Abort record becomes
             durable; the two reconstructions may legitimately resolve
             an aborted update at different points of that window *)
          | Lineage.Aborted _, Compensated _
          | Lineage.Compensated _, Aborted _ -> true
          | _ -> false
        in
        if agree then `Agree
        else
          fail "status: lineage %s, log %s"
            (Lineage.status_str l.Lineage.status)
            (status_str v.v_status)

(* {2 JSON} *)

let lsn_json l = Json.Int (Lsn.to_int l)
let xid_json x = Json.Int (Xid.to_int x)

let op_to_json = function
  | Record.Set { before; after } ->
      Json.Obj
        [ ("kind", Json.String "set"); ("before", Json.Int before);
          ("after", Json.Int after) ]
  | Record.Add d ->
      Json.Obj [ ("kind", Json.String "add"); ("delta", Json.Int d) ]

let status_to_json = function
  | Live -> Json.Obj [ ("kind", Json.String "live") ]
  | Committed { by; at } ->
      Json.Obj
        [ ("kind", Json.String "committed"); ("by", xid_json by);
          ("at", lsn_json at) ]
  | Aborted { by; at } ->
      Json.Obj
        [ ("kind", Json.String "aborted"); ("by", xid_json by);
          ("at", lsn_json at) ]
  | Compensated { by; clr } ->
      Json.Obj
        [ ("kind", Json.String "compensated"); ("by", xid_json by);
          ("clr", lsn_json clr) ]

let transfer_to_json t =
  Json.Obj
    [ ("at", lsn_json t.t_at); ("from", xid_json t.t_from);
      ("to", xid_json t.t_to); ("op_level", Json.Bool t.t_op_level) ]

let surgery_to_json s =
  let opt_xid = function Some x -> xid_json x | None -> Json.Null in
  Json.Obj
    [ ("intent", lsn_json s.s_intent); ("clr", lsn_json s.s_clr);
      ("committed", Json.Bool s.s_committed);
      ("writer_before", opt_xid s.s_writer_before);
      ("writer_after", opt_xid s.s_writer_after);
      ( "delegation",
        match s.s_deleg with
        | None -> Json.Null
        | Some (from_, to_, oid) ->
            Json.Obj
              [ ("from", xid_json from_); ("to", xid_json to_);
                ("oid", Json.Int (Oid.to_int oid)) ] ) ]

let version_to_json v =
  Json.Obj
    [ ("lsn", lsn_json v.v_lsn); ("oid", Json.Int (Oid.to_int v.v_oid));
      ("op", op_to_json v.v_op); ("writer", xid_json v.v_writer);
      ("provenance", xid_json v.v_provenance);
      ("holder", xid_json v.v_holder);
      ("transfers", Json.List (List.map transfer_to_json v.v_transfers));
      ("surgeries", Json.List (List.map surgery_to_json v.v_surgeries));
      ("status", status_to_json v.v_status) ]

let history_to_json ~oid ~upto versions =
  Json.Obj
    [ ("oid", Json.Int (Oid.to_int oid)); ("upto", lsn_json upto);
      ("versions", Json.List (List.map version_to_json versions)) ]

let coverage_to_json c =
  Json.Obj
    [ ("from", lsn_json c.from_); ("upto", lsn_json c.upto);
      ("bridged", Json.Bool c.bridged) ]

let values_json l =
  Json.List
    (List.map
       (fun (o, v) ->
         Json.Obj [ ("oid", Json.Int (Oid.to_int o)); ("value", Json.Int v) ])
       l)

let divergence_to_json d =
  Json.Obj
    [ ("lsn", lsn_json d.d_lsn); ("oid", Json.Int (Oid.to_int d.d_oid));
      ("provenance", xid_json d.d_provenance);
      ("attribution", xid_json d.d_attribution);
      ( "direction",
        Json.String
          (match d.d_direction with
          | `Delegated_away -> "delegated_away"
          | `Received -> "received") );
      ( "via",
        match d.d_via with
        | `Delegate l ->
            Json.Obj [ ("kind", Json.String "delegate"); ("at", lsn_json l) ]
        | `Surgery l ->
            Json.Obj [ ("kind", Json.String "surgery"); ("clr", lsn_json l) ]
        | `Unknown -> Json.Obj [ ("kind", Json.String "unknown") ] ) ]

let explain_to_json e =
  Json.Obj
    [ ("xid", xid_json e.e_xid); ("impl", Json.String e.e_impl);
      ("begin", lsn_json e.e_begin);
      ( "commit",
        match e.e_commit with Some c -> lsn_json c | None -> Json.Null );
      ("snapshot_at_begin", values_json e.e_snapshot);
      ("invoked", Json.List (List.map version_to_json e.e_invoked));
      ("received", Json.List (List.map version_to_json e.e_received));
      ("replayed", values_json e.e_replayed);
      ("attributed", values_json e.e_attributed);
      ("as_of_end", values_json e.e_as_of_end);
      ("divergences", Json.List (List.map divergence_to_json e.e_divergences))
    ]
