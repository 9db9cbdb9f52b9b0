open Ariesrh_types
open Ariesrh_core
module Sharded = Ariesrh_shard.Sharded

(* Scripted workloads on a sharded engine.

   Scripts are generated against a symbolic lock table that knows
   nothing about shards, so replaying one naively would trip over the
   router's refusal to migrate a locked object. Co-homing fixes that
   structurally: transactions are grouped into components (union-find —
   two transactions join when they touch a common object or form a
   delegation pair) and each component is pinned to one shard. Every
   object is then only ever touched from a single shard, so its one
   migration — base home to component home, on first touch — always
   finds the object lock-free. The crash sweep still exercises every
   I/O point of every migration; the refusal path is exercised by the
   sim storm, where clients on different shards do contend. *)

let assign_homes script ~shards =
  let parent = Hashtbl.create 32 in
  let rec find t =
    match Hashtbl.find_opt parent t with
    | Some p when p <> t ->
        let r = find p in
        Hashtbl.replace parent t r;
        r
    | Some _ -> t
    | None ->
        Hashtbl.replace parent t t;
        t
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)
  in
  (* object -> some transaction that touched it *)
  let owner = Hashtbl.create 64 in
  let touch t o =
    match Hashtbl.find_opt owner o with
    | None -> Hashtbl.replace owner o t
    | Some t' -> union t t'
  in
  List.iter
    (function
      | Script.Begin t -> ignore (find t)
      | Script.Read (t, o) | Script.Write (t, o, _) | Script.Add (t, o, _) ->
          touch t o
      | Script.Delegate (a, b, o) ->
          union a b;
          touch a o
      | Script.Savepoint _ | Script.Rollback_to _ | Script.Commit _
      | Script.Abort _ | Script.Checkpoint ->
          ())
    script;
  (* components ranked in order of first appearance, then dealt out
     round-robin — deterministic for a given script *)
  let comp_rank = Hashtbl.create 16 in
  let next = ref 0 in
  let homes = Hashtbl.create 32 in
  List.iter
    (function
      | Script.Begin t when not (Hashtbl.mem homes t) ->
          let r = find t in
          let c =
            match Hashtbl.find_opt comp_rank r with
            | Some c -> c
            | None ->
                let c = !next in
                incr next;
                Hashtbl.replace comp_rank r c;
                c
          in
          Hashtbl.replace homes t (c mod shards)
      | _ -> ())
    script;
  homes

let fresh ?fault ?(impl = Config.Rh) ?group_commit ?record_cache ?audit
    ?recovery_mode ?log_capacity_bytes ?tracing ~shards ~n_objects () =
  Sharded.create ?fault ?tracing
    (Config.make ~n_objects ~objects_per_page:8
       ~buffer_capacity:(max 4 (n_objects / 32))
       ~impl ~locking:true ?group_commit ?record_cache ?audit ?recovery_mode
       ?log_capacity_bytes ~shards ())

let run ?upto ?(on_action = fun _ -> ()) ?xid_map ~homes sh script =
  let xids = match xid_map with Some h -> h | None -> Hashtbl.create 16 in
  let xid t = Hashtbl.find xids t in
  let savepoints = Hashtbl.create 16 in
  let limit = Option.value ~default:(List.length script) upto in
  List.iteri
    (fun i action ->
      if i < limit then begin
        (match action with
        | Script.Begin t ->
            Hashtbl.replace xids t
              (Sharded.begin_txn sh ~shard:(Hashtbl.find homes t))
        | Script.Read (t, o) -> ignore (Sharded.read sh (xid t) (Oid.of_int o))
        | Script.Write (t, o, v) -> Sharded.write sh (xid t) (Oid.of_int o) v
        | Script.Add (t, o, d) -> Sharded.add sh (xid t) (Oid.of_int o) d
        | Script.Delegate (from_, to_, o) ->
            Sharded.delegate sh ~from_:(xid from_) ~to_:(xid to_)
              (Oid.of_int o)
        | Script.Savepoint (t, tag) ->
            Hashtbl.replace savepoints tag (Sharded.savepoint sh (xid t))
        | Script.Rollback_to (t, tag) ->
            Sharded.rollback_to sh (xid t) (Hashtbl.find savepoints tag)
        | Script.Commit t -> Sharded.commit sh (xid t)
        | Script.Abort t -> Sharded.abort sh (xid t)
        | Script.Checkpoint -> Sharded.checkpoint sh);
        on_action i
      end)
    script
