open Ariesrh_types
open Ariesrh_wal
module Scope = Ariesrh_txn.Scope
module Heap = Ariesrh_util.Heap

type stats = {
  mutable examined : int;
  mutable skipped : int;
  mutable clusters : int;
  mutable undone : int;
}

let zero () = { examined = 0; skipped = 0; clusters = 0; undone = 0 }

type 'a tagged = { owner : 'a; scope : Scope.t }

(* Cluster: the scopes overlapping the region currently being examined.
   A list suffices: clusters are small (the set of concurrently
   delegated-and-lost scopes overlapping one log region). *)
type 'a cluster = { mutable members : 'a tagged list; mutable beg : Lsn.t }

let sweep_naive (env : Env.t) ~scopes ~on_undo =
  let stats = zero () in
  let live = List.filter (fun (_, s) -> not (Scope.is_empty s)) scopes in
  (match live with
  | [] -> ()
  | _ ->
      let top =
        List.fold_left
          (fun acc (_, s) -> Lsn.max acc s.Scope.last)
          Lsn.nil live
      in
      let bottom =
        List.fold_left
          (fun acc (_, s) -> Lsn.min acc s.Scope.first)
          top live
      in
      let k = ref top in
      while Lsn.(!k >= bottom) do
        stats.examined <- stats.examined + 1;
        let record = Log_store.read env.log !k in
        (match record.Record.body with
        | Record.Update u -> (
            let invoker = Record.writer_exn record in
            let hit =
              List.find_opt
                (fun (_, s) -> Scope.covers s ~invoker ~oid:u.oid !k)
                live
            in
            match hit with
            | Some (owner, s) ->
                let inv = { u with op = Apply.inverse u.op } in
                let clr_lsn =
                  on_undo ~owner ~invoker ~undone:!k
                    ~undo_next:record.Record.prev inv
                in
                Apply.force env clr_lsn inv;
                Scope.trim_below s !k;
                stats.undone <- stats.undone + 1
            | None -> ())
        | _ -> ());
        if Lsn.equal !k Lsn.first then k := Lsn.nil else k := Lsn.prev !k
      done);
  stats

let sweep ?(floor = Lsn.nil) (env : Env.t) ~scopes ~on_undo =
  let stats = zero () in
  let live =
    List.filter
      (fun (_, s) -> (not (Scope.is_empty s)) && Lsn.(s.Scope.last > floor))
      scopes
    |> List.map (fun (owner, scope) -> { owner; scope })
  in
  if live <> [] then begin
    (* max-heap on scope right ends: the next cluster starts at the
       largest outstanding right end (β in Fig. 8) *)
    let heap =
      Heap.create ~leq:(fun a b -> Lsn.(a.scope.Scope.last <= b.scope.Scope.last))
    in
    List.iter (Heap.push heap) live;
    let k = ref Lsn.nil in
    (* move to the next cluster: β *)
    let rec next_cluster () =
      match Heap.peek heap with
      | None -> false
      | Some top ->
          if Scope.is_empty top.scope then begin
            (* trimmed to nothing while waiting in the heap cannot happen
               (only cluster members get trimmed), but a scope emptied by
               construction is just dropped *)
            ignore (Heap.pop heap);
            next_cluster ()
          end
          else begin
            let target = top.scope.Scope.last in
            (* !k is the last record examined by the previous cluster;
               the gap skipped is (!k-1 .. target+1) *)
            if not (Lsn.is_nil !k) then
              stats.skipped <-
                stats.skipped + max 0 (Lsn.to_int !k - Lsn.to_int target - 1);
            k := target;
            stats.clusters <- stats.clusters + 1;
            true
          end
    in
    let cluster = { members = []; beg = Lsn.nil } in
    let absorb_ending_here () =
      let rec go () =
        match Heap.peek heap with
        | Some top when Lsn.equal top.scope.Scope.last !k ->
            ignore (Heap.pop heap);
            if not (Scope.is_empty top.scope) then begin
              cluster.members <- top :: cluster.members;
              cluster.beg <-
                (if Lsn.is_nil cluster.beg then top.scope.Scope.first
                 else Lsn.min cluster.beg top.scope.Scope.first)
            end;
            go ()
        | _ -> ()
      in
      go ()
    in
    let matching_scope ~invoker ~oid lsn =
      List.find_opt
        (fun m -> Scope.covers m.scope ~invoker ~oid lsn)
        cluster.members
    in
    let drop_spent () =
      cluster.members <-
        List.filter
          (fun m ->
            (not (Scope.is_empty m.scope)) && Lsn.(m.scope.Scope.first < !k))
          cluster.members
    in
    while next_cluster () do
      cluster.members <- [];
      cluster.beg <- Lsn.nil;
      let continue = ref true in
      while !continue do
        (* α1: scopes whose right end is the current record join *)
        absorb_ending_here ();
        (* α2: undo if the record is a loser update *)
        stats.examined <- stats.examined + 1;
        let record = Log_store.read env.log !k in
        (match record.Record.body with
        | Record.Update u -> (
            let invoker = Record.writer_exn record in
            match matching_scope ~invoker ~oid:u.oid !k with
            | Some m ->
                let inv = { u with op = Apply.inverse u.op } in
                let clr_lsn =
                  on_undo ~owner:m.owner ~invoker ~undone:!k
                    ~undo_next:record.Record.prev inv
                in
                Apply.force env clr_lsn inv;
                Scope.trim_below m.scope !k;
                stats.undone <- stats.undone + 1
            | None -> ())
        | Record.Begin | Record.Commit | Record.Abort | Record.End
        | Record.Clr _ | Record.Delegate _ | Record.Ckpt_begin
        | Record.Ckpt_end _ | Record.Anchor | Record.Rewrite_begin _
        | Record.Rewrite_clr _ | Record.Rewrite_end _ | Record.Xfer_out _
        | Record.Xfer_in _ | Record.Xfer_end _ ->
            ());
        (* α3 + α4: discard scopes that begin here, step left, stop when
           past the cluster's beginning or at the rollback floor *)
        drop_spent ();
        if
          Lsn.equal !k Lsn.first
          || Lsn.(Lsn.prev !k < cluster.beg)
          || Lsn.(Lsn.prev !k <= floor)
        then continue := false
        else k := Lsn.prev !k
      done
    done
  end;
  stats
