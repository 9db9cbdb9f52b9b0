(* The router's executor: where each shard's jobs run. The domain pool
   pins every shard's engine to a domain of its own: whatever domain
   wants to touch shard [i]'s state ships a closure to worker [i]
   instead, so no [Db.t] is ever shared across domains. The
   single-domain executor runs every job on the caller, at once.

   In the pool, [exec] from worker [i] to shard [i] runs inline
   (re-entrancy); [exec] to another shard enqueues and waits, draining
   its own queue while blocked so two workers migrating into each
   other's shards cannot deadlock. [post] enqueues without waiting; an
   exception it raises is parked on its shard and re-raised to the next
   caller there. *)

type job = unit -> unit

type t = {
  n : int;
  inline : bool;  (* single-domain executor: no worker, queues stay empty *)
  queues : job Queue.t array;
  locks : Mutex.t array;
  conds : Condition.t array;
  failed : exn option array;
      (* per shard: the first exception of a posted job, not yet
         reported. Only that shard's worker touches its slot (and
         [shutdown], after the join). *)
  mutable domains : unit Domain.t array;
  mutable stopped : bool;
}

(* which shard the current domain works for, [None] on the main domain *)
let my_shard_key : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* whether shard [i]'s jobs run on the calling domain *)
let here t i =
  t.inline
  || match Domain.DLS.get my_shard_key with Some j -> j = i | None -> false

let push t i job =
  Mutex.lock t.locks.(i);
  Queue.push job t.queues.(i);
  Condition.signal t.conds.(i);
  Mutex.unlock t.locks.(i)

(* run one pending job of shard [i], if any; never blocks *)
let run_one t i =
  Mutex.lock t.locks.(i);
  let job = Queue.take_opt t.queues.(i) in
  Mutex.unlock t.locks.(i);
  match job with
  | Some j ->
      j ();
      true
  | None -> false

let rec worker_loop t i =
  Mutex.lock t.locks.(i);
  while Queue.is_empty t.queues.(i) && not t.stopped do
    Condition.wait t.conds.(i) t.locks.(i)
  done;
  let job = Queue.take_opt t.queues.(i) in
  Mutex.unlock t.locks.(i);
  match job with
  | Some j ->
      j ();
      worker_loop t i
  | None -> () (* stopped with an empty queue *)

let executor ~inline n =
  if n < 1 then invalid_arg "Shard_pool.create: need at least one shard";
  {
    n;
    inline;
    queues = Array.init n (fun _ -> Queue.create ());
    locks = Array.init n (fun _ -> Mutex.create ());
    conds = Array.init n (fun _ -> Condition.create ());
    failed = Array.make n None;
    domains = [||];
    stopped = false;
  }

let inline n = executor ~inline:true n

let create n =
  let t = executor ~inline:false n in
  t.domains <-
    Array.init n (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set my_shard_key (Some i);
            worker_loop t i));
  t

let size t = t.n

(* let a worker running a long job service its own queue: without this,
   a peer's cross-shard call queued behind the long job waits for the
   whole job to finish (or deadlocks, if the job itself is waiting on
   that peer) *)
let poll t =
  match Domain.DLS.get my_shard_key with
  | Some i when not t.inline -> ignore (run_one t i)
  | _ -> ()

(* One step of a cooperative wait; returns the next step's count. Spin
   first (on real multicore a peer answers within microseconds), then
   back off to a short sleep so an oversubscribed host hands the core
   over at timer granularity instead of a whole scheduler quantum. *)
let backoff tries =
  if tries < 1000 then (Domain.cpu_relax (); tries + 1)
  else (Unix.sleepf 1e-4; 0)

let relax t tries =
  poll t;
  backoff tries

let pause t =
  if not t.inline then begin
    let until = Unix.gettimeofday () +. Random.float 4e-4 in
    while Unix.gettimeofday () < until do
      ignore (relax t 0)
    done
  end

(* on worker [i]: a parked failure of a posted job is the answer to
   whoever asks shard [i] next, raised in place of running their job *)
let report_failure t i =
  match t.failed.(i) with
  | None -> ()
  | Some e ->
      t.failed.(i) <- None;
      raise e

let check_shard t i op =
  if i < 0 || i >= t.n then invalid_arg ("Shard_pool." ^ op ^ ": no such shard")

let post t i f =
  check_shard t i "post";
  if here t i then f ()
  else
    push t i (fun () ->
        try f ()
        with e -> if Option.is_none t.failed.(i) then t.failed.(i) <- Some e)

let exec t i f =
  check_shard t i "exec";
  if here t i then begin
    report_failure t i;
    f ()
  end
  else
    let slot = ref None in
    let m = Mutex.create () in
    let c = Condition.create () in
    push t i (fun () ->
        let r = try report_failure t i; Ok (f ()) with e -> Error e in
        Mutex.lock m;
        slot := Some r;
        Condition.signal c;
        Mutex.unlock m);
    let result =
      match Domain.DLS.get my_shard_key with
      | None ->
          (* main domain: plain blocking wait *)
          Mutex.lock m;
          while !slot = None do
            Condition.wait c m
          done;
          let r = Option.get !slot in
          Mutex.unlock m;
          r
      | Some j ->
          (* a worker waiting on a peer must keep draining its own
             queue, or two cross-shard calls deadlock each other *)
          let rec spin tries =
            Mutex.lock m;
            let d = !slot in
            Mutex.unlock m;
            match d with
            | Some r -> r
            | None -> spin (if run_one t j then 0 else backoff tries)
          in
          spin 0
    in
    match result with Ok v -> v | Error e -> raise e

let map t f =
  if t.inline then Array.init t.n f
  else begin
    let results = Array.make t.n None in
    let m = Mutex.create () in
    let c = Condition.create () in
    let pending = ref t.n in
    for i = 0 to t.n - 1 do
      push t i (fun () ->
          let r = try report_failure t i; Ok (f i) with e -> Error e in
          Mutex.lock m;
          results.(i) <- Some r;
          decr pending;
          Condition.signal c;
          Mutex.unlock m)
    done;
    Mutex.lock m;
    while !pending > 0 do
      Condition.wait c m
    done;
    Mutex.unlock m;
    Array.map
      (fun r -> match Option.get r with Ok v -> v | Error e -> raise e)
      results
  end

let shutdown t =
  if not t.stopped then begin
    Array.iteri
      (fun i l ->
        Mutex.lock l;
        t.stopped <- true;
        Condition.signal t.conds.(i);
        Mutex.unlock l)
      t.locks;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    (* the drained queues may have ended in a failed post nobody asked
       about since *)
    Array.iteri
      (fun i e ->
        t.failed.(i) <- None;
        Option.iter raise e)
      t.failed
  end
