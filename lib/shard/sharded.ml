open Ariesrh_types
module Db = Ariesrh_core.Db
module Config = Ariesrh_core.Config
module Errors = Ariesrh_core.Errors
module Audit = Ariesrh_recovery.Audit
module Xfer = Ariesrh_recovery.Xfer
module Log_store = Ariesrh_wal.Log_store
module Fault = Ariesrh_fault.Fault
module Major_array = Ariesrh_util.Major_array

(* The router: N independent engines (per-shard WAL, buffer pool, lock
   table), objects hash-partitioned by [base_home], transactions pinned
   to one shard for their whole life. Cross-shard work is crash-atomic
   object migration: when a transaction touches an object homed
   elsewhere, the router transfers the object's durably committed state
   to the transaction's shard with the two-phase protocol below, then
   runs the op locally. [shards = 1] routes everything to shard 0 and
   never migrates — byte-identical to a plain [Db].

   The two-phase migration protocol (delegation across WALs, built from
   the same forced-intent discipline as the rewrite system txns):

     1. forced [Xfer_out] intent on the source shard (admission-checked);
     2. forced [Xfer_in] on the target, carrying the committed value —
        its durable presence is the commit point;
     3. forced [Xfer_end committed=true] on the source (reserved space),
        posted to it one way: the migrating op proceeds on the target
        at once, and the object's claim is held until the source has
        logged the close.

   Every shard job runs through one executor ([Shard_pool]): the domain
   pool, or the single-domain executor, which runs a posted close at
   once, so a transfer ends in protocol order there.

   A crash at any I/O point resolves at restart ([Xfer.recover]): the
   intent rolls forward iff the target-side record became durable.
   Only the in-flight flush can tear, so each completed force above is
   durable before the next step begins — the same assumption the
   commit protocol makes. *)

type xid = { shard : int; txn : Xid.t }

let pp_xid ppf fx = Format.fprintf ppf "s%d:%a" fx.shard Xid.pp fx.txn

type counters = {
  migrations : int;
  migrations_refused : int;
  resolved_forward : int;
  resolved_back : int;
}

type t = {
  config : Config.t;
  n : int;
  dbs : Db.t array;
  executor : Shard_pool.t;
  avail : int Atomic.t array;
      (* oid -> the shard where ops on it may run now, or [claimed]
         while a migration holds it: the op path's only routing read *)
  epoch : int Atomic.t;
      (* bumped by [crash]: a close posted before it is void *)
  refused : bool Atomic.t array;
      (* shard -> a transfer to it was refused since its last abort *)
  mu : Mutex.t;  (* guards the routing tables below *)
  homes : (int, int) Hashtbl.t;  (* oid -> home, only when <> base *)
  hops : (int, int) Hashtbl.t;  (* oid -> last transfer hop consumed *)
  latest_in : (int, int * Lsn.t) Hashtbl.t;
      (* oid -> (shard, lsn) of its latest Xfer_in: what the external
         truncation pin must keep readable for home reconstruction *)
  inflight : (int, int * Lsn.t) Hashtbl.t;
      (* xfer_id -> (source shard, intent lsn) while the transfer is
         between its Xfer_out and Xfer_end *)
  migrating : (int, unit) Hashtbl.t;
      (* oid -> claimed: at most one transfer of an object in flight,
         from the claim until its source has logged the close *)
  mutable next_xfer_id : int;
  mutable migrations : int;
  mutable migrations_refused : int;
  mutable resolved_forward : int;
  mutable resolved_back : int;
}

(* never read: the long-lived fill of [avail] under construction *)
let no_home = Atomic.make 0

let create ?fault ?(tracing = false) ?pool config =
  Config.validate config;
  let n = config.Config.shards in
  let executor = Option.value pool ~default:(Shard_pool.inline n) in
  if Shard_pool.size executor <> n then
    invalid_arg "Sharded.create: pool size does not match config.shards";
  let dbs =
    Array.init n (fun i ->
        (* a shared injector keeps the single logical I/O clock the
           deterministic storms need; without one, each shard gets its
           own inert injector so parallel shards never share state *)
        let fault =
          match fault with Some f -> f | None -> Fault.none ()
        in
        Db.create ~fault ~tracing ~shard:i config)
  in
  {
    config;
    n;
    dbs;
    executor;
    avail =
      Major_array.init ~fill:no_home config.Config.n_objects (fun o ->
          Atomic.make (o mod n));
    epoch = Atomic.make 0;
    refused = Array.init n (fun _ -> Atomic.make false);
    mu = Mutex.create ();
    homes = Hashtbl.create 64;
    hops = Hashtbl.create 64;
    latest_in = Hashtbl.create 64;
    inflight = Hashtbl.create 4;
    migrating = Hashtbl.create 4;
    next_xfer_id = 1;
    migrations = 0;
    migrations_refused = 0;
    resolved_forward = 0;
    resolved_back = 0;
  }

let shards t = t.n
let config t = t.config
let db t i = t.dbs.(i)
let dbs t = Array.copy t.dbs

let counters t =
  {
    migrations = t.migrations;
    migrations_refused = t.migrations_refused;
    resolved_forward = t.resolved_forward;
    resolved_back = t.resolved_back;
  }

let exec t i f = Shard_pool.exec t.executor i f

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let base_home t oid = Oid.to_int oid mod t.n

(* with [t.mu] held *)
let home_of t key =
  match Hashtbl.find_opt t.homes key with Some h -> h | None -> key mod t.n

let home t oid = locked t (fun () -> home_of t (Oid.to_int oid))

(* the availability word's value while a migration holds the object *)
let claimed = -1

let avail t oid =
  let key = Oid.to_int oid in
  if key >= Array.length t.avail then
    invalid_arg
      (Format.asprintf "Sharded: %a out of range (%d objects)" Oid.pp oid
         (Array.length t.avail));
  t.avail.(key)

(* recompute every shard's external truncation pin: the oldest LSN
   among (a) the latest Xfer_in of each object whose latest transfer
   landed on that shard and (b) any in-flight intent. Called with
   [t.mu] held; the pin itself is a plain word-sized field write, so it
   is published directly rather than shipped to the shard's worker
   (shipping would block under [t.mu], which workers also take). *)
let update_pins t =
  let mins = Array.make t.n Lsn.nil in
  let note s lsn =
    if Lsn.is_nil mins.(s) || Lsn.(lsn < mins.(s)) then mins.(s) <- lsn
  in
  Hashtbl.iter (fun _ (s, lsn) -> note s lsn) t.latest_in;
  Hashtbl.iter (fun _ (s, lsn) -> note s lsn) t.inflight;
  Array.iteri (fun i db -> Db.set_external_pin db mins.(i)) t.dbs

(* Crash-atomic migration of one object's durably committed state.
   Refuses (typed) while any transaction holds a lock on the object —
   migration never preempts; the value it carries is always a committed
   one.

   Concurrency discipline (on the domain pool): the object is first
   *claimed* under [t.mu] — at most one transfer of an object is ever
   in flight — and the claim publishes [claimed] in its availability
   word, so no shard runs ops on it. [t.mu] is never held across a
   cross-worker call (that deadlocks against a worker blocked on
   [t.mu]); instead the whole source phase — holder check, commit
   hardening, value read, forced intent — ships as ONE job, so
   shard-local ops serialize either wholly before it (their lock makes
   the transfer refuse) or wholly after the claim is visible.

   Once the target's record is durable the word names the target and
   the migrating op goes ahead. The close is posted to the source
   without waiting; the claim and the in-flight intent are dropped by
   that job once the close is logged, so a later transfer of the object
   cannot overtake it. The word is published before the post: the
   posted job may drop the claim at once, after which a new claim owns
   the word. *)
let migrate t oid ~target =
  if target < 0 || target >= t.n then invalid_arg "Sharded.migrate: no shard";
  let key = Oid.to_int oid in
  let word = avail t oid in
  let rec claim tries =
    Mutex.lock t.mu;
    if Hashtbl.mem t.migrating key then begin
      (* someone else is moving this object; wait it out, serving the
         calling worker's queue, where that transfer's close may wait *)
      Mutex.unlock t.mu;
      claim (Shard_pool.relax t.executor tries)
    end
    else begin
      let source = home_of t key in
      if source = target then begin
        Mutex.unlock t.mu;
        None
      end
      else begin
        Hashtbl.replace t.migrating key ();
        Atomic.set word claimed;
        let xfer_id = t.next_xfer_id in
        t.next_xfer_id <- xfer_id + 1;
        (* the hop number is consumed even if the transfer aborts:
           gaps are harmless, reuse of a never-durable hop likewise *)
        let hop = 1 + Option.value ~default:0 (Hashtbl.find_opt t.hops key) in
        Hashtbl.replace t.hops key hop;
        Mutex.unlock t.mu;
        Some (source, xfer_id, hop)
      end
    end
  in
  match claim 0 with
  | None -> ()
  | Some (source, xfer_id, hop) ->
      (* the claim is ours to drop, back to the source, until the
         posted close takes it over *)
      let held = ref true in
      let release () =
        if !held then
          locked t (fun () ->
              Atomic.set word source;
              Hashtbl.remove t.migrating key)
      in
      Fun.protect ~finally:release @@ fun () ->
      let src = t.dbs.(source) and dst = t.dbs.(target) in
      (* 1. the whole source phase as one shard job, ending in the
         forced intent (admission-checked: Log_full means nothing
         happened and the migration is abandoned) *)
      let value, out_lsn =
        try
          exec t source (fun () ->
              (match Db.lock_holders src oid with
              | [] -> ()
              | holders ->
                  raise
                    (Errors.Xfer_refused
                       { oid; holders = List.map fst holders }));
              (* harden any group-pending commit so the carried value
                 is a durably committed one *)
              Db.flush_commits src;
              let value = Db.peek src oid in
              let out_lsn =
                Db.xfer_out src ~xfer_id ~hop ~oid ~target ~value
              in
              (value, out_lsn))
        with Errors.Xfer_refused _ as e ->
          locked t (fun () ->
              t.migrations_refused <- t.migrations_refused + 1);
          Atomic.set t.refused.(target) true;
          raise e
      in
      (* the intent is durable and must stay readable until closed *)
      locked t (fun () ->
          Hashtbl.replace t.inflight xfer_id (source, out_lsn);
          update_pins t);
      (* 2. transfer record + value adoption on the target — the
         commit point of the migration *)
      let in_lsn =
        try exec t target (fun () -> Db.xfer_in dst ~xfer_id ~hop ~oid ~source ~value)
        with Log_store.Log_full _ as e ->
          (* target refused admission: nothing durable landed there,
             roll the intent back and re-raise *)
          locked t (fun () -> Hashtbl.remove t.inflight xfer_id);
          exec t source (fun () ->
              ignore (Db.xfer_end src ~xfer_id ~oid ~committed:false));
          locked t (fun () -> update_pins t);
          raise e
      in
      locked t (fun () ->
          Hashtbl.replace t.latest_in key (target, in_lsn);
          if target = base_home t oid then Hashtbl.remove t.homes key
          else Hashtbl.replace t.homes key target;
          t.migrations <- t.migrations + 1);
      (* 3. close the intent (reserved space — cannot die of Log_full) *)
      Atomic.set word target;
      held := false;
      let epoch = Atomic.get t.epoch in
      Shard_pool.post t.executor source (fun () ->
          (* a crash since the post voids the close: restart resolves
             the intent from the durable logs *)
          if Atomic.get t.epoch = epoch then
            Fun.protect
              ~finally:(fun () ->
                locked t (fun () ->
                    Hashtbl.remove t.inflight xfer_id;
                    update_pins t;
                    Hashtbl.remove t.migrating key))
              (fun () ->
                ignore (Db.xfer_end src ~xfer_id ~oid ~committed:true)))

(* --- the single-db API, routed --- *)

let begin_txn t ~shard =
  if shard < 0 || shard >= t.n then invalid_arg "Sharded.begin_txn: no shard";
  { shard; txn = exec t shard (fun () -> Db.begin_txn t.dbs.(shard)) }

let on_shard t fx f = exec t fx.shard (fun () -> f t.dbs.(fx.shard))
let commit t fx = on_shard t fx (fun db -> Db.commit db fx.txn)

(* A transaction whose transfer was refused steps back at its abort
   ([Shard_pool.pause]: on the domain pool, for a random moment of up
   to 400 µs, serving its worker's queue) before its caller can retry.
   Retrying at once livelocks two ways: two workers whose transactions
   each hold what the other's transfer needs refuse each other again in
   lockstep; and a holder waiting for the claim on an object it has
   already locked never sees the claim drop, because the retry
   re-claims the object first. The bound is several times the longest
   a claim waiter goes without looking. On the single-domain executor
   nothing runs meanwhile, so the pause is empty. *)
let abort t fx =
  on_shard t fx (fun db -> Db.abort db fx.txn);
  if Atomic.exchange t.refused.(fx.shard) false then Shard_pool.pause t.executor

let is_active t fx = on_shard t fx (fun db -> Db.is_active db fx.txn)
let savepoint t fx = on_shard t fx (fun db -> Db.savepoint db fx.txn)

let rollback_to t fx sp =
  on_shard t fx (fun db -> Db.rollback_to db fx.txn sp)

(* Migrate-on-touch: an op on an object homed elsewhere first pulls the
   object to the transaction's shard (its whole durable history of
   record: the committed value), then runs locally under the local lock
   table.

   The availability check runs INSIDE the shard job: per-shard
   single-threading then makes check + op atomic against the migration
   protocol's source phase, which runs as one job on the same worker.
   A check done on the calling domain instead would race a concurrent
   migration and apply the op to a stale copy. The check is one read of
   the object's availability word; the router mutex stays off this
   path. *)
let rec on_object t fx oid f =
  let word = avail t oid in
  let ran =
    exec t fx.shard (fun () ->
        if Atomic.get word = fx.shard then Some (f t.dbs.(fx.shard)) else None)
  in
  match ran with
  | Some v -> v
  | None ->
      (* homed elsewhere or mid-transfer: pull it here and retry *)
      migrate t oid ~target:fx.shard;
      on_object t fx oid f

let read t fx oid = on_object t fx oid (fun db -> Db.read db fx.txn oid)
let write t fx oid v = on_object t fx oid (fun db -> Db.write db fx.txn oid v)
let add t fx oid d = on_object t fx oid (fun db -> Db.add db fx.txn oid d)

let same_shard op a b =
  if a.shard <> b.shard then
    invalid_arg
      (Printf.sprintf
         "Sharded.%s: transactions live on different shards (%d and %d) — \
          delegate after migrating the work, not across live transactions"
         op a.shard b.shard)

let delegate t ~from_ ~to_ oid =
  same_shard "delegate" from_ to_;
  on_shard t from_ (fun db -> Db.delegate db ~from_:from_.txn ~to_:to_.txn oid)

let delegate_update t ~from_ ~to_ oid op_lsn =
  same_shard "delegate_update" from_ to_;
  on_shard t from_ (fun db ->
      Db.delegate_update db ~from_:from_.txn ~to_:to_.txn oid op_lsn)

let delegate_all t ~from_ ~to_ =
  same_shard "delegate_all" from_ to_;
  on_shard t from_ (fun db -> Db.delegate_all db ~from_:from_.txn ~to_:to_.txn)

let permit t ~holder ~grantee =
  same_shard "permit" holder grantee;
  on_shard t holder (fun db ->
      Db.permit db ~holder:holder.txn ~grantee:grantee.txn)

let responsible_objects t fx =
  on_shard t fx (fun db -> Db.responsible_objects db fx.txn)

(* --- whole-engine operations --- *)

let each t f = Array.iteri (fun i db -> exec t i (fun () -> f db)) t.dbs

let sum t f =
  let acc = ref 0 in
  Array.iteri (fun i db -> acc := !acc + exec t i (fun () -> f db)) t.dbs;
  !acc

let flush_commits t = each t Db.flush_commits
let checkpoint t = each t Db.checkpoint
let truncate_log t = sum t Db.truncate_log
let crash t =
  Atomic.incr t.epoch;
  each t Db.crash
let shutdown t = each t Db.shutdown
let close t = each t Db.close

let envs t = List.init t.n (fun i -> (i, Db.env t.dbs.(i)))

(* Restart: per-shard recovery (in parallel on the domain pool — each
   shard's log is independent), then cross-shard resolution of
   in-doubt transfers, then routing-table reconstruction from the
   durable logs alone. With [config.audit] set, the cross-shard
   transfer audit runs after resolution (each shard's own restart
   self-audit already ran inside [Db.recover]). *)
let recover t =
  let reports = Shard_pool.map t.executor (fun i -> Db.recover t.dbs.(i)) in
  locked t (fun () ->
      let envs = envs t in
      let res, rb = Xfer.recover envs ~base:(base_home t) in
      t.resolved_forward <- t.resolved_forward + res.Xfer.rolled_forward;
      t.resolved_back <- t.resolved_back + res.Xfer.rolled_back;
      Hashtbl.reset t.homes;
      Hashtbl.iter (Hashtbl.replace t.homes) rb.Xfer.homes;
      Hashtbl.reset t.hops;
      Hashtbl.iter (Hashtbl.replace t.hops) rb.Xfer.last_hops;
      Hashtbl.reset t.latest_in;
      Hashtbl.iter (Hashtbl.replace t.latest_in) rb.Xfer.last_ins;
      Hashtbl.reset t.inflight;
      Hashtbl.reset t.migrating;
      Array.iteri (fun key w -> Atomic.set w (home_of t key)) t.avail;
      t.next_xfer_id <- max t.next_xfer_id rb.Xfer.next_xfer_id;
      update_pins t;
      if t.config.Config.audit then
        match Audit.check_transfers envs with
        | [] -> ()
        | vs -> raise (Audit.Audit_failed vs));
  reports

(* On-demand restart, routed: each shard drains its own backlog, so the
   forward pass is partitioned by shard AND each shard is incrementally
   available — an access refused on one shard never blocks the rest. *)
let recovering t = sum t (fun db -> if Db.recovering db then 1 else 0) > 0
let recovery_backlog t = sum t Db.recovery_backlog

let recovery_step t =
  Array.exists Fun.id
    (Shard_pool.map t.executor (fun i -> Db.recovery_step t.dbs.(i)))

let await_recovery t =
  ignore (Shard_pool.map t.executor (fun i -> Db.await_recovery t.dbs.(i)))

(* The checks below read the log; a record that no longer decodes is a
   failed check, not an exception out of the checker. *)
let totally f ~corrupt =
  try f ()
  with Log_store.Corrupt_record _ as e ->
    corrupt (Format.asprintf "%a" Errors.pp_exn e)

let check_transfers t =
  locked t (fun () ->
      totally (fun () -> Audit.check_transfers (envs t)) ~corrupt:(fun m -> [ m ]))

let audit t =
  let per_shard =
    List.concat (Array.to_list (Array.mapi
      (fun i db -> List.map (Printf.sprintf "shard %d: %s" i)
                     (exec t i (fun () ->
                          totally (fun () -> Db.audit db) ~corrupt:(fun m -> [ m ]))))
      t.dbs))
  in
  per_shard @ check_transfers t

let validate t =
  let errs = ref [] in
  Array.iteri
    (fun i db ->
      match
        exec t i (fun () ->
            totally (fun () -> Db.validate db) ~corrupt:Result.error)
      with
      | Ok () -> ()
      | Error m -> errs := Printf.sprintf "shard %d: %s" i m :: !errs)
    t.dbs;
  (match check_transfers t with
  | [] -> ()
  | vs -> errs := vs @ !errs);
  (* every shard job above ran after the closes posted before it *)
  (match
     locked t (fun () -> (Hashtbl.length t.migrating, Hashtbl.length t.inflight))
   with
  | 0, 0 -> ()
  | claims, intents ->
      errs :=
        Printf.sprintf "router: %d transfer claim(s) and %d in-flight intent(s) outstanding"
          claims intents
        :: !errs);
  match !errs with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

let peek t oid =
  let h = home t oid in
  exec t h (fun () -> Db.peek t.dbs.(h) oid)

let peek_all t =
  Array.init t.config.Config.n_objects (fun i -> peek t (Oid.of_int i))

let active_count t = sum t Db.active_count
