(** Restart resolution of cross-shard transfers.

    Run by the [Sharded] router after every shard's own recovery has
    finished. The commit point of a transfer is the durable presence of
    the [Xfer_in] on the target shard: resolution closes every in-doubt
    [Xfer_out] forward (matching transfer-in exists) or backward (it
    does not) by appending the missing [Xfer_end] through the reserved
    log headroom. Idempotent at every crash point — re-running after a
    crash mid-resolution re-derives the same verdicts. *)

open Ariesrh_types

type resolution = { rolled_forward : int; rolled_back : int }

type rebuild = {
  homes : (int, int) Hashtbl.t;
      (** object (as int) -> current home shard; only objects living
          away from their base home appear *)
  next_xfer_id : int;  (** above every transfer id any log mentions *)
  last_hops : (int, int) Hashtbl.t;
      (** object (as int) -> highest transfer hop seen for it
          (aborted intents included — their hop number is consumed) *)
  last_ins : (int, int * Lsn.t) Hashtbl.t;
      (** object (as int) -> (shard, lsn) of the [Xfer_in] of its
          highest committed hop, where visible; what the router's
          truncation pin must keep readable *)
}

val recover : (int * Env.t) list -> base:(Oid.t -> int) -> resolution * rebuild
(** [recover shards ~base] over [(shard index, env)] for every shard:
    resolve every in-doubt intent, then reconstruct the router's
    volatile state from the durable logs alone. Transfers of one object
    are serialized, so the highest committed hop's target is its current
    home; [base oid] is the home of an object with no committed
    transfers. Reads only the transfer records, once per shard, through
    {!Ariesrh_wal.Log_store.iter_control}. *)
