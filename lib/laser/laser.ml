(* Sharded, read-mostly Laser store.

   Readers never take a lock: the whole keyspace is one immutable
   array of per-shard persistent maps in a [Cm_parallel.Snapshot],
   reached through a single atomic load.  Writers (the stream and
   MapReduce feeder pipelines) build the next array off to the side
   and publish it with [Snapshot.update]'s compare-and-set; racing
   writers retry against the freshest root, so feeders on different
   domains never block each other and never block a reader.  The
   generation is the snapshot's publish count.

   Publishing the root as one value is also what makes
   [mapreduce_refresh] atomic: a reader holding the old root sees the
   complete old batch, a reader that loads the new root sees the
   complete new batch, and no interleaving ever exposes the dropped-
   but-not-yet-reloaded state the old mutable Hashtbl had.

   Reads are counted in one [Cm_parallel.Per_domain] cell per domain:
   the sum is approximate while readers run and exact once they
   quiesce. *)

module Smap = Map.Make (String)
module Snapshot = Cm_parallel.Snapshot
module Per_domain = Cm_parallel.Per_domain

type t = {
  nshards : int;
  root : float Smap.t array Snapshot.t;  (* immutable once published *)
  reads : int ref Per_domain.t;
}

let shard_of t key = Hashtbl.hash key mod t.nshards

let create ?(shards = 16) () =
  let nshards = max 1 shards in
  {
    nshards;
    root = Snapshot.make (Array.make nshards Smap.empty);
    reads = Per_domain.create (fun () -> ref 0);
  }

let get t key =
  incr (Per_domain.get t.reads);
  Smap.find_opt key (Snapshot.get t.root).(shard_of t key)

let size t =
  Array.fold_left (fun acc shard -> acc + Smap.cardinal shard) 0 (Snapshot.get t.root)

let reads t = List.fold_left (fun acc n -> acc + !n) 0 (Per_domain.all t.reads)
let generation t = Snapshot.swaps t.root
let shard_count t = t.nshards
let shard_sizes t = Array.to_list (Array.map Smap.cardinal (Snapshot.get t.root))

(* Every writer maps the freshest shard array to a new one (it must
   copy, never mutate); a writer that loses the race re-derives its
   batch against the winner's root. *)
let put t key v =
  Snapshot.update t.root (fun shards ->
      let next = Array.copy shards in
      let s = shard_of t key in
      next.(s) <- Smap.add key v next.(s);
      next)

let stream_upsert t pairs =
  if pairs <> [] then
    Snapshot.update t.root (fun shards ->
        let next = Array.copy shards in
        List.iter
          (fun (k, v) ->
            let s = shard_of t k in
            next.(s) <- Smap.add k v next.(s))
          pairs;
        next)

let mapreduce_refresh t ~prefix pairs =
  let plen = String.length prefix in
  let under_prefix key =
    String.length key >= plen && String.sub key 0 plen = prefix
  in
  Snapshot.update t.root (fun shards ->
      let next =
        Array.map
          (fun shard -> Smap.filter (fun key _ -> not (under_prefix key)) shard)
          shards
      in
      List.iter
        (fun (k, v) ->
          let s = shard_of t k in
          next.(s) <- Smap.add k v next.(s))
        pairs;
      next)
