(** Laser: the flash/memory key-value store Gatekeeper integrates with
    (§4).  The "laser()" restraint calls [get "<project>-<user_id>"]
    and passes when the value exceeds a configurable threshold.

    Data arrives through bulk pipelines that model the paper's two
    feeders: a stream-processing job (incremental upserts) and a
    periodic MapReduce job (full refresh of a keyspace).

    The store is built for multicore readers: the keyspace is sharded
    by key hash into immutable sub-tables held in one
    {!Cm_parallel.Snapshot}, so [get] is lock-free (a single atomic
    load plus a pure lookup) and feeder pipelines publish with a
    compare-and-set that never blocks readers or other feeders.  [mapreduce_refresh]
    publishes its drop-and-reload as one swap, so a concurrent reader
    sees either the complete old batch or the complete new one — never
    a half-empty keyspace. *)

type t

val create : ?shards:int -> unit -> t
(** [shards] sub-tables keyed by hash (default 16). *)

val get : t -> string -> float option
val put : t -> string -> float -> unit

val size : t -> int
val reads : t -> int
(** Number of [get] calls served — Gatekeeper uses this to expose the
    cost of data-intensive restraints.  Counted in one cell per domain
    ({!Cm_parallel.Per_domain}) without synchronization: approximate
    while readers are running, exact once they quiesce. *)

val generation : t -> int
(** Publishes since creation; each feeder batch bumps it by one. *)

val shard_count : t -> int
val shard_sizes : t -> int list
(** Keys per shard in the current snapshot (hash balance check). *)

(** {1 Pipelines} *)

val stream_upsert : t -> (string * float) list -> unit
(** Incremental load from a stream-processing job.  One atomic
    publish for the whole batch. *)

val mapreduce_refresh : t -> prefix:string -> (string * float) list -> unit
(** Full refresh: drops every key under [prefix] and loads the new
    batch in a single atomic root swap — rerunning the MapReduce job
    for all users without ever exposing a partially-empty keyspace to
    concurrent readers. *)
