(** The Gatekeeper runtime that production servers embed (§4).

    It loads project configs (delivered as live config updates), and
    serves [gk_check] at very high rates — the paper reports billions
    of checks per second site-wide (Figure 15) and notes the runtime
    "can leverage execution statistics (e.g., the execution time of a
    restraint and its probability of returning true) to guide
    efficient evaluation of the boolean tree", like an SQL engine's
    cost-based optimizer.

    {b Multicore design.}  [check] is lock-free and scales across
    OCaml domains: all compiled projects live in one immutable
    {!Cm_parallel.Snapshot}, so a reader does a single atomic load per
    check and never takes a lock or waits for a writer.  Config
    updates ([load]/[unload]) and ordering changes build the next
    snapshot off to the side and publish it with a compare-and-set,
    retrying against the winner if another writer published first.  A
    superseded snapshot is freed by the GC once no reader holds it.

    Execution statistics are accumulated in per-domain cells
    ({!Cm_parallel.Per_domain}; no shared counters on the hot path) and merged at reoptimize boundaries: the
    cost-based optimizer tracks each restraint's observed selectivity
    across all domains and orders every conjunction by
    [cost / P(short-circuit)] so the cheapest, most-likely-to-fail
    restraints run first.  Expensive restraints (laser lookups) are
    pushed last unless they almost always fail. *)

type t

val create :
  ?ctx:Restraint.ctx ->
  ?reoptimize_every:int ->
  ?clock:(unit -> float) ->
  ?exposures:Exposure.Log.t ->
  unit ->
  t
(** [reoptimize_every] checks {e per domain} between ordering
    re-derivations (default 1024).  [clock] stamps exposure records
    (default: constant 0.0 — pass [Unix.gettimeofday] or a simulator
    clock).  With [exposures], every check appends a pass/fail
    exposure record to the calling domain's buffer. *)

val load : t -> Project.t -> unit
(** Install or replace a project — what happens when its JSON config
    update reaches the server.  Publishes a new snapshot; concurrent
    checks keep running against the old one until the swap and are
    never blocked.  A reload keeps the learned evaluation ordering
    (when rule shapes match) but resets the project's statistics. *)

val load_json : t -> Cm_json.Value.t -> (unit, string) result
val unload : t -> string -> unit

val check : t -> string -> User.t -> bool
(** [check t project user]: optimized evaluation.  Unknown projects
    fail closed (false).  Lock-free: one atomic snapshot load, then
    pure reads of frozen tables; statistics land in the calling
    domain's private accumulator. *)

val check_naive : t -> string -> User.t -> bool
(** Written evaluation order; semantically identical to {!check} —
    the property the ablation test asserts.  Never triggers
    reoptimization, so statistics from naive-only runs are exactly
    reproducible regardless of how many domains produced them. *)

val checks_performed : t -> int
val project_names : t -> string list

val restraint_stats : t -> string -> (string * int * float) list
(** [(restraint name, evaluations, observed selectivity)] for every
    restraint of a project, in current evaluation order, merged across
    all domains.  Exact once the checking domains have quiesced. *)

val evaluated_restraints : t -> int
(** Total restraint evaluations across all domains — the work metric
    the cost-based ordering minimizes. *)

val evaluated_cost : t -> float
(** Total static cost of evaluated restraints, merged across domains. *)

val reoptimize : t -> unit
(** Force a statistics merge and publish re-derived orderings now
    (checks trigger this automatically every [reoptimize_every]). *)

(** {1 Multicore observability} *)

val domains_seen : t -> int
(** Domains that have ever called [check] on this runtime. *)

val snapshot_swaps : t -> int
(** Snapshots published since creation: each [load], each
    [reoptimize] and each [unload] of a loaded project adds one. *)

val retained_snapshots : t -> int
(** Always 0.  Superseded snapshots are not tracked: one stays
    reachable only while a reader still holds it, and the GC frees it
    after that.  Kept so callers that report it keep working. *)

val exposure_log : t -> Exposure.Log.t option
