(** An immutable value behind one [Atomic.t]: the read-mostly primitive
    of the check plane and the compile cache.  Readers do one atomic
    load and never take a lock; writers publish by compare-and-set and
    retry against the winner.  A superseded value lives as long as some
    reader still holds it; the GC, not this module, frees it. *)

type 'a t

val make : 'a -> 'a t

val get : 'a t -> 'a
(** The current value: one atomic load. *)

val update : 'a t -> ('a -> 'a) -> unit
(** [update t f] publishes [f current].  If another writer publishes
    first, [f] runs again on the newer value, so it must build a fresh
    value and never mutate its argument.  If [f] returns its argument
    (physically), nothing is published and {!swaps} does not move. *)

val swaps : 'a t -> int
(** Values published since {!make}. *)
