(** One private cell per domain, plus every cell ever made: the
    per-domain counters and buffers of the check plane.  A domain reads and
    writes its own cell with no synchronization; aggregates fold over
    {!all} and are exact once the writing domains have quiesced. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create init]: a domain's cell is [init ()], made the first time
    that domain calls {!get}. *)

val get : 'a t -> 'a
(** The calling domain's cell. *)

val all : 'a t -> 'a list
(** Every cell made so far, newest first.  The cell of a domain that
    has exited stays here, so its counts are never lost. *)
