(* The value and its publish count travel together in one immutable
   record, so a reader never sees a count that disagrees with the
   value it came with, and the CAS compares a fresh record per
   publish (never a value two writers could share). *)

type 'a version = { value : 'a; swaps : int }
type 'a t = 'a version Atomic.t

let make value = Atomic.make { value; swaps = 0 }
let get t = (Atomic.get t).value
let swaps t = (Atomic.get t).swaps

let rec update t f =
  let old = Atomic.get t in
  let value = f old.value in
  if value != old.value
     && not (Atomic.compare_and_set t old { value; swaps = old.swaps + 1 })
  then update t f
