(* Monotonic wall clock, sample sets and GC counters shared by the
   workloads.  Every timing the benchmark reports is a median or a p90
   of samples kept here, never a mean. *)

let origin = Monotonic_clock.now ()

(* Seconds since the process started, from CLOCK_MONOTONIC. *)
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  r, now () -. t0

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  (* The nearest-rank element, rank rounded; [nan] when empty. *)
  let quantile t q =
    let sorted = Array.sub t.data 0 t.n in
    Array.sort Float.compare sorted;
    Cm_trace.Tracer.percentile sorted q

  let median t = quantile t 0.5
end

let median_of xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.median s

(* Allocation and collection counters over one timed phase. *)
type gc = { minor_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_since g0 =
  let g = gc_now () in
  {
    minor_words = g.minor_words -. g0.minor_words;
    major_collections = g.major_collections - g0.major_collections;
  }

(* Current major heap in MB.  The workloads keep the maximum over a
   fixed window of ops, so the peak does not grow with throughput. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Let caches fill and lazy set-up finish, then start the timed phase
   from a compacted heap. *)
let settle () = Gc.compact ()

(* Run [setup] [times] times from a compacted heap; the last result and
   the median set-up time. *)
let repeat_setup ~times setup =
  let rec go k acc =
    settle ();
    let r, seconds = time setup in
    if k <= 1 then r, median_of (seconds :: acc) else go (k - 1) (seconds :: acc)
  in
  go times []
