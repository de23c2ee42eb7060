(* The run record: what ran, where, and how fast the host was just
   before and just after.  The calibration kernel's speed is reported
   next to the metrics so a run on a slowed host is visible; it is
   never used to scale a metric. *)

(* The revision of the checkout, when it is a git work tree; the
   benchmark also runs from plain copies of the files. *)
let git_rev () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let ref_name = String.sub head 5 (String.length head - 5) in
      Option.value ~default:"unknown" (read (Filename.concat ".git" ref_name))
  | Some rev -> rev
  | None -> "unknown"

(* A fixed integer and allocation kernel: a hash chain through a small
   table plus short-lived boxed values, the mix the workloads run.
   Returns million kernel steps per second, the median of ten, after a
   first round that lets the CPU leave its idle clock. *)
let calibrate () =
  let steps = 4_000_000 in
  let table = Array.init 4096 (fun i -> (i * 7919) land 4095) in
  let once () =
    let acc = ref 0 and cells = ref [] in
    let (), seconds =
      Clock.time (fun () ->
          for i = 1 to steps do
            acc := table.((!acc + i) land 4095) lxor (!acc lsl 1);
            if i land 15 = 0 then cells := [ !acc ]
          done)
    in
    ignore (Sys.opaque_identity (!acc, !cells));
    float_of_int steps /. seconds /. 1e6
  in
  ignore (List.init 5 (fun _ -> once ()));
  Clock.median_of (List.init 10 (fun _ -> once ()))

let json ~workload ~seed ~seconds ~trace ~calib_before ~calib_after =
  Printf.sprintf
    "{\"run_record\": {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %b, \"cores\": %d, \"ocaml\": %S, \"git_rev\": %S, \"calib_msteps_before\": %.3f, \"calib_msteps_after\": %.3f, \"calib_drift\": %.4f}}"
    workload seed seconds trace (Domain.recommended_domain_count ()) Sys.ocaml_version
    (git_rev ()) calib_before calib_after (calib_after /. calib_before)
