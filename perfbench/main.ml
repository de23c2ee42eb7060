(* The benchmark's one command:

     main.exe --workload <land-wide|gk-storm> --seed <n>
              --seconds <s> --trace <0|1>

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones.  Earlier stdout lines carry the run record; the last
   line is the result object. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <land-wide|gk-storm> --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref false in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_arg n; parse rest
    | "--seconds" :: n :: rest -> seconds := int_arg n; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seconds < 1 then usage ();
  let run =
    match !workload with
    | "land-wide" -> Perfbench.Land.run
    | "gk-storm" -> Perfbench.Storm.run
    | _ -> usage ()
  in
  let calib_before = Perfbench.Record.calibrate () in
  let result =
    run ~tiny:false ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:!trace
  in
  let calib_after = Perfbench.Record.calibrate () in
  print_endline
    (Perfbench.Record.json ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
       ~calib_before ~calib_after);
  print_endline (Perfbench.Metrics.result_line ~trace:!trace result)
