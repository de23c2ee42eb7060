(* Tiny-size runs of every workload: each emits every named metric,
   finite and with its unit, the end-to-end ones non-zero, and two runs
   with one seed agree bit for bit on the exact (simulated-time, byte
   and count) metrics.  The metric lists are the ones BENCHMARK.json
   declares. *)

open Perfbench

let workloads = [ "land-wide", Land.run; "gk-storm", Storm.run ]

let run name ~trace ~seed =
  (List.assoc name workloads) ~tiny:true ~seed ~seconds:0.2 ~trace

let value r name =
  match List.assoc_opt name r.Metrics.values with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing" name

let emits_every_metric name ~trace () =
  let r = run name ~trace ~seed:7 in
  Alcotest.(check int) "no failed operation" 0 r.Metrics.failed;
  Alcotest.(check bool) "attempted at least one" true (r.Metrics.attempted >= 1);
  let line = Metrics.result_line ~trace r in
  List.iter
    (fun (metric, unit) ->
      let v = value r metric in
      if not (Float.is_finite v) then Alcotest.failf "%s is not finite" metric;
      if (not trace) && v <= 0.0 then Alcotest.failf "end-to-end %s is %g" metric v;
      let needle = Printf.sprintf "%S: {\"value\": " metric in
      let unit_field = Printf.sprintf "\"unit\": %S}" unit in
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      if not (contains line needle && contains line unit_field) then
        Alcotest.failf "%s not printed with unit %s" metric unit)
    (if trace then Metrics.per_layer else Metrics.end_to_end)

let exact_metrics ~trace =
  if trace then [ "sim.events_per_op"; "vcs.bytes_per_commit" ]
  else [ "repo_bytes_per_land"; "fleet_visible_ms_p50"; "fleet_visible_ms_p90" ]

let exact_repeats name ~trace () =
  let a = run name ~trace ~seed:11 and b = run name ~trace ~seed:11 in
  List.iter
    (fun metric ->
      let va = value a metric and vb = value b metric in
      if Int64.bits_of_float va <> Int64.bits_of_float vb then
        Alcotest.failf "%s differs between identical runs: %.17g vs %.17g" metric va vb)
    (exact_metrics ~trace)

(* BENCHMARK.json at the root of the checkout names the same workloads,
   and the same metrics with the same units in the same order, as the
   benchmark code. *)
let benchmark_json =
  lazy
    (let ic = open_in_bin "../BENCHMARK.json" in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () -> Cm_json.Parser.parse_exn (really_input_string ic (in_channel_length ic))))

let declared section key =
  let str k m = Option.bind (Cm_json.Value.member k m) Cm_json.Value.to_string in
  match Option.bind (Cm_json.Value.member section (Lazy.force benchmark_json)) Cm_json.Value.to_list with
  | Some entries ->
      List.map
        (fun m ->
          match str "name" m, str key m with
          | Some name, Some v -> name, v
          | _ -> Alcotest.failf "%s entry without name or %s" section key)
        entries
  | None -> Alcotest.failf "BENCHMARK.json has no %s list" section

let matches_benchmark_json () =
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Metrics.end_to_end (declared "end_to_end" "unit");
  Alcotest.check pairs "per_layer" Metrics.per_layer (declared "per_layer" "unit");
  Alcotest.(check (list string))
    "workloads" (List.map fst workloads)
    (List.map fst (declared "workloads" "why"))

let () =
  Alcotest.run "perfbench"
    (( "benchmark.json", [ Alcotest.test_case "declares the emitted metrics" `Quick matches_benchmark_json ] )
    :: List.map
       (fun (name, _) ->
         ( name,
           [
             Alcotest.test_case "emits every end-to-end metric" `Quick
               (emits_every_metric name ~trace:false);
             Alcotest.test_case "emits every per-layer metric" `Quick
               (emits_every_metric name ~trace:true);
             Alcotest.test_case "exact end-to-end metrics repeat" `Quick
               (exact_repeats name ~trace:false);
             Alcotest.test_case "exact per-layer metrics repeat" `Quick
               (exact_repeats name ~trace:true);
           ] ))
       workloads)
