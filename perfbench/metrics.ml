(* Metric names, units and the result line.  The lists here are the
   ones BENCHMARK.json declares; [result_line] refuses to print a run
   that is missing one of them. *)

let end_to_end =
  [
    "setup_s", "s";
    "ops_per_s", "1/s";
    "latency_us_p50", "us";
    "latency_us_p90", "us";
    "fleet_visible_ms_p50", "ms";
    "fleet_visible_ms_p90", "ms";
    "flip_visible_us_p50", "us";
    "flip_visible_us_p90", "us";
    "peak_heap_mb", "MB";
    "repo_bytes_per_land", "bytes";
  ]

let per_layer =
  [
    "source_tree.copy_us", "us";
    "depgraph.copy_us", "us";
    "compiler.closure_hash_us", "us";
    "compiler.compile_all_s", "s";
    "compiler.compile_affected_us", "us";
    "compiler.cone_configs", "count";
    "compiler.cache_hit_ratio", "ratio";
    "verify.run_us", "us";
    "verify.checks_per_op", "count";
    "sandcastle.run_us", "us";
    "risk.assess_us", "us";
    "canary.run_us", "us";
    "parallel.fanout_us", "us";
    "vcs.commit_us", "us";
    "vcs.read_file_us", "us";
    "vcs.bytes_per_commit", "bytes";
    "vcs.objects_per_commit", "count";
    "tailer.poll_us", "us";
    "tailer.writes_per_op", "count";
    "tailer.poll_wait_ms", "ms";
    "zeus.deliver_us", "us";
    "zeus.msgs_per_op", "count";
    "zeus.bytes_per_op", "bytes";
    "zeus.batch_wait_ms", "ms";
    "zeus.fanout_ms", "ms";
    "zeus.fetch_ms", "ms";
    "sim.events_per_op", "count";
    "sim.step_us", "us";
    "client.decodes_per_op", "count";
    "json.parse_us", "us";
    "gatekeeper.check_us", "us";
    "gatekeeper.of_json_us", "us";
    "gatekeeper.load_us", "us";
    "gatekeeper.restraints_per_check", "count";
    "gatekeeper.snapshot_swaps", "count";
    "gatekeeper.retained_snapshots", "count";
    "laser.stream_upsert_us", "us";
    "laser.mapreduce_refresh_us", "us";
    "gc.minor_words_per_op", "words";
    "gc.major_collections_per_op", "count";
    "failed_ratio", "ratio";
    "trace.coverage", "ratio";
    "trace.overhead_ratio", "ratio";
  ]

(* Per-layer names the workloads fill with 0 when the layer is not on
   their path; every other per-layer metric is measured on every
   workload. *)
let land_only =
  [
    "source_tree.copy_us"; "depgraph.copy_us"; "compiler.closure_hash_us";
    "compiler.compile_all_s"; "compiler.compile_affected_us"; "compiler.cone_configs";
    "compiler.cache_hit_ratio"; "verify.run_us"; "verify.checks_per_op";
    "sandcastle.run_us"; "risk.assess_us"; "canary.run_us"; "parallel.fanout_us";
    "sim.step_us";
  ]

let storm_only =
  [
    "zeus.deliver_us"; "gatekeeper.check_us"; "gatekeeper.of_json_us"; "gatekeeper.load_us";
    "gatekeeper.restraints_per_check"; "gatekeeper.snapshot_swaps";
    "gatekeeper.retained_snapshots"; "laser.stream_upsert_us";
    "laser.mapreduce_refresh_us";
  ]

let absent names = List.map (fun n -> n, 0.0) names

(* Per-layer spans of a traced run, on the monotonic clock.  One trace
   per op; a span per layer call made from the benchmark's side of the
   layer's public interface. *)
module Layer = struct
  module Tracer = Cm_trace.Tracer

  type t = {
    tracer : Tracer.t;
    counts : (string, Clock.Samples.t) Hashtbl.t;
    mutable ctx : Tracer.ctx;
  }

  let create () =
    { tracer = Tracer.create ~now:Clock.now (); counts = Hashtbl.create 16; ctx = Tracer.none }

  let start_op t name = t.ctx <- Tracer.new_trace t.tracer ~name

  let span t name f =
    let t0 = Clock.now () in
    let r = f () in
    ignore (Tracer.span t.tracer t.ctx ~name ~t0 ~t1:(Clock.now ()) ());
    r

  let maybe t name f = match t with Some t -> span t name f | None -> f ()

  let count t name v =
    let s =
      match Hashtbl.find_opt t.counts name with
      | Some s -> s
      | None ->
          let s = Clock.Samples.create () in
          Hashtbl.add t.counts name s;
          s
    in
    Clock.Samples.add s v

  (* Median of a counted quantity over ops; 0 when never counted. *)
  let count_p50 t name =
    match Hashtbl.find_opt t.counts name with
    | Some s when Clock.Samples.count s > 0 -> Clock.Samples.median s
    | _ -> 0.0

  (* Median span duration per hop name, in microseconds. *)
  let p50_us t =
    let table = Hashtbl.create 16 in
    List.iter
      (fun h -> Hashtbl.replace table h.Tracer.hop (h.Tracer.p50 *. 1e6))
      (Tracer.hop_stats t.tracer);
    fun name -> Option.value ~default:0.0 (Hashtbl.find_opt table name)
end

(* Simulated-time hop medians (ms) from the tracer attached to a
   workload's net. *)
let sim_hops tracer =
  let hops = [ "tailer.poll_wait"; "zeus.batch_wait"; "zeus.fanout"; "zeus.fetch" ] in
  let stats = Cm_trace.Tracer.hop_stats ~hops tracer in
  List.map
    (fun hop ->
      let p50 =
        match List.find_opt (fun h -> h.Cm_trace.Tracer.hop = hop) stats with
        | Some h -> h.Cm_trace.Tracer.p50 *. 1000.0
        | None -> 0.0
      in
      hop ^ "_ms", p50)
    hops

type result = {
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~trace r =
  let wanted = if trace then per_layer else end_to_end in
  let metric (name, unit) =
    match List.assoc_opt name r.values with
    | Some v when Float.is_finite v ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
    | Some _ -> invalid_arg ("metric is not finite: " ^ name)
    | None -> invalid_arg ("metric missing: " ^ name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric wanted))
