(* The landing workload: a closed loop of one client proposing config
   changes through the whole pipeline (compile -> verify -> sandcastle
   -> review -> canary -> landing strip -> repository) and waiting
   until every subscribed application client holds the new bytes
   (tailer -> Zeus -> proxy -> client).

   A few hundred typed configs import a handful of shared modules.
   Each op edits one module, so 1/[groups] of the tree recompiles,
   verifies and goes through sandcastle.  The pipeline runs with
   [jobs = 1]: on a host shared with other tenants a second domain
   waits on the first at every minor collection and fan-out join, so
   the landing time measured the scheduler (and was slower).  The
   traced run times the domain pool's fan-out on a pool of its own.

   The seed fixes the initial values, which module each op edits and
   the new value; the shape of the tree, and so the work per op, is
   the same for every seed. *)

module ST = Core.Source_tree
module Pipeline = Core.Pipeline
module Compiler = Core.Compiler
module Depgraph = Core.Depgraph
module Client = Core.Client
module Defense = Core.Defense
module Engine = Cm_sim.Engine
module Net = Cm_sim.Net
module Rng = Cm_sim.Rng
module Repo = Cm_vcs.Repo
module Store = Cm_vcs.Store
module Verify = Cm_verify.Verify
module Pool = Cm_parallel.Pool
module Layer = Metrics.Layer
module Samples = Clock.Samples

type size = {
  configs : int;
  groups : int;  (* shared modules *)
  nclients : int;
  exact_ops : int;  (* ops whose simulated/byte metrics are reported *)
  epoch_ops : int;  (* landings on one set-up before a fresh one *)
  setups : int;
}

let size ~tiny =
  if tiny then { configs = 48; groups = 8; nclients = 4; exact_ops = 4; epoch_ops = 2; setups = 1 }
  else { configs = 400; groups = 8; nclients = 16; exact_ops = 128; epoch_ops = 128; setups = 15 }

let warmup_ops = 3

(* --- the source trees ------------------------------------------------ *)

let svc_thrift =
  "struct Svc {\n  1: required i32 id;\n  2: i32 port;\n  3: i32 weight;\n  4: i32 replicas;\n  5: string owner;\n}\n"

let svc_validator =
  "def validate(cfg) = cfg.port >= 7000 and cfg.port < 16000 and cfg.replicas >= 1\n"

let module_path k = Printf.sprintf "modules/m%02d.cinc" k
let module_source k v = Printf.sprintf "M%02d = %d\n" k v
let wide_path i = Printf.sprintf "configs/svc_%04d.cconf" i

let wide_source ~groups i =
  let k = i mod groups in
  Printf.sprintf
    "import_thrift \"schemas/svc.thrift\"\nimport \"%s\"\nexport Svc { id = %d, port = %d, weight = M%02d * 3 + %d, replicas = %d, owner = \"team%02d\" }\n"
    (module_path k) i (7000 + i) k i ((i mod 5) + 1) k

(* --- state ------------------------------------------------------------ *)

type t = {
  sz : size;
  rng : Rng.t;  (* op generator *)
  values : int array;  (* current value per module *)
  engine : Engine.t;
  net : Net.t;
  pipeline : Pipeline.t;
  registry : Verify.t;
  clients : Client.t array;
  subs : (int * string) array;  (* (client, artifact path) *)
  subs_of_path : (string, int list) Hashtbl.t;
  expected : string array;
  waiting : bool array;
  mutable outstanding : int;
  mutable last_arrival : float;
  schema : Cm_thrift.Schema.t;  (* what the applications are compiled against *)
  mutable failed : int;
  mutable parse_layer : Layer.t option;
}

let registry () =
  let r = Verify.standard () in
  Verify.register_invariant r ~name:"ids-distinct" ~prefix:"configs/" (fun cone ->
      let ids = List.filter_map (fun c -> Cm_json.Value.member "id" c.Compiler.json) cone in
      Defense.finding
        ~ok:(List.length (List.sort_uniq compare ids) = List.length ids)
        "ids pairwise distinct");
  Verify.register_test r ~name:"port-in-range" ~prefix:"configs/" (fun c ->
      match Cm_json.Value.member "port" c.Compiler.json with
      | Some (Cm_json.Value.Int p) when p >= 7000 && p < 16_000 ->
          Defense.finding ~ok:true "port in range"
      | _ -> Defense.finding ~ok:false ~at:c.Compiler.artifact_path "bad port");
  r

let tree_of sz rng =
  let values = Array.init sz.groups (fun _ -> Rng.int rng 1000) in
  let files =
    [ "schemas/svc.thrift", svc_thrift; "schemas/Svc.thrift-cvalidator", svc_validator ]
    @ List.init sz.groups (fun k -> module_path k, module_source k values.(k))
    @ List.init sz.configs (fun i -> wide_path i, wide_source ~groups:sz.groups i)
  in
  ST.of_alist files, values

(* Which artifacts each client watches: one importer of every module. *)
let subscriptions sz =
  Array.concat
    (List.init sz.nclients (fun c ->
         Array.init sz.groups (fun k ->
             c, Compiler.artifact_path_of (wide_path (k + (sz.groups * c))))))

let on_arrival st i data =
  if st.waiting.(i) && String.equal data st.expected.(i) then begin
    st.waiting.(i) <- false;
    st.outstanding <- st.outstanding - 1;
    st.last_arrival <- Engine.now st.engine;
    let c, path = st.subs.(i) in
    (* The application sees the change once the client hands it the
       config decoded under the application's compiled-in schema. *)
    if Result.is_error (Client.get_typed st.clients.(c) ~schema:st.schema ~type_name:"Svc" path)
    then st.failed <- st.failed + 1;
    Option.iter
      (fun layer -> ignore (Layer.span layer "json.parse" (fun () -> Cm_json.Parser.parse data)))
      st.parse_layer
  end

let drain st = Fleet.drain st.engine ~waiting:(fun () -> st.outstanding > 0)

let expect st i =
  let _, path = st.subs.(i) in
  match Repo.read_file (Pipeline.repo st.pipeline) path with
  | Some bytes ->
      st.expected.(i) <- bytes;
      let c, _ = st.subs.(i) in
      if Client.get_raw st.clients.(c) path <> Some bytes && not st.waiting.(i) then begin
        st.waiting.(i) <- true;
        st.outstanding <- st.outstanding + 1
      end
  | None -> st.failed <- st.failed + 1

let setup sz ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let tree, values = tree_of sz rng in
  let engine = Engine.create ~seed:(Int64.of_int (seed + 1)) () in
  let topo = Cm_sim.Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:8 in
  let net = Net.create engine topo in
  let zeus = Cm_zeus.Service.create net in
  let pipeline = Pipeline.create ~jobs:1 net zeus tree in
  let registry = registry () in
  Verify.attach registry pipeline;
  Pipeline.bootstrap pipeline;
  Pipeline.start pipeline;
  let clients =
    Array.init sz.nclients (fun c ->
        Client.create zeus ~node:(((2 * c) + 1) mod Cm_sim.Topology.node_count topo))
  in
  let subs = subscriptions sz in
  let subs_of_path = Hashtbl.create 64 in
  Array.iteri
    (fun i (_, path) ->
      Hashtbl.replace subs_of_path path
        (i :: Option.value ~default:[] (Hashtbl.find_opt subs_of_path path)))
    subs;
  let st =
    {
      sz; rng; values; engine; net; pipeline; registry; clients; subs; subs_of_path;
      expected = Array.make (Array.length subs) "";
      waiting = Array.make (Array.length subs) false;
      outstanding = 0;
      last_arrival = 0.0;
      schema = Cm_thrift.Idl.parse_exn svc_thrift;
      failed = 0;
      parse_layer = None;
    }
  in
  Array.iteri
    (fun i (c, path) ->
      Client.want clients.(c) path;
      Client.subscribe_raw clients.(c) path (on_arrival st i))
    subs;
  Array.iteri (fun i _ -> expect st i) subs;
  if not (drain st) then st.failed <- st.failed + 1;
  st

(* The next change: a new value for one module. *)
let next_change st =
  let slot = Rng.int st.rng (Array.length st.values) in
  let v = st.values.(slot) + 1 + Rng.int st.rng 97 in
  st.values.(slot) <- v;
  [ module_path slot, module_source slot v ]

(* --- per-layer probes (traced run) -------------------------------------- *)

(* Re-run each stage of the landing just made through the layer's
   public interface, on private copies, and time it.  Nothing here
   touches the live pipeline's state, so the simulation (and every
   exact metric) is the same traced or untraced. *)
type probes = {
  layer : Layer.t;
  shadow : Repo.t;  (* a copy of the repository that re-applies each commit *)
  probe_registry : Verify.t;
  probe_sandcastle : Core.Sandcastle.t;
  topo : Cm_sim.Topology.t;
  pool : Pool.t;  (* one domain per core, for the fan-out probe *)
  idle : Engine.t;  (* a fleet with the same proxies and nothing to distribute *)
}

let make_probes st =
  let repo = Pipeline.repo st.pipeline in
  let shadow = Repo.create () in
  ignore
    (Repo.commit shadow ~author:"bootstrap" ~message:"initial import" ~timestamp:0.0
       (List.map (fun path -> path, Repo.read_file repo path) (Repo.ls repo)));
  {
    layer = Layer.create ();
    shadow;
    probe_registry = registry ();
    probe_sandcastle = Core.Sandcastle.create ();
    topo = Net.topology st.net;
    pool = Pool.create ~domains:(Pool.recommended_domains ()) ();
    idle =
      (let engine = Engine.create ~seed:1L () in
       let zeus = Cm_zeus.Service.create (Net.create engine (Net.topology st.net)) in
       Array.iter (fun c -> ignore (Client.create zeus ~node:(Client.node c))) st.clients;
       engine);
  }

let coverage_layers =
  [
    "source_tree.copy"; "depgraph.copy"; "compiler.compile_affected"; "verify.run";
    "sandcastle.run"; "risk.assess"; "vcs.read_file"; "vcs.commit"; "canary.run"; "sim.step";
  ]

(* [sim_seconds]: how far the landing moved the simulated clock (review
   delay, canary, commit); the fleet's periodic timers fire all along. *)
let probe st pr ~changes ~old_texts ~prev_head ~oid ~sim_seconds =
  let p = st.pipeline in
  let repo = Pipeline.repo p in
  let live = Pipeline.compiler p in
  let span name f = Layer.span pr.layer name f in
  let changed = List.map fst changes in
  let clone = span "source_tree.copy" (fun () -> ST.copy (Pipeline.tree p)) in
  List.iter (fun (path, content) -> ST.write clone path content) changes;
  let dep = span "depgraph.copy" (fun () -> Depgraph.copy (Pipeline.depgraph p)) in
  let compiler, (compiled, _) =
    span "compiler.compile_affected" (fun () ->
        let compiler =
          Compiler.create ~validators:(Compiler.validators live)
            ~cache:(Compiler.Cache.create ()) ~depgraph:dep clone
        in
        compiler, Compiler.compile_affected ?pool:(Pipeline.pool p) compiler ~changed)
  in
  let cone = List.length compiled in
  span "compiler.closure_hash" (fun () ->
      List.iter (fun c -> ignore (Compiler.closure_hash live c.Compiler.config_path)) compiled);
  span "parallel.fanout" (fun () -> ignore (Pool.map_array pr.pool Fun.id (Array.make cone ())));
  span "verify.run" (fun () ->
      ignore
        (Verify.run pr.probe_registry
           {
             Pipeline.verify_changes = changes;
             verify_compiled = compiled;
             verify_tree = clone;
             verify_depgraph = Compiler.depgraph compiler;
             verify_repo = repo;
             verify_validators = Compiler.validators live;
             verify_pool = Pipeline.pool p;
           }));
  span "sandcastle.run" (fun () ->
      ignore (Core.Sandcastle.run ?pool:(Pipeline.pool p) pr.probe_sandcastle compiled));
  span "risk.assess" (fun () ->
      let now = Engine.now st.engine /. 86400.0 in
      List.iter2
        (fun (path, content) old_text ->
          let history = Core.Risk.history_of_repo repo (Pipeline.depgraph p) ~path ~now in
          ignore
            (Core.Risk.assess ~history ~now ~old_text ~new_text:content ~author:"bench" ()))
        changes old_texts);
  span "vcs.read_file" (fun () ->
      List.iter (fun c -> ignore (Repo.read_file repo c.Compiler.artifact_path)) compiled);
  let commit_changes =
    List.map (fun path -> path, Repo.read_file repo path) (Repo.changed_paths_of_commit repo oid)
  in
  span "vcs.commit" (fun () ->
      ignore
        (Repo.commit pr.shadow ~author:"bench" ~message:"shadow" ~timestamp:0.0 commit_changes));
  span "tailer.poll" (fun () -> Fleet.tailer_poll repo ~base:prev_head ~head:oid);
  span "canary.run" (fun () ->
      ignore
        (Core.Canary.run_sync (Engine.create ~seed:1L ()) pr.topo
           ~sampler:Pipeline.healthy_sampler));
  span "sim.step" (fun () -> Engine.run_for pr.idle sim_seconds);
  cone

(* --- the op loop -------------------------------------------------------- *)

type phase = {
  latency : Samples.t;  (* wall us per propose_sync *)
  flip : Samples.t;  (* wall us from the commit until every watching client holds the typed config *)
  visible : Samples.t;  (* simulated ms, commit -> every watching client *)
  repo_bytes : Samples.t;  (* store growth per landing *)
  rates : Samples.t;  (* landings per wall second, one sample per whole epoch *)
  mutable ops : int;
  mutable wall : float;
  mutable peak_mb : float;  (* over the exact ops, so it does not grow with throughput *)
  mutable gc : Clock.gc;
}

let new_phase () =
  {
    latency = Samples.create ();
    flip = Samples.create ();
    visible = Samples.create ();
    repo_bytes = Samples.create ();
    rates = Samples.create ();
    ops = 0;
    wall = 0.0;
    peak_mb = 0.0;
    gc = Clock.gc_now ();
  }

(* One landing, start to fleet.  [exact] ops feed the simulated-time
   and byte metrics, which therefore repeat bit for bit per seed. *)
let op st ph ~exact ~probes =
  let p = st.pipeline in
  let repo = Pipeline.repo p in
  let changes = next_change st in
  let old_texts = List.map (fun (path, _) -> ST.read (Pipeline.tree p) path) changes in
  let prev_head = Repo.head repo in
  let counters () =
    Fleet.counters ~repo ~engine:st.engine ~net:st.net ~tailer:(Pipeline.tailer p)
      ~clients:st.clients
  in
  let c0 = counters () in
  let cache = Compiler.cache (Pipeline.compiler p) in
  let hits0 = Compiler.Cache.hits cache and misses0 = Compiler.Cache.misses cache in
  let checks0 = Verify.checks_run st.registry in
  Option.iter (fun pr -> Layer.start_op pr.layer "landing") probes;
  let sim0 = Engine.now st.engine in
  let outcome, seconds =
    Clock.time (fun () -> Pipeline.propose_sync p ~author:"bench" ~title:"bench edit" changes)
  in
  Samples.add ph.latency (seconds *. 1e6);
  (match outcome with
  | Pipeline.Rejected _ -> st.failed <- st.failed + 1
  | Pipeline.Landed oid ->
      let t_commit = Engine.now st.engine in
      let bytes = Store.total_bytes (Repo.store repo) - c0.Fleet.store_bytes in
      List.iter
        (fun path ->
          List.iter (expect st) (Option.value ~default:[] (Hashtbl.find_opt st.subs_of_path path)))
        (Repo.changed_paths_of_commit repo oid);
      let converged, seconds = Clock.time (fun () -> drain st) in
      Samples.add ph.flip (seconds *. 1e6);
      if not converged then st.failed <- st.failed + 1
      else if exact then begin
        Samples.add ph.visible ((st.last_arrival -. t_commit) *. 1000.0);
        Samples.add ph.repo_bytes (float_of_int bytes)
      end;
      Option.iter
        (fun pr ->
          let cone =
            probe st pr ~changes ~old_texts ~prev_head ~oid ~sim_seconds:(t_commit -. sim0)
          in
          if exact then begin
            let count name v = Layer.count pr.layer name (float_of_int v) in
            let hits = Compiler.Cache.hits cache - hits0
            and misses = Compiler.Cache.misses cache - misses0 in
            count "compiler.cone_configs" cone;
            Layer.count pr.layer "compiler.cache_hit_ratio"
              (if hits + misses = 0 then 0.0
               else float_of_int hits /. float_of_int (hits + misses));
            count "verify.checks_per_op" (Verify.checks_run st.registry - checks0);
            Fleet.count_change pr.layer c0 (counters ())
          end)
        probes);
  ph.ops <- ph.ops + 1;
  if exact then ph.peak_mb <- Float.max ph.peak_mb (Clock.heap_mb ())

let warm_up st =
  for _ = 1 to warmup_ops do
    op st (new_phase ()) ~exact:false ~probes:None
  done;
  Clock.settle ()

let run_phase st ~seconds ~min_ops ~probes =
  warm_up st;
  let ph = new_phase () in
  let t0 = Clock.now () in
  while Clock.now () -. t0 < seconds || ph.ops < min_ops do
    op st ph ~exact:(ph.ops < st.sz.exact_ops) ~probes
  done;
  ph.wall <- Clock.now () -. t0;
  ph.gc <- Clock.gc_since ph.gc;
  ph

(* After the last drain every watching client must hold the head's
   artifact bytes. *)
let final_check st =
  let repo = Pipeline.repo st.pipeline in
  Array.iter
    (fun (c, path) ->
      match Repo.read_file repo path with
      | Some bytes when Client.get_raw st.clients.(c) path = Some bytes -> ()
      | _ -> st.failed <- st.failed + 1)
    st.subs

(* The untraced loop runs in epochs of [epoch_ops] landings, each on a
   fresh set-up made off the clock.  The repository and the compiler's
   artifact cache keep everything every landing adds, so on one set-up
   the work per landing (and the heap) would grow with the number of
   landings a run gets through, that is with the host's speed.  Each
   whole epoch gives one throughput sample, so a few epochs slowed by
   the host move the median rate little.  Returns the phase, the
   failures of every epoch and the epoch count. *)
let run_epochs sz ~seed ~first ~seconds =
  let ph = new_phase () in
  let st = ref first and epochs = ref 1 and failed = ref 0 in
  warm_up first;
  let t0 = ref (Clock.now ()) in
  while ph.wall +. (Clock.now () -. !t0) < seconds || ph.ops < sz.exact_ops do
    op !st ph ~exact:(ph.ops < sz.exact_ops) ~probes:None;
    if ph.ops mod sz.epoch_ops = 0 then begin
      let epoch_wall = Clock.now () -. !t0 in
      ph.wall <- ph.wall +. epoch_wall;
      Samples.add ph.rates (float_of_int sz.epoch_ops /. epoch_wall);
      final_check !st;
      failed := !failed + !st.failed;
      st := setup sz ~seed:(seed + (!epochs * 7919));
      incr epochs;
      warm_up !st;
      t0 := Clock.now ()
    end
  done;
  ph.wall <- ph.wall +. (Clock.now () -. !t0);
  final_check !st;
  ph, !failed + !st.failed, !epochs

let run ~tiny ~seed ~seconds ~trace =
  let sz = size ~tiny in
  let min_ops = sz.exact_ops in
  if not trace then begin
    let st, setup_s = Clock.repeat_setup ~times:sz.setups (fun () -> setup sz ~seed) in
    let ph, failed, epochs = run_epochs sz ~seed ~first:st ~seconds in
    let q s p = Samples.quantile s p in
    {
      Metrics.attempted = ph.ops + (epochs * warmup_ops);
      failed;
      values =
        [
          "setup_s", setup_s;
          "ops_per_s", Samples.median ph.rates;
          "latency_us_p50", q ph.latency 0.5;
          "latency_us_p90", q ph.latency 0.9;
          "fleet_visible_ms_p50", q ph.visible 0.5;
          "fleet_visible_ms_p90", q ph.visible 0.9;
          "flip_visible_us_p50", q ph.flip 0.5;
          "flip_visible_us_p90", q ph.flip 0.9;
          "peak_heap_mb", ph.peak_mb;
          "repo_bytes_per_land", q ph.repo_bytes 0.5;
        ];
    }
  end
  else begin
    (* Traced phase first, so its exact counts cover the same ops as an
       untraced run's; then an untraced phase of equal length as the
       base for coverage and overhead.  One set-up: set-up time is an
       end-to-end metric and is not measured here. *)
    let st, _ = Clock.repeat_setup ~times:1 (fun () -> setup sz ~seed) in
    let net_tracer = Cm_trace.Tracer.create ~now:(fun () -> Engine.now st.engine) () in
    Net.set_tracer st.net net_tracer;
    let pr = make_probes st in
    let compile_all_s =
      let tree = ST.copy (Pipeline.tree st.pipeline) in
      snd (Clock.time (fun () -> Compiler.compile_all (Compiler.create tree)))
    in
    st.parse_layer <- Some pr.layer;
    let traced = run_phase st ~seconds:(seconds /. 2.0) ~min_ops ~probes:(Some pr) in
    st.parse_layer <- None;
    Cm_trace.Tracer.set_enabled net_tracer false;
    let plain = run_phase st ~seconds:(seconds /. 2.0) ~min_ops:1 ~probes:None in
    final_check st;
    let p50 = Layer.p50_us pr.layer in
    let base_us = Samples.median plain.latency in
    let per_op ph = 1.0 /. float_of_int ph.ops in
    let plain_ops = float_of_int plain.ops in
    {
      Metrics.attempted = traced.ops + plain.ops + (2 * warmup_ops);
      failed = st.failed;
      values =
        List.map (fun n -> n, p50 (String.sub n 0 (String.length n - 3)))
          [
            "source_tree.copy_us"; "depgraph.copy_us"; "compiler.closure_hash_us";
            "compiler.compile_affected_us"; "verify.run_us"; "sandcastle.run_us";
            "risk.assess_us"; "canary.run_us"; "parallel.fanout_us"; "vcs.commit_us";
            "vcs.read_file_us"; "tailer.poll_us"; "json.parse_us";
            "sim.step_us";
          ]
        @ List.map
            (fun n -> n, Layer.count_p50 pr.layer n)
            [
              "compiler.cone_configs"; "compiler.cache_hit_ratio"; "verify.checks_per_op";
              "vcs.bytes_per_commit"; "vcs.objects_per_commit"; "sim.events_per_op";
              "zeus.msgs_per_op"; "zeus.bytes_per_op"; "tailer.writes_per_op";
              "client.decodes_per_op";
            ]
        @ Metrics.sim_hops net_tracer
        @ Metrics.absent Metrics.storm_only
        @ [
            "compiler.compile_all_s", compile_all_s;
            "gc.minor_words_per_op", plain.gc.Clock.minor_words /. plain_ops;
            "gc.major_collections_per_op",
            float_of_int plain.gc.Clock.major_collections /. plain_ops;
            "failed_ratio",
            float_of_int st.failed /. float_of_int (traced.ops + plain.ops + (2 * warmup_ops));
            "trace.coverage",
            List.fold_left (fun acc l -> acc +. p50 l) 0.0 coverage_layers /. base_us;
            "trace.overhead_ratio", (traced.wall *. per_op traced) /. (plain.wall *. per_op plain);
          ];
    }
  end
