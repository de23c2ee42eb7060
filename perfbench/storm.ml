(* The Gatekeeper storm: one domain serves Zipf-skewed [Runtime.check]
   calls over a few dozen projects and a few thousand users, and the
   reads are interleaved deterministically with writes.  Every
   [blocks_per_update] blocks of [block] checks a project update
   arrives the way a server receives one: the project's JSON config is
   committed to the repository, the tailer hands it to Zeus, every
   watching server's proxy receives the text, and this server parses it
   and loads it into the runtime.  Each update comes with a Laser
   stream batch, and every [refresh_every] updates the MapReduce feeder
   reloads its keyspace.

   The simulated fleet (commit -> proxies) runs between blocks with the
   wall clock paused; the server's own work — applying the update,
   feeding Laser, and the checks — is what the check timings cover. *)

module Runtime = Cm_gatekeeper.Runtime
module Project = Cm_gatekeeper.Project
module Restraint = Cm_gatekeeper.Restraint
module User = Cm_gatekeeper.User
module Laser = Cm_laser.Laser
module Client = Core.Client
module Engine = Cm_sim.Engine
module Net = Cm_sim.Net
module Rng = Cm_sim.Rng
module Repo = Cm_vcs.Repo
module Layer = Metrics.Layer
module Samples = Clock.Samples

type size = {
  projects : int;
  nusers : int;
  block : int;  (* checks per latency sample *)
  blocks_per_update : int;
  refresh_every : int;  (* updates per MapReduce refresh *)
  nclients : int;
  exact_updates : int;  (* updates whose simulated/byte metrics are reported *)
  setups : int;
}

let size ~tiny =
  if tiny then
    { projects = 12; nusers = 256; block = 1024; blocks_per_update = 1; refresh_every = 2;
      nclients = 3; exact_updates = 4; setups = 1 }
  else
    { projects = 40; nusers = 4096; block = 1024; blocks_per_update = 4; refresh_every = 8;
      nclients = 12; exact_updates = 2048; setups = 101 }

let warmup_blocks = 16
let upsert_batch = 64
let sample_every = 16 (* every 16th check is re-checked against the reference *)

(* A user no generated id collides with; each project version lets it
   through on odd versions and shuts it out on even ones, so every
   update is a visible gate flip. *)
let probe_user = User.make 424242L

let project_name i = Printf.sprintf "proj_%02d" i
let names = Array.init 100 project_name
let project_path i = Printf.sprintf "gatekeeper/%s.json" (project_name i)

let project_of i ~version ~world_prob =
  let flip =
    Project.rule ~salt:"probe"
      ~pass_prob:(if version land 1 = 1 then 1.0 else 0.0)
      [ Restraint.make (Restraint.Id_in [ probe_user.User.id ]) ]
  in
  let rules =
    match i mod 6 with
    | 0 -> (Project.employee_rollout ~name:"" ~prob:0.1).Project.rules
    | 1 -> (Project.staged ~name:"" ~employee_prob:1.0 ~world_prob).Project.rules
    | 2 ->
        [ Project.rule ~pass_prob:0.5
            [ Restraint.make (Restraint.Country [ "JP"; "BR" ]);
              Restraint.make (Restraint.App_version_at_least 95) ] ]
    | 3 ->
        [ Project.rule
            [ Restraint.make (Restraint.Platform [ User.Ios ]);
              Restraint.make (Restraint.Device_model [ "iPhone6,1"; "iPhone7,2" ]) ];
          Project.rule ~pass_prob:0.02 [ Restraint.make Restraint.Always ] ]
    | 4 ->
        [ Project.rule
            [ Restraint.make (Restraint.Laser_above ("trend", 0.7));
              Restraint.make (Restraint.Min_friends 10) ] ]
    | _ ->
        [ Project.rule
            [ Restraint.make (Restraint.Id_mod (4, i mod 4));
              Restraint.make (Restraint.Laser_above ("mr", 0.5)) ] ]
  in
  Project.make ~name:(project_name i) (flip :: rules)

type t = {
  sz : size;
  rng : Rng.t;
  users : User.t array;
  zipf : Rng.Zipf.dist;
  laser : Laser.t;
  ctx : Restraint.ctx;
  runtime : Runtime.t;
  reference : Project.t array;  (* what the runtime should hold *)
  published : Project.t array;  (* the newest version committed *)
  versions : int array;
  draw_p : int array;  (* the current block's checks: project, user *)
  draw_u : int array;
  kept : bool array;
  mutable flips : (int * bool * bool) list;  (* project, loaded, decision *)
  engine : Engine.t;
  net : Net.t;
  repo : Repo.t;
  tailer : Core.Tailer.t;
  clients : Client.t array;  (* clients.(0) is this server *)
  inbox : (int * string) Queue.t;  (* texts that reached this server *)
  mutable pending : int * string;  (* the update in flight *)
  waiting : bool array;
  mutable outstanding : int;
  mutable last_arrival : float;
  mutable updates : int;
  mutable blocks : int;
  mutable failed : int;
}

let on_arrival st c i data =
  if c = 0 then Queue.push (i, data) st.inbox;
  let pi, ptext = st.pending in
  if pi = i && st.waiting.(c) && String.equal data ptext then begin
    st.waiting.(c) <- false;
    st.outstanding <- st.outstanding - 1;
    st.last_arrival <- Engine.now st.engine
  end

let drain st = Fleet.drain st.engine ~waiting:(fun () -> st.outstanding > 0)

let user_key prefix u = prefix ^ "-" ^ Int64.to_string u.User.id

let setup sz ~seed =
  let rng = Rng.create (Int64.of_int seed) in
  let users = Array.init sz.nusers (fun _ -> User.random rng) in
  let laser = Laser.create ~shards:16 () in
  Array.iter
    (fun u ->
      Laser.put laser (user_key "trend" u) (Rng.float rng 1.0);
      Laser.put laser (user_key "mr" u) (Rng.float rng 1.0))
    users;
  let ctx = { Restraint.laser = Some laser } in
  let reference =
    Array.init sz.projects (fun i -> project_of i ~version:1 ~world_prob:(Rng.float rng 0.05))
  in
  let engine = Engine.create ~seed:(Int64.of_int (seed + 1)) () in
  let topo = Cm_sim.Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:6 in
  let net = Net.create engine topo in
  let zeus = Cm_zeus.Service.create net in
  let repo = Repo.create () in
  ignore
    (Repo.commit repo ~author:"bootstrap" ~message:"initial import" ~timestamp:0.0
       (List.init sz.projects (fun i -> project_path i, Some (Project.to_string reference.(i)))));
  let tailer = Core.Tailer.create engine repo zeus in
  Core.Tailer.start tailer;
  let st =
    {
      sz; rng; users;
      zipf = Rng.Zipf.make ~n:sz.projects ~s:1.2;
      laser; ctx;
      runtime = Runtime.create ~ctx ();
      reference;
      published = Array.copy reference;
      versions = Array.make sz.projects 1;
      draw_p = Array.make sz.block 0;
      draw_u = Array.make sz.block 0;
      kept = Array.make (sz.block / sample_every) false;
      flips = [];
      engine; net; repo; tailer;
      clients =
        Array.init sz.nclients (fun c ->
            Client.create zeus ~node:(((2 * c) + 1) mod Cm_sim.Topology.node_count topo));
      inbox = Queue.create ();
      pending = -1, "";
      waiting = Array.make sz.nclients false;
      outstanding = 0;
      last_arrival = 0.0;
      updates = 0;
      blocks = 0;
      failed = 0;
    }
  in
  Array.iteri
    (fun c client ->
      for i = 0 to sz.projects - 1 do
        Client.want client (project_path i);
        Client.subscribe_raw client (project_path i) (on_arrival st c i)
      done)
    st.clients;
  (* The server starts once it holds every project. *)
  if not (Fleet.drain engine ~waiting:(fun () -> Queue.length st.inbox < sz.projects)) then
    st.failed <- st.failed + 1;
  Queue.iter
    (fun (_, text) ->
      match Cm_json.Parser.parse text with
      | Ok json when Runtime.load_json st.runtime json = Ok () -> ()
      | _ -> st.failed <- st.failed + 1)
    st.inbox;
  Queue.clear st.inbox;
  st

(* --- one phase ---------------------------------------------------------- *)

type phase = {
  latency : Samples.t;  (* us per check, one sample per block *)
  flip : Samples.t;  (* us, update text at the server -> a check sees it *)
  visible : Samples.t;  (* simulated ms, commit -> every watching server *)
  repo_bytes : Samples.t;
  check_us : Samples.t;  (* traced: the check loop alone, per check *)
  mutable checks : int;
  mutable updates : int;
  mutable server_s : float;
  mutable peak_mb : float;  (* over the exact updates' blocks *)
  mutable gc : Clock.gc;
}

let new_phase () =
  {
    latency = Samples.create (); flip = Samples.create (); visible = Samples.create ();
    repo_bytes = Samples.create (); check_us = Samples.create ();
    checks = 0; updates = 0; server_s = 0.0; peak_mb = 0.0; gc = Clock.gc_now ();
  }

(* Fleet side, wall clock paused: a new version of one project is
   committed at a random point of the tailer's poll cycle and
   distributed until every watching server holds it. *)
let publish st ph ~exact ~layer =
  let i = Rng.int st.rng st.sz.projects in
  let version = st.versions.(i) + 1 in
  st.versions.(i) <- version;
  let project = project_of i ~version ~world_prob:(Rng.float st.rng 0.05) in
  st.published.(i) <- project;
  let text = Project.to_string project in
  Engine.run_for st.engine (Rng.float st.rng 5.0);
  let counters () =
    Fleet.counters ~repo:st.repo ~engine:st.engine ~net:st.net ~tailer:st.tailer
      ~clients:st.clients
  in
  let c0 = counters () in
  let prev_head = Repo.head st.repo in
  let oid =
    Layer.maybe layer "vcs.commit" (fun () ->
        Repo.commit st.repo ~author:"gk-ui" ~message:"project update"
          ~timestamp:(Engine.now st.engine) [ project_path i, Some text ])
  in
  let t_commit = Engine.now st.engine in
  (* Traced runs follow the update through the tailer and Zeus in
     simulated time, as the pipeline does for a landing. *)
  Option.iter
    (fun tr ->
      Core.Tailer.note_ctx st.tailer ~path:(project_path i)
        (Cm_trace.Tracer.new_trace tr ~name:"project update"))
    (Net.tracer st.net);
  st.pending <- i, text;
  Array.iteri
    (fun c client ->
      if Client.get_raw client (project_path i) <> Some text then begin
        st.waiting.(c) <- true;
        st.outstanding <- st.outstanding + 1
      end)
    st.clients;
  let converged = Layer.maybe layer "zeus.deliver" (fun () -> drain st) in
  let c1 = counters () in
  if not converged then st.failed <- st.failed + 1
  else if exact then begin
    Samples.add ph.visible ((st.last_arrival -. t_commit) *. 1000.0);
    Samples.add ph.repo_bytes (float_of_int (c1.Fleet.store_bytes - c0.Fleet.store_bytes))
  end;
  Option.iter
    (fun l ->
      Layer.span l "tailer.poll" (fun () -> Fleet.tailer_poll st.repo ~base:prev_head ~head:oid);
      Layer.span l "vcs.read_file" (fun () -> ignore (Repo.read_file st.repo (project_path i)));
      if exact then Fleet.count_change l c0 c1)
    layer

(* Server side: apply every update text that arrived.  The flip is
   visible once a check of the project returns the new version's
   decision for the probe user. *)
let apply st ph ~layer =
  while not (Queue.is_empty st.inbox) do
    let i, text = Queue.pop st.inbox in
    let t0 = Clock.now () in
    (* Runtime.load_json's two halves, so a traced run can time each. *)
    let loaded =
      match Layer.maybe layer "json.parse" (fun () -> Cm_json.Parser.parse text) with
      | Error _ -> false
      | Ok json -> (
          match Layer.maybe layer "gatekeeper.of_json" (fun () -> Project.of_json json) with
          | Error _ -> false
          | Ok project ->
              Layer.maybe layer "gatekeeper.load" (fun () -> Runtime.load st.runtime project);
              true)
    in
    let decision = Runtime.check st.runtime names.(i) probe_user in
    Samples.add ph.flip ((Clock.now () -. t0) *. 1e6);
    st.reference.(i) <- st.published.(i);
    st.flips <- (i, loaded, decision) :: st.flips
  done;
  let batch =
    List.init upsert_batch (fun _ ->
        user_key "trend" st.users.(Rng.int st.rng st.sz.nusers), Rng.float st.rng 1.0)
  in
  Layer.maybe layer "laser.stream_upsert" (fun () -> Laser.stream_upsert st.laser batch);
  if st.updates mod st.sz.refresh_every = 0 then begin
    let keys =
      Array.to_list
        (Array.map (fun u -> user_key "mr" u, Rng.float st.rng 1.0)
           (Array.sub st.users 0 (st.sz.nusers / 4)))
    in
    Layer.maybe layer "laser.mapreduce_refresh" (fun () ->
        Laser.mapreduce_refresh st.laser ~prefix:"mr-" keys)
  end

(* One block of [block] checks; when an update is due, its text reaches
   the server halfway through, so it is applied while the server's
   caches hold the check path, as on a server under load.  Every
   [sample_every]th decision is kept and compared with the reference
   evaluation after the block, on the snapshot it was made on. *)
let block st ph ~exact ~layer =
  let update = st.blocks mod st.sz.blocks_per_update = 0 in
  st.blocks <- st.blocks + 1;
  Option.iter (fun l -> Layer.start_op l "block") layer;
  if update then begin
    publish st ph ~exact ~layer;
    st.updates <- st.updates + 1;
    ph.updates <- ph.updates + 1
  end;
  let n = st.sz.block in
  for k = 0 to n - 1 do
    st.draw_p.(k) <- Rng.Zipf.draw st.rng st.zipf - 1;
    st.draw_u.(k) <- Rng.int st.rng st.sz.nusers
  done;
  (* Checks [lo, hi) of the block; the seconds they took.  The kept
     decisions are then compared with the reference, off the clock and
     before the snapshot can change. *)
  let checks lo hi =
    let t0 = Clock.now () in
    for k = lo to hi - 1 do
      let d = Runtime.check st.runtime names.(st.draw_p.(k)) st.users.(st.draw_u.(k)) in
      if k mod sample_every = 0 then st.kept.(k / sample_every) <- d
    done;
    let seconds = Clock.now () -. t0 in
    for j = (lo + sample_every - 1) / sample_every to ((hi - 1) / sample_every) do
      let k = j * sample_every in
      let p = st.reference.(st.draw_p.(k)) in
      if Project.check st.ctx p st.users.(st.draw_u.(k)) <> st.kept.(j) then
        st.failed <- st.failed + 1
    done;
    seconds
  in
  let first = checks 0 (n / 2) in
  let (), applying = Clock.time (fun () -> if update then apply st ph ~layer) in
  let second = checks (n / 2) n in
  let server_s = first +. applying +. second in
  Samples.add ph.latency (server_s *. 1e6 /. float_of_int n);
  if layer <> None then Samples.add ph.check_us ((first +. second) *. 1e6 /. float_of_int n);
  ph.server_s <- ph.server_s +. server_s;
  ph.checks <- ph.checks + n;
  List.iter
    (fun (i, loaded, decision) ->
      if not loaded || decision <> Project.check st.ctx st.reference.(i) probe_user then
        st.failed <- st.failed + 1)
    st.flips;
  st.flips <- [];
  if exact then ph.peak_mb <- Float.max ph.peak_mb (Clock.heap_mb ())

let run_phase st ~seconds ~min_updates ~layer =
  let warm = new_phase () in
  for _ = 1 to warmup_blocks do
    block st warm ~exact:false ~layer:None
  done;
  Clock.settle ();
  let ph = new_phase () in
  let t0 = Clock.now () in
  while Clock.now () -. t0 < seconds || ph.updates < min_updates do
    block st ph ~exact:(ph.updates < st.sz.exact_updates) ~layer
  done;
  ph.gc <- Clock.gc_since ph.gc;
  ph, warm.checks

let final_check st =
  Array.iter
    (fun client ->
      for i = 0 to st.sz.projects - 1 do
        if Client.get_raw client (project_path i) <> Repo.read_file st.repo (project_path i)
        then st.failed <- st.failed + 1
      done)
    st.clients

let run ~tiny ~seed ~seconds ~trace =
  let sz = size ~tiny in
  let min_updates = sz.exact_updates in
  let q s p = Samples.quantile s p in
  if not trace then begin
    let st, setup_s = Clock.repeat_setup ~times:sz.setups (fun () -> setup sz ~seed) in
    let ph, warm_checks = run_phase st ~seconds ~min_updates ~layer:None in
    final_check st;
    {
      Metrics.attempted = ph.checks + warm_checks;
      failed = st.failed;
      values =
        [
          "setup_s", setup_s;
          "ops_per_s", float_of_int ph.checks /. ph.server_s;
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
    let st, _ = Clock.repeat_setup ~times:1 (fun () -> setup sz ~seed) in
    let net_tracer = Cm_trace.Tracer.create ~now:(fun () -> Engine.now st.engine) () in
    Net.set_tracer st.net net_tracer;
    let layer = Layer.create () in
    let swaps0 = Runtime.snapshot_swaps st.runtime in
    let evals0 = Runtime.evaluated_restraints st.runtime in
    let traced, warm1 = run_phase st ~seconds:(seconds /. 2.0) ~min_updates ~layer:(Some layer) in
    let swaps = Runtime.snapshot_swaps st.runtime - swaps0 in
    let evals = Runtime.evaluated_restraints st.runtime - evals0 in
    let retained = Runtime.retained_snapshots st.runtime in
    Cm_trace.Tracer.set_enabled net_tracer false;
    let plain, warm2 = run_phase st ~seconds:(seconds /. 2.0) ~min_updates:1 ~layer:None in
    final_check st;
    let p50 = Layer.p50_us layer in
    let checks = float_of_int traced.checks and plain_checks = float_of_int plain.checks in
    let per_update = float_of_int (st.sz.block * st.sz.blocks_per_update) in
    let check_us = Samples.median traced.check_us in
    let update_us =
      p50 "json.parse" +. p50 "gatekeeper.of_json" +. p50 "gatekeeper.load"
      +. p50 "laser.stream_upsert"
      +. (p50 "laser.mapreduce_refresh" /. float_of_int st.sz.refresh_every)
    in
    let attempted = traced.checks + plain.checks + warm1 + warm2 in
    {
      Metrics.attempted;
      failed = st.failed;
      values =
        List.map
          (fun n -> n, p50 (String.sub n 0 (String.length n - 3)))
          [
            "vcs.commit_us"; "vcs.read_file_us"; "tailer.poll_us"; "zeus.deliver_us";
            "json.parse_us"; "gatekeeper.of_json_us"; "gatekeeper.load_us";
            "laser.stream_upsert_us"; "laser.mapreduce_refresh_us";
          ]
        @ List.map
            (fun n -> n, Layer.count_p50 layer n)
            [
              "vcs.bytes_per_commit"; "vcs.objects_per_commit"; "sim.events_per_op";
              "zeus.msgs_per_op"; "zeus.bytes_per_op"; "tailer.writes_per_op";
              "client.decodes_per_op";
            ]
        @ Metrics.sim_hops net_tracer
        @ Metrics.absent Metrics.land_only
        @ [
            "gatekeeper.check_us", check_us;
            "gatekeeper.restraints_per_check", float_of_int evals /. checks;
            "gatekeeper.snapshot_swaps", float_of_int swaps /. float_of_int traced.updates;
            "gatekeeper.retained_snapshots", float_of_int retained;
            "gc.minor_words_per_op", plain.gc.Clock.minor_words /. plain_checks;
            "gc.major_collections_per_op",
            float_of_int plain.gc.Clock.major_collections /. plain_checks;
            "failed_ratio", float_of_int st.failed /. float_of_int attempted;
            "trace.coverage", (check_us +. (update_us /. per_update)) /. q plain.latency 0.5;
            "trace.overhead_ratio",
            (traced.server_s /. checks) /. (plain.server_s /. float_of_int plain.checks);
          ];
    }
  end
