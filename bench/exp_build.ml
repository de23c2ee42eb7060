(* Multicore landing path (ISSUE 10): commit-to-land throughput —
   incremental compile + verify plane + sandcastle CI — across OCaml 5
   domains, with results and gates in BENCH_build.json.

   Two adversarial cone shapes:

   - wide: [nwide] configs importing [nmods] shared modules.  Each
     timed round edits one module, dirtying a 1/nmods cone; the cone is
     a single dependency level, so the pool can fan the whole batch
     out.  Verify (statics + an invariant + a per-artifact consumer
     test) and the sandcastle checks run inside the timed loop — this
     is the full check plane a landing pays for, not just compilation;
   - deep: an [nchain]-long import chain.  Every level has exactly one
     member, so the pool cannot help at any core count — the chain
     isolates pure scheduling overhead, which must stay bounded.

   Gates:
   - equivalence_ok: the 4-domain run's artifact digests, error list,
     merged cache counters, verify verdicts and sandcastle report are
     bit-identical to the sequential run's (the QCheck property from
     test_parallel, re-run at bench scale);
   - overhead_1dom <= 1.10: a pool of one domain runs everything on
     the caller inline, so it must cost within 10% of the no-pool path;
   - chain overhead (4 domains vs 1) <= 1.50: size-one levels execute
     inline on the caller, so extra idle domains must stay cheap;
   - scaling >= 1.8x at 4 domains vs 1 — gated only in "measured" mode
     (host with >= 4 cores, per the acceptance criterion).  On smaller
     hosts aggregate throughput drops, mainly because Pool.map_local
     spawns and joins fresh domains on every call (~0.72 ms per
     spawn + join measured on a 2-core host, three or so per wide-cone
     round), so no projection from such a host is honest.  Single-core
     runs report the measured ratio with scaling_mode
     "single_core_ungated"; ci/check.sh applies the 1.8x floor only
     when scaling_mode is "measured".

   The bounded-cache satellite rides along: one wide cell runs under a
   small byte budget and must show clock-LRU evictions while staying
   within it.

   CM_BUILD_QUICK=1 shrinks the workload. *)

module Compiler = Core.Compiler
module ST = Core.Source_tree
module Pipeline = Core.Pipeline
module Sandcastle = Core.Sandcastle
module Defense = Core.Defense
module Verify = Cm_verify.Verify
module Pool = Cm_parallel.Pool
module Json = Cm_json.Value

let quick = Sys.getenv_opt "CM_BUILD_QUICK" <> None
let nmods = 8
let nwide = if quick then 240 else 400
let wide_rounds = if quick then 16 else 32
let nchain = if quick then 24 else 48
let chain_rounds = 8
let reps = 2 (* best-of, to keep single-round noise out of the gates *)
let cache_budget_bytes = 32 * 1024
let domain_counts = [ 0; 1; 2; 4 ] (* 0 = no pool: the exact sequential path *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, Unix.gettimeofday () -. t0

(* --- the wide cone ----------------------------------------------------- *)

let module_path k = Printf.sprintf "modules/m%02d.cinc" k
let module_source k v = Printf.sprintf "M%02d = %d" k v
let wide_path i = Printf.sprintf "configs/svc_%04d.cconf" i

let wide_source i =
  let k = i mod nmods in
  Printf.sprintf
    "import \"%s\"\nPORT = 7000 + %d\nW = M%02d * 3 + %d\nexport { id: %d, port: PORT, weight: W, replicas: %d }"
    (module_path k) i k i i ((i mod 5) + 1)

let wide_tree () =
  ST.of_alist
    (List.init nmods (fun k -> module_path k, module_source k k)
    @ List.init nwide (fun i -> wide_path i, wide_source i))

(* The verify plane a landing runs: the standard statics, one
   cross-config invariant over the cone, one per-artifact consumer
   test.  All pass — the bench measures a green landing path. *)
let registry () =
  let t = Verify.standard () in
  Verify.register_invariant t ~name:"ids-distinct" ~prefix:"configs/" (fun cone ->
      let ids =
        List.filter_map
          (fun c -> Cm_json.Value.member "id" c.Compiler.json)
          cone
      in
      if List.length (List.sort_uniq compare ids) = List.length ids then
        Defense.finding ~ok:true "ids pairwise distinct"
      else Defense.finding ~ok:false "duplicate id");
  Verify.register_test t ~name:"port-in-range" ~prefix:"configs/" (fun c ->
      match Cm_json.Value.member "port" c.Compiler.json with
      | Some (Cm_json.Value.Int p) when p >= 7000 && p < 16_000 ->
          Defense.finding ~ok:true "port in range"
      | _ -> Defense.finding ~ok:false ~at:c.Compiler.artifact_path "bad port");
  t

let verify_input ~pool ~tree ~compiler ~repo ~changes compiled =
  {
    Pipeline.verify_changes = changes;
    verify_compiled = compiled;
    verify_tree = tree;
    verify_depgraph = Compiler.depgraph compiler;
    verify_repo = repo;
    verify_validators = Compiler.validators compiler;
    verify_pool = pool;
  }

(* One landing round: edit a shared module, recompile the cone, run the
   verify plane and sandcastle over it.  Returns the cone size. *)
let wide_round ~pool ~tree ~compiler ~reg ~sandcastle ~repo r =
  let k = r mod nmods in
  let src = module_source k (1000 + r) in
  ST.write tree (module_path k) src;
  let oks, errors = Compiler.compile_affected ?pool compiler ~changed:[ module_path k ] in
  if errors <> [] then failwith "build: unexpected compile error in the wide cone";
  let verdicts =
    Verify.run reg
      (verify_input ~pool ~tree ~compiler ~repo ~changes:[ module_path k, src ] oks)
  in
  if not (Defense.all_passed verdicts) then failwith "build: verify plane went red";
  if not (Sandcastle.passed (Sandcastle.run ?pool sandcastle oks)) then
    failwith "build: sandcastle went red";
  List.length oks

(* A full sweep cell: fresh tree/compiler/plane, warm bootstrap
   compile, then [wide_rounds] timed landing rounds. *)
let wide_cell ?byte_budget ~domains () =
  let pool = if domains >= 1 then Some (Pool.create ~domains ()) else None in
  let tree = wide_tree () in
  let cache =
    match byte_budget with
    | Some b -> Compiler.Cache.create ~byte_budget:b ()
    | None -> Compiler.Cache.create ()
  in
  let compiler = Compiler.create ~cache tree in
  let oks, errors = Compiler.compile_all ?pool compiler in
  if errors <> [] || List.length oks <> nwide then
    failwith "build: wide tree failed to bootstrap";
  let reg = registry () in
  let sandcastle = Sandcastle.create () in
  let repo = Cm_vcs.Repo.create () in
  let compiled = ref 0 in
  let (), seconds =
    time (fun () ->
        for r = 1 to wide_rounds do
          compiled := !compiled + wide_round ~pool ~tree ~compiler ~reg ~sandcastle ~repo r
        done)
  in
  seconds, !compiled, cache

let best_wide ?byte_budget ~domains () =
  let cells = List.init reps (fun _ -> wide_cell ?byte_budget ~domains ()) in
  List.fold_left
    (fun (bs, bc, bcache) (s, c, cache) ->
      if s < bs then s, c, cache else bs, bc, bcache)
    (List.hd cells) (List.tl cells)

(* --- the deep chain ---------------------------------------------------- *)

let chain_path i = Printf.sprintf "chain/c%03d.cconf" i

let chain_source ?(v = 0) i =
  if i = nchain - 1 then Printf.sprintf "V = %d\nexport { i: %d, v: V }" v i
  else
    Printf.sprintf "import \"%s\"\nV = V + 1\nexport { i: %d, v: V }"
      (chain_path (i + 1)) i

let chain_cell ~domains () =
  let pool = Some (Pool.create ~domains ()) in
  let tree = ST.of_alist (List.init nchain (fun i -> chain_path i, chain_source i)) in
  let compiler = Compiler.create tree in
  let _, errors = Compiler.compile_all ?pool compiler in
  if errors <> [] then failwith "build: chain failed to bootstrap";
  let tail = chain_path (nchain - 1) in
  let (), seconds =
    time (fun () ->
        for r = 1 to chain_rounds do
          (* Editing the deepest dependency dirties every link: the
             cone compiles as [nchain] levels of exactly one config. *)
          ST.write tree tail (chain_source ~v:r (nchain - 1));
          let oks, errors = Compiler.compile_affected ?pool compiler ~changed:[ tail ] in
          if errors <> [] || List.length oks <> nchain then
            failwith "build: chain round went wrong"
        done)
  in
  seconds

let best_chain ~domains () =
  List.fold_left min (chain_cell ~domains ()) (List.init (reps - 1) (fun _ -> chain_cell ~domains ()))

(* --- equivalence at bench scale ---------------------------------------- *)

(* Everything observable about one landing round, sequential vs a
   4-domain pool over identical fresh trees. *)
let equivalence_check () =
  let view pool =
    let tree = wide_tree () in
    let compiler = Compiler.create tree in
    let oks0, errors0 = Compiler.compile_all ?pool compiler in
    let k = 0 in
    let src = module_source k 424242 in
    ST.write tree (module_path k) src;
    let oks, errors = Compiler.compile_affected ?pool compiler ~changed:[ module_path k ] in
    let reg = registry () in
    let repo = Cm_vcs.Repo.create () in
    let verdicts =
      Verify.run reg
        (verify_input ~pool ~tree ~compiler ~repo ~changes:[ module_path k, src ] oks)
    in
    let report = Sandcastle.run ?pool (Sandcastle.create ()) oks in
    let cache = Compiler.cache compiler in
    let render_ok c = c.Compiler.config_path, c.Compiler.digest in
    let render_err e = e.Compiler.at, Compiler.stage_name e.Compiler.stage, e.Compiler.message in
    let render_v v = Format.asprintf "%a" Defense.pp_verdict v in
    ( List.map render_ok oks0,
      List.map render_err errors0,
      List.map render_ok oks,
      List.map render_err errors,
      (Compiler.Cache.hits cache, Compiler.Cache.misses cache),
      List.map render_v verdicts,
      List.map render_v report )
  in
  view None = view (Some (Pool.create ~domains:4 ()))

(* --- the experiment ---------------------------------------------------- *)

type row = { domains : int; seconds : float; configs_per_s : float }

let run () =
  Render.section "build"
    "Multicore landing path: parallel compile + verify + sandcastle throughput";
  let cores = Domain.recommended_domain_count () in

  let rows =
    List.map
      (fun d ->
        let seconds, compiled, _ = best_wide ~domains:d () in
        { domains = d; seconds; configs_per_s = float_of_int compiled /. seconds })
      domain_counts
  in
  let cps d = (List.find (fun r -> r.domains = d) rows).configs_per_s in
  let overhead_1dom = cps 0 /. cps 1 in
  let scaling = cps 4 /. cps 1 in
  let measured = cores >= 4 in
  let scaling_mode = if measured then "measured" else "single_core_ungated" in
  let scaling_ok = (not measured) || scaling >= 1.8 in
  let overhead_ok = overhead_1dom <= 1.10 in

  let chain1 = best_chain ~domains:1 () in
  let chain4 = best_chain ~domains:4 () in
  let chain_overhead = chain4 /. chain1 in
  let chain_ok = chain_overhead <= 1.50 in

  let equivalence_ok = equivalence_check () in

  (* Bounded-cache satellite: the same landing loop under a byte
     budget must evict instead of growing without bound. *)
  let _, _, bounded = best_wide ~byte_budget:cache_budget_bytes ~domains:1 () in
  let bounded_cache_ok =
    Compiler.Cache.evictions bounded > 0
    && Compiler.Cache.resident_bytes bounded <= cache_budget_bytes
  in

  Render.table
    ~header:[ "domains"; "wide cone s"; "configs/s" ]
    (List.map
       (fun r ->
         [
           (if r.domains = 0 then "none (seq)" else string_of_int r.domains);
           Printf.sprintf "%.3f" r.seconds;
           Printf.sprintf "%.0f" r.configs_per_s;
         ])
       rows);
  Render.kv "cores / scaling mode" (Printf.sprintf "%d / %s" cores scaling_mode);
  Render.kv "1->4 domain scaling"
    (Printf.sprintf "%.2fx (floor 1.8x, gated only when measured)" scaling);
  Render.kv "1-domain pool overhead vs no pool"
    (Printf.sprintf "%.1f%% (ceiling 10%%)" (100.0 *. (overhead_1dom -. 1.0)));
  Render.kv "deep chain, 1 vs 4 domains"
    (Printf.sprintf "%.3fs / %.3fs (overhead %.1f%%, ceiling 50%%)" chain1 chain4
       (100.0 *. (chain_overhead -. 1.0)));
  Render.kv "parallel == sequential (digests, errors, counters)"
    (if equivalence_ok then "identical" else "DIVERGED");
  Render.kv "bounded cache"
    (Printf.sprintf "%d evictions, %s resident (budget %s)"
       (Compiler.Cache.evictions bounded)
       (Render.bytes (Compiler.Cache.resident_bytes bounded))
       (Render.bytes cache_budget_bytes));
  Render.note
    "each round = edit a shared module, recompile the cone, run verify + \
     sandcastle: the full commit-to-land check plane";

  let row_json r =
    Json.obj
      [
        "domains", Json.Int r.domains;
        "seconds", Json.Float r.seconds;
        "configs_per_s", Json.Int (int_of_float r.configs_per_s);
      ]
  in
  Render.write_json ~file:"BENCH_build.json"
    (Json.obj
       [
         "cores", Json.Int cores;
         "quick", Json.Bool quick;
         "wide_configs", Json.Int nwide;
         "wide_rounds", Json.Int wide_rounds;
         "chain_length", Json.Int nchain;
         "rows", Json.List (List.map row_json rows);
         "scaling_mode", Json.String scaling_mode;
         "scaling_4v1_x100", Json.Int (int_of_float (100.0 *. scaling));
         "scaling_ok", Json.Bool scaling_ok;
         "overhead_1dom_x100", Json.Int (int_of_float (100.0 *. overhead_1dom));
         "overhead_ok", Json.Bool overhead_ok;
         "chain_s_1dom", Json.Float chain1;
         "chain_s_4dom", Json.Float chain4;
         "chain_overhead_4dom_x100", Json.Int (int_of_float (100.0 *. chain_overhead));
         "chain_ok", Json.Bool chain_ok;
         "equivalence_ok", Json.Bool equivalence_ok;
         "cache_byte_budget", Json.Int cache_budget_bytes;
         "cache_evictions", Json.Int (Compiler.Cache.evictions bounded);
         "cache_resident_bytes", Json.Int (Compiler.Cache.resident_bytes bounded);
         "bounded_cache_ok", Json.Bool bounded_cache_ok;
       ]);
  Render.note "wrote BENCH_build.json";
  if not equivalence_ok then failwith "build: parallel run diverged from sequential";
  if not overhead_ok then
    failwith
      (Printf.sprintf "build: 1-domain pool overhead %.0f%% > 10%%"
         (100.0 *. (overhead_1dom -. 1.0)));
  if not chain_ok then
    failwith
      (Printf.sprintf "build: deep-chain 4-domain overhead %.0f%% > 50%%"
         (100.0 *. (chain_overhead -. 1.0)));
  if not scaling_ok then
    failwith (Printf.sprintf "build: scaling %.2f < 1.8 (%s)" scaling scaling_mode)
