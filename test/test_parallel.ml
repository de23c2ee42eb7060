(* The multicore landing path: domain pool semantics, level-order
   scheduling, the sharded memo cache, and the headline guarantee —
   parallel compile/verify produces bit-identical output to the
   sequential path.

   - pool: input order preserved under uneven work; exceptions
     propagate after the join; worker-local state merges exactly once;
   - Snapshot: racing updates lose no increment and every publish is
     counted; an update that returns its input publishes nothing;
   - Per_domain: one cell per domain, kept after its domain exits;
   - Depgraph.levels: wide cones are one level, chains are one level
     per link, members never precede their in-set dependencies;
   - QCheck: compile_all / compile_affected on an N-domain pool equal
     the sequential run — artifact digests, error list and order, and
     merged cache counters;
   - sharded cache: racing publishers and readers across domains keep
     the content-addressed invariant and respect the byte budget;
   - verify + sandcastle fan-out: verdict lists identical with and
     without a pool; a jobs>1 pipeline lands the same changes;
   - pack recovery with a multi-domain scan recovers identical state. *)

module Compiler = Core.Compiler
module Depgraph = Core.Depgraph
module ST = Core.Source_tree
module Pipeline = Core.Pipeline
module Sandcastle = Core.Sandcastle
module Defense = Core.Defense
module Pool = Cm_parallel.Pool
module Snapshot = Cm_parallel.Snapshot
module Per_domain = Cm_parallel.Per_domain
module Engine = Cm_sim.Engine

(* --- Snapshot and Per_domain ------------------------------------------ *)

let primitive_tests =
  [
    Alcotest.test_case "snapshot: racing updates lose no increment" `Quick (fun () ->
        let snap = Snapshot.make 0 in
        let bump () =
          Domain.spawn (fun () ->
              for _ = 1 to 10_000 do
                Snapshot.update snap succ
              done)
        in
        let a = bump () and b = bump () in
        Domain.join a;
        Domain.join b;
        Alcotest.(check int) "value" 20_000 (Snapshot.get snap);
        Alcotest.(check int) "swaps" 20_000 (Snapshot.swaps snap));
    Alcotest.test_case "snapshot: returning the input publishes nothing" `Quick (fun () ->
        let snap = Snapshot.make [ 1; 2 ] in
        Snapshot.update snap (fun l -> 0 :: l);
        let before = Snapshot.get snap in
        Snapshot.update snap Fun.id;
        Alcotest.(check int) "swaps unchanged" 1 (Snapshot.swaps snap);
        Alcotest.(check bool) "same value" true (Snapshot.get snap == before));
    Alcotest.test_case "per_domain: one init per domain, exited cells stay" `Quick (fun () ->
        let inits = Atomic.make 0 in
        let cells =
          Per_domain.create (fun () ->
              Atomic.incr inits;
              ref 0)
        in
        let work n () =
          for _ = 1 to n do
            incr (Per_domain.get cells)
          done
        in
        Domain.join (Domain.spawn (work 100));
        work 7 ();
        Alcotest.(check int) "one init per domain" 2 (Atomic.get inits);
        Alcotest.(check (list int)) "the exited domain's cell is kept" [ 7; 100 ]
          (List.map ( ! ) (Per_domain.all cells)));
  ]

(* --- the pool --------------------------------------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "map_array keeps input order under uneven work" `Quick (fun () ->
        let pool = Pool.create ~domains:4 () in
        let items = Array.init 100 (fun i -> i) in
        let out =
          Pool.map_array pool
            (fun i ->
              (* Uneven cost: some items allocate a lot more than
                 others, so domains finish out of order. *)
              if i mod 7 = 0 then
                ignore (Sys.opaque_identity (Array.make (10_000 + i) i));
              i * 3)
            items
        in
        Alcotest.(check (array int)) "ordered" (Array.map (fun i -> i * 3) items) out);
    Alcotest.test_case "empty input, zero spawns" `Quick (fun () ->
        let pool = Pool.create ~domains:4 () in
        Alcotest.(check (array int)) "empty" [||] (Pool.map_array pool (fun i -> i) [||]));
    Alcotest.test_case "exceptions re-raise on the caller after the join" `Quick
      (fun () ->
        let pool = Pool.create ~domains:4 () in
        Alcotest.check_raises "propagated" (Failure "boom") (fun () ->
            ignore
              (Pool.map_array pool
                 (fun i -> if i = 13 then failwith "boom" else i)
                 (Array.init 50 (fun i -> i)))));
    Alcotest.test_case "map_local merges each worker's state exactly once" `Quick
      (fun () ->
        let pool = Pool.create ~domains:4 () in
        let total = ref 0 and merges = ref 0 in
        let out =
          Pool.map_local pool
            ~local:(fun () -> ref 0)
            ~f:(fun state i ->
              incr state;
              i)
            ~merge:(fun state ->
              incr merges;
              total := !total + !state)
            (Array.init 200 (fun i -> i))
        in
        Alcotest.(check int) "every item counted once" 200 !total;
        Alcotest.(check bool) "one merge per worker" true (!merges >= 1 && !merges <= 4);
        Alcotest.(check int) "results intact" 199 out.(199));
  ]

(* --- level scheduling -------------------------------------------------- *)

let levels_tests =
  [
    Alcotest.test_case "configs sharing a module form one sorted level" `Quick
      (fun () ->
        let tree =
          ST.of_alist
            [
              "modules/m.cinc", "M = 1";
              "b.cconf", "import \"modules/m.cinc\"\nexport { v: M }";
              "a.cconf", "import \"modules/m.cinc\"\nexport { v: M }";
              "c.cconf", "import \"modules/m.cinc\"\nexport { v: M }";
            ]
        in
        let compiler = Compiler.create tree in
        let levels =
          Depgraph.levels (Compiler.depgraph compiler) [ "c.cconf"; "a.cconf"; "b.cconf" ]
        in
        Alcotest.(check (list (list string)))
          "single level, sorted"
          [ [ "a.cconf"; "b.cconf"; "c.cconf" ] ]
          levels);
    Alcotest.test_case "a config chain yields one level per link, deps first" `Quick
      (fun () ->
        let n = 5 in
        let path i = Printf.sprintf "chain/c%d.cconf" i in
        let source i =
          if i = n - 1 then Printf.sprintf "V%d = 1\nexport { i: %d, v: V%d }" i i i
          else
            Printf.sprintf "import \"%s\"\nV%d = V%d + 1\nexport { i: %d, v: V%d }"
              (path (i + 1)) i (i + 1) i i
        in
        let tree = ST.of_alist (List.init n (fun i -> path i, source i)) in
        let compiler = Compiler.create tree in
        let levels =
          Depgraph.levels (Compiler.depgraph compiler) (List.init n path)
        in
        Alcotest.(check (list (list string)))
          "deepest dependency first"
          (List.init n (fun l -> [ path (n - 1 - l) ]))
          levels;
        (* And the chain actually compiles through those levels. *)
        let pool = Pool.create ~domains:3 () in
        let oks, errors = Compiler.compile_all ~pool compiler in
        Alcotest.(check int) "no errors" 0 (List.length errors);
        Alcotest.(check int) "all compiled" n (List.length oks));
    Alcotest.test_case "levels drop duplicates and keep set members only" `Quick
      (fun () ->
        let tree =
          ST.of_alist
            [
              "x.cconf", "export { v: 1 }";
              "y.cconf", "import \"x.cconf\"\nexport { v: 2 }";
            ]
        in
        let compiler = Compiler.create tree in
        let dep = Compiler.depgraph compiler in
        Alcotest.(check (list (list string)))
          "dup collapsed"
          [ [ "y.cconf" ] ]
          (Depgraph.levels dep [ "y.cconf"; "y.cconf" ]);
        Alcotest.(check (list (list string)))
          "import outside the set does not add a level"
          [ [ "y.cconf" ] ]
          (Depgraph.levels dep [ "y.cconf" ]));
  ]

(* --- equivalence: parallel == sequential ------------------------------- *)

(* Adversarial generated cone: [nmods] shared modules (wide fan-out),
   every fourth config also imports its successor (chains across
   levels), and seeds divisible by 7 plant parse errors in every third
   config. *)
let nmods = 5

let gen_module_path k = Printf.sprintf "modules/m%02d.cinc" k
let gen_config_path i = Printf.sprintf "configs/cfg_%03d.cconf" i

let gen_config_source ~n i seed =
  if seed mod 7 = 0 && i mod 3 = 0 then "export {"
  else begin
    let k = i mod nmods in
    let chain =
      if i mod 4 = 0 && i + 1 < n then
        Printf.sprintf "import \"%s\"\n" (gen_config_path (i + 1))
      else ""
    in
    Printf.sprintf "%simport \"%s\"\nB%03d = M%02d + %d\nexport { id: %d, v: %d, b: B%03d }"
      chain (gen_module_path k) i k seed i seed i
  end

let gen_tree n seed =
  ST.of_alist
    (List.init nmods (fun k -> gen_module_path k, Printf.sprintf "M%02d = %d" k (k + seed))
    @ List.init n (fun i -> gen_config_path i, gen_config_source ~n i seed))

(* Everything observable about a compile run: artifacts in output
   order with digests, the error list in output order, and the cache
   counter totals.  Runs compile_all twice so the hit path counts. *)
let compile_view ?pool tree =
  let compiler = Compiler.create tree in
  let oks, errors = Compiler.compile_all ?pool compiler in
  let oks2, errors2 = Compiler.compile_all ?pool compiler in
  let cache = Compiler.cache compiler in
  let render_ok c = c.Compiler.config_path, c.Compiler.digest in
  let render_err e =
    e.Compiler.at, Compiler.stage_name e.Compiler.stage, e.Compiler.message
  in
  ( List.map render_ok oks,
    List.map render_err errors,
    (List.map render_ok oks2, List.map render_err errors2),
    (Compiler.Cache.hits cache, Compiler.Cache.misses cache) )

let equivalence_property =
  QCheck2.Test.make ~name:"parallel compile (N domains) equals sequential" ~count:30
    QCheck2.Gen.(triple (int_range 2 4) (int_range 4 20) (int_range 0 99))
    (fun (domains, n, seed) ->
      let seq = compile_view (gen_tree n seed) in
      let par = compile_view ~pool:(Pool.create ~domains ()) (gen_tree n seed) in
      seq = par)

let affected_property =
  QCheck2.Test.make ~name:"parallel compile_affected equals sequential" ~count:30
    QCheck2.Gen.(triple (int_range 2 4) (int_range 4 20) (int_range 0 99))
    (fun (domains, n, seed) ->
      let view ?pool () =
        let tree = gen_tree n seed in
        let compiler = Compiler.create tree in
        ignore (Compiler.compile_all ?pool compiler);
        (* Edit a shared module: the cone is every config importing
           module 0, plus chain importers. *)
        ST.write tree (gen_module_path 0) (Printf.sprintf "M00 = %d" (seed + 1000));
        let oks, errors =
          Compiler.compile_affected ?pool compiler ~changed:[ gen_module_path 0 ]
        in
        let cache = Compiler.cache compiler in
        ( List.map (fun c -> c.Compiler.config_path, c.Compiler.digest) oks,
          List.map (fun e -> e.Compiler.at, e.Compiler.message) errors,
          (Compiler.Cache.hits cache, Compiler.Cache.misses cache) )
      in
      view () = view ~pool:(Pool.create ~domains ()) ())

(* --- the sharded cache under contention -------------------------------- *)

let cache_tests =
  [
    Alcotest.test_case "racing publishers keep the content-addressed invariant" `Quick
      (fun () ->
        (* Real artifacts as payloads; each synthetic key maps to one
           fixed artifact, as closure hashes do. *)
        let compiler = Compiler.create (gen_tree 16 1) in
        let values, errors = Compiler.compile_all compiler in
        Alcotest.(check int) "seed tree compiles" 0 (List.length errors);
        let values = Array.of_list values in
        let nvals = Array.length values in
        let nkeys = 64 in
        let key j = Printf.sprintf "key-%03d" (j mod nkeys) in
        let value_of j = values.((j mod nkeys) mod nvals) in
        let cache = Compiler.Cache.create ~byte_budget:4096 ~shards:4 () in
        let pool = Pool.create ~domains:4 () in
        (* 4 domains race store+find over 64 keys, many times each. *)
        let bad =
          Pool.map_array pool
            (fun j ->
              Compiler.Cache.store cache (key j) (value_of j);
              match Compiler.Cache.find cache (key j) with
              | None -> 0 (* evicted under the budget: legal *)
              | Some found ->
                  if String.equal found.Compiler.digest (value_of j).Compiler.digest
                  then 0
                  else 1)
            (Array.init 512 (fun j -> j))
        in
        Alcotest.(check int) "no reader ever saw a foreign value" 0
          (Array.fold_left ( + ) 0 bad);
        Alcotest.(check bool) "budget forced evictions" true
          (Compiler.Cache.evictions cache > 0);
        Alcotest.(check bool) "resident bytes within budget" true
          (Compiler.Cache.resident_bytes cache <= 4096);
        (* Post-race: every surviving key still maps to its value. *)
        for j = 0 to nkeys - 1 do
          match Compiler.Cache.find cache (key j) with
          | None -> ()
          | Some found ->
              Alcotest.(check string) "stable" (value_of j).Compiler.digest
                found.Compiler.digest
        done);
    Alcotest.test_case "two domains compiling through one shared cache" `Quick
      (fun () ->
        let cache = Compiler.Cache.create () in
        let pool = Pool.create ~domains:2 () in
        (* Each worker compiles its own compiler over an identical
           tree, racing store/find on identical closure hashes. *)
        let digests =
          Pool.map_array pool
            (fun _ ->
              let compiler = Compiler.create ~cache (gen_tree 12 2) in
              let oks, errors = Compiler.compile_all compiler in
              Alcotest.(check int) "no errors" 0 (List.length errors);
              String.concat "," (List.map (fun c -> c.Compiler.digest) oks))
            [| 0; 1 |]
        in
        Alcotest.(check string) "identical artifacts" digests.(0) digests.(1);
        (* Content addressing deduplicated the racing publishes: one
           entry per config, not per worker. *)
        Alcotest.(check int) "one entry per config" 12 (Compiler.Cache.size cache));
  ]

(* --- defense stages: pool and no-pool runs agree ----------------------- *)

let render_verdicts verdicts =
  List.map (fun v -> Format.asprintf "%a" Defense.pp_verdict v) verdicts

let verify_input_of ?pool compiler compiled =
  {
    Pipeline.verify_changes = [];
    verify_compiled = compiled;
    verify_tree = Compiler.source_tree compiler;
    verify_depgraph = Compiler.depgraph compiler;
    verify_repo = Cm_vcs.Repo.create ();
    verify_validators = Compiler.validators compiler;
    verify_pool = pool;
  }

let stage_tests =
  [
    Alcotest.test_case "verify fan-out: verdict list identical with a pool" `Quick
      (fun () ->
        let compiler = Compiler.create (gen_tree 10 3) in
        let compiled, _ = Compiler.compile_all compiler in
        let run ?pool () =
          let registry = Cm_verify.Verify.standard () in
          Cm_verify.Verify.register_invariant registry ~name:"always-red" ~prefix:""
            (fun subset ->
              Defense.finding ~ok:false
                ~at:(List.hd subset).Compiler.artifact_path
                "planted failure");
          Cm_verify.Verify.register_test registry ~name:"ids-small" ~prefix:"configs/"
            (fun c ->
              match Cm_json.Value.member "id" c.Compiler.json with
              | Some (Cm_json.Value.Int id) when id < 1000 ->
                  Defense.finding ~ok:true "id in range"
              | _ -> Defense.finding ~ok:false ~at:c.Compiler.artifact_path "bad id");
          let verdicts =
            Cm_verify.Verify.run registry (verify_input_of ?pool compiler compiled)
          in
          ( render_verdicts verdicts,
            Cm_verify.Verify.checks_run registry,
            Cm_verify.Verify.failures registry )
        in
        let seq = run () in
        let par = run ~pool:(Pool.create ~domains:4 ()) () in
        let seq_rendered, seq_run, seq_failed = seq in
        let par_rendered, par_run, par_failed = par in
        Alcotest.(check (list string)) "same verdicts" seq_rendered par_rendered;
        Alcotest.(check int) "same checks_run" seq_run par_run;
        Alcotest.(check int) "same failures" seq_failed par_failed;
        Alcotest.(check bool) "something failed" true (seq_failed > 0));
    Alcotest.test_case "sandcastle fan-out: report identical with a pool" `Quick
      (fun () ->
        let compiler = Compiler.create (gen_tree 10 3) in
        let compiled, _ = Compiler.compile_all compiler in
        let run ?pool () =
          render_verdicts (Sandcastle.run ?pool (Sandcastle.create ()) compiled)
        in
        Alcotest.(check (list string))
          "same report"
          (run ())
          (run ~pool:(Pool.create ~domains:4 ()) ()));
    Alcotest.test_case "a jobs>1 pipeline lands a change like jobs=1" `Quick (fun () ->
        let outcome_with jobs =
          let tree = gen_tree 8 4 in
          let engine = Engine.create ~seed:7L () in
          let topo =
            Cm_sim.Topology.create ~regions:1 ~clusters_per_region:1
              ~nodes_per_cluster:8
          in
          let net = Cm_sim.Net.create engine topo in
          let zeus = Cm_zeus.Service.create net in
          let pipeline = Pipeline.create ~jobs net zeus tree in
          Pipeline.bootstrap pipeline;
          Pipeline.start pipeline;
          let outcome =
            (* The 8-node toy topology is too small for the default
               canary spec; the stages under test all run before it. *)
            Pipeline.propose_sync pipeline ~author:"pat" ~skip_canary:true
              [ gen_module_path 1, "M01 = 4242" ]
          in
          Pipeline.outcome_stage outcome, Pipeline.landed_count pipeline
        in
        Alcotest.(check (pair string int))
          "same outcome" (outcome_with 1) (outcome_with 3);
        Alcotest.(check (pair string int)) "landed" ("landed", 1) (outcome_with 3));
  ]

(* --- pack recovery ----------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let pack_tests =
  [
    Alcotest.test_case "multi-domain recovery scan recovers identical state" `Quick
      (fun () ->
        let dir = "_pack_parallel_test" in
        rm_rf dir;
        let backend d =
          Cm_vcs.Store.pack_backend ~segment_max_bytes:(1 lsl 14) ~domains:d dir
        in
        let repo = Cm_vcs.Repo.create ~store:(backend 1) () in
        for i = 1 to 120 do
          ignore
            (Cm_vcs.Repo.commit repo ~author:"t" ~message:"m"
               ~timestamp:(float_of_int i)
               [ Printf.sprintf "f%02d.json" (i mod 30), Some (Printf.sprintf "{\"i\":%d}" i) ])
        done;
        let head0 = Cm_vcs.Repo.head repo in
        Cm_vcs.Store.close (Cm_vcs.Repo.store repo);
        let view d =
          let store = Cm_vcs.Store.create ~backend:(backend d) () in
          let repo = Cm_vcs.Repo.of_store store in
          let pack = Option.get (Cm_vcs.Store.pack_handle store) in
          let v =
            ( Cm_vcs.Repo.head repo,
              Cm_vcs.Store.object_count store,
              List.sort String.compare (Cm_vcs.Store.oids store),
              (Cm_pack.Pack.recovery pack).Cm_pack.Pack.records_indexed )
          in
          Cm_vcs.Store.close store;
          v
        in
        let seq = view 1 in
        let par = view 3 in
        let head1, count1, _, indexed1 = seq in
        Alcotest.(check bool) "head survived" true (head1 = head0);
        Alcotest.(check bool) "sequential and parallel recovery agree" true (seq = par);
        Alcotest.(check bool) "recovery indexed everything" true (indexed1 = count1);
        rm_rf dir);
  ]

let () =
  Alcotest.run "parallel"
    [
      "primitives", primitive_tests;
      "pool", pool_tests;
      "levels", levels_tests;
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest [ equivalence_property; affected_property ]
      );
      "cache", cache_tests;
      "stages", stage_tests;
      "pack", pack_tests;
    ]
