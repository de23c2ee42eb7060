(* The `configerator` command-line tool: the developer-facing entry
   point an engineer uses on a checkout of the config repository
   (paper Figure 3, "Development Server").

     configerator check    --tree DIR             # compile everything, report errors
     configerator compile  --tree DIR -o OUT [P]  # write JSON artifacts
     configerator verify   --tree DIR [--gk P]    # correctness plane: static
                                                  # checks + consumer config tests
     configerator deps     --tree DIR PATH        # imports + dependents of one file
     configerator affected --tree DIR PATH...     # configs to recompile after edits
     configerator gk-check PROJECT.json --user-id N [--employee] ...
                                                  # evaluate a Gatekeeper project
     configerator whereis  --tree DIR PATH        # trace a change through a
                                                  # simulated fleet
     configerator repo stats --tree DIR           # storage backend accounting
                                                  # (flat vs merkle, memory vs pack)
     configerator generations --dir PACKDIR       # generation log of a pack repo
     configerator rollback --dir PACKDIR --generation N
                                                  # O(1) whole-tree rollback
     configerator gc --dir PACKDIR --keep N       # mark-and-sweep + compaction *)

open Cmdliner

(* --- loading a tree from disk ---------------------------------------- *)

let rec walk dir prefix acc =
  Array.fold_left
    (fun acc entry ->
      let full = Filename.concat dir entry in
      let rel = if prefix = "" then entry else prefix ^ "/" ^ entry in
      if Sys.is_directory full then walk full rel acc else (rel, full) :: acc)
    acc (Sys.readdir dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

let load_tree dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s is not a directory" dir)
  else begin
    let tree = Core.Source_tree.create () in
    List.iter
      (fun (rel, full) -> Core.Source_tree.write tree rel (read_file full))
      (walk dir "" []);
    Ok tree
  end

let tree_arg =
  let doc = "Directory holding the config sources (.cconf/.cinc/.thrift/...)." in
  Arg.(value & opt string "." & info [ "tree"; "t" ] ~docv:"DIR" ~doc)

let jobs_arg =
  let doc =
    "Compile and verify across $(docv) domains (0 = one per core, 1 = \
     sequential).  Output is identical at any setting; only wall-clock \
     changes."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let pool_of_jobs jobs =
  let jobs =
    if jobs = 0 then Cm_parallel.Pool.recommended_domains () else max 1 jobs
  in
  if jobs > 1 then Some (Cm_parallel.Pool.create ~domains:jobs ()) else None

(* --- check / compile -------------------------------------------------- *)

let print_errors errors =
  List.iter (fun e -> Printf.eprintf "error: %s\n" (Format.asprintf "%a" Core.Compiler.pp_error e)) errors

let run_check tree_dir changed jobs =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree ->
      let pool = pool_of_jobs jobs in
      let compiler = Core.Compiler.create tree in
      let compiled, errors =
        match changed with
        | [] -> Core.Compiler.compile_all ?pool compiler
        | changed -> Core.Compiler.compile_affected ?pool compiler ~changed
      in
      Printf.printf "%d source files, %d configs compiled, %d errors\n"
        (Core.Source_tree.count tree) (List.length compiled) (List.length errors);
      print_errors errors;
      if errors = [] then 0 else 1

let check_cmd =
  let doc =
    "Compile configs and report errors.  With $(b,--changed), compile only \
     the cone affected by the given edited files instead of the whole tree."
  in
  let changed =
    Arg.(
      value
      & opt_all string []
      & info [ "changed"; "c" ] ~docv:"PATH"
          ~doc:"Edited source path (repeatable); restricts checking to its affected cone.")
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run_check $ tree_arg $ changed $ jobs_arg)

let run_compile tree_dir out_dir paths pretty =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree -> (
      let compiler = Core.Compiler.create tree in
      let targets =
        match paths with
        | [] ->
            Core.Source_tree.paths_of_kind tree Core.Source_tree.Cconf
            @ Core.Source_tree.paths_of_kind tree Core.Source_tree.Raw
        | _ -> paths
      in
      let results = List.map (fun path -> path, Core.Compiler.compile compiler path) targets in
      let errors = List.filter_map (fun (_, r) -> match r with Error e -> Some e | Ok _ -> None) results in
      match errors with
      | _ :: _ ->
          print_errors errors;
          1
      | [] ->
          List.iter
            (fun (_, result) ->
              match result with
              | Error _ -> ()
              | Ok c ->
                  let out_path = Filename.concat out_dir c.Core.Compiler.artifact_path in
                  let rec mkdirs d =
                    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
                      mkdirs (Filename.dirname d);
                      Sys.mkdir d 0o755
                    end
                  in
                  mkdirs (Filename.dirname out_path);
                  let oc = open_out out_path in
                  output_string oc
                    (if pretty then Cm_json.Value.to_pretty_string c.Core.Compiler.json
                     else c.Core.Compiler.json_text);
                  output_char oc '\n';
                  close_out oc;
                  Printf.printf "%s -> %s\n" c.Core.Compiler.config_path out_path)
            results;
          0)

let compile_cmd =
  let doc = "Compile configs and write the JSON artifacts." in
  let out =
    Arg.(value & opt string "_artifacts" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let pretty = Arg.(value & flag & info [ "pretty" ] ~doc:"Pretty-print the JSON.") in
  let paths = Arg.(value & pos_all string [] & info [] ~docv:"PATH") in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run_compile $ tree_arg $ out $ paths $ pretty)

(* --- deps / affected --------------------------------------------------- *)

let with_depgraph tree_dir f =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree ->
      let dep = Core.Depgraph.create () in
      Core.Depgraph.scan dep tree;
      f tree dep

let run_deps tree_dir path =
  with_depgraph tree_dir (fun tree dep ->
      if not (Core.Source_tree.mem tree path) then begin
        Printf.eprintf "error: no such file %s\n" path;
        1
      end
      else begin
        Printf.printf "imports:\n";
        List.iter (Printf.printf "  %s\n") (Core.Depgraph.transitive_deps dep path);
        Printf.printf "imported by:\n";
        List.iter (Printf.printf "  %s\n") (Core.Depgraph.dependents dep path);
        0
      end)

let deps_cmd =
  let doc = "Show the import closure and the direct importers of a file." in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  Cmd.v (Cmd.info "deps" ~doc) Term.(const run_deps $ tree_arg $ path)

let run_affected tree_dir paths =
  with_depgraph tree_dir (fun _ dep ->
      List.iter (Printf.printf "%s\n") (Core.Depgraph.affected_configs dep paths);
      0)

let affected_cmd =
  let doc = "List every config that must be recompiled when the given files change." in
  let paths = Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH") in
  Cmd.v (Cmd.info "affected" ~doc) Term.(const run_affected $ tree_arg $ paths)

(* --- verify ------------------------------------------------------------ *)

(* The correctness plane, on a plain checkout: compile (everything or
   an affected cone), then run the same registry the pipeline's verify
   stage uses — cross-artifact static checks plus any consumer config
   tests registered via --gk/--sitevar/--mobile — and print one
   verdict per check, repairs included. *)

let run_verify tree_dir changed gk_prefixes sitevar_prefixes mobile_prefixes as_json jobs =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree ->
      let pool = pool_of_jobs jobs in
      let compiler = Core.Compiler.create tree in
      let compiled, errors =
        match changed with
        | [] -> Core.Compiler.compile_all ?pool compiler
        | changed -> Core.Compiler.compile_affected ?pool compiler ~changed
      in
      print_errors errors;
      if errors <> [] then 1
      else begin
        let registry = Cm_verify.Verify.standard () in
        (* A small panel of sample users exercises sticky sampling,
           employee gating and country restraints. *)
        let users =
          [
            Cm_gatekeeper.User.make 7L;
            Cm_gatekeeper.User.make ~employee:true 42L;
            Cm_gatekeeper.User.make ~country:"BR" ~device_model:"mobile" 1000L;
          ]
        in
        List.iter
          (fun prefix ->
            Cm_verify.Verify.register_test registry
              ~name:(Printf.sprintf "gk-project[%s]" prefix)
              ~prefix
              (Cm_verify.Consumers.gatekeeper_project ~users ()))
          gk_prefixes;
        List.iter
          (fun prefix ->
            Cm_verify.Verify.register_test registry
              ~name:(Printf.sprintf "sitevar-reader[%s]" prefix)
              ~prefix
              (Cm_verify.Consumers.sitevar_reader ()))
          sitevar_prefixes;
        List.iter
          (fun prefix ->
            Cm_verify.Verify.register_test registry
              ~name:(Printf.sprintf "mobileconfig[%s]" prefix)
              ~prefix
              (Cm_verify.Consumers.mobileconfig_translation ()))
          mobile_prefixes;
        let input =
          {
            Core.Pipeline.verify_changes = List.map (fun p -> p, "") changed;
            verify_compiled = compiled;
            verify_tree = tree;
            verify_depgraph = Core.Compiler.depgraph compiler;
            verify_repo = Cm_vcs.Repo.create ();
            verify_validators = Core.Compiler.validators compiler;
            verify_pool = pool;
          }
        in
        let verdicts = Cm_verify.Verify.run registry input in
        if as_json then
          print_endline
            (Cm_json.Value.to_pretty_string
               (Cm_json.Value.List (List.map Core.Defense.verdict_to_json verdicts)))
        else begin
          List.iter
            (fun v ->
              Printf.printf "%s\n" (Format.asprintf "@[<v>%a@]" Core.Defense.pp_verdict v))
            verdicts;
          let failed = List.length (Core.Defense.failures verdicts) in
          Printf.printf "%d configs, %d verdicts, %d failed\n" (List.length compiled)
            (List.length verdicts) failed
        end;
        if Core.Defense.all_passed verdicts then 0 else 1
      end

let verify_cmd =
  let doc =
    "Run the correctness plane over a checkout: cross-artifact static checks \
     (dependency cycles, shadowed exports, artifact collisions) plus consumer \
     config tests for the prefixes named by $(b,--gk), $(b,--sitevar) and \
     $(b,--mobile).  Prints one verdict per check — failing verdicts carry a \
     repair suggestion when one is found — and exits non-zero on any failure."
  in
  let changed =
    Arg.(
      value
      & opt_all string []
      & info [ "changed"; "c" ] ~docv:"PATH"
          ~doc:"Edited source path (repeatable); verifies only its affected cone.")
  in
  let gk =
    Arg.(
      value
      & opt_all string []
      & info [ "gk" ] ~docv:"PREFIX"
          ~doc:"Treat configs under PREFIX as Gatekeeper projects (repeatable).")
  in
  let sitevar =
    Arg.(
      value
      & opt_all string []
      & info [ "sitevar" ] ~docv:"PREFIX"
          ~doc:"Run the sitevar-reader test over configs under PREFIX (repeatable).")
  in
  let mobile =
    Arg.(
      value
      & opt_all string []
      & info [ "mobile" ] ~docv:"PREFIX"
          ~doc:"Treat configs under PREFIX as MobileConfig translations (repeatable).")
  in
  let as_json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdicts as JSON.") in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run_verify $ tree_arg $ changed $ gk $ sitevar $ mobile $ as_json $ jobs_arg)

(* --- gk-check ----------------------------------------------------------- *)

let run_gk_check project_file user_id employee country device =
  match Cm_gatekeeper.Project.of_string (read_file project_file) with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok project ->
      let user =
        Cm_gatekeeper.User.make ~employee ~country ~device_model:device
          (Int64.of_int user_id)
      in
      let ctx = { Cm_gatekeeper.Restraint.laser = None } in
      let pass = Cm_gatekeeper.Project.check ctx project user in
      Printf.printf "%s\n" (if pass then "PASS" else "FAIL");
      if pass then 0 else 1

let gk_check_cmd =
  let doc = "Evaluate a Gatekeeper project JSON against a user." in
  let project = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROJECT.json") in
  let user_id =
    Arg.(value & opt int 42 & info [ "user-id" ] ~docv:"N" ~doc:"User id (sticky sampling key).")
  in
  let employee = Arg.(value & flag & info [ "employee" ] ~doc:"User is an employee.") in
  let country =
    Arg.(value & opt string "US" & info [ "country" ] ~docv:"CC" ~doc:"User country code.")
  in
  let device =
    Arg.(value & opt string "generic" & info [ "device" ] ~docv:"MODEL" ~doc:"Device model.")
  in
  Cmd.v
    (Cmd.info "gk-check" ~doc)
    Term.(const run_gk_check $ project $ user_id $ employee $ country $ device)

(* --- gk ----------------------------------------------------------------- *)

(* Multicore runtime observability: run a self-contained check
   workload across N domains (optionally under config churn) and dump
   the runtime's counters — the same numbers a production host would
   export to its monitoring agent. *)

let run_gk_stats domains checks nprojects churn =
  let module Runtime = Cm_gatekeeper.Runtime in
  let module Project = Cm_gatekeeper.Project in
  let module User = Cm_gatekeeper.User in
  let module Exposure = Cm_gatekeeper.Exposure in
  let module Laser = Cm_laser.Laser in
  let laser = Laser.create ~shards:16 () in
  let exposures = Exposure.Log.create () in
  let ctx = { Cm_gatekeeper.Restraint.laser = Some laser } in
  let runtime = Runtime.create ~ctx ~exposures ~clock:Unix.gettimeofday () in
  let name i = Printf.sprintf "proj_%02d" i in
  for i = 0 to nprojects - 1 do
    Runtime.load runtime
      (if i mod 5 = 4 then
         Project.make ~name:(name i)
           [
             Project.rule
               [
                 Cm_gatekeeper.Restraint.make
                   (Cm_gatekeeper.Restraint.Laser_above ("trend", 0.5));
               ];
           ]
       else
         Project.staged ~name:(name i) ~employee_prob:1.0
           ~world_prob:(float_of_int (1 + (i mod 20)) /. 100.0))
  done;
  let rng = Cm_sim.Rng.create 9L in
  let users = Array.init 1024 (fun _ -> User.random rng) in
  Array.iter
    (fun u -> Laser.put laser ("trend-" ^ Int64.to_string u.User.id) 0.9)
    users;
  let per_domain = max 1 (checks / max 1 domains) in
  let stop = Atomic.make false in
  let writer =
    if not churn then None
    else
      Some
        (Domain.spawn (fun () ->
             let wrng = Cm_sim.Rng.create 11L in
             while not (Atomic.get stop) do
               (* Republish a (non-laser) project with a new rollout
                  fraction — a live rollout expansion. *)
               let i = Cm_sim.Rng.int wrng nprojects in
               let i = if i mod 5 = 4 then i - 1 else i in
               Runtime.load runtime
                 (Project.staged ~name:(name i) ~employee_prob:1.0
                    ~world_prob:(Cm_sim.Rng.float wrng 0.05));
               Laser.stream_upsert laser [ "trend-churn", Cm_sim.Rng.float wrng 1.0 ];
               Unix.sleepf 0.001
             done))
  in
  let start = Unix.gettimeofday () in
  let readers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let drng = Cm_sim.Rng.create (Int64.of_int (100 + d)) in
            for _ = 1 to per_domain do
              ignore
                (Runtime.check runtime
                   (name (Cm_sim.Rng.int drng nprojects))
                   users.(Cm_sim.Rng.int drng 1024))
            done))
  in
  List.iter Domain.join readers;
  let wall = Unix.gettimeofday () -. start in
  Atomic.set stop true;
  Option.iter Domain.join writer;
  let performed = Runtime.checks_performed runtime in
  Printf.printf "domains seen             %d\n" (Runtime.domains_seen runtime);
  Printf.printf "checks performed         %d (%.2fM checks/s aggregate)\n" performed
    (float_of_int performed /. wall /. 1e6);
  Printf.printf "snapshot swaps           %d\n" (Runtime.snapshot_swaps runtime);
  Printf.printf "evaluated restraints     %d\n" (Runtime.evaluated_restraints runtime);
  Printf.printf "evaluated cost           %.1f (%.4f per check)\n"
    (Runtime.evaluated_cost runtime)
    (Runtime.evaluated_cost runtime /. float_of_int (max 1 performed));
  Printf.printf "laser shards/generation  %d/%d (%d reads)\n" (Laser.shard_count laser)
    (Laser.generation laser) (Laser.reads laser);
  Printf.printf "exposures recorded       %d (%d dropped by ring caps)\n"
    (Exposure.Log.recorded exposures)
    (Exposure.Log.dropped exposures);
  0

let gk_cmd =
  let stats_doc =
    "Run a self-contained multi-domain check workload and report the \
     runtime's counters: domains seen, snapshot swaps and reclamation, \
     evaluated restraint cost, Laser generations, exposure records."
  in
  let domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc:"Reader domains to spawn.")
  in
  let checks =
    Arg.(
      value & opt int 200_000
      & info [ "checks" ] ~docv:"N" ~doc:"Total checks across all domains.")
  in
  let projects =
    Arg.(value & opt int 20 & info [ "projects" ] ~docv:"N" ~doc:"Projects to load.")
  in
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:"Publish config updates from a writer domain while checks run.")
  in
  let stats_cmd =
    Cmd.v (Cmd.info "stats" ~doc:stats_doc)
      Term.(const run_gk_stats $ domains $ checks $ projects $ churn)
  in
  Cmd.group
    (Cmd.info "gk" ~doc:"Multicore Gatekeeper runtime observability.")
    [ stats_cmd ]

(* --- whereis ------------------------------------------------------------ *)

(* "Where is my config?": compile one config, push it through a
   simulated Zeus fleet with tracing and propagation tracking on, and
   report how the change spreads — a coverage timeline, the trace
   waterfall, and the per-hop latency table. *)

let run_whereis tree_dir config_path regions clusters nodes =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree -> (
      let compiler = Core.Compiler.create tree in
      match Core.Compiler.compile compiler config_path with
      | Error e ->
          Printf.eprintf "error: %s\n" (Format.asprintf "%a" Core.Compiler.pp_error e);
          1
      | Ok compiled ->
          let module Engine = Cm_sim.Engine in
          let module Tracer = Cm_trace.Tracer in
          let module Propagation = Cm_trace.Propagation in
          let engine = Engine.create () in
          let topo =
            Cm_sim.Topology.create ~regions ~clusters_per_region:clusters
              ~nodes_per_cluster:nodes
          in
          let net = Cm_sim.Net.create engine topo in
          let tracer = Tracer.create ~now:(fun () -> Engine.now engine) () in
          Cm_sim.Net.set_tracer net tracer;
          let prop = Propagation.create ~now:(fun () -> Engine.now engine) () in
          let zeus = Cm_zeus.Service.create net in
          Cm_zeus.Service.set_propagation zeus prop;
          let artifact = compiled.Core.Compiler.artifact_path in
          Array.iter
            (fun (n : Cm_sim.Topology.node) ->
              let proxy = Cm_zeus.Service.proxy_on zeus n.id in
              Cm_zeus.Service.subscribe proxy ~path:artifact (fun ~zxid:_ _ -> ()))
            (Cm_sim.Topology.nodes topo);
          (* Zeus keeps periodic health timers alive, so drive the clock
             with bounded steps rather than waiting for the queue to
             drain. *)
          Engine.run_for engine 1.0;
          let ctx = Tracer.new_trace tracer ~name:("whereis:" ^ artifact) in
          Cm_zeus.Service.write ~digest:compiled.Core.Compiler.digest ~ctx zeus
            ~path:artifact ~data:compiled.Core.Compiler.json_text;
          Printf.printf "config   %s\n" config_path;
          Printf.printf "artifact %s (digest %s, %d bytes)\n" artifact
            compiled.Core.Compiler.digest
            (String.length compiled.Core.Compiler.json_text);
          Printf.printf "fleet    %d regions x %d clusters x %d nodes = %d proxies\n\n"
            regions clusters nodes
            (Cm_sim.Topology.node_count topo);
          Printf.printf "coverage timeline (fraction of proxies holding the new version):\n";
          let last = ref (-1.0) in
          let sample () =
            match Propagation.latest_zxid prop ~path:artifact with
            | None -> ()
            | Some zxid ->
                let c = Propagation.coverage prop ~path:artifact ~zxid () in
                if c > !last then begin
                  last := c;
                  Printf.printf "  t=%8.4fs  %5.1f%%  (%d/%d)\n" (Engine.now engine)
                    (100.0 *. c)
                    (int_of_float
                       (c *. float_of_int (Propagation.target_count prop ~path:artifact ())
                        +. 0.5))
                    (Propagation.target_count prop ~path:artifact ())
                end
          in
          let steps = 3000 in
          let dt = 0.01 in
          let i = ref 0 in
          while !last < 1.0 && !i < steps do
            Engine.run_for engine dt;
            sample ();
            incr i
          done;
          Engine.run_for engine 0.5;
          sample ();
          Printf.printf "\n%s\n" (Tracer.waterfall tracer (Tracer.trace_id ctx));
          Printf.printf "\n%s\n" (Tracer.hop_report tracer);
          let final =
            match Propagation.latest_zxid prop ~path:artifact with
            | None -> 0.0
            | Some zxid -> Propagation.coverage prop ~path:artifact ~zxid ()
          in
          Printf.printf "\nfinal coverage: %.1f%% of %d proxies" (100.0 *. final)
            (Propagation.target_count prop ~path:artifact ());
          (if Propagation.latency_count prop > 0 then
             Printf.printf "; commit->proxy p50 %.1fms, max %.1fms"
               (1000.0 *. Propagation.latency_percentile prop 0.50)
               (1000.0 *. Propagation.latency_percentile prop 1.0));
          print_newline ();
          if final >= 1.0 then 0 else 1)

(* --- repo stats ------------------------------------------------------- *)

(* Imports the tree into a repository and pushes synthetic single-file
   update commits, reporting how much of the store each backend
   re-hashes per commit: the flat backend rewrites the whole tree
   object, the Merkle backend only the dirty directory spine.  With
   --store pack the same run lands in durable pack segments — the
   backend-independent counters (objects, bytes, dedup) must come out
   identical, and a pack-specific block (segments, file/dead bytes,
   fsync batches, GC) is appended. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run_repo_stats tree_dir backend_name commits store_name store_dir cache_mb =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree -> (
      let snapshot = Core.Source_tree.snapshot tree in
      if snapshot = [] then begin
        Printf.eprintf "error: %s holds no files\n" tree_dir;
        1
      end
      else
        let backends =
          match backend_name with
          | "both" -> [ Cm_vcs.Repo.Flat; Cm_vcs.Repo.Merkle ]
          | name -> (
              match Cm_vcs.Repo.backend_of_string name with
              | Some backend -> [ backend ]
              | None -> [])
        in
        if store_name <> "memory" && store_name <> "pack" then begin
          Printf.eprintf "error: unknown store %S (memory|pack)\n" store_name;
          1
        end
        else
        match backends with
        | [] ->
            Printf.eprintf "error: unknown backend %S (flat|merkle|both)\n" backend_name;
            1
        | backends ->
            let changes = List.map (fun (path, data) -> path, Some data) snapshot in
            let paths = Array.of_list (List.map fst snapshot) in
            Printf.printf
              "%-8s %8s %8s %10s %12s %14s %12s %6s\n"
              "backend" "files" "commits" "objects" "repo bytes" "hashed/commit" "reused" "gen";
            List.iter
              (fun backend ->
                let store_backend =
                  if store_name = "memory" then Cm_vcs.Store.Memory
                  else begin
                    (* One pack directory per measured backend; wiped
                       first so counters are not polluted by a previous
                       run's recovered objects. *)
                    let dir =
                      Filename.concat store_dir (Cm_vcs.Repo.backend_name backend)
                    in
                    rm_rf dir;
                    Cm_vcs.Store.pack_backend dir
                  end
                in
                let repo = Cm_vcs.Repo.create ~backend ~store:store_backend () in
                let store = Cm_vcs.Repo.store repo in
                ignore
                  (Cm_vcs.Repo.commit repo ~author:"import" ~message:"import"
                     ~timestamp:0.0 changes);
                let bytes0 = Cm_vcs.Store.total_bytes store in
                for i = 1 to commits do
                  let path = paths.(i mod Array.length paths) in
                  let data =
                    match Core.Source_tree.read tree path with
                    | Some data -> Printf.sprintf "%s\n# rev %d" data i
                    | None -> Printf.sprintf "# rev %d" i
                  in
                  ignore
                    (Cm_vcs.Repo.commit repo ~author:"stats" ~message:"update"
                       ~timestamp:(float_of_int i) [ path, Some data ])
                done;
                let bytes1 = Cm_vcs.Store.total_bytes store in
                let hashed_per_commit =
                  (bytes1 - bytes0) / max 1 commits
                in
                let reused = 1.0 -. (float_of_int hashed_per_commit /. float_of_int (max 1 bytes1)) in
                let generation =
                  match Cm_vcs.Repo.head repo with
                  | Some oid -> (
                      match Cm_vcs.Repo.commit_info repo oid with
                      | Some c -> c.Cm_vcs.Store.generation
                      | None -> 0)
                  | None -> 0
                in
                Printf.printf "%-8s %8d %8d %10d %12d %14d %11.1f%% %6d\n"
                  (Cm_vcs.Repo.backend_name backend)
                  (Cm_vcs.Repo.file_count repo)
                  (Cm_vcs.Repo.commit_count repo)
                  (Cm_vcs.Store.object_count store)
                  bytes1 hashed_per_commit (100.0 *. reused) generation;
                Printf.printf
                  "         store puts %d, dedup hits %d (%d bytes deduplicated)\n"
                  (Cm_vcs.Store.put_count store)
                  (Cm_vcs.Store.dedup_hits store)
                  (Cm_vcs.Store.dedup_bytes store);
                (match Cm_vcs.Store.pack_handle store with
                | None -> ()
                | Some pack ->
                    let module P = Cm_pack.Pack in
                    Cm_vcs.Store.sync store;
                    Printf.printf
                      "         pack: %d segments, %d file bytes (%d dead), %d appends in %d fsync batches\n"
                      (P.segment_count pack) (P.file_bytes pack) (P.dead_bytes pack)
                      (P.appends pack) (P.fsync_batches pack);
                    Printf.printf
                      "         pack: generation %d durable, gc runs %d (%d objects, %d bytes reclaimed)\n"
                      (P.durable_generation pack) (P.gc_runs pack)
                      (P.gc_reclaimed_objects pack)
                      (P.gc_reclaimed_bytes pack);
                    Cm_vcs.Store.close store))
              backends;
            (* The compiler's memo cache rides along with the storage
               report: compile the imported tree twice through a
               (optionally budgeted) cache — the second pass is all
               hits unless the clock-LRU sweep evicted under the
               budget. *)
            let module C = Core.Compiler.Cache in
            let cache =
              C.create
                ?byte_budget:
                  (if cache_mb > 0 then Some (cache_mb * 1024 * 1024) else None)
                ()
            in
            let compiler = Core.Compiler.create ~cache tree in
            ignore (Core.Compiler.compile_all compiler);
            ignore (Core.Compiler.compile_all compiler);
            Printf.printf
              "compile cache: %d artifacts resident (%d bytes%s), %d hits, %d misses, %d evictions\n"
              (C.size cache) (C.resident_bytes cache)
              (match C.byte_budget cache with
              | None -> ", unbounded"
              | Some b -> Printf.sprintf " of %d budget" b)
              (C.hits cache) (C.misses cache) (C.evictions cache);
            0)

let repo_cmd =
  let stats_doc =
    "Import the tree into the content-addressed store and report per-backend \
     object counts and per-commit re-hashed vs reused bytes (flat rewrites the \
     whole tree object each commit; merkle only the changed directory spine).  \
     With $(b,--store pack) the commits land in durable pack segments; the \
     backend-independent counters are identical to a memory run, and pack \
     internals (segments, dead bytes, fsync batches) are appended."
  in
  let backend =
    Arg.(
      value & opt string "both"
      & info [ "backend" ] ~docv:"B" ~doc:"Backend to measure: flat, merkle or both.")
  in
  let commits =
    Arg.(
      value & opt int 20
      & info [ "commits" ] ~docv:"N" ~doc:"Synthetic update commits to push.")
  in
  let store =
    Arg.(
      value & opt string "memory"
      & info [ "store" ] ~docv:"S" ~doc:"Object store: memory or pack.")
  in
  let store_dir =
    Arg.(
      value & opt string "_pack_stats"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Pack directory for $(b,--store pack) (one subdirectory per backend; wiped first).")
  in
  let cache_mb =
    Arg.(
      value & opt int 0
      & info [ "cache-mb" ] ~docv:"MB"
          ~doc:
            "Byte budget for the compile memo cache report (0 = unbounded).  \
             Bounded caches evict by sharded clock-LRU; the report shows \
             resident bytes and evictions.")
  in
  let stats_cmd =
    Cmd.v (Cmd.info "stats" ~doc:stats_doc)
      Term.(
        const run_repo_stats $ tree_arg $ backend $ commits $ store $ store_dir
        $ cache_mb)
  in
  Cmd.group (Cmd.info "repo" ~doc:"Version-control storage inspection.") [ stats_cmd ]

(* --- generations / rollback / gc --------------------------------------- *)

(* Operate on an existing pack-backed repository directory: reopening
   it *is* crash recovery (segment scan + generation-log replay), so
   these verbs double as the recovery UI. *)

let open_pack_repo dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s is not a pack directory" dir)
  else
    let store = Cm_vcs.Store.create ~backend:(Cm_vcs.Store.pack_backend dir) () in
    Ok (Cm_vcs.Repo.of_store store)

let pack_dir_arg =
  let doc = "Pack-backed repository directory (as written by --store pack)." in
  Arg.(value & opt string "_pack" & info [ "dir"; "d" ] ~docv:"DIR" ~doc)

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON.")

let gen_to_json (g : Cm_vcs.Store.gen) =
  Cm_json.Value.obj
    [
      "generation", Cm_json.Value.Int g.Cm_vcs.Store.gen_num;
      "root", Cm_json.Value.String g.Cm_vcs.Store.gen_root;
      "time", Cm_json.Value.Float g.Cm_vcs.Store.gen_time;
      "message", Cm_json.Value.String g.Cm_vcs.Store.gen_message;
    ]

let run_generations dir limit as_json =
  match open_pack_repo dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok repo ->
      let store = Cm_vcs.Repo.store repo in
      let gens = List.rev (Cm_vcs.Store.generations store) in
      let shown = match limit with None -> gens | Some n -> List.filteri (fun i _ -> i < n) gens in
      (if as_json then
         print_endline
           (Cm_json.Value.to_pretty_string
              (Cm_json.Value.obj
                 [
                   "last", Cm_json.Value.Int (Cm_vcs.Store.last_generation store);
                   "durable", Cm_json.Value.Int (Cm_vcs.Store.durable_generation store);
                   "dropped_on_recovery", Cm_json.Value.Int (Cm_vcs.Repo.recovery_dropped repo);
                   "generations", Cm_json.Value.List (List.map gen_to_json shown);
                 ]))
       else begin
         Printf.printf "%-6s %-34s %-14s %s\n" "gen" "root" "time" "message";
         List.iter
           (fun (g : Cm_vcs.Store.gen) ->
             Printf.printf "%-6d %-34s %14.3f %s\n" g.Cm_vcs.Store.gen_num
               g.Cm_vcs.Store.gen_root g.Cm_vcs.Store.gen_time g.Cm_vcs.Store.gen_message)
           shown;
         Printf.printf "%d generations (durable through %d)" (List.length gens)
           (Cm_vcs.Store.durable_generation store);
         if Cm_vcs.Repo.recovery_dropped repo > 0 then
           Printf.printf "; %d dropped as incomplete on recovery"
             (Cm_vcs.Repo.recovery_dropped repo);
         print_newline ()
       end);
      Cm_vcs.Store.close store;
      0

let generations_cmd =
  let doc =
    "List the generation log of a pack-backed repository: every landed commit \
     pins its root as a numbered generation, so this is the queryable linear \
     history of landed states (and the rollback targets)."
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit"; "n" ] ~docv:"N" ~doc:"Show only the newest N generations.")
  in
  Cmd.v (Cmd.info "generations" ~doc)
    Term.(const run_generations $ pack_dir_arg $ limit $ json_flag)

let run_rollback dir generation as_json =
  match open_pack_repo dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok repo -> (
      let store = Cm_vcs.Repo.store repo in
      let start = Unix.gettimeofday () in
      match
        Cm_vcs.Repo.rollback repo ~generation ~timestamp:(Unix.gettimeofday ())
      with
      | exception Invalid_argument message ->
          Printf.eprintf "error: %s\n" message;
          Cm_vcs.Store.close store;
          1
      | pinned ->
          let elapsed_ms = 1000.0 *. (Unix.gettimeofday () -. start) in
          (if as_json then
             print_endline
               (Cm_json.Value.to_pretty_string
                  (Cm_json.Value.obj
                     [
                       "rolled_back_to", Cm_json.Value.Int generation;
                       "pinned_as", Cm_json.Value.Int pinned;
                       "head",
                       (match Cm_vcs.Repo.head repo with
                        | Some oid -> Cm_json.Value.String oid
                        | None -> Cm_json.Value.Null);
                       "files", Cm_json.Value.Int (Cm_vcs.Repo.file_count repo);
                       "elapsed_ms", Cm_json.Value.Float elapsed_ms;
                     ]))
           else
             Printf.printf
               "rolled back to generation %d (pinned as generation %d): %d files at head, %.1fms\n"
               generation pinned (Cm_vcs.Repo.file_count repo) elapsed_ms);
          Cm_vcs.Store.close store;
          0)

let rollback_cmd =
  let doc =
    "Atomic whole-tree rollback of a pack-backed repository to a pinned \
     generation.  O(1) at the store however long the history: one pin record \
     is appended and fsynced; no object is copied or rewritten.  The rollback \
     itself lands as a new generation, so it is visible in $(b,generations) \
     and is itself rollback-able."
  in
  let generation =
    Arg.(
      required
      & opt (some int) None
      & info [ "generation"; "g" ] ~docv:"N" ~doc:"Target generation number.")
  in
  Cmd.v (Cmd.info "rollback" ~doc)
    Term.(const run_rollback $ pack_dir_arg $ generation $ json_flag)

let run_gc dir keep as_json =
  match open_pack_repo dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok repo ->
      let store = Cm_vcs.Repo.store repo in
      let stats = Cm_vcs.Repo.gc repo ~keep_last:keep in
      let module P = Cm_pack.Pack in
      let pack = Option.get (Cm_vcs.Store.pack_handle store) in
      (if as_json then
         print_endline
           (Cm_json.Value.to_pretty_string
              (Cm_json.Value.obj
                 [
                   "live_objects", Cm_json.Value.Int stats.Cm_vcs.Store.gc_live;
                   "swept_objects", Cm_json.Value.Int stats.Cm_vcs.Store.gc_swept;
                   "swept_bytes", Cm_json.Value.Int stats.Cm_vcs.Store.gc_swept_bytes;
                   "dropped_generations",
                   Cm_json.Value.Int stats.Cm_vcs.Store.gc_dropped_generations;
                   "segments", Cm_json.Value.Int (P.segment_count pack);
                   "file_bytes", Cm_json.Value.Int (P.file_bytes pack);
                   "dead_bytes", Cm_json.Value.Int (P.dead_bytes pack);
                   "reclaimed_bytes", Cm_json.Value.Int (P.gc_reclaimed_bytes pack);
                 ]))
       else begin
         Printf.printf "swept %d objects (%d bytes), dropped %d generations\n"
           stats.Cm_vcs.Store.gc_swept stats.Cm_vcs.Store.gc_swept_bytes
           stats.Cm_vcs.Store.gc_dropped_generations;
         Printf.printf "live: %d objects in %d segments, %d file bytes (%d dead)\n"
           stats.Cm_vcs.Store.gc_live (P.segment_count pack) (P.file_bytes pack)
           (P.dead_bytes pack);
         Printf.printf "reclaimed so far: %d bytes\n" (P.gc_reclaimed_bytes pack)
       end);
      Cm_vcs.Store.close store;
      0

let gc_cmd =
  let doc =
    "Mark-and-sweep garbage collection of a pack-backed repository: keep the \
     newest $(b,--keep) generations, sweep every object unreachable from their \
     roots, and compact segments whose dead fraction crosses the threshold \
     (copy-live-forward, manifest swap, delete)."
  in
  let keep =
    Arg.(
      value & opt int 10
      & info [ "keep"; "k" ] ~docv:"N" ~doc:"Generations to keep (newest N).")
  in
  Cmd.v (Cmd.info "gc" ~doc) Term.(const run_gc $ pack_dir_arg $ keep $ json_flag)

let whereis_cmd =
  let doc =
    "Trace a config change through a simulated fleet: compile the config, \
     commit it to Zeus with tracing on, and report the propagation \
     timeline, span waterfall and per-hop latencies."
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  let regions =
    Arg.(value & opt int 2 & info [ "regions" ] ~docv:"N" ~doc:"Simulated regions.")
  in
  let clusters =
    Arg.(value & opt int 2 & info [ "clusters" ] ~docv:"N" ~doc:"Clusters per region.")
  in
  let nodes =
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N" ~doc:"Servers per cluster.")
  in
  Cmd.v (Cmd.info "whereis" ~doc)
    Term.(const run_whereis $ tree_arg $ path $ regions $ clusters $ nodes)

let () =
  let doc = "Configuration-as-code toolchain (SOSP'15 reproduction)." in
  let info = Cmd.info "configerator" ~version:"1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd;
            compile_cmd;
            verify_cmd;
            deps_cmd;
            affected_cmd;
            gk_check_cmd;
            gk_cmd;
            whereis_cmd;
            repo_cmd;
            generations_cmd;
            rollback_cmd;
            gc_cmd;
          ]))
