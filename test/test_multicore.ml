(* Multicore behavior of the Gatekeeper runtime and the Laser store:
   lock-free snapshot reads under live config churn.

   - a reader interleaved with [mapreduce_refresh] never observes a
     missing key that exists in both the old and the new batch (the
     refresh publishes as one atomic root swap);
   - N-domain [check] decides exactly like single-domain [check] and
     [check_naive] (QCheck property);
   - per-domain statistics merged across N domains equal the
     sequential run's (exact for naive-order runs, which never
     reorder);
   - concurrent [load] is never observed torn and becomes visible;
   - every [load] and [reoptimize] publishes exactly one snapshot, and
     [unload] of a missing project publishes none;
   - racing feeder pipelines lose no updates (CAS retry). *)

module User = Cm_gatekeeper.User
module Restraint = Cm_gatekeeper.Restraint
module Project = Cm_gatekeeper.Project
module Runtime = Cm_gatekeeper.Runtime
module Exposure = Cm_gatekeeper.Exposure
module Laser = Cm_laser.Laser

let user = User.make

(* --- Laser ------------------------------------------------------------ *)

let laser_tests =
  [
    Alcotest.test_case "refresh is atomic under a concurrent reader" `Quick (fun () ->
        let store = Laser.create ~shards:8 () in
        (* Keys present in every batch: a reader must never see them
           missing, no matter how it interleaves with the refresh. *)
        let common = List.init 64 (fun i -> Printf.sprintf "mr-k%02d" i) in
        let batch v = List.map (fun k -> k, v) common in
        Laser.mapreduce_refresh store ~prefix:"mr-" (batch 1.0);
        let stop = Atomic.make false in
        let missing = Atomic.make 0 in
        let looked = Atomic.make 0 in
        let reader =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                List.iter
                  (fun k ->
                    Atomic.incr looked;
                    if Laser.get store k = None then Atomic.incr missing)
                  common
              done)
        in
        for round = 2 to 150 do
          (* Each refresh also rotates a batch-only key, so batches
             really differ. *)
          let extra = Printf.sprintf "mr-only-%d" round, float_of_int round in
          Laser.mapreduce_refresh store ~prefix:"mr-" (extra :: batch (float_of_int round))
        done;
        Atomic.set stop true;
        Domain.join reader;
        Alcotest.(check int) "no common key ever missing" 0 (Atomic.get missing);
        Alcotest.(check bool) "reader made progress" true (Atomic.get looked > 0);
        (* Old batch-only keys were dropped, the last one retained. *)
        Alcotest.(check (option (float 1e-9))) "last extra present" (Some 150.0)
          (Laser.get store "mr-only-150");
        Alcotest.(check (option (float 1e-9))) "stale extra dropped" None
          (Laser.get store "mr-only-149"));
    Alcotest.test_case "racing feeders lose no updates" `Quick (fun () ->
        let store = Laser.create ~shards:4 () in
        let writer lo =
          Domain.spawn (fun () ->
              for i = lo to lo + 499 do
                Laser.stream_upsert store
                  [ Printf.sprintf "k%05d" i, float_of_int i;
                    Printf.sprintf "j%05d" i, float_of_int (-i) ]
              done)
        in
        let a = writer 0 and b = writer 1000 in
        Domain.join a;
        Domain.join b;
        Alcotest.(check int) "all keys present" 2000 (Laser.size store);
        Alcotest.(check (option (float 1e-9))) "spot a" (Some 17.0) (Laser.get store "k00017");
        Alcotest.(check (option (float 1e-9))) "spot b" (Some 1499.0) (Laser.get store "k01499");
        Alcotest.(check bool) "every publish bumped the generation" true
          (Laser.generation store >= 1000));
    Alcotest.test_case "shards cover the keyspace" `Quick (fun () ->
        let store = Laser.create ~shards:8 () in
        Laser.stream_upsert store (List.init 400 (fun i -> Printf.sprintf "key-%d" i, 1.0));
        Alcotest.(check int) "8 shards" 8 (Laser.shard_count store);
        let sizes = Laser.shard_sizes store in
        Alcotest.(check int) "sizes sum to size" 400 (List.fold_left ( + ) 0 sizes);
        Alcotest.(check bool) "no empty shard at this fill" true
          (List.for_all (fun n -> n > 0) sizes));
  ]

(* --- Runtime: equivalence across domains ------------------------------ *)

let gen_restraint =
  let open QCheck2.Gen in
  let base =
    oneof
      [
        pure Restraint.Employee;
        map (fun cs -> Restraint.Country cs)
          (list_size (int_range 1 3) (oneofl [ "US"; "JP"; "BR"; "DE" ]));
        map (fun n -> Restraint.Min_friends n) (int_range 0 1000);
        map (fun n -> Restraint.Max_friends n) (int_range 0 1000);
        map2 (fun n r -> Restraint.Id_mod (n, r mod n)) (int_range 1 50) (int_range 0 49);
        map (fun v -> Restraint.App_version_at_least v) (int_range 50 150);
        pure Restraint.Always;
      ]
  in
  map2 (fun negate kind -> Restraint.make ~negate kind) bool base

let gen_project =
  let open QCheck2.Gen in
  let rule =
    map2
      (fun restraints prob -> Project.rule ~pass_prob:prob restraints)
      (list_size (int_range 0 4) gen_restraint)
      (float_range 0.0 1.0)
  in
  map (fun rules -> Project.make ~name:"Gen" rules) (list_size (int_range 1 4) rule)

(* Decisions of [check] partitioned over [ndomains] equal sequential
   [check] and [check_naive] over the same users — under concurrent
   stat accumulation and reoptimization publishes. *)
let multicore_equivalence =
  QCheck2.Test.make ~name:"N-domain check == sequential check == naive" ~count:30
    QCheck2.Gen.(triple gen_project (int_range 2 4) (int_range 40 120))
    (fun (project, ndomains, nusers) ->
      let rng = Cm_sim.Rng.create 91L in
      let users = Array.init nusers (fun _ -> User.random rng) in
      let sequential = Runtime.create ~reoptimize_every:16 () in
      Runtime.load sequential project;
      let expected = Array.map (fun u -> Runtime.check sequential "Gen" u) users in
      let naive = Runtime.create () in
      Runtime.load naive project;
      let expected_naive = Array.map (fun u -> Runtime.check_naive naive "Gen" u) users in
      let parallel = Runtime.create ~reoptimize_every:16 () in
      Runtime.load parallel project;
      let got = Array.make nusers false in
      let workers =
        List.init ndomains (fun d ->
            Domain.spawn (fun () ->
                let i = ref d in
                while !i < nusers do
                  got.(!i) <- Runtime.check parallel "Gen" users.(!i);
                  i := !i + ndomains
                done))
      in
      List.iter Domain.join workers;
      expected = got && expected_naive = got)

(* Naive-order runs never reorder, so the merged cross-domain stats
   must equal the sequential run's exactly (selectivities included). *)
let stats_merge_exact =
  QCheck2.Test.make ~name:"merged N-domain naive stats == sequential stats" ~count:30
    QCheck2.Gen.(triple gen_project (int_range 2 4) (int_range 40 120))
    (fun (project, ndomains, nusers) ->
      let rng = Cm_sim.Rng.create 17L in
      let users = Array.init nusers (fun _ -> User.random rng) in
      let run_sequential () =
        let runtime = Runtime.create () in
        Runtime.load runtime project;
        Array.iter (fun u -> ignore (Runtime.check_naive runtime "Gen" u)) users;
        runtime
      in
      let run_parallel () =
        let runtime = Runtime.create () in
        Runtime.load runtime project;
        let workers =
          List.init ndomains (fun d ->
              Domain.spawn (fun () ->
                  let i = ref d in
                  while !i < nusers do
                    ignore (Runtime.check_naive runtime "Gen" users.(!i));
                    i := !i + ndomains
                  done))
        in
        List.iter Domain.join workers;
        runtime
      in
      let a = run_sequential () and b = run_parallel () in
      Runtime.restraint_stats a "Gen" = Runtime.restraint_stats b "Gen"
      && Runtime.evaluated_restraints a = Runtime.evaluated_restraints b
      && Runtime.checks_performed a = Runtime.checks_performed b
      && Float.abs (Runtime.evaluated_cost a -. Runtime.evaluated_cost b) < 1e-6)

(* --- Runtime: live updates under concurrent readers ------------------- *)

let runtime_tests =
  [
    Alcotest.test_case "live load visible to a concurrent reader" `Quick (fun () ->
        let runtime = Runtime.create () in
        Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:0.0);
        let stop = Atomic.make false in
        let seen_on = Atomic.make false and seen_off = Atomic.make false in
        let u = user 7L in
        let reader =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                if Runtime.check runtime "Live" u then Atomic.set seen_on true
                else Atomic.set seen_off true
              done)
        in
        for _ = 1 to 60 do
          Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:1.0);
          Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:0.0)
        done;
        (* Rest in each state until the reader reports it: on a 1-core
           host the reader may miss every transient flip, but a
           published state that stays put must become visible. *)
        let await flag =
          let deadline = Unix.gettimeofday () +. 5.0 in
          while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done
        in
        await seen_off;
        Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:1.0);
        await seen_on;
        Atomic.set stop true;
        Domain.join reader;
        Alcotest.(check bool) "saw the gate on" true (Atomic.get seen_on);
        Alcotest.(check bool) "saw the gate off" true (Atomic.get seen_off));
    Alcotest.test_case "each load and reoptimize publishes one snapshot" `Quick (fun () ->
        let runtime = Runtime.create () in
        let swaps () = Runtime.snapshot_swaps runtime in
        Alcotest.(check int) "nothing published yet" 0 (swaps ());
        for i = 1 to 10 do
          Runtime.load runtime
            (Project.staged ~name:"E" ~employee_prob:0.0 ~world_prob:(float_of_int i /. 10.0));
          Alcotest.(check int) "load adds one" i (swaps ())
        done;
        for i = 1 to 50 do
          ignore (Runtime.check runtime "E" (user (Int64.of_int i)))
        done;
        Alcotest.(check int) "checks publish nothing" 10 (swaps ());
        Runtime.reoptimize runtime;
        Alcotest.(check int) "reoptimize adds one" 11 (swaps ());
        Runtime.unload runtime "Missing";
        Alcotest.(check int) "unload of a missing project adds nothing" 11 (swaps ());
        Runtime.unload runtime "E";
        Alcotest.(check int) "unload of a loaded project adds one" 12 (swaps ()));
    Alcotest.test_case "exposure buffers merge across domains" `Quick (fun () ->
        let log = Exposure.Log.create () in
        let runtime = Runtime.create ~exposures:log () in
        Runtime.load runtime (Project.staged ~name:"X" ~employee_prob:0.0 ~world_prob:1.0);
        let worker lo =
          Domain.spawn (fun () ->
              for i = lo to lo + 99 do
                ignore (Runtime.check runtime "X" (user (Int64.of_int i)))
              done)
        in
        let a = worker 0 and b = worker 1000 in
        Domain.join a;
        Domain.join b;
        Alcotest.(check int) "200 exposures" 200 (Exposure.Log.length log);
        match Exposure.by_variant (Exposure.Log.drain log) with
        | [ ("pass", 200, _) ] -> ()
        | cells ->
            Alcotest.failf "unexpected cells: %s"
              (String.concat ";" (List.map (fun (v, n, _) -> Printf.sprintf "%s=%d" v n) cells)));
  ]

let properties =
  List.map QCheck_alcotest.to_alcotest [ multicore_equivalence; stats_merge_exact ]

let () =
  Alcotest.run "multicore"
    [
      "laser", laser_tests;
      "runtime", runtime_tests;
      "properties", properties;
    ]
