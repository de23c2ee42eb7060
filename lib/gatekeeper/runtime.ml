(* Multicore Gatekeeper runtime.

   The hot path is [check]: millions of calls per second per domain,
   concurrent with live config updates.  The design splits the state
   three ways:

   - An immutable *snapshot* — every compiled project (restraints in
     written order, the cost-based evaluation ordering, pass
     probabilities) in one [Cm_parallel.Snapshot].  A reader does a
     single atomic load per check and never takes a lock; the tables
     inside a snapshot are frozen at publish time and never mutated.

   - Per-domain *execution statistics* (restraint eval/true counters,
     check counts, evaluated cost) in [Cm_parallel.Per_domain] cells.
     The hot path writes plain ints into its own domain's arrays — no
     shared counter, no contention.  Cells are merged at reoptimize
     boundaries, so the cost-based ordering converges on fleet-wide
     selectivities without a shared hot spot.

   - A *writer side*: [load]/[unload]/[reoptimize] build the next
     snapshot off to the side and publish it with [Snapshot.update]'s
     compare-and-set; a writer that loses a race rebuilds against the
     winner.  A superseded snapshot is garbage as soon as the last
     reader drops it, so nothing tracks retired snapshots. *)

module Snapshot = Cm_parallel.Snapshot
module Per_domain = Cm_parallel.Per_domain

type compiled_rule = {
  restraints : Restraint.t array;  (* written order *)
  costs : float array;             (* static_cost per restraint, written order *)
  order : int array;               (* evaluation order; frozen per snapshot *)
  pass_prob : float;
  salt : string;
}

type compiled = {
  project : Project.t;
  stamp : int;        (* identity of this load: per-domain stats reset on change *)
  crules : compiled_rule array;
}

(* Per-domain, per-project stat arrays, shaped like the compiled rules
   and keyed by the load stamp (a reload resets them). *)
type proj_stats = {
  p_stamp : int;
  evals : int array array;  (* per rule, per restraint, written indices *)
  trues : int array array;
}

type local = {
  mutable l_checks : int;
  mutable l_evals : int;
  mutable l_cost : float;
  mutable l_since_opt : int;
  tbl : (string, proj_stats) Hashtbl.t;
}

type t = {
  ctx : Restraint.ctx;
  reoptimize_every : int;
  clock : unit -> float;
  exposures : Exposure.Log.t option;
  root : (string, compiled) Hashtbl.t Snapshot.t;  (* frozen at publish: find_opt only *)
  locals : local Per_domain.t;
  stamp_counter : int Atomic.t;
}

let create ?(ctx = { Restraint.laser = None }) ?(reoptimize_every = 1024)
    ?(clock = fun () -> 0.0) ?exposures () =
  {
    ctx;
    reoptimize_every;
    clock;
    exposures;
    root = Snapshot.make (Hashtbl.create 1);
    locals =
      Per_domain.create (fun () ->
          {
            l_checks = 0;
            l_evals = 0;
            l_cost = 0.0;
            l_since_opt = 0;
            tbl = Hashtbl.create 16;
          });
    stamp_counter = Atomic.make 0;
  }

let locals t = Per_domain.all t.locals

(* --- compilation ----------------------------------------------------- *)

let compile_project t ?order_from project =
  let stamp = 1 + Atomic.fetch_and_add t.stamp_counter 1 in
  let crules =
    Array.of_list
      (List.mapi
         (fun rule_idx r ->
           let restraints = Array.of_list r.Project.restraints in
           let n = Array.length restraints in
           let order =
             match order_from with
             | Some (prev : compiled) when
                 rule_idx < Array.length prev.crules
                 && Array.length prev.crules.(rule_idx).order = n ->
                 Array.copy prev.crules.(rule_idx).order
             | _ -> Array.init n (fun i -> i)
           in
           {
             restraints;
             costs = Array.map Restraint.static_cost restraints;
             order;
             pass_prob = r.Project.pass_prob;
             salt = r.Project.salt;
           })
         project.Project.rules)
  in
  { project; stamp; crules }

(* --- publish ----------------------------------------------------------- *)

let load t project =
  let name = project.Project.project_name in
  Snapshot.update t.root (fun old ->
      let projects = Hashtbl.copy old in
      (* Carry the learned evaluation ordering across a reload when the
         rule shapes still match; the stats themselves reset. *)
      let order_from = Hashtbl.find_opt old name in
      Hashtbl.replace projects name (compile_project t ?order_from project);
      projects)

let load_json t json =
  match Project.of_json json with
  | Ok project ->
      load t project;
      Ok ()
  | Error _ as e -> e

let unload t name =
  Snapshot.update t.root (fun old ->
      if Hashtbl.mem old name then begin
        let projects = Hashtbl.copy old in
        Hashtbl.remove projects name;
        projects
      end
      else old)

(* --- statistics merge ------------------------------------------------ *)

let selectivity ~evals ~trues =
  if evals = 0 then 0.5 else float_of_int trues /. float_of_int evals

(* Sum one project's per-domain counters (written-index order).
   Concurrent domains may still be bumping their plain ints; the merge
   reads whatever has landed — approximate while running, exact once
   the workload quiesces. *)
let merged_counts t compiled =
  let shape = Array.map (fun cr -> Array.length cr.restraints) compiled.crules in
  let evals = Array.map (fun n -> Array.make n 0) shape in
  let trues = Array.map (fun n -> Array.make n 0) shape in
  List.iter
    (fun local ->
      match Hashtbl.find_opt local.tbl compiled.project.Project.project_name with
      | Some stats when stats.p_stamp = compiled.stamp ->
          Array.iteri
            (fun r n ->
              for i = 0 to n - 1 do
                evals.(r).(i) <- evals.(r).(i) + stats.evals.(r).(i);
                trues.(r).(i) <- trues.(r).(i) + stats.trues.(r).(i)
              done)
            shape
      | Some _ | None -> ())
    (locals t);
  evals, trues

(* Short-circuit ordering: an AND chain stops at the first false, so
   we want restraints that are cheap and unlikely to be true first.
   Rank by cost / P(false); lower is better.  Derived from the merged
   cross-domain statistics. *)
let reorder_compiled t compiled =
  let evals, trues = merged_counts t compiled in
  let crules =
    Array.mapi
      (fun r crule ->
        let n = Array.length crule.restraints in
        let rank i =
          let p_false =
            Float.max 0.02 (1.0 -. selectivity ~evals:evals.(r).(i) ~trues:trues.(r).(i))
          in
          crule.costs.(i) /. p_false
        in
        let ranked = Array.init n (fun i -> rank i, i) in
        Array.sort
          (fun (a, i) (b, j) ->
            match Float.compare a b with 0 -> compare i j | c -> c)
          ranked;
        { crule with order = Array.map snd ranked })
      compiled.crules
  in
  { compiled with crules }

(* Merge stats and publish re-derived orderings for every project;
   readers are unaffected. *)
let reoptimize t =
  Snapshot.update t.root (fun old ->
      let projects = Hashtbl.create (Hashtbl.length old) in
      Hashtbl.iter
        (fun name compiled -> Hashtbl.replace projects name (reorder_compiled t compiled))
        old;
      projects)

(* --- the check hot path ---------------------------------------------- *)

let stats_for local compiled =
  let name = compiled.project.Project.project_name in
  match Hashtbl.find_opt local.tbl name with
  | Some stats when stats.p_stamp = compiled.stamp -> stats
  | Some _ | None ->
      let shape = Array.map (fun cr -> Array.length cr.restraints) compiled.crules in
      let stats =
        {
          p_stamp = compiled.stamp;
          evals = Array.map (fun n -> Array.make n 0) shape;
          trues = Array.map (fun n -> Array.make n 0) shape;
        }
      in
      Hashtbl.replace local.tbl name stats;
      stats

let eval_rule t local stats crule ~rule_idx user ~use_order =
  let n = Array.length crule.restraints in
  let evals = stats.evals.(rule_idx) and trues = stats.trues.(rule_idx) in
  let rec scan i =
    if i >= n then true
    else begin
      let idx = if use_order then crule.order.(i) else i in
      evals.(idx) <- evals.(idx) + 1;
      local.l_evals <- local.l_evals + 1;
      local.l_cost <- local.l_cost +. crule.costs.(idx);
      if Restraint.eval t.ctx crule.restraints.(idx) user then begin
        trues.(idx) <- trues.(idx) + 1;
        scan (i + 1)
      end
      else false
    end
  in
  scan 0

let record_exposure t name user passed =
  match t.exposures with
  | None -> ()
  | Some log ->
      Exposure.Log.record log
        {
          Exposure.source = name;
          variant = (if passed then "pass" else "fail");
          user_id = user.User.id;
          segment = user.User.country;
          at = t.clock ();
          outcome = None;
        }

let check_with t name user ~use_order =
  let local = Per_domain.get t.locals in
  local.l_checks <- local.l_checks + 1;
  match Hashtbl.find_opt (Snapshot.get t.root) name with
  | None -> false
  | Some compiled ->
      if compiled.project.Project.killed then begin
        record_exposure t name user false;
        false
      end
      else begin
        if use_order then begin
          local.l_since_opt <- local.l_since_opt + 1;
          if local.l_since_opt >= t.reoptimize_every then begin
            local.l_since_opt <- 0;
            reoptimize t
          end
        end;
        let stats = stats_for local compiled in
        let nrules = Array.length compiled.crules in
        let rec scan i =
          if i >= nrules then false
          else begin
            let crule = compiled.crules.(i) in
            if eval_rule t local stats crule ~rule_idx:i user ~use_order then
              Project.sticky_pass compiled.project ~rule_index:i
                { Project.restraints = []; pass_prob = crule.pass_prob; salt = crule.salt }
                user
            else scan (i + 1)
          end
        in
        let passed = scan 0 in
        record_exposure t name user passed;
        passed
      end

let check t name user = check_with t name user ~use_order:true
let check_naive t name user = check_with t name user ~use_order:false

(* --- merged observability -------------------------------------------- *)

let checks_performed t = List.fold_left (fun acc l -> acc + l.l_checks) 0 (locals t)
let evaluated_restraints t = List.fold_left (fun acc l -> acc + l.l_evals) 0 (locals t)
let evaluated_cost t = List.fold_left (fun acc l -> acc +. l.l_cost) 0.0 (locals t)

let project_names t =
  List.sort String.compare
    (Hashtbl.fold (fun name _ acc -> name :: acc) (Snapshot.get t.root) [])

let restraint_stats t name =
  match Hashtbl.find_opt (Snapshot.get t.root) name with
  | None -> []
  | Some compiled ->
      let evals, trues = merged_counts t compiled in
      List.concat
        (List.mapi
           (fun row crule ->
             Array.to_list crule.order
             |> List.map (fun idx ->
                    ( Restraint.name crule.restraints.(idx),
                      evals.(row).(idx),
                      selectivity ~evals:evals.(row).(idx) ~trues:trues.(row).(idx) )))
           (Array.to_list compiled.crules))

let domains_seen t = List.length (locals t)
let snapshot_swaps t = Snapshot.swaps t.root
let retained_snapshots _ = 0
let exposure_log t = t.exposures
