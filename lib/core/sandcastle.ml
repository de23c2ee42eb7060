type check = {
  check_name : string;
  run : Compiler.compiled list -> Defense.finding;
}

type report = Defense.verdict list

type t = {
  mutable checks : check list;
  validated : (string, unit) Hashtbl.t; (* artifact content keys that passed *)
  mutable nskipped : int;
}

(* The digest covers the distributed bytes; type/schema hash join the
   key because checks also inspect the typing metadata. *)
let artifact_key c =
  String.concat ":"
    [
      c.Compiler.digest;
      Option.value ~default:"" c.Compiler.type_name;
      Option.value ~default:"" c.Compiler.schema_hash;
    ]

let inline_size_limit = 1024 * 1024

(* A check that flags a subset of the artifacts: the finding carries
   the first offender as its path so the verdict points at a file. *)
let flagging ~none ~some bad =
  match bad with
  | [] -> Defense.finding ~ok:true none
  | offender :: _ ->
      Defense.finding ~ok:false
        ~at:offender.Compiler.artifact_path
        (some ^ String.concat ", " (List.map (fun c -> c.Compiler.artifact_path) bad))

let default_checks () =
  [
    {
      check_name = "json-roundtrip";
      run =
        (fun artifacts ->
          List.filter
            (fun c ->
              match Cm_json.Parser.parse c.Compiler.json_text with
              | Ok parsed -> not (Cm_json.Value.equal parsed c.Compiler.json)
              | Error _ ->
                  (* Raw non-JSON configs are stored as strings and
                     are exempt from the round-trip requirement. *)
                  c.Compiler.type_name <> None)
            artifacts
          |> flagging ~none:"all artifacts round-trip"
               ~some:"non-round-tripping artifacts: ");
    };
    {
      check_name = "size-limit";
      run =
        (fun artifacts ->
          List.filter
            (fun c -> String.length c.Compiler.json_text > inline_size_limit)
            artifacts
          |> flagging ~none:"all artifacts within inline size limit"
               ~some:"artifacts above 1MB (use PackageVessel): ");
    };
    {
      check_name = "no-empty-export";
      run =
        (fun artifacts ->
          List.filter
            (fun c ->
              match c.Compiler.json with
              | Cm_json.Value.Assoc [] -> true
              | _ -> false)
            artifacts
          |> flagging ~none:"no empty exports" ~some:"empty exports: ");
    };
    {
      check_name = "schema-hash-present";
      run =
        (fun artifacts ->
          List.filter
            (fun c -> c.Compiler.type_name <> None && c.Compiler.schema_hash = None)
            artifacts
          |> flagging ~none:"typed artifacts carry schema hashes"
               ~some:"typed artifacts without schema hash: ");
    };
  ]

let create ?(with_defaults = true) () =
  {
    checks = (if with_defaults then default_checks () else []);
    validated = Hashtbl.create 64;
    nskipped = 0;
  }

let add_check t check = t.checks <- t.checks @ [ check ]

let passed = Defense.all_passed

let run ?pool t artifacts =
  (* CI re-validates only artifacts whose bytes it has not already
     passed: a cache-hit compile produces the exact artifact a previous
     run vetted, so re-checking it is pure cost. *)
  let fresh =
    List.filter (fun c -> not (Hashtbl.mem t.validated (artifact_key c))) artifacts
  in
  t.nskipped <- t.nskipped + (List.length artifacts - List.length fresh);
  (* Checks are independent of each other and read-only over [fresh],
     so they fan out across the pool; [map_list] keeps the report in
     check-registration order, identical to the sequential run.  The
     [validated] table is only written below, after the join. *)
  let run_check check =
    Defense.of_finding ~stage:"sandcastle" ~rule:check.check_name (check.run fresh)
  in
  let report =
    match pool with
    | None -> List.map run_check t.checks
    | Some pool -> Cm_parallel.Pool.map_list pool run_check t.checks
  in
  if passed report then
    List.iter (fun c -> Hashtbl.replace t.validated (artifact_key c) ()) fresh;
  report

let revalidations_skipped t = t.nskipped

let post_to_review review diff_id report =
  List.iter (fun verdict -> Review.post_verdict review diff_id verdict) report
