(* Check-time exposure records and the aggregations experiment
   analysis runs over them.

   The log is built for the multicore check hot path: each domain
   appends to its own buffer (no locks, no atomics per record), and
   analysis merges the buffers on demand.  Buffers are bounded rings —
   a runaway recorder overwrites its own oldest records instead of
   growing without bound, and [dropped] says how many were lost. *)

type record = {
  source : string;          (* project or experiment name *)
  variant : string;         (* "pass"/"fail" for gates; arm name for experiments *)
  user_id : int64;
  segment : string;         (* e.g. the user's country *)
  at : float;               (* caller-supplied clock *)
  outcome : float option;   (* metric observation, if any *)
}

module Log = struct
  module Per_domain = Cm_parallel.Per_domain

  type buf = {
    mutable items : record array;
    mutable total : int;    (* records ever appended to this buffer *)
    cap : int;
  }

  (* Every domain's buffer, for merging. *)
  type t = buf Per_domain.t

  let create ?(cap = 65536) () =
    let cap = max 1 cap in
    Per_domain.create (fun () -> { items = [||]; total = 0; cap })

  let record t r =
    let buf = Per_domain.get t in
    let len = Array.length buf.items in
    if buf.total < buf.cap then begin
      (* Grow geometrically up to cap. *)
      if buf.total >= len then begin
        let next = Array.make (min buf.cap (max 64 (2 * len))) r in
        Array.blit buf.items 0 next 0 len;
        buf.items <- next
      end;
      buf.items.(buf.total) <- r
    end
    else buf.items.(buf.total mod buf.cap) <- r;
    buf.total <- buf.total + 1

  let length t =
    List.fold_left
      (fun acc buf -> acc + min buf.total (Array.length buf.items))
      0 (Per_domain.all t)

  let recorded t = List.fold_left (fun acc buf -> acc + buf.total) 0 (Per_domain.all t)

  let dropped t =
    List.fold_left (fun acc b -> acc + max 0 (b.total - b.cap)) 0 (Per_domain.all t)

  let drain t =
    let all =
      List.concat_map
        (fun buf ->
          Array.to_list (Array.sub buf.items 0 (min buf.total (Array.length buf.items))))
        (Per_domain.all t)
    in
    List.stable_sort (fun a b -> Float.compare a.at b.at) all
end

let of_source source records = List.filter (fun r -> r.source = source) records

(* Fold records into (key, n, outcome sum, outcomes seen) cells. *)
let aggregate key_of records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = key_of r in
      let n, sum, seen =
        match Hashtbl.find_opt tbl key with Some c -> c | None -> 0, 0.0, 0
      in
      let sum, seen =
        match r.outcome with Some v -> sum +. v, seen + 1 | None -> sum, seen
      in
      Hashtbl.replace tbl key (n + 1, sum, seen))
    records;
  Hashtbl.fold (fun key (n, sum, seen) acc -> (key, n, sum, seen) :: acc) tbl []

let mean sum seen = if seen = 0 then nan else sum /. float_of_int seen

let by_variant records =
  aggregate (fun r -> r.variant) records
  |> List.map (fun (variant, n, sum, seen) -> variant, n, mean sum seen)
  |> List.sort compare

let by_segment records =
  aggregate (fun r -> r.variant, r.segment) records
  |> List.map (fun ((variant, segment), n, sum, seen) ->
         variant, segment, n, mean sum seen)
  |> List.sort compare

let by_window ~window records =
  if window <= 0.0 then invalid_arg "Exposure.by_window: window <= 0";
  aggregate (fun r -> r.variant, int_of_float (Float.floor (r.at /. window))) records
  |> List.map (fun ((variant, win), n, sum, seen) -> variant, win, n, mean sum seen)
  |> List.sort compare

let lift records ~control =
  let cells = by_variant records in
  match List.find_opt (fun (v, _, _) -> v = control) cells with
  | None -> []
  | Some (_, _, control_mean) ->
      if Float.is_nan control_mean || control_mean = 0.0 then []
      else
        List.filter_map
          (fun (v, _, m) ->
            if v = control || Float.is_nan m then None
            else Some (v, (m -. control_mean) /. Float.abs control_mean))
          cells
