type kind = Cconf | Cinc | Thrift | Cvalidator | Raw

let kind_of_path path =
  let ends_with suffix = String.ends_with ~suffix path in
  if ends_with ".cconf" then Cconf
  else if ends_with ".cinc" then Cinc
  else if ends_with "cvalidator" then Cvalidator (* "<Type>.thrift-cvalidator" *)
  else if ends_with ".thrift" then Thrift
  else Raw

module Smap = Map.Make (String)

(* A persistent map behind one mutable field: listings come out sorted
   without a sort, and a copy shares every node with its original. *)
type t = { mutable files : string Smap.t }

let create () = { files = Smap.empty }

let of_alist entries =
  { files = List.fold_left (fun acc (path, content) -> Smap.add path content acc) Smap.empty entries }

let copy t = { files = t.files }
let write t path content = t.files <- Smap.add path content t.files
let remove t path = t.files <- Smap.remove path t.files
let read t path = Smap.find_opt path t.files
let mem t path = Smap.mem path t.files
let paths t = List.rev (Smap.fold (fun path _ acc -> path :: acc) t.files [])

let paths_of_kind t kind = List.filter (fun path -> kind_of_path path = kind) (paths t)
let count t = Smap.cardinal t.files

let loader t target =
  match read t target with
  | Some content -> Some content
  | None ->
      (* Allow repo-absolute form with a leading slash. *)
      if String.length target > 0 && target.[0] = '/' then
        read t (String.sub target 1 (String.length target - 1))
      else None

let snapshot t = Smap.bindings t.files
