type 'a t = { key : 'a Domain.DLS.key; cells : 'a list Snapshot.t }

let create init =
  let cells = Snapshot.make [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let cell = init () in
        Snapshot.update cells (fun all -> cell :: all);
        cell)
  in
  { key; cells }

let get t = Domain.DLS.get t.key
let all t = Snapshot.get t.cells
