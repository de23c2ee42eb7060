(* What the landing and storm workloads share about the simulated
   fleet: waiting for a change to reach every watcher, the tailer-poll
   probe, and the distribution counters of one change. *)

module Engine = Cm_sim.Engine
module Net = Cm_sim.Net
module Repo = Cm_vcs.Repo
module Store = Cm_vcs.Store

(* Simulated seconds a change may take to reach every watcher before it
   counts as failed. *)
let drain_limit = 120.0

(* Step the simulation while [waiting ()]; false when [drain_limit]
   simulated seconds pass first. *)
let drain engine ~waiting =
  let deadline = Engine.now engine +. drain_limit in
  while waiting () && Engine.now engine < deadline && Engine.step engine do
    ()
  done;
  not (waiting ())

(* What one tailer poll does after a commit (Tailer.poll_once): the
   touched paths, the content diff of the two heads, and a read of each
   touched artifact.  The Zeus write is left out. *)
let tailer_poll repo ~base ~head =
  let touched = Repo.changed_since repo ~base in
  ignore (Repo.changed_between repo ~base ~head);
  List.iter
    (fun path ->
      if Core.Source_tree.kind_of_path path = Core.Source_tree.Raw then
        ignore (Repo.read_file repo path))
    touched

(* Distribution-plane counters, read before and after one change. *)
type counters = {
  store_bytes : int;
  objects : int;
  events : int;
  msgs : int;
  net_bytes : int;
  writes : int;
  decodes : int;
}

let counters ~repo ~engine ~net ~tailer ~clients =
  let store = Repo.store repo in
  {
    store_bytes = Store.total_bytes store;
    objects = Store.object_count store;
    events = Engine.events_processed engine;
    msgs = Net.messages_sent net;
    net_bytes = Net.bytes_sent net;
    writes = Core.Tailer.writes_issued tailer;
    decodes = Array.fold_left (fun a c -> a + Core.Client.decodes c) 0 clients;
  }

let count_change layer c0 c1 =
  let count name v = Metrics.Layer.count layer name (float_of_int v) in
  count "vcs.bytes_per_commit" (c1.store_bytes - c0.store_bytes);
  count "vcs.objects_per_commit" (c1.objects - c0.objects);
  count "sim.events_per_op" (c1.events - c0.events);
  count "zeus.msgs_per_op" (c1.msgs - c0.msgs);
  count "zeus.bytes_per_op" (c1.net_bytes - c0.net_bytes);
  count "tailer.writes_per_op" (c1.writes - c0.writes);
  count "client.decodes_per_op" (c1.decodes - c0.decodes)
