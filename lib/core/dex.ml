module Cluster = Cluster
module Process = Process
module Sync = Sync

let cluster = Cluster.create

let attach ?origin ?(on_exit = fun _ -> ()) cl f =
  let proc = Process.create cl ?origin () in
  let main = Process.spawn proc ~name:"main" (fun th -> f proc th) in
  Dex_sim.Engine.spawn (Cluster.engine cl) ~label:"supervisor" (fun () ->
      Process.join main;
      Process.shutdown proc;
      on_exit proc);
  proc

let run ?origin cl f =
  let proc = attach ?origin cl f in
  Cluster.run cl;
  proc

let elapsed = Cluster.now
