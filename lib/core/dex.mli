(** DeX public API — "Distributed eXecution environment".

    Entry point for applications. The programming model is the familiar
    single-machine one: create a process, spawn pthreads, share memory,
    synchronize with mutexes and barriers — plus exactly one new call,
    {!Process.migrate}, that relocates the calling thread to another node.

    {[
      let cluster = Dex.cluster ~nodes:4 () in
      Dex.run cluster (fun proc main ->
          let counter = Dex.Process.malloc main ~bytes:8 ~tag:"counter" in
          let threads =
            List.init 4 (fun i ->
                Dex.Process.spawn proc (fun th ->
                    Dex.Process.migrate th i;     (* the one-line conversion *)
                    ignore (Dex.Process.fetch_add th counter 1L);
                    Dex.Process.migrate th (Dex.Process.origin proc)))
          in
          List.iter Dex.Process.join threads)
    ]} *)

module Cluster = Cluster
module Process = Process
module Sync = Sync

val cluster :
  ?config:Core_config.t ->
  ?net:Dex_net.Net_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?seed:int ->
  nodes:int ->
  unit ->
  Cluster.t
(** Build a simulated rack. *)

val run :
  ?origin:int -> Cluster.t -> (Process.t -> Process.thread -> unit) -> Process.t
(** [run cluster f] creates a process at [origin] (default node 0), runs
    [f proc main_thread] as the main thread, waits for every thread the
    program spawned, tears remote workers down, and drives the simulation
    to completion. Returns the finished process for inspection (statistics,
    migration log, fault traces). *)

val attach :
  ?origin:int ->
  ?on_exit:(Process.t -> unit) ->
  Cluster.t ->
  (Process.t -> Process.thread -> unit) ->
  Process.t
(** Like {!run}, but does {e not} drive the simulation: the process and
    its supervisor are planted into the engine's event queue and run
    whenever the caller (or an enclosing {!Cluster.run}) pumps it.
    [on_exit] fires in the supervisor fiber after the last thread joined
    and teardown finished. This is how the serving layer hosts many
    concurrent short-lived processes on one shared cluster. *)

val elapsed : Cluster.t -> Dex_sim.Time_ns.t
(** Simulated time consumed so far — the "wall clock" of the experiment. *)
