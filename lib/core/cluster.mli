(** A simulated rack of nodes running DeX.

    Owns the discrete-event engine, the InfiniBand fabric, and per-node
    hardware resources (core pools, memory channels). Each process
    registers once ({!add_process}) under its pid; the cluster
    installs one fabric handler per node that hands each incoming message
    to the process its envelope names ({!Dex_net.Msg.t.pid}), and one
    fabric crash handler that runs every process's crash recovery. *)

type t

val create :
  ?config:Core_config.t ->
  ?net:Dex_net.Net_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?seed:int ->
  nodes:int ->
  unit ->
  t

val engine : t -> Dex_sim.Engine.t

val fabric : t -> Dex_net.Fabric.t

val config : t -> Core_config.t

val proto_config : t -> Dex_proto.Proto_config.t

val nodes : t -> int

val cores : t -> node:int -> Dex_sim.Resource.Pool.t

val stream_memory : t -> node:int -> bytes:int -> unit
(** Block the calling fiber while [bytes] of memory traffic drain through
    [node]'s memory channels, of bandwidth
    {!Core_config.t.mem_bw_bytes_per_us}. A stream that starts while
    [k - 1] others run on the node moves [bytes * (1 + c * (k - 1))],
    [c] being {!Core_config.t.mem_contention}. *)

val storage : t -> Dex_sim.Resource.Server.t
(** The shared NAS appliance backing the NFS share every node mounts. *)

val rng : t -> Dex_sim.Rng.t

val fresh_pid : t -> int
(** A pid no process of this cluster has had: 1, 2, 3, … *)

val add_process :
  t ->
  pid:int ->
  route:(Dex_net.Fabric.env -> bool) ->
  on_crash:(int -> unit) ->
  unit ->
  unit
(** Register process [pid]: [route] is its message router, [on_crash] its
    recovery for a node whose failure the fabric declares. A message
    goes to the router of the pid in its envelope and nowhere else; a
    message whose pid is not registered, or whose router returns
    [false], fails the handler fiber with ["Cluster: unrouted message"]
    and the message's header ({!Dex_net.Msg.pp}, which names the pid). A
    declaration runs every registered [on_crash] in pid order, each in a
    context that must not block. Pid order is registration order: a
    process registers the pid {!fresh_pid} gave it before any later
    process can exist. Raises [Invalid_argument] if [pid] is already
    registered. Returns the removal thunk (idempotent): a long-lived
    cluster that hosts many short-lived processes (the serving layer)
    removes exited processes with it, so crash handling does not visit
    every process that ever lived, and a message for an exited process
    is refused. *)

val crash_node : t -> node:int -> unit
(** Fail-stop [node] at the current simulation time: it stops servicing
    fabric messages instantly and is declared dead once survivors notice
    (retry-budget exhaustion or the keepalive backstop) — see
    {!Dex_net.Fabric.crash}. Requires the chaos fabric
    ({!Dex_net.Net_config.chaos}); crashes can also be pre-scheduled with
    the chaos [crashes] knob. Crashing a process origin is only survivable
    when that process armed origin replication
    ({!Dex_proto.Proto_config.replication}): the standby is promoted and
    service resumes. With replication off it is unsupported — the
    directory dies with the origin. *)

val node_crashed : t -> node:int -> bool
(** Ground truth: has [node] fail-stopped (whether or not survivors have
    detected it yet)? *)

val run : t -> unit
(** Drive the simulation until quiescent. *)

val now : t -> Dex_sim.Time_ns.t
