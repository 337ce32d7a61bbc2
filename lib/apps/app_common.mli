(** Shared harness for the paper's eight benchmark applications (§V).

    Every application runs in three flavours:
    - [Baseline]: the unmodified single-machine program (no migration
      calls), used as the normalization denominator of Figure 2;
    - [Initial]: migration calls inserted at parallel-region boundaries and
      nothing else (§V-A) — naive data layout, per-item global updates;
    - [Optimized]: the §IV false-sharing fixes applied — page-aligned
      per-node data, locally staged global updates, read-only parameters
      on their own pages.

    The harness builds a cluster of [nodes] nodes (8 threads each, as in
    the evaluation), runs the application as a distributed process, and
    reports simulated time plus protocol statistics and an
    application-level checksum for correctness cross-checking. *)

open Dex_core

type variant = Baseline | Initial | Optimized

val variant_name : variant -> string

type result = {
  app : string;
  variant : variant;
  nodes : int;
  threads : int;
  sim_time : Dex_sim.Time_ns.t;
  checksum : int64;
  faults : int;  (** protocol faults (reads + writes) *)
  retries : int;  (** NACKed attempts *)
  coalesced : int;  (** follower faults absorbed *)
  migrations : int;  (** forward migrations *)
  stats : Dex_sim.Stats.t;
      (** the process's one counter table ({!Dex_core.Process.stats}:
          protocol, process-layer and replication counters), for digests
          beyond the summary fields (e.g. {!Dex_profile.Report.pp_autopilot}) *)
}

val pp_result : Format.formatter -> result -> unit

type conversion = {
  multithread : string;  (** "Pthread" or "OpenMP (n)" as in Table I *)
  initial_added : int;
  initial_removed : int;
  optimized_added : int;
  optimized_removed : int;
}

(** Execution context handed to application bodies. *)
type ctx = {
  proc : Process.t;
  cl : Cluster.t;
  variant : variant;
  nodes : int;
  threads : int;
  seed : int;
  nodemap : int -> int;
      (** Maps the body's virtual node ids [0 .. nodes-1] to physical
          cluster nodes. {!run_app} uses the identity (the process owns
          the whole rack); the serving layer confines each tenant's runs
          to a placement subset with this. [nodemap 0] must be the node
          the main thread starts on. *)
}

val run_app :
  name:string ->
  nodes:int ->
  variant:variant ->
  ?config:Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?threads_per_node:int ->
  ?seed:int ->
  (ctx -> Process.thread -> int64) ->
  result
(** Build the rack, run the application body as the process's main thread
    (its return value is the checksum), drive the simulation to completion
    and collect statistics. [config] overrides the node cost model —
    with {!Core_config.autopilot} set, a {!Dex_sched.Autopilot} is
    attached to the process before the body runs (ticking every
    {!Core_config.autopilot_interval}), so any variant converges online
    with zero application changes. [proto] overrides the protocol
    configuration (e.g. to turn on {!Dex_proto.Proto_config.sharding} or
    replication); defaults to {!Dex_proto.Proto_config.default}.
    [threads_per_node] defaults to 8. *)

val node_of : ctx -> int -> int
(** Home node of worker [i] under the block distribution the paper uses
    (threads spread evenly, worker 0 on the origin), routed through
    [ctx.nodemap]. *)

val parallel_region : ctx -> (int -> Process.thread -> unit) -> unit
(** Run one parallel region: spawn [ctx.threads] workers; unless the
    variant is [Baseline], each migrates to its home node on entry and
    back to the origin on exit (the paper's conversion pattern). Blocks
    until every worker finished. *)

val worker_pool :
  ctx -> (int -> Process.thread -> unit) -> Process.thread list
(** Like {!parallel_region} but returns without joining and leaves the
    workers at their home nodes (for barrier-synchronized iterative
    applications). Join with {!join_all}; workers migrate back when their
    function returns. *)

val join_all : Process.thread list -> unit

val partition : total:int -> parts:int -> index:int -> int * int
(** [(offset, length)] of block [index] when [total] items are divided
    into [parts] near-equal contiguous blocks. *)

val nfs_read : ctx -> bytes:int -> unit
(** Charge a read of [bytes] from the NFS share: the calling thread blocks
    while the cluster's storage appliance serves it (shared across all
    nodes — contention is real). *)

val memo : ('k -> 'v) -> 'k -> 'v
(** [memo f] is [f] with a one-slot cache: it remembers the last key
    (compared with structural equality) and its value, and recomputes
    when called with any other key. Each application builds its
    {e oracle} through one — the inputs and every result that does not
    depend on the node count or variant — so a sweep over layouts of the
    same [(params, seed)] computes them once, and the process retains at
    most one per application. *)

val checksum_of_float : float -> int64
(** Stable checksum for floating-point results (rounded to 1e-3). *)
