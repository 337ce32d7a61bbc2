(** Parameters of the simulated InfiniBand fabric.

    Defaults are calibrated against the paper's testbed: Mellanox ConnectX-4
    through an SX6012 switch, 56 Gbps links, with the messaging layer's
    measured 13.6 µs end-to-end retrieval time for one 4 KB page.

    The optional {!chaos} block turns the pristine RC transport into a lossy
    one for fault-injection experiments; it is [None] by default and the
    fabric behaves bit-identically to a chaos-free build when it is off. *)

type partition = {
  p_a : int;  (** one endpoint of the severed pair *)
  p_b : int;  (** the other endpoint *)
  p_from : Dex_sim.Time_ns.t;  (** partition begins (inclusive) *)
  p_until : Dex_sim.Time_ns.t;  (** partition heals (exclusive) *)
}
(** A transient bidirectional partition: every message between [p_a] and
    [p_b] whose delivery falls inside [[p_from, p_until)] is discarded. *)

type crash = {
  crash_node : int;  (** the node that dies *)
  crash_at : Dex_sim.Time_ns.t;  (** when it stops responding *)
}
(** A scheduled fail-stop crash: from [crash_at] on, the node neither
    receives nor sends fabric messages — exactly as if its process was
    SIGKILLed. Peers talking to it exhaust their retry budget and see
    [Fabric.Unreachable]; recovery is the business of the layers above
    (see [Dex_core.Cluster.crash_node] for the wired-up escalation). *)

type chaos = {
  chaos_seed : int;
      (** seed of the fabric's private fault-injection RNG; same seed, same
          faults — chaos runs are as reproducible as healthy ones *)
  drop_prob : float;  (** per-message loss probability, in [[0, 1)] *)
  dup_prob : float;
      (** probability that a delivered message is delivered twice *)
  reorder_prob : float;
      (** probability that a message is held back by two extra link
          latencies, letting later traffic overtake it *)
  delay_jitter_ns : Dex_sim.Time_ns.t;
      (** extra uniformly-distributed delivery delay in [[0, jitter]] *)
  partitions : partition list;  (** scheduled transient partitions *)
  crashes : crash list;  (** scheduled fail-stop node crashes *)
  rto : Dex_sim.Time_ns.t;
      (** base retransmission timeout of the reliable request layer *)
  rto_cap : Dex_sim.Time_ns.t;
      (** upper clamp for the exponentially backed-off RTO *)
  max_retransmits : int;
      (** retransmissions attempted before the sender gives up and raises
          [Fabric.Unreachable] *)
}
(** Fault-injection knobs. Faults apply to the wire only: loopback
    (node-local) messages are never dropped, duplicated, delayed or
    partitioned. Enabling chaos — even with all probabilities zero — also
    activates the fabric's reliable delivery layer (sequence numbers, acks,
    timeout + retransmission), which changes message counts and timings;
    see {!Fabric}. *)

val chaos_default : chaos
(** All fault probabilities zero, no partitions or crashes, and
    calibrated retransmission parameters (200 µs base RTO, 2 ms cap, 30
    retransmits). Start from this and override the faults you want to
    inject. *)

type t = {
  nodes : int;  (** number of nodes in the rack *)
  link_latency : Dex_sim.Time_ns.t;
      (** one-way propagation + switch latency *)
  link_bandwidth_bytes_per_us : float;  (** per-direction link bandwidth *)
  verb_overhead : Dex_sim.Time_ns.t;
      (** software cost to post one VERB send from a pooled buffer *)
  rdma_setup : Dex_sim.Time_ns.t;
      (** cost to negotiate an RDMA write into the peer's sink *)
  rdma_threshold : int;
      (** messages of at least this many bytes use the RDMA path *)
  send_pool_slots : int;  (** DMA-mapped send buffers per connection *)
  sink_slots : int;  (** 4 KB slots in each node's RDMA sink *)
  copy_ns_per_byte : float;
      (** cost of the sink-to-destination memory copy *)
  loopback_latency : Dex_sim.Time_ns.t;
      (** dispatch cost for node-local messages (no fabric involved) *)
  chaos : chaos option;  (** fault injection; [None] = pristine transport *)
}

val default : ?nodes:int -> unit -> t
(** [default ()] is the calibrated 8-node configuration, chaos off. *)

val validate : t -> unit
(** Raises [Invalid_argument] on non-sensical parameters, including
    out-of-range chaos probabilities, ill-ordered partition windows and
    out-of-range partition endpoints and crash nodes. *)
