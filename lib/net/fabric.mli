(** The inter-node messaging layer (§III-E of the paper).

    Nodes are fully connected (InfiniBand RC through a switch). Small control
    messages travel on the VERB path: the sender takes a DMA-ready buffer
    from the per-connection send pool (blocking when the pool is exhausted),
    the message is serialized onto the link — a FIFO bandwidth server per
    directed node pair — and delivered at the destination. Messages of
    {!Net_config.rdma_threshold} bytes or more use the RDMA path: a slot of
    the destination's {!Rdma_sink} is reserved (backpressure when full),
    data is RDMA-written, then copied once to its final destination.

    Message handlers run in their own fiber at the destination and may
    block. A verb delivery consumes one receive work request, which DeX
    re-posts as soon as it has consumed the completion event, before the
    handler body runs; a verb receive therefore never waits, and the
    fabric keeps no receive pool. RDMA transfers land one-sided in
    pre-registered sink memory: the {!Rdma_sink} slot is the receive
    resource that can run out. Loopback (src = dst) bypasses the send pool
    and the sink: a self-addressed message never touches the NIC. Message
    sizes may be zero (pure completion events, e.g. zero-payload acks);
    they pay the usual per-message overheads but no serialization time.

    {2 Chaos mode}

    When {!Net_config.chaos} is set, the fabric injects faults at the
    receive boundary — messages may be dropped, duplicated, delayed by
    extra jitter, reordered (held back so later traffic overtakes them),
    or discarded inside a scheduled partition window. Send-side resource
    accounting is unchanged: a dropped message still consumed its buffers
    and link time, like a frame discarded by the far switch.

    Chaos also activates an end-to-end reliable delivery layer for {!send}
    and {!call}: requests carry fabric-global sequence numbers, the sender
    retransmits on a jittered exponentially-backed-off timeout
    ({!Net_config.chaos.rto} clamped to {!Net_config.chaos.rto_cap}), and
    the receiver deduplicates by sequence number and replays cached
    replies, so a handler runs {e at most once} per logical message no
    matter how the wire misbehaves. A {!send} then blocks until the
    destination acks delivery; a {!call} blocks until the reply arrives.
    After {!Net_config.chaos.max_retransmits} unanswered retransmissions
    the sender raises {!Unreachable}. Loopback messages skip both fault
    injection and the reliable layer — they never cross the wire.

    The receiver's dedup and cached-reply tables are pruned as traffic
    settles: every delivered reply is explicitly acked back to the replier,
    and every request piggybacks a sender-side watermark below which all
    sequence numbers have settled. Both reclaim paths defer the actual
    removal by one capped RTO plus the jitter bound, so a straggling copy
    of a settled request can never find its dedup entry missing and re-run
    a handler.

    {2 Fail-stop crashes}

    Chaos mode can also kill whole nodes ({!Net_config.chaos.crashes}, or
    {!crash} directly). From the crash instant the node neither sends nor
    receives: every delivery whose source or destination is dead is
    discarded at the receive boundary ([chaos.crash_drops]). The transport
    stays silent about the death — peers find out the honest way, by
    exhausting their retransmission budget and seeing {!Unreachable} — but
    once the failure is {e declared} ({!declare_dead}, or automatically by
    a keepalive backstop one full retry budget after the crash), the
    crash handler ({!set_crash_handler}) runs so recovery (directory
    reclaim, thread re-homing) can react, and further transactions
    towards the dead node fail fast instead of burning their retry
    budget.

    With [chaos = None] every code path, RNG draw and engine event is
    identical to a build without chaos support: healthy runs are
    bit-for-bit unaffected. Faults are drawn from a private RNG seeded by
    {!Net_config.chaos.chaos_seed}, so chaos runs are reproducible too. *)

type t
(** A rack-wide fabric instance shared by every node of a cluster. *)

exception Unreachable of { src : int; dst : int; kind : string }
(** Raised (in chaos mode only) by {!send} or {!call} when
    [max_retransmits] retransmissions of a [kind] message from [src] to
    [dst] all went unanswered — the simulated equivalent of an RC
    connection giving up. *)

type env = {
  msg : Msg.t;  (** the delivered message, payload already unwrapped *)
  respond : ?size:int -> Msg.payload -> unit;
      (** Reply to an RPC ({!call}); at most one call per message. [size]
          defaults to a small control message. Responding to a one-way
          {!send} raises. *)
}
(** What a handler receives: the message plus its reply channel. *)

type handler = t -> env -> unit
(** Per-node message dispatcher, run in a fresh fiber per message. *)

val create : Dex_sim.Engine.t -> Net_config.t -> t
(** [create engine cfg] builds the fabric: per-pair links and send pools,
    and per-node RDMA sinks. Validates [cfg] and, in chaos
    mode, plants the crash schedule into the event queue. *)

val engine : t -> Dex_sim.Engine.t
(** The engine this fabric schedules on. *)

val node_count : t -> int
(** Number of nodes, i.e. [config.nodes]. *)

val reliable : t -> bool
(** [true] iff chaos mode is on and the reliable delivery layer is active. *)

val set_handler : t -> node:int -> handler -> unit
(** Install the message dispatcher of [node]. Replaces any previous one. *)

val crash : t -> node:int -> unit
(** Fail-stop [node] now: it stops sending and receiving, permanently.
    Counted as [chaos.node_crashes]. Detection is {e not} immediate — see
    {!declare_dead}. Idempotent. Raises [Invalid_argument] when chaos mode
    is off (fail-stop crashes need the reliable transport to make the loss
    observable). *)

val crashed : t -> node:int -> bool
(** Ground truth: has [node] fail-stopped? *)

val crash_detected : t -> node:int -> bool
(** Has the failure of [node] been declared ({!declare_dead})? Always
    implies [crashed]. *)

val live_nodes : t -> int list
(** Ascending ids of every node that has not fail-stopped — the candidate
    set for placing new work (the serving layer steers admissions around
    dead nodes with this). All nodes when chaos is off. *)

val declare_dead : t -> node:int -> unit
(** Declare a crashed node's failure: runs the crash handler exactly
    once per node; a no-op once the node is detected. Called by recovery
    layers when {!Unreachable} convinces them the peer is gone, and by the
    fabric's own keepalive backstop one full retry budget after the crash.
    Raises [Invalid_argument] if the node has not actually crashed. *)

val set_crash_handler : t -> (int -> unit) -> unit
(** Install the failure-declaration handler. Replaces any previous one;
    the default ignores declarations. It receives the dead node's id, in a
    context that must not block (spawn a fiber for any recovery work that
    needs the fabric). [Dex_core.Cluster] installs one that runs each
    live process's recovery sequence in turn. *)

val send :
  t ->
  src:int ->
  dst:int ->
  pid:int ->
  kind:string ->
  size:int ->
  Msg.payload ->
  unit
(** One-way message to process [pid] at [dst] ({!Msg.t.pid}). Blocks the
    calling fiber only for the local send-side costs (buffer-pool
    acquisition and posting); transport and delivery proceed
    asynchronously. In chaos mode, blocks until the destination has
    acknowledged delivery (retransmitting as needed) and may raise
    {!Unreachable}. *)

val call :
  t ->
  src:int ->
  dst:int ->
  pid:int ->
  kind:string ->
  size:int ->
  Msg.payload ->
  Msg.payload
(** RPC: send a request to process [pid] at [dst] and block the calling
    fiber until the handler there responds; the reply carries the same
    [pid]. In chaos mode the request is retransmitted until a
    reply arrives; the handler still runs at most once, with cached-reply
    replay covering retransmissions. May raise {!Unreachable}. *)

val stats : t -> Dex_sim.Stats.t
(** Live counters: per-kind message counts and bytes, verb/rdma path counts,
    pool-exhaustion waits, and in chaos mode the [chaos.*] family —
    [chaos.drops], [chaos.dups], [chaos.reorders], [chaos.partition_drops]
    (faults injected), [chaos.timeouts], [chaos.retransmits] (sender
    recovery), [chaos.dup_requests], [chaos.replayed_replies],
    [chaos.dup_replies], [chaos.dup_acks] (receiver/sender dedup),
    [chaos.node_crashes], [chaos.crash_drops] (fail-stop crashes). *)

val rel_table_sizes : t -> int * int
(** [(seen, pending)]: current entry counts of the reliable layer's
    receiver-side dedup/cached-reply table and the sender-side in-flight
    table. Both are bounded by in-flight traffic (plus a short prune
    grace); after a quiesced run [pending] is 0 and [seen] holds only the
    final few one-way seqs no later watermark could reap. [(0, 0)] when
    chaos is off. *)

val send_pool_waits : t -> int
(** Total send-buffer-pool exhaustion events across all connections. *)

val recv_pool_waits : t -> int
(** Always 0: a verb delivery re-posts its receive work request at once,
    so a receive never waits (RDMA transfers wait on sink slots instead,
    see {!sink_waits}). Kept for readers that report it beside the other
    pool counters. *)

val sink_waits : t -> int
(** Total RDMA-sink exhaustion events across all nodes. *)
