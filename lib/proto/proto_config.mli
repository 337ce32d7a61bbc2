(** Cost model of the memory consistency protocol.

    Calibrated so that, together with {!Dex_net.Net_config.default}, an
    uncontended remote fault with page data lands on the paper's measured
    numbers: 13.6 µs for the messaging layer to retrieve one 4 KB page and
    ~19.3 µs for the whole fast-path fault; contended faults that lose the
    directory race back off and land around 158.8 µs on average. *)

(** Per-operation protocol costs plus the §III design-choice knobs. *)
type t = {
  fault_entry : Dex_sim.Time_ns.t;
      (** trap + fault-handler entry + fault-table insertion *)
  follower_resume : Dex_sim.Time_ns.t;
      (** cost for a coalesced follower to resume with the updated PTE *)
  pte_update : Dex_sim.Time_ns.t;
      (** serialized PTE update + fault-table completion *)
  origin_handler : Dex_sim.Time_ns.t;
      (** directory lookup and ownership decision at the origin *)
  invalidate_handler : Dex_sim.Time_ns.t;
      (** revoking ownership at a node: PTE zap + ack *)
  local_op : Dex_sim.Time_ns.t;
      (** origin-local protocol operation (no network) *)
  backoff_base : Dex_sim.Time_ns.t;
      (** first retry delay after a NACK *)
  backoff_cap : Dex_sim.Time_ns.t;  (** retry delay ceiling *)
  ctl_msg_size : int;  (** wire size of control messages *)
  page_msg_size : int;  (** wire size of a grant carrying page data *)
  coalesce_faults : bool;
      (** leader/follower coalescing (§III-C); disable for ablation — every
          thread then runs its own protocol request *)
  grant_without_data : bool;
      (** skip the page payload when the requester holds a valid copy
          (§III-B); disable for ablation — every grant then ships 4 KB *)
  on_crash : [ `Abort | `Rehome ];
      (** fate of threads that were executing on a node that fail-stopped:
          [`Abort] marks them crashed — a later join observes the loss and
          any operation through the dead thread handle raises; [`Rehome]
          moves them back to the origin and retries the interrupted
          operation there. Rehome is only sound for operations the
          application can tolerate running twice (the simulator cannot
          checkpoint register state, so the retried delegate re-executes);
          the default is [`Abort]. *)
  replication : [ `Sync | `Async of int ];
      (** how origin replication ({!Dex_ha.Ha}, armed by
          {!Coherence.create}) fences, once a replica set exists
          ([standbys] non-empty):
          [`Sync] (default) blocks every reply that leaves the origin
          until a quorum of standbys has acked the whole replication log
          (⌈(k+1)/2⌉ of them — a majority of the origin+k replica set);
          [`Async n] only blocks once the log runs more than [n] entries
          past that quorum watermark ([`Sync] is [`Async 0]) — an origin
          crash can then lose up to that suffix (the failover fence zaps
          survivor copies the replica no longer vouches for). *)
  standbys : int list;
      (** the replica set: the k nodes (excluding the origin) that receive
          the origin's replication log. The default, [[]], is replication
          off: an empty replica set, so no log runs and the output is
          unchanged; one node is the single-standby setup. The
          nodes must be distinct, in range and not the origin, and a
          replica set needs one shard ([sharding]). *)
  sharding : [ `Hash of int | `Range of int ];
      (** partition page ownership across {e home nodes}
          ({!Authority.home_of}): [`Hash n] homes page [vpn] at shard
          [vpn mod n] — best static load spread; [`Range n] homes 64-page
          runs ([(vpn / 64) mod n]) — keeps sequential streams on one
          home. The default, [`Hash 1], is one shard: every page is homed
          at the process origin. Shard [s] lives at node
          [(origin + s) mod node_count], so shard 0 is always the process
          origin (the VMA/allocator/file services stay there). [n] may
          exceed the node count (homes then wrap). Replication protects
          the origin only, so it needs one shard. *)
  serial_home_service : bool;
      (** model each node's protocol handler as a single service loop:
          page requests at one home then queue behind each other
          ([origin_handler] becomes occupancy of a per-node server rather
          than a freely overlapping delay), so a lone origin saturates
          once enough requesters pile on — the origin-CPU ceiling of the
          paper's Figure 2, and the effect [sharding] exists to relieve
          (see [bench/main.exe shard]). Off by default: concurrent
          handlers overlap, the historical (and bit-identical)
          behaviour. *)
}

val default : t
(** The calibrated defaults described in the module header: one shard,
    no replication, both §III optimisations on. *)
