(** The multi-tenant serving loop: open-loop traffic, admission control,
    per-tenant isolation.

    One shared cluster hosts every tenant; each admitted request becomes a
    short-lived DeX process ({!Dex_core.Dex.attach}) confined to its
    tenant's node placement via {!Dex_apps.App_common.ctx.nodemap}. Per
    tenant, the run drives:

    - an {e arrival generator} fiber ({!Arrivals}) on the tenant's own
      split RNG stream, drawing each request's seed at arrival time — so
      the set of request checksums a tenant can produce is fixed by the
      master seed alone, independent of every other tenant and of event
      timing;
    - an {e admission controller}: at most [t_max_inflight] requests run
      concurrently, at most [t_max_pending] wait ([0] = unbounded; the
      overflow is {e rejected}); with shedding on, a queued request whose
      wait exceeds [shed_after] is {e shed} at dispatch instead of served;
    - an {e ingress gate} charge of [t_req_bytes] per dispatch through
      either the equal-share {!Fairshare} gate ([fair]) or one shared FIFO
      server — the lever behind the noisy-neighbour experiments;
    - {e placement}: requests prefer the tenant's static node block, and
      substitute live nodes ({!Dex_net.Fabric.live_nodes}) for any that
      fail-stopped, so admission steers around dead nodes.

    Every request is a {!Serve_config.tiny_ep} run on 2 nodes x 2
    threads; a fair gate rates no tenant above half its capacity. Every
    completed run's checksum is validated against the host-side
    reference for its seed; mismatches count as [serve.corrupted] and
    per-tenant digests let a caller compare two runs (say, crash vs
    no-crash) tenant by tenant. With [ha] set, a
    request whose main thread is lost to a fail-stop before producing an
    answer (caught standing on its origin mid-failover) is re-issued
    rather than surfaced as a corruption — requests are deterministic, so
    re-execution yields the identical answer ([serve.retried]).

    Counters (in {!result}.[r_stats]): [serve.offered], [serve.admitted],
    [serve.rejected], [serve.shed], [serve.dispatched], [serve.completed],
    [serve.corrupted], [serve.retried], [serve.no_capacity],
    [serve.gate_recomputes]. *)

type tenant_result = {
  tr_name : string;
  tr_offered : int;  (** arrivals generated inside the window *)
  tr_admitted : int;  (** offered - rejected *)
  tr_rejected : int;  (** bounced off the full pending queue *)
  tr_shed : int;  (** dropped at dispatch: waited past [shed_after] *)
  tr_completed : int;  (** runs that finished (includes corrupted ones) *)
  tr_corrupted : int;  (** completed with a checksum mismatch *)
  tr_queue_peak : int;  (** high-water mark of the pending queue *)
  tr_digest : int64;
      (** order-insensitive fold of completed runs' checksums: equal
          digests mean the same requests produced the same answers *)
  tr_sojourn : Dex_sim.Histogram.t;
      (** arrival-to-completion latency of completed runs, ns *)
}

type result = {
  r_nodes : int;
  r_tenants : tenant_result list;  (** in configuration order *)
  r_stats : Dex_sim.Stats.t;  (** fleet-wide [serve.*] counters *)
  r_sim_time : Dex_sim.Time_ns.t;
      (** when the last admitted run drained (>= the arrival window) *)
}

val required_nodes : Serve_config.t -> int
(** Nodes of the cluster a run builds: two per tenant, in disjoint
    placement blocks — plus one service-origin node per tenant and one
    shared standby node when [ha] is set. *)

val run :
  ?net:Dex_net.Net_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?events:(Dex_sim.Time_ns.t * (Dex_core.Cluster.t -> unit)) list ->
  Serve_config.t ->
  result
(** Build the cluster of {!required_nodes} nodes, run the arrival window
    plus drain, and report.

    [proto] defaults to
    {!Dex_proto.Proto_config.default}, except with [ha] set it defaults
    to synchronous replication onto the reserved standby node with the
    [`Rehome] crash policy. [events] are scheduled actions — e.g.
    [(t, fun cl -> Dex_core.Cluster.crash_node cl ~node)] for the
    chaos rows (crashes additionally need a chaos [net]).

    The simulation runs to quiescence: every admitted, un-shed request
    completes, so [tr_completed + tr_shed = tr_admitted] and digests are
    comparable across runs. Raises like {!Serve_config.validate} on bad
    configurations. *)
