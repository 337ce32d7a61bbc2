(** Human-readable profiling reports, as printed by DeX's optimization
    toolchain. *)

val pp_summary :
  ?alloc:Dex_mem.Allocator.t ->
  ?net:Dex_sim.Stats.t ->
  Format.formatter ->
  Dex_proto.Fault_event.t list ->
  unit
(** Full report: totals, kinds, hottest sites/objects, contended pages and
    fault-frequency timeline. Pass the fabric's [net] stats
    ({!Dex_net.Fabric.stats}) to include a chaos fault-injection digest
    when chaos was active. *)

val pp_chaos : Format.formatter -> Dex_sim.Stats.t -> unit
(** Just the chaos digest (faults injected vs retransmission recovery);
    prints nothing on a healthy run. *)

val pp_crash : Format.formatter -> Dex_sim.Stats.t -> unit
(** Just the crash-recovery digest from the protocol's [crash.*] counters
    ({!Dex_proto.Coherence.stats}); prints nothing when no node crashed. *)

val pp_recovery : Format.formatter -> Dex_sim.Stats.t -> unit
(** The thread side of crash recovery from the process's [crash.*]
    counters ({!Dex_proto.Coherence.stats}): threads aborted and re-homed,
    futex waits cancelled, migrations refused. Always prints its line. *)

val pp_autopilot : Format.formatter -> Dex_sim.Stats.t -> unit
(** Placement-autopilot digest from the protocol's [autopilot.*] counters
    ({!Dex_proto.Coherence.stats}): profiling ticks, thread co-locations,
    page re-homes (with the busy/redirect/re-steer/mirror/fallback
    traffic they caused) and replicate-don't-invalidate activity. Prints
    nothing when no autopilot ticked. *)

val pp_ha : Format.formatter -> Dex_sim.Stats.t -> unit
(** Origin-replication digest from the process's [ha.*] counters (its one
    table, {!Dex_proto.Coherence.stats}): log entries
    appended/shipped/acked, same-page compactions, fence waits — and, when
    a standby was actually promoted, a failover line with the
    replayed-entry count, the detection-to-serving latency, and how the
    survivors were repaired (stalled faults, stale-epoch NACKs, fence
    zaps/demotions, redelivered futex wakes). Prints nothing when
    replication was off. *)

val pp_serve :
  ?tenants:(string * Dex_sim.Histogram.t) list ->
  Format.formatter ->
  Dex_sim.Stats.t ->
  unit
(** Serving digest from the serving layer's [serve.*] counters: fleet
    admission totals (offered/admitted/rejected/shed/completed plus
    corruption, retry and no-capacity counts) and, per tenant passed in
    [tenants] as a [(name, sojourn histogram)] pair, the p50/p99/p999/max
    sojourn latency in µs — capped off by a [fleet] row merging every
    tenant's samples ({!Dex_sim.Histogram.merge}) when there is more than
    one. Prints nothing when no traffic was offered. *)
