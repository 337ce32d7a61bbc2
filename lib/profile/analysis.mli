(** Post-processing of page-fault traces (§IV-A).

    Reproduces the paper's analyses: which program objects and source
    locations cause the most cross-node traffic, page-fault frequency over
    time, per-thread access patterns, and contention hot spots — the
    information developers use to separate per-node data onto distinct
    pages and stage global updates locally. *)

type event = Dex_proto.Fault_event.t

val by_site : event list -> (string * int) list
(** Fault counts grouped by source location / user tag, descending. *)

val by_object : Dex_mem.Allocator.t -> event list -> (string * int) list
(** Fault counts attributed to named program objects via the allocator's
    registry; unattributed addresses group under ["<unknown>"]. *)

val by_page : event list -> (Dex_mem.Page.addr * int) list
(** Fault counts per page base address, descending. *)

val by_thread : event list -> ((int * int) * int) list
(** Fault counts per (node, tid), descending; invalidations count under
    tid [-1]. *)

val by_kind : event list -> (Dex_proto.Fault_event.kind * int) list

val timeline :
  event list -> bucket:Dex_sim.Time_ns.t -> (Dex_sim.Time_ns.t * int) list
(** Fault frequency over time: [(bucket_start, count)] for non-empty
    buckets, ascending. *)

val contended_pages :
  event list -> (Dex_mem.Page.addr * int * float) list
(** Pages whose faults needed NACK retries: [(page base, retried fault
    count, mean latency ns)], by retried count descending. These are the
    false-sharing suspects. *)

val sharing_matrix : event list -> (Dex_mem.Page.addr * int list) list
(** For every faulted page, the sorted list of nodes that faulted on it —
    pages touched by many nodes are the cross-node interference suspects
    (the "contention matrix" of the toolchain). Sorted by sharer count,
    descending. *)

val window :
  now:Dex_sim.Time_ns.t -> width:Dex_sim.Time_ns.t -> event list -> event list
(** Events with [time > now - width] — the recent slice a periodic
    controller analyzes each tick. *)

type page_traffic = {
  pt_addr : Dex_mem.Page.addr;
  pt_reads : int;  (** read faults on the page in the window *)
  pt_writes : int;  (** write faults on the page in the window *)
  pt_readers : (int * int) list;
      (** (node, read faults), count descending with node tie-break *)
  pt_writers : (int * int) list;
      (** (node, write faults), count descending with node tie-break *)
  pt_threads : ((int * int) * int) list;
      (** ((node, tid), faults), count descending with key tie-break *)
  pt_flips : int;
      (** write faults whose faulting node differs from the previous
          write fault's node — the ownership ping-pong count *)
}

type page_class =
  | Ping_pong of { dominant : int }
      (** exclusive ownership alternates between ≥2 writer nodes;
          [dominant] is the heaviest-faulting writer (lowest node on
          ties) — the re-homing target *)
  | False_shared of { nodes : int list }
      (** written from ≥2 nodes without a strongly alternating owner
          stream; [nodes] sorted ascending *)
  | Read_mostly of { readers : int list }
      (** ≥2 reader nodes and at least 2x more read than write faults;
          [readers] sorted ascending — the replication candidates. The
          floor is 2x, not higher, because only fault leaders emit
          events: each write grant surfaces at most one read re-fault
          per invalidated node, so observable ratios are capped at
          [reader nodes]:1 no matter how read-hot the page is *)
  | Quiet  (** below the fault floor, or single-node traffic *)

val page_traffic : event list -> page_traffic list
(** Per-page fault traffic over the given events (oldest first), sorted
    by total faults descending with page-address tie-break.
    Invalidation events are ignored. *)

val classify : page_traffic -> page_class
(** Deterministic signal classification for the autopilot; pages with
    fewer than 4 faults are [Quiet]. *)

val mean_latency : event list -> float
(** Mean fault-handling latency in nanoseconds (invalidations excluded). *)

type summary = {
  total_faults : int;
  reads : int;
  writes : int;
  invalidations : int;
  retried : int;
  mean_latency_ns : float;
  hottest_sites : (string * int) list;  (** top 5 *)
  hottest_objects : (string * int) list;  (** top 5, needs allocator *)
}

val summarize : ?alloc:Dex_mem.Allocator.t -> event list -> summary
