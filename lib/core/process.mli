(** A distributed process: the unit DeX extends across machine boundaries.

    A process is created at its {e origin} node with a classic single-node
    address-space layout. Threads are spawned locally and may then relocate
    themselves to any node with one {!migrate} call (§III-A): the execution
    context is captured, shipped through the messaging layer, and the
    thread resumes at the destination — on the process's first visit to a
    node a {e remote worker} is built there first (the dominant cost of a
    first migration), and later migrations fork cheaply from it.

    Wherever a thread runs, it sees one consistent address space: memory
    accesses go through the memory consistency protocol, and stateful
    kernel services (futex, VMA manipulation) are transparently delegated
    to the paired original thread at the origin. Node-wide operations
    (VMA shrinks and downgrades, process exit) are broadcast from the
    origin and applied at each remote worker by the fabric handler that
    delivers them.

    The process keeps only process state (threads, VMAs, futexes, files,
    remote workers). Its protocol instance ({!coherence}) owns the rest:
    the origin (shard 0's home in the {!Dex_proto.Authority} table), the
    origin's replication ({!ha}) and the one counter table ({!stats}). *)

type t

type thread

exception Segfault of { node : int; addr : Dex_mem.Page.addr }
(** Illegal access: no VMA covers the address (confirmed by the origin) or
    the VMA forbids the access. Remote threads are terminated exactly as a
    local segfault would. *)

exception Thread_crashed of { pid : int; tid : int }
(** The node the thread was executing on fail-stopped and the process runs
    the [`Abort] crash policy ({!Dex_proto.Proto_config.on_crash}): every
    subsequent thread-API call on the lost thread raises this. The spawn
    wrapper absorbs it, so an aborted thread simply finishes — {!join}
    returns and {!crashed} reports the loss. *)

val create : Cluster.t -> ?origin:int -> unit -> t
(** Register a new process on [cluster] under a {!Cluster.fresh_pid} —
    one {!Cluster.add_process} registration carrying its message router
    (which receives only messages whose envelope names that pid) and its
    crash recovery (directory reclaim, then standby promotion, then thread
    recovery);
    [origin] defaults to node 0. The protocol instance arms
    {!Dex_proto.Proto_config.replication} of the origin towards the
    cluster's replica set ({!Dex_proto.Proto_config.standbys}, empty by
    default: replication off) — see {!ha} — and this installs the
    promotion hook that rebuilds the origin's VMA tree. Replication
    protects the origin only, so {!Dex_proto.Coherence.create} raises
    [Invalid_argument] when a replica set is configured with more than
    one shard of
    {!Dex_proto.Proto_config.sharding} (and, from {!Dex_ha.Ha.arm}, on a
    malformed replica set). *)

val cluster : t -> Cluster.t

val pid : t -> int

val origin : t -> int
(** The current origin node: shard 0's home in the protocol's
    {!Dex_proto.Authority} table. Changes when a standby is promoted after
    an origin crash. *)

val ha : t -> Dex_ha.Ha.t
(** The origin's replication layer ({!Dex_proto.Coherence.ha}), disabled
    from the start with no standbys. With replication armed an
    origin fail-stop no longer kills the process: a standby replays the
    replication log, takes over the directory and every delegated
    service (VMA, allocator, futex, file) under a new epoch and becomes
    the origin, and surviving threads stall through the failover instead
    of aborting (threads resident on the dead node itself still
    abort). *)

val coherence : t -> Dex_proto.Coherence.t

val allocator : t -> Dex_mem.Allocator.t

val vma_tree : t -> node:int -> Dex_mem.Vma_tree.t
(** Per-node VMA view; the origin's is authoritative. *)

val stats : t -> Dex_sim.Stats.t
(** The process's one counter table, {!Dex_proto.Coherence.stats}: the
    protocol's counters beside the process layer's ([migration.*],
    [delegation], [vma.sync], [crash.threads_*], [crash.futex_cancelled],
    [crash.migrations_refused], [shard.cross_ops], the [ha.*_retried]
    counts) and the replication log's [ha.*]. *)

(** {1 Threads} *)

val spawn : t -> ?name:string -> (thread -> unit) -> thread
(** [pthread_create]: start a thread at the origin, running [f] as a
    fiber. Allocates the thread's stack VMA. *)

val join : thread -> unit
(** Block the calling fiber until the thread's function returns. *)

val tid : thread -> int

val location : thread -> int
(** The node the thread currently executes on. *)

val crashed : thread -> bool
(** The thread was lost to a fail-stop node crash under the [`Abort]
    policy. A crashed thread counts as finished for {!join}/{!shutdown};
    under [`Rehome] threads never set this flag — they restart their
    interrupted operation from the origin instead (delegated service
    bodies may therefore execute twice; see
    {!Dex_proto.Proto_config.on_crash}). *)

val self_process : thread -> t

(** {1 Migration} *)

val migrate : thread -> int -> unit
(** [migrate th node] relocates the calling thread to [node] — the paper's
    one-line conversion call. Migrating to the current location is a no-op;
    migrating to the origin is the cheap backward path. Migrating onto a
    node known (or discovered mid-flight) to have crashed is refused and
    the thread stays put ([crash.migrations_refused]). *)

type migration_record = {
  m_tid : int;
  m_target : int;
  m_direction : [ `Forward | `Backward ];
  m_first_to_node : bool;
  m_origin_ns : int;
      (** handling cost at the origin node (sender side for forward
          migrations, receiver side for backward ones) *)
  m_remote_ns : int;  (** handling cost at the remote node *)
  m_breakdown : (string * int) list;
      (** receiving-side phases (Figure 3): remote worker, address space,
          thread creation, context setup, enqueue *)
}

val migration_log : t -> migration_record list
(** All completed migrations, oldest first. *)

(** {1 Memory} *)

val alloc_static :
  t -> ?align:int -> bytes:int -> tag:string -> unit -> Dex_mem.Page.addr
(** Static/global program data; no runtime cost (exists at process load). *)

val malloc : thread -> bytes:int -> tag:string -> Dex_mem.Page.addr
(** Heap allocation (packs objects; the false-sharing-prone default). From
    a remote thread, the allocation is delegated to the origin. *)

val memalign :
  thread -> align:int -> bytes:int -> tag:string -> Dex_mem.Page.addr
(** [posix_memalign]: page-align per-node data to cure false sharing. *)

val mmap :
  thread -> ?perm:Dex_mem.Perm.t -> len:int -> tag:string -> unit ->
  Dex_mem.Page.addr
(** Map a fresh VMA (anonymous mmap). Permissive: not broadcast; remote
    nodes learn it through on-demand VMA synchronization. *)

val munmap : thread -> addr:Dex_mem.Page.addr -> len:int -> unit
(** Unmap a range. Shrinking is broadcast eagerly to every remote worker,
    which zaps local VMAs and page-table entries before the call returns. *)

val mprotect :
  thread -> addr:Dex_mem.Page.addr -> len:int -> perm:Dex_mem.Perm.t -> unit
(** Change permissions. Downgrades are broadcast eagerly; upgrades are
    lazy. *)

val read : thread -> ?site:string -> Dex_mem.Page.addr -> len:int -> unit
(** Bulk read: fault in every page of the range with read access. Page
    contents are not materialized, only ownership and timing. *)

val write : thread -> ?site:string -> Dex_mem.Page.addr -> len:int -> unit
(** Bulk write: acquire exclusive ownership of every page of the range. *)

val load : thread -> ?site:string -> Dex_mem.Page.addr -> int64
(** Typed DSM read of an 8-byte cell (8-byte aligned). Typed accesses
    come in this one width; byte ranges go through {!read} and
    {!write}. *)

val store : thread -> ?site:string -> Dex_mem.Page.addr -> int64 -> unit
(** Typed DSM write of an 8-byte cell. *)

val cas :
  thread ->
  ?site:string ->
  Dex_mem.Page.addr ->
  expected:int64 ->
  desired:int64 ->
  bool
(** Atomic compare-and-swap: acquires exclusive page ownership, then
    compares and possibly updates in one indivisible step (hardware CAS on
    an exclusively-owned page). *)

val fetch_add : thread -> ?site:string -> Dex_mem.Page.addr -> int64 -> int64
(** Atomic fetch-and-add on an 8-byte cell. *)

(** {1 Compute} *)

val compute : thread -> ns:Dex_sim.Time_ns.t -> unit
(** Occupy one core of the thread's current node for [ns] of CPU work. *)

val compute_membound :
  thread -> ns:Dex_sim.Time_ns.t -> bytes:int -> unit
(** CPU work plus [bytes] of memory traffic through the node's contended
    memory channels. *)

(** {1 Futex (§III-A work delegation)} *)

val futex_wait : thread -> addr:Dex_mem.Page.addr -> expected:int64 -> bool
(** FUTEX_WAIT: delegated to the home of the futex word's page (the
    origin with one shard); atomically re-checks the futex word
    there and sleeps until woken. Returns [false] on EAGAIN (value
    mismatch — caller must re-evaluate). *)

val futex_wake : thread -> addr:Dex_mem.Page.addr -> count:int -> int
(** FUTEX_WAKE: delegated to the same home as the word's waits; returns
    the number of threads woken. *)

(** {1 File I/O (§III-A work delegation)}

    The file table lives at the origin, with the other delegated
    services, whatever the shard count. Remote threads' calls are
    delegated to it, and read payloads
    travel back as the system-call result (large reads ride the fabric's
    RDMA path). Contents are not simulated, only sizes and cursors — data
    transfer is charged against the shared storage appliance. *)

val file_open : thread -> string -> int
(** Open (creating if needed); returns a file descriptor. *)

val file_read : thread -> fd:int -> bytes:int -> int
(** Read up to [bytes] at the cursor; returns the actual count (0 at
    EOF). *)

val file_write : thread -> fd:int -> bytes:int -> unit

val file_close : thread -> fd:int -> unit

(** {1 Scheduler hooks}

    Cooperative-preemption plumbing for an external scheduler (the
    placement autopilot). Both default to absent/unused; a process that
    never installs them behaves bit-identically. *)

val set_safepoint_hook : t -> (thread -> unit) option -> unit
(** Install a hook run by every thread at the end of each {!compute} /
    {!compute_membound} call — a point where the thread holds no
    protocol lock and no delegated call is in flight, so the hook may
    {!migrate} it (the balancer's {!Dex_sched.Balancer.checkpoint}
    hangs here). *)

val set_periodic : t -> interval:Dex_sim.Time_ns.t -> (unit -> unit) -> unit
(** Spawn a fiber running [f] every [interval] of simulated time until
    {!shutdown} drains the process's threads ([f] is not called after
    that, and the fiber exits — the simulation still quiesces). Raises
    [Invalid_argument] on a non-positive interval. *)

val live_threads : t -> (int * int) list
(** [(tid, location)] of every thread still running (not finished, not
    lost to a crash), sorted by tid. *)

(** {1 Lifecycle} *)

val shutdown : t -> unit
(** Join every spawned thread, then broadcast process exit to all remote
    workers and wait for their teardown. A process configured without
    standbys ({!Dex_ha.Ha.configured}) then removes its cluster
    registration. Must be called from a fiber
    (normally the main thread; {!Dex.run} does it automatically). *)
