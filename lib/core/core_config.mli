(** Cost model of DeX's execution-migration machinery and node hardware.

    Calibrated against the paper's Table II and Figure 3: the first forward
    migration costs 12.1 µs at the origin and 800 µs at the remote (620 µs
    of which is remote-worker creation); repeat migrations to the same node
    cost 6.6 µs / 230 µs; backward migration ~24.7 µs end to end. Node
    hardware mirrors the testbed: 8 usable cores per node (hyper-threads
    unused by the evaluation) and a finite per-node memory bandwidth whose
    contention degradation reproduces BP's super-linear scaling. *)

type t = {
  cores_per_node : int;
  mem_bw_bytes_per_us : float;  (** aggregate per-node memory bandwidth *)
  mem_contention : float;
      (** per-extra-concurrent-stream bandwidth degradation factor *)
  syscall : Dex_sim.Time_ns.t;  (** user→kernel entry/exit *)
  (* Forward migration, origin side. *)
  context_capture : Dex_sim.Time_ns.t;
      (** collect pt_regs / FPU state and post the context *)
  first_session_setup : Dex_sim.Time_ns.t;
      (** extra origin-side work on a process's first migration to a node *)
  context_size : int;  (** wire size of a migrated execution context *)
  (* Forward migration, remote side (Figure 3 categories). *)
  remote_worker_create : Dex_sim.Time_ns.t;
  address_space_init : Dex_sim.Time_ns.t;
  thread_create_first : Dex_sim.Time_ns.t;
      (** forking the first remote thread out of a freshly built worker *)
  thread_create : Dex_sim.Time_ns.t;
      (** forking later remote threads from the warm remote worker *)
  context_install : Dex_sim.Time_ns.t;
  sched_enqueue : Dex_sim.Time_ns.t;
  (* Backward migration. *)
  backward_capture : Dex_sim.Time_ns.t;  (** at the remote *)
  backward_update : Dex_sim.Time_ns.t;
      (** refreshing the original thread's context at the origin *)
  (* Work delegation. *)
  delegation_dispatch : Dex_sim.Time_ns.t;
      (** origin-side cost of serving one delegated request: waking the
          paired original thread and switching to it *)
  futex_op : Dex_sim.Time_ns.t;  (** one futex wait/wake operation proper *)
  vma_op : Dex_sim.Time_ns.t;  (** VMA tree manipulation at the origin *)
  spawn_thread : Dex_sim.Time_ns.t;  (** local pthread_create *)
  file_op : Dex_sim.Time_ns.t;
      (** VFS bookkeeping per delegated file operation *)
  storage_bytes_per_us : float;
      (** bandwidth of the NAS appliance backing the NFS share *)
  autopilot : bool;
      (** Off by default — simulated outputs are bit-identical to a
          build without the autopilot. When on, the process layer
          attaches {!Dex_sched.Autopilot}: fault traces are profiled
          every {!field-autopilot_interval} and placement actions
          (thread co-location, page re-homing, replicate-don't-invalidate
          marking) are applied online, with no application changes. *)
  autopilot_interval : Dex_sim.Time_ns.t;
      (** profiling-window length between autopilot ticks (default
          250 µs) *)
}

val default : t
