(** Page-fault trace records (§IV-A).

    One record per page fault that required the memory consistency protocol,
    matching the paper's tuple: system time, node, faulting task, fault
    type, faulting source location, faulting memory address — plus the
    user-specified identifier carried in [site]. [Invalidation] records
    (ownership revoked under a node's feet) carry task id [-1]. *)

(** What the faulting access was — or an invalidation under a node's feet. *)
type kind = Read | Write | Invalidation

(** One trace record, the paper's six-tuple plus latency and retries. *)
type t = {
  time : Dex_sim.Time_ns.t;
  node : int;
  tid : int;
  kind : kind;
  site : string;  (** source location / user tag of the access *)
  addr : Dex_mem.Page.addr;
  latency : Dex_sim.Time_ns.t;
      (** time spent handling the fault; 0 for invalidations *)
  retries : int;  (** NACK-and-retry rounds before success *)
}
