(** Per-node RDMA sink.

    DeX cannot RDMA directly into arbitrary application pages (dynamic
    registration is too expensive), so each connection owns a pre-registered
    sink of physically contiguous 4 KB chunks: peers RDMA-write into a sink
    slot and the payload is then copied once to its final destination. The
    sink is a finite resource; exhaustion backpressures senders. *)

type t
(** One node's sink: a bounded pool of pre-registered 4 KB chunks. *)

val create : Dex_sim.Engine.t -> slots:int -> copy_ns_per_byte:float -> t
(** [create engine ~slots ~copy_ns_per_byte] builds a sink with [slots]
    chunks; [copy_ns_per_byte] is the modeled cost of the copy from sink
    to final destination. *)

val slots : t -> int
(** Total chunk capacity, as configured at creation. *)

val in_use : t -> int
(** Chunks currently reserved by in-flight transfers. *)

val exhaustion_waits : t -> int
(** How many slot acquisitions had to block. *)

val acquire : t -> unit
(** Reserve one slot, blocking the calling fiber if the sink is full. *)

val copy_ns : t -> bytes:int -> Dex_sim.Time_ns.t
(** The modeled duration of copying [bytes] out of a slot. *)

val release : t -> unit
(** Free one slot; the caller charges {!copy_ns} for the copy itself. *)
