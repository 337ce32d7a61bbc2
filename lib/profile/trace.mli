(** Page-fault trace collection (§IV-A).

    The kernel side of DeX hands one tuple per consistency-protocol fault
    to user space through ftrace; here, a trace buffer attaches to a
    process's coherence layer and accumulates the same records for
    post-processing. *)

type t

val attach : ?capacity:int -> Dex_proto.Coherence.t -> t
(** Start collecting; replaces any previously installed tracer. With
    [capacity] the buffer is a ring holding at most that many events:
    admitting a new event past the limit evicts the oldest one and bumps
    both {!dropped} and the coherence layer's [trace.dropped] counter —
    the always-on-autopilot mode. Without it, every event is retained
    (the historical behaviour). [capacity] must be positive. *)

val detach : t -> unit
(** Stop collecting (the hook is removed). *)

val events : t -> Dex_proto.Fault_event.t list
(** Collected events, oldest first. *)

val count : t -> int
(** Events currently retained (at most [capacity] when bounded). *)

val dropped : t -> int
(** Events evicted by the capacity ring since {!attach}. Always 0 for an
    unbounded trace. *)
