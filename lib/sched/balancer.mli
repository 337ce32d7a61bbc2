(** Scheduler-initiated migration through safe points.

    DeX's migrations are initiated by the migrating thread itself (a
    system call); an external scheduler therefore steers threads by
    posting migration {e requests} that each thread honours at its next
    safe point — the standard cooperative preemption design, and the
    extension path §III-A sketches ("OS schedulers or user-space
    libraries automatically initiate the migration"). *)

type t

val create : Dex_core.Process.t -> t

val request : t -> tid:int -> node:int -> unit
(** Post a migration request for thread [tid]; overrides any pending
    one. Raises [Invalid_argument] on a node outside the cluster. *)

val checkpoint : t -> Dex_core.Process.thread -> bool
(** Safe point: if a request is pending for the calling thread, migrate
    there now. Returns whether a migration happened. Threads in a
    balanced region should call this at iteration boundaries. *)

val pending : t -> int
(** Requests not yet honoured. *)

val requested : t -> tid:int -> int option
(** The pending target node for [tid], if any. *)
