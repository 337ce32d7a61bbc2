(** FIFO wait queues for blocking fibers.

    A wait queue holds fibers parked until another fiber (or an engine
    event) wakes them. Wakeups are FIFO, which keeps simulations
    deterministic and starvation-free. A wait carries no value: a waker
    with something to say stores it where the woken fiber reads it, or
    uses an {!Ivar}. The queue is a ring of the fibers' records
    ({!Engine.fiber}), so a wait and its wake allocate nothing once the
    ring has grown; an empty queue holds no array until its first wait. *)

type 'a t
(** Only [unit t] is ever made: a wakeup delivers [()]. *)

val create : unit -> unit t

val length : _ t -> int

val wait : Engine.t -> unit t -> unit
(** [wait engine q] parks the calling fiber until a wakeup reaches it. *)

val wake_one : unit t -> unit -> bool
(** [wake_one q ()] wakes the oldest waiter; returns [false] if the queue
    was empty. *)

val wake_all : unit t -> unit -> int
(** [wake_all q ()] wakes every waiter; returns how many were woken. *)
