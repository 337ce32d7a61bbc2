(** FIFO wait queues for blocking fibers.

    A wait queue holds fibers suspended until another fiber (or an engine
    event) wakes them, passing a value of type ['a]. Wakeups are FIFO, which
    keeps simulations deterministic and starvation-free. *)

type 'a t

val create : unit -> 'a t

val length : _ t -> int

val wait : Engine.t -> 'a t -> 'a
(** [wait engine q] suspends the calling fiber until some wakeup delivers a
    value. *)

val wake_one : 'a t -> 'a -> bool
(** [wake_one q v] wakes the oldest waiter with [v]; returns [false] if the
    queue was empty. *)

val wake_all : 'a t -> 'a -> int
(** [wake_all q v] wakes every waiter with [v]; returns how many were
    woken. *)
