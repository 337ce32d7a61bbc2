(** One-shot cells for blocking fibers.

    An ivar is filled at most once; a fiber that reads it before the fill
    parks until the fill. It is the one-shot sibling of {!Waitq} (a reply,
    a rebuilt context, a thread's end): a read and a fill meet in either
    order, so a caller never checks a flag before it parks. The value
    travels through the ivar, not through the wake: a parked reader is
    its fiber's record ({!Engine.fiber}), and once woken it reads the
    value the fill stored. A park costs the reader's [Waiting] state (a
    list cell for each reader after the first) and the engine's park. *)

type 'a t

val create : unit -> 'a t

val read : Engine.t -> 'a t -> 'a
(** [read engine t] is the value of [t]. A read of a full ivar returns at
    once, with no event; otherwise the calling fiber parks until the fill
    and resumes at its instant. *)

val fill : 'a t -> 'a -> unit
(** [fill t v] stores [v] and wakes the parked readers, oldest first, as
    {!Waitq.wake_all} does. Raises [Invalid_argument] if [t] is full. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill}, but returns [false] and keeps the first value when [t]
    is full: for wakers that race, such as an answer and its timeout. *)

val is_full : _ t -> bool
