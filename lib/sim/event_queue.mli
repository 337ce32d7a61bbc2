(** Priority queue of simulated events.

    Events are ordered by (time, sequence number): two events scheduled for
    the same instant fire in insertion order, which keeps whole-simulation
    runs deterministic.

    A binary heap of integer keys: each entry is a time, a sequence number
    and the slot of a pool that holds its thunk from {!push} to {!take}.
    A sift moves only integers, and once the arrays have grown to the
    pending count, a push and a take allocate nothing. *)

type t

val create : unit -> t
(** [create ()] is an empty queue. *)

val is_empty : t -> bool

val length : t -> int

val push : t -> time:Time_ns.t -> seq:int -> (unit -> unit) -> unit
(** [push q ~time ~seq thunk] enqueues [thunk] to fire at [time]; [seq] breaks
    ties between events at the same instant (lower fires first). *)

val pop : t -> (Time_ns.t * (unit -> unit)) option
(** [pop q] removes and returns the earliest event, or [None] if empty. *)

val take : t -> (unit -> unit)
(** [take q] removes the earliest event and returns its thunk, allocating
    nothing; the event's time is [min_time q] just before the call.
    Raises [Invalid_argument] if [q] is empty. *)

val min_seq : t -> int
(** [min_seq q] is the sequence number of the earliest event. Raises
    [Invalid_argument] if [q] is empty. *)

val min_time : t -> Time_ns.t
(** [min_time q] is the firing time of the earliest event without
    removing it, or [max_int] if [q] is empty. *)
