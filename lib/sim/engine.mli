(** Deterministic discrete-event engine with direct-style fibers.

    The engine owns a virtual clock and its pending events. Simulated
    threads ("fibers") are ordinary OCaml functions running under an effect
    handler: a fiber blocks by performing a constant effect ([Park] or
    [Delay]) whose resumption is re-scheduled as an event, so execution is
    fully trampolined and strictly ordered by (time, sequence number).
    Identical inputs always produce identical executions.

    {b One record per fiber.} {!spawn} makes the fiber's record: its
    engine, body, label, the continuation it parked with and one closure
    that is both its start and its resume. A park stores the continuation
    in the record; a timer, a {!wake} or the start enqueues that closure.
    So parking and resuming allocate nothing beyond the continuation the
    runtime makes (and the option holding it). A wait carries no value:
    a waker that has one stores it where the fiber reads it after it
    resumes, as {!Ivar} does.

    {b Where events wait.} An event due at the current instant (a
    zero-delay {!schedule}, an {!at} in the past or present, a {!spawn}'s
    start, a {!wake}) joins a FIFO runnable ring; a later one joins a
    binary heap keyed by (time, sequence number). {!run} pops the heap
    while its earliest event is due now, then the ring, and only then
    advances the clock to the heap's minimum. That is (time, sequence)
    order exactly: an event in the heap due now was pushed at an earlier
    instant, so it precedes every ring entry, and the ring drains before
    time moves. The events runnable at an instant are the ring plus the
    heap's prefix due now.

    {b Timers.} {!after} (and a {!delay} that cannot run inline) pushes its
    callback itself as a heap entry tagged as a timer. When a timer pops
    while another event is due at its instant, the run loop moves it to the
    ring's tail, the zero-delay bounce every resume takes; otherwise it
    runs at once. *)

type t

exception Deadlock
(** Raised by {!run_until_quiescent} when fibers are still blocked but no
    event can ever wake them. *)

val create : unit -> t
(** [create ()] is a fresh engine at time 0 with no pending event. *)

val now : t -> Time_ns.t
(** [now t] is the current simulated time. *)

val schedule : t -> delay:Time_ns.t -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay]. [delay] must be
    non-negative. *)

val at : t -> time:Time_ns.t -> (unit -> unit) -> unit
(** [at t ~time f] runs [f] at absolute [time] (clamped to [now t]). *)

val after : t -> Time_ns.t -> (unit -> unit) -> unit
(** [after t d f] runs [f] [d] nanoseconds from now, ordered exactly as a
    fiber calling [delay t d] would resume: in the timer event itself
    unless another event is due at that instant, in which case [f] joins
    the runnable ring's tail, as a {!wake} does. It is the callback form
    of {!delay}, for a chain of timed steps that needs no fiber. For
    [d > 0] the timer is [f] itself in the heap and allocates nothing.
    [d] must be non-negative. *)

val spawn : t -> ?label:string -> (unit -> unit) -> unit
(** [spawn t f] starts a new fiber executing [f] at the current time, after
    the events already due then. An exception escaping [f] aborts the whole
    simulation with the fiber's [label] attached. Every fiber of an engine
    runs under one handler, built by {!create}. *)

val delay : t -> Time_ns.t -> unit
(** [delay t d] blocks the calling fiber for [d] simulated nanoseconds,
    resuming it as {!after} would run a callback: from the timer event
    itself, or after a zero-delay bounce when another event is due at the
    wake-up instant. When no event is due now,
    the wake-up time is strictly earlier than every queued event and it is
    not past the bound of the enclosing {!run}, that timer would be the
    next event popped and would resume the fiber directly; [delay] then
    advances the clock in place and returns, with no effect, event or
    allocation. Raises [Invalid_argument] if [d] is negative. *)

type fiber
(** A fiber's record, made once by {!spawn}. *)

val current : t -> fiber
(** [current t] is the fiber running in [t], {!none} between fibers. *)

val none : fiber
(** No fiber: what {!current} is outside fibers, and the filler of an
    empty slot in an array of fibers. *)

val park : t -> unit
(** [park t] blocks the calling fiber until a {!wake} of it. A caller
    first stores [current t] where its waker finds it: the primitive under
    {!Waitq.wait} and {!Ivar.read}, where the rest of the simulator
    parks. Raises [Invalid_argument] outside a fiber. *)

val wake : fiber -> unit
(** [wake fb] schedules the parked fiber [fb] to resume at the current
    time, after the events already due then. Raises [Invalid_argument] if
    [fb] is not parked (a second wake of one park, or {!none}). *)

val live_fibers : t -> int
(** [live_fibers t] is the number of fibers that have started and not yet
    finished (blocked fibers count as live). *)

val run : ?until:Time_ns.t -> t -> unit
(** [run t] processes events until none is pending (or until the given
    time bound, exclusive of later events: a run entered with [now t]
    already past [until] processes nothing, not even the events due now).
    Fibers blocked forever are left blocked silently; see
    {!run_until_quiescent} to treat that as an error. *)

val run_until_quiescent : t -> unit
(** Like {!run}, but raises {!Deadlock} if the events drain while some fiber
    is still blocked. *)

exception Fiber_failure of string * exn
(** [Fiber_failure (label, exn)]: exception [exn] escaped the fiber
    [label]. *)
