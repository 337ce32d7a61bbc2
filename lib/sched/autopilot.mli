(** The placement autopilot: §IV's profiling loop, closed online.

    The paper's workflow is offline — run once, dump the fault trace,
    eyeball the analysis, edit the application (align allocations,
    co-locate threads), run again. The autopilot runs the same loop
    inside the process with {e zero} application changes: a bounded
    {!Dex_profile.Trace} stays attached to the coherence layer, a
    periodic tick classifies the window's hottest pages
    ({!Dex_profile.Analysis.classify}) and acts through three levers:

    - {b co-location} — the minority faulters of a ping-ponged or
      false-shared page are steered to its dominant node through
      {!Balancer.request}, honoured at each thread's next compute-boundary
      safe point ({!Dex_core.Process.set_safepoint_hook});
    - {b re-homing} — the page's directory authority follows them via
      {!Dex_proto.Coherence.rehome_page}, so the survivors' faults
      resolve home-locally;
    - {b replication} — read-mostly pages are marked
      replicate-don't-invalidate
      ({!Dex_proto.Coherence.mark_replicate}), so a rare write pushes
      fresh copies back instead of leaving every reader to re-fault.

    Each tick analyzes the trailing 8 ticks of a 4096-event trace ring.
    At most 4 pages are acted on per tick, and a page or thread acted on
    rests for 8 ticks, so one noisy window cannot thrash placement.
    Co-location needs 32 faults on a page in the window (a migration
    re-faults the thread's whole working set) and is all-or-nothing: it
    fires only when {e every} minority faulter fits on the dominant node
    within its core count, since a partial move leaves the ping-pong
    intact. Enable it with {!Dex_core.Core_config.autopilot}; converging
    Initial-variant applications toward their hand-Optimized twins is
    the acceptance test ([bench/main.exe autopilot]). *)

type t

val attach : Dex_core.Process.t -> t
(** Attach the autopilot to a process: installs the bounded trace, the
    safe-point hook (replacing any previous one) and the periodic tick
    fiber, which fires every
    {!Dex_core.Core_config.autopilot_interval} of the process's cluster.
    Call before spawning worker threads so no safe point is missed. *)

val stop : t -> unit
(** Detach the trace and safe-point hook and disable future ticks (the
    tick fiber itself winds down at the process's next interval).
    Idempotent. *)

val ticks : t -> int
(** Profiling windows processed so far (also [autopilot.ticks] in
    {!Dex_proto.Coherence.stats}). *)
