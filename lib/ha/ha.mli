(** Origin replication: a write-ahead log of directory and delegation
    mutations fanned out to a replica set of k standbys, with quorum acks
    and watermark-ranked promotion on origin failure.

    The origin is DeX's one stateful anchor — ownership directory, VMA
    layout, futexes, file service all live there — so PR 3's crash
    recovery had to stop short of it. This layer closes the gap:

    {ul
    {- {b Log.} Every externally observable origin mutation is appended as
       a {!Log_entry.t} ({!append}) and shipped to every live standby in
       batches over the ordinary reliable fabric, one shipper fiber per
       standby cutting batches at its own cursor. Each standby applies
       entries to a {!Replica} and acks its watermark.}
    {- {b Quorum.} The replica set is the origin plus k standbys. The
       {e quorum watermark} is the highest sequence number acked by
       ⌈(k+1)/2⌉ standbys — together with the origin's own copy, a
       majority of the set holds everything at or below it, so any
       minority of simultaneous crashes (origin included) loses none of
       it. [`Sync] makes {!fence} block until the whole log reaches the
       quorum watermark; [`Async lag] blocks only when the log runs more
       than [lag] entries ahead of it. A standby crash prunes it from the
       set ([ha.standby_lost]); fences degrade to the remaining standbys
       while origin+survivors still form a majority ([ha.quorum_degraded])
       and stall outright below that ([ha.quorum_stalls]) — [`Sync]
       refuses to externalize writes a minority crash could lose. With no
       standby left, replication disables ([ha.disabled]).}
    {- {b Failover.} When the fabric declares the origin dead,
       {!handle_crash} (run by the process's crash handler after directory
       reclaim, before thread re-homing) spawns the promotion fiber. It
       {e elects} the reachable standby with the highest applied watermark
       (newest generation first, lowest node id breaking exact ties),
       replays the retained log against a fresh replica and checks the
       result is bit-identical to the incrementally built one, hands the
       replica to the process layer's promotion hook (the protocol's
       [Coherence.promote] + epoch fencing), re-arms a fresh
       log generation towards the surviving standbys plus newly recruited
       ones ([ha.recruits]), and finally releases every requester blocked
       in {!resolve}. Survivor threads experience a stalled fault, not an
       abort.}
    {- {b Re-arm race.} A standby whose current-generation bootstrap
       snapshot has not fully applied is {e never} promotable on that
       image; it retains its previous generation's fully seeded image
       until the snapshot lands and falls back to it in elections
       ([ha.rearm_aborted] when such a fallback wins). Back-to-back
       crashes landing inside the re-arm window therefore cannot promote
       a half-armed replica. If the elected standby itself dies while the
       promotion hook is installing it, the election reruns over the
       remainder ([ha.reelections]).}
    {- {b Zombie fencing.} Every [Repl_append] batch carries the sender's
       origin-generation epoch; standbys NACK batches from an older epoch
       ([ha.zombie_nacks]), so a deposed origin can never advance a
       watermark the new generation relies on.}} *)

type t

val arm :
  engine:Dex_sim.Engine.t ->
  fabric:Dex_net.Fabric.t ->
  stats:Dex_sim.Stats.t ->
  pid:int ->
  mode:[ `Sync | `Async of int ] ->
  origin:int ->
  standbys:int list ->
  t
(** Arm replication from [origin] to the replica set [standbys] (k =
    [List.length standbys]; distinct, in range and excluding the origin).
    An empty set is replication off: the instance holds only its origin,
    with no log, wait queue or standby built, no counter bumped and no
    fiber spawned, and every entry point answers as it does once a
    replica set is lost. [mode] becomes the fence's lag
    bound: [`Sync] is [`Async 0]. Its batches go to process [pid].
    Subscribes to nothing: the owner routes failure declarations to
    {!handle_crash} and messages to {!router}. [stats] receives the
    [ha.*] counters (the arming protocol instance's table, which is also
    its process's). *)

val origin : t -> int
(** Current origin (changes at promotion). *)

val standbys : t -> int list
(** Current live standbys (shrinks on standby loss, refreshed when
    replication re-arms after a failover). *)

val configured : t -> bool
(** A replica set was configured (k > 0), whether or not it is still
    alive: {!armed} turns false once the set is lost, this never does. *)

val active : t -> bool
(** Replication is streaming (not disabled, no failover in progress). *)

val armed : t -> bool
(** An origin crash right now would be survivable: replication is active,
    or a promotion is already in flight. *)

val last_election : t -> (int * (int * int * int) list) option
(** Outcome of the most recent election: winner node id ([-1] when no
    candidate remained) and every candidate as [(node, epoch, watermark)].
    For observability and directed tests. *)

val set_promote_hook :
  t -> (new_origin:int -> Replica.t -> Log_entry.t list) -> unit
(** Install the promotion callback. It must install the replica as the
    live origin state (directory, page data, VMA tree) and
    return the bootstrap snapshot entries used to seed the next
    replication generation. Runs in the promotion fiber and may block on
    the fabric (epoch fencing). A no-op without a replica set, where no
    promotion can happen: install it only when {!configured}. *)

val append : t -> Log_entry.t -> unit
(** Append one entry to the replication log. No-op when disabled; queued
    behind the re-arm snapshot during a failover. Consecutive queued
    [Page_data] entries for the same page compact to the newest image
    while no standby has been handed the older one. *)

val fence : t -> unit
(** Block until the log satisfies the mode's durability bound against the
    quorum watermark ([`Sync]: everything acked by a quorum; [`Async
    lag]: at most [lag] entries past it). Call before externalizing any
    effect whose loss the log must cover. Returns immediately when
    replication is disabled or failing over; stalls while the quorum is
    lost. *)

val resolve : t -> int option
(** Where is the origin? Blocks while a promotion is in flight, then
    returns the (new) origin, or [None] if the origin is dead and no
    promotion can happen (with an empty replica set, none ever can).
    Wired as the coherence layer's origin resolver. *)

val take_wake : t -> addr:Dex_mem.Page.addr -> tid:int -> bool
(** Consume a replicated pending wake for a retried futex wait at the
    promoted origin ([ha.wakes_redelivered]). *)

val handle_crash : t -> node:int -> unit
(** React to the declared failure of [node], without blocking: the
    origin's death spawns the promotion fiber (or disables replication
    when no promotion hook is installed), a standby's death prunes it from
    the replica set. The owning process runs it after directory reclaim
    and before its own thread recovery, so by the time threads are
    re-homed or aborted the promotion fiber is queued and the fences are
    released. *)

val router : t -> Dex_net.Fabric.env -> bool
(** Standby-side message dispatcher: apply [Repl_append] batches carrying
    the current epoch and ack the watermark; NACK batches from a deposed
    origin's older epoch. The owning process tries it from its own
    router, for messages whose envelope carries its pid ([pid] of
    {!arm}, which the shipper stamps on every batch). *)
