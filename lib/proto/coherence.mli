(** The page-level memory consistency protocol (§III-B, §III-C).

    Multiple-reader / single-writer, read-replicate write-invalidate,
    sequential consistency. Page ownership is tracked in per-page
    {!Dex_mem.Directory} entries at the page's {e home node}; every node
    keeps a {!Dex_mem.Page_table} of the access levels it has been
    granted, a {!Dex_mem.Page_store} of real page contents (for typed
    accesses), and a {!Dex_mem.Fault_table} that coalesces concurrent
    faults with a leader/follower scheme.

    Fault walk-through for a remote node: access checks the local page
    table; on a miss the thread traps, enters the fault table (leader or
    coalesced follower), and the leader RPCs [Page_request] to the page's
    home. The home serializes protocol operations per page with a busy
    flag — requests racing an in-flight operation are NACKed and the
    requester backs off exponentially (the paper's slow contended path,
    ~158.8 µs on average vs ~19.3 µs uncontended). To satisfy a read, the
    home downgrades an exclusive owner (pulling fresh data back); to
    satisfy a write it revokes every other copy in parallel. Ownership is
    granted without page data whenever the requester already holds an
    up-to-date copy (read → write upgrades).

    {2 Page authority}

    Which node serves a page, and from which directory, is one
    {!Authority} table ({!authority}): per-shard homes and directories,
    the origin's epoch and each node's view of it, plus per-page re-homes
    and pins. Every
    protocol operation resolves a page through {!Authority.route}, so the
    static shard home and an autopilot re-home are never checked apart.
    A request resolves its route once: the requester when it sends, the
    home when it admits the request, before the handler delay. The grant
    then decides against that route's directory; if the page's authority
    moved in the meantime (a re-home, fallback or promotion), the grant
    is NACKed and the retry is served by the new home.
    Each shard has its own directory; faults and revocations resolve at
    the serving home, so independent shards never serialize on one node.

    {2 Fail-stop crashes}

    When the fabric declares a node dead ({!Dex_net.Fabric.declare_dead} —
    organically, when a revocation exhausts its retry budget and the
    home escalates the resulting [Unreachable]; or via the fabric's
    keepalive backstop), the instance runs {!reclaim_node}: exclusive
    pages owned by the dead node re-home to their serving home's
    last-known copy, the dead node is scrubbed from every reader set,
    pages re-homed to it fall back to their shard home, and its local
    tables are reset. Grants racing a crash are refused or undone rather
    than handing pages to a ghost, revocations towards a declared-dead
    node are skipped, and every home-side lock and fault-table entry is
    released on the [Unreachable] exception path, so {!check_invariants}
    holds after every reclaim. Without a replica set, crashing a {e home}
    node is unsupported: its shard's directory dies with it (and for the
    origin, the delegated services too).

    {2 Home failover (HA)}

    {!create} arms one {!Dex_ha.Ha} ({!ha}) towards the replica set
    {!Proto_config.standbys}, which replicates the origin; an empty set
    arms it disabled, which is replication off. A replica set needs one
    shard: only the origin can fail over. A
    {!Dex_ha.Ha.fence} runs before any grant reply leaves the origin (the
    "replicate before externalize" fence; home-local operations never
    pass through it), every directory mutation streams to the standbys
    through the {!Dex_mem.Directory} observer, every mutation of the
    origin's page store (home-local typed writes, data pulled back by a
    reclaim) is logged as page data, and an origin death is handled by
    {!promote} + {!fence_survivors}. Every coherence request carries the
    origin's epoch; requests stamped with a dead epoch are NACKed with
    [Page_stale] ([ha.stale_epoch_nacks]) so survivors adopt the new
    origin, which they located by stalling in {!Dex_ha.Ha.resolve} until
    the promotion completed ([ha.stalled_faults]) — a failover is a long
    fault, not an abort. With no standbys, every path replication guards
    is one state test, a home death is fatal ({!reclaim_node}), and a
    reclaim takes one phase instead of two; so it does once a configured
    set is lost, except that reclaims stay two-phase. *)

type t
(** One coherence-protocol instance (per-shard directories + per-node
    tables). *)

val create :
  ?cfg:Proto_config.t ->
  ?seed:int ->
  ?pid:int ->
  Dex_net.Fabric.t ->
  origin:int ->
  t
(** One protocol instance per distributed process; its messages carry
    [pid] in their envelope ({!Dex_net.Msg.t.pid}, default 0), which is
    how processes sharing a fabric keep them apart. The caller must route
    fabric messages for [pid] to {!handler} and then {!Dex_ha.Ha.router}
    of {!ha}, and failure declarations to {!reclaim_node} and then
    {!Dex_ha.Ha.handle_crash}. Arms replication of the origin towards
    [cfg.standbys] (disabled when it is empty). Raises [Invalid_argument]
    on a bad [origin], a non-positive shard count, a non-empty replica
    set with more than one shard, or (from {!Dex_ha.Ha.arm}) a malformed
    replica set. *)

val cfg : t -> Proto_config.t
(** The configuration the instance was created with. *)

val node_count : t -> int
(** Number of nodes on the underlying fabric. *)

val authority : t -> Authority.t
(** The page-authority table. The protocol mutates it (re-homes, pins,
    promotions, fallbacks); callers should only read it. *)

val shard_load : t -> int array
(** Per-shard count of grants served, a snapshot of the load vector
    behind [shard.local_grants]/[shard.remote_grants]. All zeros with one
    shard (per-shard accounting is gated on [shard_count > 1]).
    Index [s] is shard [s]. *)

val handler : t -> Dex_net.Fabric.env -> bool
(** Process a protocol message; returns [false] if the payload belongs to
    another subsystem. The caller has already routed the message to this
    instance's process by its envelope pid, so no arm checks it. Must be
    called from the fabric handler of the destination node. *)

val access_range :
  t ->
  node:int ->
  tid:int ->
  ?site:string ->
  addr:Dex_mem.Page.addr ->
  len:int ->
  access:Dex_mem.Perm.access ->
  unit ->
  unit
(** Touch every page of [addr, addr+len) with the given access from [node],
    faulting (and blocking the calling fiber) as the protocol requires.
    Bulk variant used for large application arrays: page contents are not
    materialized, only ownership and timing are tracked. *)

val load_i64 :
  t -> node:int -> tid:int -> ?site:string -> Dex_mem.Page.addr -> int64
(** Typed DSM read: acquires read access to the page, then reads the real
    bytes from the node's page store. Address must be 8-byte aligned:
    typed accesses come in this one width, byte ranges go through
    {!access_range}. *)

val store_i64 :
  t -> node:int -> tid:int -> ?site:string -> Dex_mem.Page.addr -> int64 -> unit
(** Typed DSM write: acquires exclusive access, then updates the node's
    page store. *)

val cas_i64 :
  t ->
  node:int ->
  tid:int ->
  ?site:string ->
  Dex_mem.Page.addr ->
  expected:int64 ->
  desired:int64 ->
  bool
(** Atomic compare-and-swap: exclusive ownership is acquired first, then
    the compare-and-update runs without any intervening simulation event —
    the analogue of a hardware CAS against an exclusively held cache
    line/page. *)

val fetch_add_i64 :
  t -> node:int -> tid:int -> ?site:string -> Dex_mem.Page.addr -> int64 -> int64
(** Atomic fetch-and-add; returns the previous value. *)

val page_table : t -> node:int -> Dex_mem.Page_table.t
(** [node]'s granted-access table. *)

val page_store : t -> node:int -> Dex_mem.Page_store.t
(** [node]'s store of real page contents (typed accesses only). *)

val zap_range :
  t -> first:Dex_mem.Page.vpn -> last:Dex_mem.Page.vpn -> node:int -> int
(** Drop every page-table entry of [node] in the range, and its page
    contents, for an unmap; returns the number of zapped entries. A
    permission change never zaps: the bytes must outlive it. *)

val forget_range : t -> first:Dex_mem.Page.vpn -> last:Dex_mem.Page.vpn -> unit
(** Unmap a range from the authority table ({!Authority.forget}): each
    page's entry goes from the directory serving it, with its re-home and
    pin. Call only after every node's page-table entries in the range have
    been zapped. *)

(** {2 Placement autopilot primitives}

    Online placement actions driven by the profiling loop
    ({!Dex_sched.Autopilot} when the scheduler library is linked). Both
    are no-ops on the wire until first used: a process that never calls
    them is bit-identical to one built without the autopilot. *)

val rehome_page :
  t ->
  vpn:Dex_mem.Page.vpn ->
  node:int ->
  [ `Rehomed | `Noop | `Busy | `Dead_target ]
(** Move a page's serving authority to [node] without touching any copy a
    node already holds: the directory entry migrates from the page's
    current home into [node]'s overlay directory (or back into the shard
    directory when [node] {e is} the static shard home), the staging copy
    ships along when materialized, and every node's next request for the
    page is steered to [node] — in-flight requesters racing the move are
    answered with [Page_redirect] and retry. Fresh bytes later externalized from the
    dynamic home are mirrored back to the static shard home
    ([autopilot.mirrors]), so if the re-home target crashes the page
    falls back to its shard home with the last-externalized contents and
    live PTE holders re-registered ([autopilot.fallbacks]) — re-homed
    entries are deliberately {e not} replicated by the HA layer.
    [`Busy] if the page's directory entry is locked by an in-flight
    grant, or if its current home dies while shipping the copy (that
    home is declared dead, so the page falls back to its static home
    first): retry later. [`Noop] if already served at [node],
    [`Dead_target] if [node] is (or is discovered to be) crashed.
    Raises [Invalid_argument] on a bad [node]. *)

val pin_page : t -> vpn:Dex_mem.Page.vpn -> unit
(** Pin a page to its static shard home: {!rehome_page} refuses it from
    now on ([`Noop]), and if the autopilot already moved it, authority is
    pulled back (blocking through [`Busy] retries;
    [autopilot.pin_reverts] counts actual pull-backs). The futex layer
    pins every page holding a futex word — its atomic check-and-sleep
    depends on the word's home reading it without simulation events, and
    a re-homed word would open a lost-wake window in the grant-reply
    flight. Idempotent; free of simulation events when the page was
    never re-homed. *)

val mark_replicate : t -> first:Dex_mem.Page.vpn -> last:Dex_mem.Page.vpn -> unit
(** Mark a read-mostly range replicate-don't-invalidate: when a marked
    page's writer retires (the page next returns to [Shared] by a read
    grant), the home pushes unsolicited read copies ([Page_push],
    [autopilot.replica_pushes]) to the readers the write invalidated,
    instead of letting each fault the page back in. A victim whose own
    fault on the page is mid NACK-retry {e accepts} the push — the
    retry loop re-validates local permissions, so the push retires the
    fault without another grant round trip; only a stale epoch declines
    ([autopilot.push_declined]). Idempotent per page
    ([autopilot.replicate_marked] counts first marks). *)

val replicate_marked : t -> Dex_mem.Page.vpn -> bool
(** Whether {!mark_replicate} covers the page. *)

val set_tracer : t -> (Fault_event.t -> unit) option -> unit
(** Install the page-fault profiler hook; leaders emit one event per
    protocol fault, revocations emit [Invalidation] events. *)

val backoff_delay : t -> node:int -> attempt:int -> Dex_sim.Time_ns.t
(** The retry delay the node would sleep after its [attempt]-th NACK:
    exponential in the attempt (capped at 2^6), +/- 25% deterministic
    jitter, clamped to [3d/4, 5d/4] of the undithered delay [d] — so even
    a degenerate [backoff_base] of 0 never collapses to the 1 ns floor.
    Consumes the node's jitter RNG. Exposed for property tests. *)

val reclaim_node : t -> node:int -> unit
(** Scrub a dead node out of every directory served elsewhere: re-home its
    exclusive pages to the serving home's last-known copy
    ([crash.pages_reclaimed]), drop it from reader sets
    ([crash.readers_scrubbed], the set's last reader re-homes the page
    too), fall back the pages re-homed to it ([autopilot.fallbacks]), and
    reset its page table and page store. The first step of a process's
    crash recovery: [Dex_core.Process] runs it when a failure is declared,
    before HA promotion and thread recovery; exposed for directed tests.
    Safe to run while grants are in flight. If [node] is the origin and
    replication is armed ({!Dex_ha.Ha.armed}), its recovery is the HA
    promotion path's (its local tables are left to {!promote}). Otherwise
    the death of any shard home raises [Failure] — without replication,
    and also once replication disabled itself: this is the one place that
    refuses an unrecoverable home loss. *)

(** {2 Home failover} *)

val ha : t -> Dex_ha.Ha.t
(** The origin's replication, armed by {!create} towards
    {!Proto_config.standbys}: disabled from the start when that is empty
    ({!Dex_ha.Ha.configured} is false). Its [ha.*] counters go to
    {!stats}. *)

val promote : t ->
  new_origin:int ->
  dir_entries:(Dex_mem.Page.vpn * Dex_mem.Directory.state) list ->
  page_data:(Dex_mem.Page.vpn * bytes) list ->
  unit
(** Install the replica as the origin's new directory and make
    [new_origin] the origin: the directory is rebuilt from [dir_entries]
    re-homed onto [new_origin] (entries owned by dead nodes or the old home re-home;
    reader sets are filtered to live nodes and gain the new home),
    [page_data] backfills the new home's page store {e except} for pages
    it already holds a valid copy of (its own copy is at least as fresh;
    a re-homed page is judged by its live overlay entry), the old home's
    local tables are reset, and the epoch is bumped. Counted as
    [ha.promotions]. Raises [Invalid_argument] if [new_origin] is the
    current origin or is itself declared dead. Call from the HA
    promotion fiber only, then {!fence_survivors}. *)

val fence_survivors : t -> unit
(** Broadcast [Epoch_fence] from the (already promoted) new origin to
    every other live node: each survivor zaps every local PTE/copy of a
    page the origin directory serves that the promoted directory no
    longer vouches for (under [`Sync] replication the keep-list covers
    everything and nothing is zapped); re-homed pages are untouched.
    Survivors deliberately do {e not} adopt the new epoch from the fence
    — they learn it in-band from their first [Page_stale] NACK — so the
    fence never races the resolver. A survivor unreachable during the
    fence is escalated to crashed. Counted as [ha.epoch_fences]. Then
    pages re-homed to the new origin fold back into its directory (their
    re-home now names the static home), after waiting out any grant
    holding one. *)

val stats : t -> Dex_sim.Stats.t
(** The process's one counter table ([Dex_core.Process.stats] returns
    it): the process layer's migration, delegation, VMA-sync and
    thread-recovery counts, the replication log's [ha.*] counts from
    {!Dex_ha.Ha}, and the protocol counters:
    [grant.data]/[grant.nodata]/[grant.nack],
    [revoke.invalidate]/[revoke.downgrade]; after a crash the [crash.*] family — [crash.nodes],
    [crash.pages_reclaimed], [crash.readers_scrubbed],
    [crash.revokes_skipped], [crash.escalations], [crash.grants_refused];
    after a failover the [ha.*] family — [ha.promotions],
    [ha.epoch_fences], [ha.fence_zapped], [ha.stale_epoch_nacks],
    [ha.stale_revokes], [ha.stalled_faults]; with more than one shard the
    [shard.*] family — [shard.homes] (the shard count, set once),
    [shard.local_grants]/[shard.remote_grants] (grants served to
    requesters co-located with / remote from the shard's home); once the
    autopilot acts the [autopilot.*] family
    — [autopilot.rehomes], [autopilot.rehome_busy],
    [autopilot.redirects] (mis-addressed requests answered with
    [Page_redirect]), [autopilot.resteers] (redirects received and
    retried by requesters), [autopilot.mirrors], [autopilot.fallbacks],
    [autopilot.replicate_marked], [autopilot.replica_pushes],
    [autopilot.push_declined], plus [autopilot.ticks] and
    [autopilot.colocations] contributed by {!Dex_sched.Autopilot}. *)

val fault_latencies : t -> Dex_sim.Histogram.t
(** Latency of every protocol fault (leaders only), home-local and
    remote. *)

val check_invariants : t -> unit
(** Directory/page-table consistency over every directory the
    {!Authority} table holds: each entry sits in the directory
    {!Authority.route} resolves for its page; at most one exclusive owner;
    a node has a Write PTE iff the entry says it is the exclusive owner;
    Read PTEs only on shared readers or the exclusive owner; no re-home
    names its page's static home. Call only when the simulation is
    quiescent. *)
