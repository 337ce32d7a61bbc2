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

    {2 Sharded homes}

    Page ownership is partitioned by {!shard_of} over the [n] shards of
    {!Proto_config.sharding} ([`Hash n] or [`Range n]); the default is one
    shard. Shard [s] is homed at node
    [(origin + s) mod node_count] — shard 0 always coincides with the
    process origin, which keeps the delegated services there. Each shard
    has its own directory, epoch and (with replication) its own log and
    promotion path; faults, revocations and fences all resolve at the
    owning shard's home, so independent shards never serialize on one
    node. Every node carries a replicated read-mostly view of the
    home/epoch vector ({!home_of} metadata); the view is invalidated
    epoch-stamped: in-band [Page_stale] NACKs and home-to-node traffic
    carrying a newer epoch teach the node the shard's new address.

    {2 Fail-stop crashes}

    When the fabric declares a node dead ({!Dex_net.Fabric.declare_dead} —
    organically, when a revocation exhausts its retry budget and the
    home escalates the resulting [Unreachable]; or via the fabric's
    keepalive backstop), the instance runs {!reclaim_node}: exclusive
    pages owned by the dead node re-home to their shard home's last-known
    copy, the dead node is scrubbed from every reader set, and its local
    tables are reset. Grants racing a crash are refused or undone rather
    than handing pages to a ghost, revocations towards a declared-dead
    node are skipped, and every home-side lock and fault-table entry is
    released on the [Unreachable] exception path, so {!check_invariants}
    holds after every reclaim. Without the HA layer, crashing a {e home}
    node is unsupported: its shard's directory dies with it (and for the
    origin, the delegated services too).

    {2 Home failover (HA)}

    With {!Proto_config.replication} on, the process layer wires this
    instance to {!Dex_ha} — one armed instance {e per shard}: a
    {!set_commit_barrier} fence runs before any grant reply leaves a
    shard's home, every directory mutation streams to that shard's
    standbys through the {!Dex_mem.Directory} observer, and a home death
    is handled by {!promote} + {!fence_survivors} for each shard it homed
    (other shards' directories are scrubbed of the dead node and keep
    serving). Every coherence request carries its shard's epoch; requests
    stamped with a dead epoch are NACKed with [Page_stale]
    ([ha.stale_epoch_nacks]) so survivors adopt the new home, which they
    located by stalling in the {!set_origin_resolver} hook until the
    promotion completed — a failover is a long fault, not an abort. *)

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
(** One protocol instance per distributed process; [pid] disambiguates the
    wire messages of multiple processes sharing a fabric (default 0). The
    caller must route fabric messages to {!handler}. Raises
    [Invalid_argument] on a bad [origin] or a non-positive shard count. *)

val pid : t -> int
(** The process id used to tag this instance's wire messages. *)

val origin : t -> int
(** The node homing shard 0 — the process origin. With one shard this is
    the single home of every page. *)

val cfg : t -> Proto_config.t
(** The configuration the instance was created with. *)

val node_count : t -> int
(** Number of nodes on the underlying fabric. *)

(** {2 Shard geometry} *)

val shard_count : t -> int
(** Number of ownership shards: the [n] of {!Proto_config.sharding}. *)

val shard_of : t -> Dex_mem.Page.vpn -> int
(** The shard owning a page: [vpn mod n] under [`Hash n],
    [(vpn / 64) mod n] under [`Range n] (so always 0 with one shard). *)

val home_of : t -> Dex_mem.Page.vpn -> int
(** The node currently homing a page's shard ([shard_home] of
    {!shard_of}); re-pointed by {!promote}. *)

val shard_home : t -> shard:int -> int
(** The node currently homing [shard]. *)

val shard_epoch : t -> shard:int -> int
(** [shard]'s current epoch: 0 at creation, bumped by every {!promote} of
    that shard. *)

val shard_directory : t -> shard:int -> Dex_mem.Directory.t
(** [shard]'s ownership directory (replaced wholesale by {!promote}). *)

val page_home : t -> Dex_mem.Page.vpn -> int
(** The node currently {e serving} a page: its re-home target when the
    placement autopilot has moved it ({!rehome_page}), else
    {!home_of}. *)

val page_directory : t -> Dex_mem.Page.vpn -> Dex_mem.Directory.t
(** The directory tracking a page right now: the re-home target's overlay
    directory for re-homed pages, else the page's shard directory. *)

val shard_load : t -> int array
(** Per-shard count of grants served, a snapshot of the load vector
    behind [shard.local_grants]/[shard.remote_grants]. All zeros with one
    shard (per-shard accounting is gated on [shard_count > 1]).
    Index [s] is shard [s]. *)

val handler : t -> Dex_net.Fabric.env -> bool
(** Process a protocol message addressed to this process; returns [false]
    if the payload belongs to another subsystem. Must be called from the
    fabric handler of the destination node. *)

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
    bytes from the node's page store. Address must be 8-byte aligned. *)

val store_i64 :
  t -> node:int -> tid:int -> ?site:string -> Dex_mem.Page.addr -> int64 -> unit
(** Typed DSM write: acquires exclusive access, then updates the node's
    page store. *)

val load_i32 :
  t -> node:int -> tid:int -> ?site:string -> Dex_mem.Page.addr -> int32
(** Typed 4-byte read (4-byte aligned). *)

val store_i32 :
  t -> node:int -> tid:int -> ?site:string -> Dex_mem.Page.addr -> int32 -> unit
(** Typed 4-byte write (4-byte aligned). *)

val load_byte : t -> node:int -> tid:int -> ?site:string -> Dex_mem.Page.addr -> int
(** Typed single-byte read. *)

val store_byte :
  t -> node:int -> tid:int -> ?site:string -> Dex_mem.Page.addr -> int -> unit
(** Typed single-byte write. *)

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

val directory : t -> Dex_mem.Directory.t
(** Shard 0's ownership directory — with one shard, the single origin
    directory. Use {!shard_directory} for the others. *)

val fault_table : t -> node:int -> [ `Done | `Retry ] Dex_mem.Fault_table.t
(** [node]'s leader/follower fault-coalescing table. *)

val zap_range :
  t -> first:Dex_mem.Page.vpn -> last:Dex_mem.Page.vpn -> node:int -> int
(** Drop every page-table entry of [node] in the range (VMA shrink);
    returns the number of zapped entries. Page stores are dropped too. *)

val forget_range : t -> first:Dex_mem.Page.vpn -> last:Dex_mem.Page.vpn -> unit
(** Clear directory tracking for an unmapped range, each page in its own
    shard's directory. Call only after every node's page-table entries in
    the range have been zapped. *)

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
    grant (retry later), [`Noop] if already served at [node],
    [`Dead_target] if [node] is (or is discovered to be) crashed.
    Raises [Invalid_argument] on a bad [node]. *)

val rehomed_pages : t -> (Dex_mem.Page.vpn * int) list
(** Every page currently re-homed away from its static shard home, with
    its dynamic home, sorted by page. *)

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

val pinned_page : t -> Dex_mem.Page.vpn -> bool
(** Whether {!pin_page} holds the page at its static home (futex-word
    pages). The autopilot also skips these for replication: their reads
    are the futex layer's delegated home-local checks, so pushed copies
    would only be churn. *)

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
(** Scrub a dead node out of every shard's ownership metadata: re-home its
    exclusive pages to their shard home's last-known copy
    ([crash.pages_reclaimed]), drop it from reader sets
    ([crash.readers_scrubbed], the set's last reader re-homes the page
    too), and reset its page table and page store. Wired to {!Dex_net.Fabric.on_crash} at
    {!create} time, so it normally runs automatically when a failure is
    declared; exposed for directed tests. Safe to run while grants are in
    flight. Raises if [node] homes any shard (with the HA layer wired, a
    home death takes the promotion path instead and only the shards the
    dead node did {e not} home are scrubbed). *)

val unsubscribe_crash : t -> unit
(** Drop the {!reclaim_node} subscription {!create} installed on the
    fabric. The process layer calls it when a process without replication
    exits: a finished process holds no state a later crash could damage,
    and its reclaim pass would otherwise keep the whole protocol state
    reachable and treat a later crash of its old origin node as an
    unrecoverable origin loss, failing whichever live fiber declared the
    crash. *)

(** {2 Home failover hooks}

    Installed by the process layer when {!Proto_config.replication} is on;
    all default to absent, in which case every path below is bit-identical
    to a build without them. All shard-indexed hooks receive the shard
    number — with one shard it is always 0. *)

val epoch : t -> int
(** Shard 0's current epoch — with one shard, {e the} origin epoch.
    Stamped on every outgoing coherence request for the shard (each node
    stamps its own {e view} of the epoch, which may lag until a
    [Page_stale] NACK or an in-band revocation teaches it the new one).
    Use {!shard_epoch} for the others. *)

val set_commit_barrier : t -> (int -> unit) option -> unit
(** Hook run at a shard's home immediately before a grant reply leaves
    that home — the
    "replicate before externalize" fence, passed the shard number. The HA
    layer blocks here until the shard's ack watermark covers its log
    ([`Sync]) or the unacked suffix is within the configured lag
    ([`Async n]). Home-local operations never pass through the barrier. *)

val set_origin_resolver : t -> (int -> int option) option -> unit
(** Hook consulted when a request towards a shard's home fails with
    [Unreachable] and the home is (or becomes) declared dead: the
    resolver blocks the faulting fiber until a standby has been promoted
    for that shard and returns the new home ([Some node], and the fault
    retries there — counted as [ha.stalled_faults]), or [None] when no
    standby remains (the [Unreachable] is re-raised, PR-3 behavior).
    Without a resolver installed, home death keeps its historical
    [failwith]. *)

val set_origin_write_hook : t -> (Dex_mem.Page.vpn -> unit) option -> unit
(** Hook fired after every mutation of a {e home's} page store: typed
    stores/CAS/fetch-add executed at the page's home, and page data pulled
    back by a reclaim. The HA layer uses it to ship page contents whose
    dirtying never crosses the wire (directory observation alone cannot
    see home-local writes to pages the home already owns); it routes the
    entry to the page's shard via {!shard_of}. *)

val promote : t ->
  shard:int ->
  new_origin:int ->
  dir_entries:(Dex_mem.Page.vpn * Dex_mem.Directory.state) list ->
  page_data:(Dex_mem.Page.vpn * bytes) list ->
  unit
(** Install the replica as [shard]'s new directory and make [new_origin]
    its home: the directory is rebuilt from [dir_entries] re-homed onto
    [new_origin] (entries owned by dead nodes or the old home re-home;
    reader sets are filtered to live nodes and gain the new home),
    [page_data] backfills the new home's page store {e except} for pages
    it already held a valid copy of (its own copy is at least as fresh),
    the old home's local tables are reset, and the shard's epoch is
    bumped. Counted as [ha.promotions] (plus [shard.promotions] with more
    than one shard). Raises [Invalid_argument] if [new_origin] is the
    shard's current home or is itself declared dead. Call from the HA
    promotion fiber only, then {!fence_survivors}. *)

val fence_survivors : t -> shard:int -> unit
(** Broadcast [Epoch_fence] for [shard] from its (already promoted) new
    home to every other live node: each survivor zaps every local
    PTE/copy of the shard the
    promoted directory no longer vouches for (under [`Sync] replication
    the keep-list covers everything and nothing is zapped); other shards'
    state is untouched. Survivors deliberately do {e not} adopt the new
    epoch from the fence — they learn it in-band from their first
    [Page_stale] NACK — so the fence never races the resolver. A survivor
    unreachable during the fence is escalated to crashed. Counted as
    [ha.epoch_fences]. *)

val stats : t -> Dex_sim.Stats.t
(** Protocol counters: [grant.data]/[grant.nodata]/[grant.nack],
    [revoke.invalidate]/[revoke.downgrade]; after a crash the [crash.*] family — [crash.nodes],
    [crash.pages_reclaimed], [crash.readers_scrubbed],
    [crash.revokes_skipped], [crash.escalations], [crash.grants_refused];
    after a failover the [ha.*] family — [ha.promotions],
    [ha.epoch_fences], [ha.fence_zapped], [ha.stale_epoch_nacks],
    [ha.stale_revokes], [ha.stalled_faults]; with more than one shard the
    [shard.*] family — [shard.homes] (the shard count, set once),
    [shard.local_grants]/[shard.remote_grants] (grants served to
    requesters co-located with / remote from the shard's home) and
    [shard.promotions]; once the autopilot acts the [autopilot.*] family
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
(** Directory/page-table consistency, per shard: at most one exclusive
    owner; a node has a Write PTE iff the shard directory says it is the
    exclusive owner; Read PTEs only on shared readers or the exclusive
    owner; every tracked page belongs to the directory's own shard. The
    re-home overlay is checked too: a re-homed page is tracked exactly
    once, at its dynamic home's overlay directory, under the same PTE
    discipline. Call only when the simulation is quiescent. *)
