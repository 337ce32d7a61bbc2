(** Baseline: a home-based lazy-release-consistency DSM.

    Sections II and VI of the paper argue that traditional DSM systems
    bought performance with relaxed consistency models and explicit
    acquire/release APIs — and lost their users to the resulting
    programming model. This module implements that road-not-taken as a
    comparison baseline: a home-based LRC protocol in the style of
    TreadMarks/JIAJIA.

    Semantics (the classic contract): shared accesses are only meaningful
    inside acquire/release critical sections; a node observes another
    node's writes to a page only after acquiring a lock released by the
    writer (happens-before through locks). In exchange:

    - multiple nodes may write the *same page* concurrently under
      different locks (no write-invalidate ping-pong, no false sharing);
    - on release, only the {e diffs} (modified words) travel to the page's
      home node, not whole pages;
    - reads fetch pages from their statically assigned home, with no
      directory and no revocations.

    The cost is exactly the one the paper highlights: every piece of code
    must be rewritten around [acquire]/[release], and data races silently
    yield stale values instead of sequential consistency. *)

type t
(** One LRC instance: lock manager at the origin, homes spread by VPN. *)

val create : ?cfg:Proto_config.t -> Dex_net.Fabric.t -> origin:int -> t
(** The origin doubles as the lock manager; page homes are spread over all
    nodes round-robin by page number. The instance owns its fabric: its
    messages go to pid 0 ({!Dex_net.Msg.t.pid}). *)

val handler : t -> Dex_net.Fabric.env -> bool
(** Process an LRC message; returns [false] if the payload belongs to
    another subsystem. *)

val home_of : t -> Dex_mem.Page.vpn -> int
(** The statically assigned home node of a page. *)

val acquire : t -> node:int -> tid:int -> lock:int -> unit
(** Acquire a global lock: blocks until granted, then invalidates every
    cached page another node modified under any lock since this node's
    last acquire (write notices). *)

val release : t -> node:int -> tid:int -> lock:int -> unit
(** Flush this node's dirty words (diffs) to their home nodes, publish the
    write notices, and hand the lock back. *)

val read_i64 : t -> node:int -> tid:int -> Dex_mem.Page.addr -> int64
(** Read through the cache; a miss fetches the page from its home. *)

val write_i64 : t -> node:int -> tid:int -> Dex_mem.Page.addr -> int64 -> unit
(** Buffered local write, recorded in the twin/diff machinery; other nodes
    see it only after a release/acquire pair. *)

val stats : t -> Dex_sim.Stats.t
(** Counters: page fetches, diffs flushed, diff bytes, invalidations. *)
