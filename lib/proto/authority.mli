(** Page authority: which node serves each page's protocol operations, and
    from which {!Dex_mem.Directory} (§III-B).

    One table, two layers. {e Per-shard defaults}: pages are partitioned
    by {!shard_of} over the shards of {!Proto_config.sharding} (default
    one); shard [s] is homed at node [(origin + s) mod nodes] (shard 0 at
    the process origin, with the delegated services) and has its own
    directory. Only shard 0's home can move: HA failover replicates the
    origin alone, and only with one shard. So there is one {!epoch}, and
    each node keeps one {!view} of shard 0's home and epoch, taught
    in-band by [Page_stale] NACKs and home-to-node traffic carrying a
    newer epoch. {e Per-page overrides}: the autopilot
    may re-home a page to another node, whose {e overlay} directory then
    holds its entry (a node's overlay exists from the first re-home to
    it; no other run builds one), and the futex layer may pin a page to
    its static home. {!route} resolves both layers with at most one hash
    probe, and none while no page has an override.

    Invariants ({!Coherence.check_invariants}): every entry sits in the
    directory {!route} resolves for its page, and no re-home names its
    page's static home. *)

type t

val create :
  sharding:[ `Hash of int | `Range of int ] -> origin:int -> nodes:int -> t
(** No overrides, epoch 0. Raises [Invalid_argument] on a
    non-positive shard count. *)

(** {2 Per-shard defaults} *)

val shard_count : t -> int

val shard_of : t -> Dex_mem.Page.vpn -> int
(** [vpn mod n] under [`Hash n], [(vpn / 64) mod n] under [`Range n]. *)

val home : t -> shard:int -> int

val home_of : t -> Dex_mem.Page.vpn -> int
(** The page's static home: the home of its shard. *)

val epoch : t -> int
(** 0 at creation, bumped by every {!promote}. *)

val directory : t -> shard:int -> Dex_mem.Directory.t

val homed_at : t -> int -> int list
(** The shards homed at a node, ascending. *)

type view = { mutable home : int; mutable epoch : int }
(** Where a node sends shard 0's faults, and the epoch it stamps on every
    request. Pages of other shards go straight to their {!route}. *)

val view : t -> node:int -> view

val promote : t -> home:int -> Dex_mem.Directory.t -> unit
(** HA failover: install shard 0's rebuilt directory and new home, bump
    the epoch, and point the home's own view at itself. A page re-homed
    to [home] is left for the caller to fold back with {!move}. *)

(** {2 Per-page overrides} *)

type route = {
  node : int;  (** the node serving the page *)
  dir : Dex_mem.Directory.t;  (** the directory holding its entry *)
  shard : int option;
      (** [Some s] when [dir] is shard [s]'s directory, [None] for the
          overlay of a re-homed page *)
}

val route : t -> Dex_mem.Page.vpn -> route

val move :
  t ->
  Dex_mem.Page.vpn ->
  from:Dex_mem.Directory.t ->
  node:int ->
  Dex_mem.Directory.state ->
  unit
(** Re-home a page: untrack its entry in [from], restore [state] in the
    directory serving [node] (the shard's when [node] is the static home),
    both through {!Dex_mem.Directory.apply}, and route the page there. *)

val pin : t -> Dex_mem.Page.vpn -> unit
val pinned : t -> Dex_mem.Page.vpn -> bool

val forget : t -> Dex_mem.Page.vpn -> unit
(** Unmap a page: its entry is untracked in the directory serving it (at
    the holder's unlock if a grant holds it), and its re-home and pin
    go. *)

val rehomed_pages : t -> (Dex_mem.Page.vpn * int) list
(** Every re-homed page with its target, sorted by page. *)

val fall_back : t -> node:int -> Dex_mem.Page.vpn list
(** [node] died: discard its overlay and return, sorted, the pages that
    were re-homed to it — their shard directories serve them again, and
    the caller rebuilds their entries there. *)

(** {2 Every directory} *)

val iter_dirs : t -> (route -> unit) -> unit
(** Every shard directory, then every overlay that exists, by node. *)

val entries_naming : t -> node:int -> int
(** Entries, over every directory, still naming [node] as owner or
    reader — zero for a dead node once its reclaim ran. *)
