(** Leader/follower coalescing of concurrent page faults (§III-C).

    Within a node, the first thread faulting on a page becomes the leader
    and runs the consistency protocol; threads faulting on the same page
    with the same access type become followers and simply resume when the
    leader finishes, then re-check the page table (the leader may have
    been refused). A thread faulting with a *different* access type
    waits for the ongoing handling to finish and then retries its own
    fault. Followers are woken before conflicters. *)

type t

type role =
  | Leader
      (** caller must run the protocol and then call {!finish} *)
  | Follower
      (** caller was blocked until the leader finished; it must re-check
          the page table *)
  | Conflict
      (** ongoing handling with a different access type completed; caller
          must re-check the page table and possibly fault again *)

val create : Dex_sim.Engine.t -> t

val enter : t -> vpn:Page.vpn -> access:Perm.access -> role
(** May block the calling fiber (followers and conflicters). *)

val finish : t -> vpn:Page.vpn -> int
(** Leader completion: wakes followers (and conflicters), removes the
    entry, returns the number of coalesced followers. Raises
    [Invalid_argument] if no fault is ongoing on [vpn]. *)

val await_idle : t -> vpn:Page.vpn -> unit
(** Block the calling fiber until no fault handling is ongoing on [vpn]
    (returns immediately if none is). Used by ownership revocation: a
    revoke arriving while the local node has a fault in flight on the same
    page must be applied only after that fault completes, or the two could
    interleave inconsistently. *)

val ongoing : t -> int
