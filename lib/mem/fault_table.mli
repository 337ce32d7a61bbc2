(** Leader/follower coalescing of concurrent page faults (§III-C).

    Within a node, the first thread faulting on a page becomes the leader
    and runs the consistency protocol; threads faulting on the same page
    with the same access type become followers and simply resume with the
    leader's outcome. A thread faulting with a *different* access type
    waits for the ongoing handling to finish and then retries its own
    fault. *)

type 'outcome t

type 'outcome role =
  | Leader
      (** caller must run the protocol and then call {!finish} *)
  | Follower of 'outcome
      (** caller was blocked and woken with the leader's outcome *)
  | Conflict
      (** ongoing handling with a different access type completed; caller
          must re-check the page table and possibly fault again *)

val create : Dex_sim.Engine.t -> unit -> 'outcome t

val enter : 'o t -> vpn:Page.vpn -> access:Perm.access -> 'o role
(** May block the calling fiber (followers and conflicters). *)

val finish : 'o t -> vpn:Page.vpn -> 'o -> int
(** Leader completion: wakes followers (and conflicters), removes the
    entry, returns the number of coalesced followers. Raises
    [Invalid_argument] if no fault is ongoing on [vpn]. *)

val await_idle : _ t -> vpn:Page.vpn -> unit
(** Block the calling fiber until no fault handling is ongoing on [vpn]
    (returns immediately if none is). Used by ownership revocation: a
    revoke arriving while the local node has a fault in flight on the same
    page must be applied only after that fault completes, or the two could
    interleave inconsistently. *)

val ongoing : _ t -> int

val coalesced_total : _ t -> int
(** Cumulative number of faults absorbed as followers. *)
