(** The standby's materialized copy of the origin's delegated state.

    Built purely by applying {!Log_entry.t} records in log order; never
    reads the live protocol state. On failover the replica becomes the
    promoted origin's directory image, page-data backfill, authoritative
    VMA tree and pending-wake ledger. *)

open Dex_mem

type t

val create : origin:int -> t
(** Empty replica rooted at [origin] — untracked pages read back as
    implicitly exclusive at that (old) origin, matching the directory the
    log describes. *)

val apply : t -> Log_entry.t -> unit
(** Apply one log record. Deterministic and idempotent for state-image
    entries ([Dir_set], [Page_data], [Vma]); see {!Log_entry}. A [Vma]
    change goes through {!Vma_tree.apply}, as at the origin.
    [Dir_set] and [Dir_forget] restore through {!Directory.apply}, the rule
    the live directory follows. *)

val dir_snapshot : t -> (Page.vpn * Directory.state) list
(** Canonical (sorted) ownership image, as {!Directory.snapshot}. *)

val page_data : t -> (Page.vpn * bytes) list
(** Replicated origin-staged page contents, sorted by vpn. *)

val vma_tree : t -> Vma_tree.t
(** The replicated authoritative VMA tree (handed to the promoted origin
    wholesale). *)

val pending_wakes : t -> (Page.addr * int) list
(** Wakes consumed at the old origin whose delivery is not known to have
    reached the waiter — the promoted origin re-delivers them. *)

val take_wake : t -> addr:Page.addr -> tid:int -> bool
(** Consume the pending wake for [(addr, tid)] if the ledger holds one.
    The caller logs the consumption as a [Futex_unpark] so the next
    standby's ledger stays in step. *)

val equal : t -> t -> bool
(** Structural equality of the full canonical image — the replay
    determinism check. *)
