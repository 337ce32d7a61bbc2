(** One record of the origin replication log.

    Every externally observable mutation of the origin's delegated state —
    directory ownership, origin-staged page contents, the authoritative
    VMA layout, and futex park/unpark transitions — is captured as one
    entry and streamed to the standby in append order. Replaying the log
    against {!Replica.create} is deterministic: the same entries always
    rebuild the same replica (a property the promotion path re-checks on
    every failover). *)

open Dex_mem

type t =
  | Reset of { origin : int }
      (** start of a log generation: clear the replica and re-root its
          directory at [origin]. Shipped when replication (re-)arms
          towards a standby, followed by full state snapshot entries. *)
  | Dir_set of { vpn : Page.vpn; state : Directory.state }
      (** directory mutation: the page is now in [state] *)
  | Dir_forget of { vpn : Page.vpn }
      (** directory entry dropped (unmap) — the page reverts to implicit
          exclusive-at-origin *)
  | Page_data of { vpn : Page.vpn; data : bytes }
      (** contents of an origin-staged page after an origin-local write or
          a data pull-back; consecutive writes to the same page compact to
          the newest image while the entry is still queued *)
  | Vma of Vma_tree.change
      (** a change to the origin's VMA tree: a mapping (from [mmap], a
          thread's stack, the static layout or a re-arm snapshot), an
          [munmap] or an [mprotect] *)
  | Futex_wait of { addr : Page.addr; tid : int; owner : int }
      (** thread [tid] (executing on node [owner]) parked on the futex *)
  | Futex_unpark of { addr : Page.addr; tid : int; woken : bool }
      (** thread [tid] left the futex queue: [woken] means a wake was
          consumed on its behalf (the replica remembers it, so a promoted
          origin can re-deliver the verdict if the reply was lost with the
          old origin); [not woken] means the park or its pending-wake
          record is simply gone (crash cancellation, or the pending wake
          was delivered) *)

val wire_size : t -> int
(** Bytes this entry contributes to a [Repl_append] message. *)

