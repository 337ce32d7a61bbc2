(** Wire messages of the memory consistency protocol.

    No payload names its process: the envelope's {!Dex_net.Msg.t.pid}
    does. The requester, owner or survivor a message concerns is its
    source or destination node, and a reply names no page: the caller
    knows which page it asked about.

    A [data] field is a page image shared with its sender (see
    {!Dex_mem.Page_store}): no one writes to it, and a receiver installs it
    without copying. Two replies can hand over an image as the receiver's
    alone ([owned]): an invalidating {!Revoke_ack}, and a write
    {!Page_grant} from a page's static home where no recovery path reads
    the home's staging image. *)

(** How an owner must surrender a page. *)
type revoke_mode =
  | Invalidate  (** drop the copy entirely (a writer is coming) *)
  | Downgrade  (** keep a read-only copy (a reader is coming) *)

type Dex_net.Msg.payload +=
  | Page_request of {
      vpn : Dex_mem.Page.vpn;
      access : Dex_mem.Perm.access;
      epoch : int;
    }
      (** node → origin: fault on [vpn]; requester is the message source.
          [epoch] is the requester's view of the origin epoch — part of
          the 64-byte control header, not extra wire bytes; always [0]
          unless a failover has promoted a standby. *)
  | Page_grant of { data : bytes option; owned : bool }
      (** origin → node: ownership of the requested page granted; [data]
          carries page contents when the requester lacked a valid copy and
          the page is materialized. It is the home's staging image, which
          the home keeps. [owned] says the requester's image is its alone:
          it adopts [data], or marks its own copy private when no data
          came, and its writes copy nothing; the home's entry then holds
          the requester's buffer, which nothing reads until a reclaim
          replaces it. [owned] is set on a write grant at the page's
          static home when no node can fail and no replica set streams
          the origin's store. Otherwise the requester copies the image on
          its first write, so the staging copy keeps the pre-grant bytes
          that crash recovery serves. *)
  | Page_nack  (** origin → node: page busy, back off and retry *)
  | Page_stale of { epoch : int }
      (** origin → node: your epoch is stale — a failover has happened.
          Carries the current epoch; the requester adopts it and retries
          (counted as [ha.stale_epoch_nacks] at the origin). *)
  | Revoke of {
      vpn : Dex_mem.Page.vpn;
      mode : revoke_mode;
      want_data : bool;
      epoch : int;
    }  (** origin → owner: surrender ownership *)
  | Revoke_ack of { data : bytes option; owned : bool }
      (** owner → origin: the page is surrendered; [data] ships it back
          when the origin asked for it ([want_data]) and the page is
          materialized. A downgrade ships a shared image of the copy the
          owner keeps. An invalidation hands over the owner's own buffer,
          which it drops: [owned] when that buffer was private, so the
          origin adopts it and its next write needs no copy. *)
  | Epoch_fence of { keep : (Dex_mem.Page.vpn * Dex_mem.Perm.access) list }
      (** new origin → survivor, during failover: the old epoch is dead
          (the survivor learns the new epoch in-band, from its next
          fault's [Page_stale]).
          [keep] lists every (page, strongest access) the promoted replica
          still vouches for on the destination; the survivor zaps every
          other local PTE/copy of a page the origin directory serves
          (re-homed pages, whose homes are alive, are untouched).
          Under [`Sync] replication the fence zaps nothing; under [`Async]
          the zapped copies are exactly the lost log suffix. *)
  | Epoch_fence_ack of { missing : Dex_mem.Page.vpn list }
      (** survivor → new origin: fence applied (the survivor counts the
          local copies it discarded as [ha.fence_zapped]). [missing] lists
          the [keep] pages the survivor holds {e no} copy of — the replicated
          directory recorded a grant whose reply died with the old origin.
          The new origin demotes those entries (the page re-homes to it;
          its store holds the replicated image, which by log order is
          exactly what the lost grant carried), so the survivor's retried
          fault is served with data instead of a dangling
          grant-without-data. *)
  | Page_redirect of { vpn : Dex_mem.Page.vpn; home : int }
      (** serving node → requester: the page's authority is not here — it
          was re-homed by the placement autopilot (or fell back to its
          shard home after the re-home target crashed) to [home]. The
          requester retries, steered by the current re-home table. Any
          request reaching a live node other than the page's home gets this
          reply. *)
  | Page_sync of { vpn : Dex_mem.Page.vpn; data : bytes }
      (** page-content shipment outside the grant path: the staging copy
          travels to a page's new dynamic home at re-home time, and fresh
          bytes are mirrored back to the static shard home whenever an
          externalizing grant leaves the dynamic home — what keeps the
          crash-fallback copy coherent. [data] is the sender's image,
          which the sender keeps. *)
  | Page_sync_ack
  | Page_push of { vpn : Dex_mem.Page.vpn; data : bytes option; epoch : int }
      (** home → former reader, for replicate-marked pages: an unsolicited
          read copy pushed when the page returns to [Shared], instead of
          waiting for the reader to fault it back in. Every target gets
          the same image, shared with the home's staging copy. *)
  | Page_push_ack of { accepted : bool }
      (** reader → home: [accepted = false] declines the push (the
          sender's epoch is stale); the home then leaves the reader out of
          the Shared set. *)

val kind_page_request : string
(** Statistics class of {!Page_request} messages. *)

val kind_revoke : string
(** Statistics class of {!Revoke} messages. *)

val kind_epoch_fence : string
(** Statistics class of {!Epoch_fence} messages. *)

val kind_page_sync : string
(** Statistics class of {!Page_sync} messages. *)

val kind_page_push : string
(** Statistics class of {!Page_push} messages. *)
