(** Wire messages of the memory consistency protocol. *)

(** How an owner must surrender a page. *)
type revoke_mode =
  | Invalidate  (** drop the copy entirely (a writer is coming) *)
  | Downgrade  (** keep a read-only copy (a reader is coming) *)

type Dex_net.Msg.payload +=
  | Page_request of {
      pid : int;
      vpn : Dex_mem.Page.vpn;
      access : Dex_mem.Perm.access;
      epoch : int;
    }
      (** node → origin: fault on [vpn]; requester is the message source.
          [epoch] is the requester's view of the origin epoch — part of
          the 64-byte control header, not extra wire bytes; always [0]
          unless a failover has promoted a standby. *)
  | Page_grant of { pid : int; vpn : Dex_mem.Page.vpn; data : bytes option }
      (** origin → node: ownership granted; [data] carries page contents
          when the requester lacked a valid copy and the page is
          materialized *)
  | Page_nack of { pid : int; vpn : Dex_mem.Page.vpn }
      (** origin → node: page busy, back off and retry *)
  | Page_stale of { pid : int; epoch : int }
      (** origin → node: your epoch is stale — a failover has happened.
          Carries the current epoch; the requester adopts it and retries
          (counted as [ha.stale_epoch_nacks] at the origin). *)
  | Revoke of {
      pid : int;
      vpn : Dex_mem.Page.vpn;
      mode : revoke_mode;
      want_data : bool;
      epoch : int;
    }  (** origin → owner: surrender ownership *)
  | Revoke_ack of { pid : int; vpn : Dex_mem.Page.vpn; data : bytes option }
      (** owner → origin: done; [data] ships the page back when the origin
          asked for it ([want_data]) and the page is materialized *)
  | Epoch_fence of {
      pid : int;
      shard : int;
      epoch : int;
      keep : (Dex_mem.Page.vpn * Dex_mem.Perm.access) list;
    }
      (** new home → survivor, during failover: [shard]'s old epoch is
          dead. [keep] lists every (page, strongest access) the promoted
          replica still vouches for on the destination; the survivor zaps
          every other local PTE/copy {e of that shard} (other shards'
          state, whose homes are alive, is untouched — with one shard,
          shard 0 covers everything).
          Under [`Sync] replication the fence zaps nothing; under [`Async]
          the zapped copies are exactly the lost log suffix. *)
  | Epoch_fence_ack of {
      pid : int;
      zapped : int;
      missing : Dex_mem.Page.vpn list;
    }
      (** survivor → new origin: fence applied; [zapped] local copies were
          discarded (counted as [ha.fence_zapped]). [missing] lists the
          [keep] pages the survivor holds {e no} copy of — the replicated
          directory recorded a grant whose reply died with the old origin.
          The new origin demotes those entries (the page re-homes to it;
          its store holds the replicated image, which by log order is
          exactly what the lost grant carried), so the survivor's retried
          fault is served with data instead of a dangling
          grant-without-data. *)
  | Page_redirect of { pid : int; vpn : Dex_mem.Page.vpn; home : int }
      (** serving node → requester: the page's authority is not here — it
          was re-homed by the placement autopilot (or fell back to its
          shard home after the re-home target crashed) to [home]. The
          requester retries, steered by the current re-home table. Any request
          reaching a live node other than the page's home gets this
          reply. *)
  | Page_sync of { pid : int; vpn : Dex_mem.Page.vpn; data : bytes }
      (** page-content shipment outside the grant path: the staging copy
          travels to a page's new dynamic home at re-home time, and fresh
          bytes are mirrored back to the static shard home whenever an
          externalizing grant leaves the dynamic home — what keeps the
          crash-fallback copy coherent. *)
  | Page_sync_ack of { pid : int }
  | Page_push of {
      pid : int;
      vpn : Dex_mem.Page.vpn;
      data : bytes option;
      epoch : int;
    }
      (** home → former reader, for replicate-marked pages: an unsolicited
          read copy pushed when the page returns to [Shared], instead of
          waiting for the reader to fault it back in. *)
  | Page_push_ack of { pid : int; accepted : bool }
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
