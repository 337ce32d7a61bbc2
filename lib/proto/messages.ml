type revoke_mode = Invalidate | Downgrade

type Dex_net.Msg.payload +=
  | Page_request of {
      vpn : Dex_mem.Page.vpn;
      access : Dex_mem.Perm.access;
      epoch : int;
    }
  | Page_grant of { data : bytes option; owned : bool }
  | Page_nack
  | Page_stale of { epoch : int }
  | Revoke of {
      vpn : Dex_mem.Page.vpn;
      mode : revoke_mode;
      want_data : bool;
      epoch : int;
    }
  | Revoke_ack of { data : bytes option; owned : bool }
  | Epoch_fence of { keep : (Dex_mem.Page.vpn * Dex_mem.Perm.access) list }
  | Epoch_fence_ack of { missing : Dex_mem.Page.vpn list }
  | Page_redirect of { vpn : Dex_mem.Page.vpn; home : int }
      (* the page's authority moved (autopilot re-home or fallback);
         retry at [home] *)
  | Page_sync of { vpn : Dex_mem.Page.vpn; data : bytes }
      (* ship a re-homed page's bytes: staging copy to the new home at
         re-home time, and mirrored back to the static shard home on
         every externalizing grant *)
  | Page_sync_ack
  | Page_push of { vpn : Dex_mem.Page.vpn; data : bytes option; epoch : int }
      (* unsolicited read copy for a replicate-marked page; the victim
         may decline *)
  | Page_push_ack of { accepted : bool }

let kind_page_request = "page_req"
let kind_revoke = "revoke"
let kind_epoch_fence = "epoch_fence"
let kind_page_sync = "page_sync"
let kind_page_push = "page_push"
