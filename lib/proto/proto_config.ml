type t = {
  fault_entry : Dex_sim.Time_ns.t;
  follower_resume : Dex_sim.Time_ns.t;
  pte_update : Dex_sim.Time_ns.t;
  origin_handler : Dex_sim.Time_ns.t;
  invalidate_handler : Dex_sim.Time_ns.t;
  local_op : Dex_sim.Time_ns.t;
  backoff_base : Dex_sim.Time_ns.t;
  backoff_cap : Dex_sim.Time_ns.t;
  ctl_msg_size : int;
  page_msg_size : int;
  coalesce_faults : bool;
  grant_without_data : bool;
  on_crash : [ `Abort | `Rehome ];
  replication : [ `Sync | `Async of int ];
  standbys : int list;
  sharding : [ `Hash of int | `Range of int ];
  serial_home_service : bool;
}

let default =
  {
    fault_entry = Dex_sim.Time_ns.ns 3_400;
    follower_resume = Dex_sim.Time_ns.ns 600;
    pte_update = Dex_sim.Time_ns.ns 1_300;
    origin_handler = Dex_sim.Time_ns.ns 2_100;
    invalidate_handler = Dex_sim.Time_ns.ns 1_000;
    local_op = Dex_sim.Time_ns.ns 900;
    backoff_base = Dex_sim.Time_ns.us 60;
    backoff_cap = Dex_sim.Time_ns.us 600;
    ctl_msg_size = 64;
    page_msg_size = 4096 + 64;
    coalesce_faults = true;
    grant_without_data = true;
    (* Abort is the honest default: a thread whose node fail-stopped lost
       its register state, so only work the application can re-issue from
       scratch should survive. Rehome is the opt-in for restartable
       workers. *)
    on_crash = `Abort;
    (* `Sync fences every externalized reply on the replication ack (it
       is `Async 0); `Async n tolerates up to n unacked log entries and
       can lose that suffix on an origin crash. Only consulted once a
       replica set exists. *)
    replication = `Sync;
    (* An empty replica set is replication off: the protocol arms an
       instance that builds no replication state, no log runs, output
       unchanged. One standby is
       the single-replica setup; more tolerate simultaneous
       origin+standby crashes (any minority of the origin+k set). *)
    standbys = [];
    (* One shard by default: all pages are homed at the single origin.
       `Hash n spreads page ownership over n home nodes by vpn modulo;
       `Range n homes 64-page runs, keeping a sequential scan on one
       home. *)
    sharding = `Hash 1;
    (* Off by default: concurrent home-side handlers overlap freely (the
       historical behaviour). On, each node's protocol handler is one
       service loop — requests queue, and a single overloaded home
       saturates: the origin-CPU ceiling sharding exists to relieve. *)
    serial_home_service = false;
  }
