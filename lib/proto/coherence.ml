open Dex_sim
open Dex_mem
module Fabric = Dex_net.Fabric
module Msg = Dex_net.Msg

type outcome = [ `Done | `Retry ]

(* Page ownership is partitioned over [nshards] shards, each rooted at a
   {e home node}. With one shard (the default) it is homed at the
   origin and every array below has a single slot. *)
type t = {
  fabric : Fabric.t;
  engine : Engine.t;
  nshards : int;
  homes : int array;  (* shard -> home node; re-pointed by promote *)
  epochs : int array;  (* shard -> generation; bumped by promote *)
  home_view : int array array;
      (* node -> shard -> where that node sends the shard's faults; the
         replicated read-mostly home metadata *)
  epoch_view : int array array;
      (* node -> shard -> the epoch it stamps on them (epoch-stamped
         invalidation of the replicated view) *)
  shard_grants : int array;  (* shard -> grants served, the load vector *)
  pid : int;
  cfg : Proto_config.t;
  dirs : Directory.t array;  (* shard -> directory; replaced by promote *)
  ptables : Page_table.t array;
  stores : Page_store.t array;
  ftables : outcome Fault_table.t array;
  rngs : Rng.t array;  (* per-node backoff jitter *)
  stats : Stats.t;
  fault_latencies : Histogram.t;
  mutable tracer : (Fault_event.t -> unit) option;
  mutable barrier : (int -> unit) option;
      (* HA commit fence, by shard: blocks until that shard's replication
         log is acked far enough for the configured mode; called before
         any grant reply leaves the shard's home *)
  mutable resolver : (int -> int option) option;
      (* HA home re-resolution, by shard: blocks a requester whose home is
         declared dead until failover completes (the stall-not-abort
         path); None result means no standby can take over *)
  mutable on_origin_write : (Page.vpn -> unit) option;
      (* HA data capture: fired after every mutation of a home's page
         store, so typed page contents reach the replication log *)
  service : Resource.Server.t array option;
      (* per-node handler occupancy when [serial_home_service] is on:
         requests at one home queue behind each other instead of
         overlapping (1 "byte" = 1 ns of handler time) *)
  rehomed : (Page.vpn, int) Hashtbl.t;
      (* vpn -> the node the autopilot re-homed the page's authority to;
         absent = the page resolves at its static shard home *)
  rehome_dirs : Directory.t array;
      (* node -> directory of the pages re-homed TO that node; entries
         move here out of the shard directory and back on fallback *)
  replicate_hint : (Page.vpn, unit) Hashtbl.t;
      (* pages marked replicate-don't-invalidate by the autopilot *)
  push_subs : (Page.vpn, int list) Hashtbl.t;
      (* marked page -> readers invalidated by the last write grant, owed
         an unsolicited copy when the page next returns to Shared *)
  pinned : (Page.vpn, unit) Hashtbl.t;
      (* pages that must stay at their static shard home: the futex
         layer's check-and-sleep is only atomic when the word's home can
         read it without simulation events, so futex-word pages pin
         themselves and rehome_page refuses them *)
  mutable unsubscribe_crash : unit -> unit;
      (* drops the fail-stop reclaim subscription ({!Fabric.on_crash}) *)
}

let shard_of t vpn =
  match t.cfg.Proto_config.sharding with
  | `Hash n -> vpn mod n
  | `Range n -> vpn / 64 mod n

let home_of t vpn = t.homes.(shard_of t vpn)
let shard_count t = t.nshards
let shard_home t ~shard = t.homes.(shard)
let shard_epoch t ~shard = t.epochs.(shard)
let shard_directory t ~shard = t.dirs.(shard)
let shard_load t = Array.copy t.shard_grants

let shards_homed_at t node =
  let acc = ref [] in
  for s = t.nshards - 1 downto 0 do
    if t.homes.(s) = node then acc := s :: !acc
  done;
  !acc

(* The node a page's protocol operations resolve at right now: the
   autopilot's re-home target when one is set, the static shard home
   otherwise. With no re-homes this IS home_of. *)
let page_home t vpn =
  match Hashtbl.find_opt t.rehomed vpn with
  | Some node -> node
  | None -> t.homes.(shard_of t vpn)

(* The directory entry authoritative for a page: the re-home target's
   overlay directory for re-homed pages, the shard directory otherwise. *)
let page_dir t vpn =
  match Hashtbl.find_opt t.rehomed vpn with
  | Some node -> t.rehome_dirs.(node)
  | None -> t.dirs.(shard_of t vpn)

let page_directory = page_dir
let rehomed_pages t =
  Hashtbl.fold (fun vpn node acc -> (vpn, node) :: acc) t.rehomed []
  |> List.sort compare

let replicate_marked t vpn = Hashtbl.mem t.replicate_hint vpn
let pinned_page t vpn = Hashtbl.mem t.pinned vpn

(* --- fail-stop reclaim ---------------------------------------------- *)

(* Scrub a dead node out of one shard's ownership metadata. Runs
   synchronously from the failure declaration (Fabric.on_crash), possibly
   while grant fibers are blocked mid-fan-out with directory locks held —
   that is safe because every transition those fibers later apply
   re-checks the requester's liveness and filters dead nodes out of the
   membership it installs, so the scrub can never be undone by an
   in-flight grant. *)
let scrub_dir t ~dir ~home ~node =
  (* Snapshot first: the scrub mutates the directory while iterating. *)
  let entries = ref [] in
  Directory.iter dir (fun vpn state -> entries := (vpn, state) :: !entries);
  List.iter
    (fun (vpn, state) ->
      match state with
      | Directory.Exclusive owner when owner = node ->
          (* Ownership re-homes to the home's last-known (staging) copy.
             Whatever the dead node wrote since its grant was observed by
             nobody — any reader would have pulled the data back through
             the home first — so dropping those writes is linearizable:
             it is as if they never executed. *)
          Directory.set_exclusive dir vpn home;
          Stats.incr t.stats "crash.pages_reclaimed"
      | Directory.Exclusive _ -> ()
      | Directory.Shared readers ->
          if Node_set.mem readers node then begin
            let rest = Node_set.remove readers node in
            if Node_set.is_empty rest then Directory.set_exclusive dir vpn home
            else Directory.set_shared dir vpn rest;
            Stats.incr t.stats "crash.readers_scrubbed"
          end)
    !entries

let scrub_shard t ~shard ~node =
  scrub_dir t ~dir:t.dirs.(shard) ~home:t.homes.(shard) ~node

(* Undo every autopilot re-home whose target just died: the authority of
   each affected page falls back to its static shard home, with the entry
   rebuilt from the surviving PTEs — a live writer keeps exclusivity, live
   readers keep a Shared set, and a page nobody else holds reverts to
   implicit exclusive-at-home (its staging copy was kept fresh by the
   grant-path mirror, so nothing observed is lost — the same
   linearizability argument as scrub_dir). Runs synchronously from the
   failure declaration, before requesters retry. *)
let rehome_fallback t ~node =
  let victims =
    Hashtbl.fold
      (fun vpn target acc -> if target = node then vpn :: acc else acc)
      t.rehomed []
    |> List.sort compare
  in
  if victims <> [] then begin
    (* The dead target's overlay directory is unreachable hardware now,
       busy flags included — zombie grant fibers there unwind against the
       discarded object. *)
    t.rehome_dirs.(node) <- Directory.create ~origin:node;
    List.iter
      (fun vpn ->
        Hashtbl.remove t.rehomed vpn;
        let dir = t.dirs.(shard_of t vpn) in
        let writer = ref None in
        let readers = ref [] in
        Array.iteri
          (fun n pt ->
            if n <> node && not (Fabric.crash_detected t.fabric ~node:n) then
              match Page_table.get pt vpn with
              | Some Perm.Write -> writer := Some n
              | Some Perm.Read -> readers := n :: !readers
              | None -> ())
          t.ptables;
        (match (!writer, !readers) with
        | Some w, _ -> Directory.set_exclusive dir vpn w
        | None, (_ :: _ as rs) ->
            Directory.set_shared dir vpn (Node_set.of_list rs)
        | None, [] -> ());
        Stats.incr t.stats "autopilot.fallbacks")
      victims
  end

(* Re-home metadata repair for a dead node: pages re-homed TO it fall
   back, and it is scrubbed out of every other overlay directory. A no-op
   (no stats, no events) when the autopilot never re-homed anything. *)
let scrub_rehomes t ~node =
  rehome_fallback t ~node;
  Array.iteri
    (fun target dir ->
      if target <> node then scrub_dir t ~dir ~home:target ~node)
    t.rehome_dirs

let reclaim_node t ~node =
  (match shards_homed_at t node with
  | [] -> ()
  | 0 :: _ ->
      failwith
        "Coherence: the origin fail-stopped — no recovery possible (the \
         directory and the delegated services died with it)"
  | _ :: _ ->
      failwith
        "Coherence: a home node fail-stopped with no replication armed — \
         its shard's directory died with it");
  Stats.incr t.stats "crash.nodes";
  for shard = 0 to t.nshards - 1 do
    scrub_shard t ~shard ~node
  done;
  scrub_rehomes t ~node;
  (* Wholesale amnesia on the dead node's local state: its page tables and
     store are unreachable hardware now. Its fault table is deliberately
     NOT dropped: leader fibers still parked there unwind through the
     Unreachable path and retire their entries, which is what lets the
     coalesced followers drain instead of deadlocking the engine. *)
  t.ptables.(node) <- Page_table.create ();
  t.stores.(node) <- Page_store.create ()

(* A home node died with HA wired: the homed shards' recovery belongs to
   their promotion fibers (priority 10), but the dead node must still be
   scrubbed out of every {e other} shard's directory — those shards keep
   serving and must not leave pages owned by a ghost. With one shard this
   is a no-op: the dead origin homes the only shard. *)
let partial_scrub t ~node =
  let homed = shards_homed_at t node in
  for shard = 0 to t.nshards - 1 do
    if not (List.mem shard homed) then scrub_shard t ~shard ~node
  done;
  (* Re-homed pages are NOT replicated (their authority left the shard
     directory, and the observer with it): pages re-homed to the dead
     node fall back here even when its homed shards take the promotion
     path, and pages re-homed elsewhere keep serving through their live
     overlay directories. *)
  scrub_rehomes t ~node

let create ?(cfg = Proto_config.default) ?(seed = 1) ?(pid = 0) fabric ~origin
    =
  let engine = Fabric.engine fabric in
  let n = Fabric.node_count fabric in
  if origin < 0 || origin >= n then invalid_arg "Coherence.create: bad origin";
  let nshards =
    match cfg.Proto_config.sharding with
    | `Hash s | `Range s ->
        if s < 1 then invalid_arg "Coherence.create: shard count must be >= 1";
        s
  in
  (* Shard s is homed at (origin + s) mod n: shard 0 is always the process
     origin (the VMA/allocator/file services live there), and shard count
     may exceed the node count — homes then wrap. *)
  let homes = Array.init nshards (fun s -> (origin + s) mod n) in
  let rng = Rng.create ~seed in
  let t =
    {
      fabric;
      engine;
      nshards;
      homes;
      epochs = Array.make nshards 0;
      home_view = Array.init n (fun _ -> Array.copy homes);
      epoch_view = Array.init n (fun _ -> Array.make nshards 0);
      shard_grants = Array.make nshards 0;
      pid;
      cfg;
      dirs = Array.init nshards (fun s -> Directory.create ~origin:homes.(s));
      ptables = Array.init n (fun _ -> Page_table.create ());
      stores = Array.init n (fun _ -> Page_store.create ());
      ftables = Array.init n (fun _ -> Fault_table.create engine ());
      rngs = Array.init n (fun _ -> Rng.split rng);
      stats = Stats.create ();
      fault_latencies = Histogram.create ();
      tracer = None;
      barrier = None;
      resolver = None;
      on_origin_write = None;
      service =
        (if cfg.Proto_config.serial_home_service then
           Some
             (Array.init n (fun _ ->
                  Resource.Server.create engine ~bytes_per_us:1000.0))
         else None);
      rehomed = Hashtbl.create 16;
      rehome_dirs = Array.init n (fun node -> Directory.create ~origin:node);
      replicate_hint = Hashtbl.create 16;
      push_subs = Hashtbl.create 16;
      pinned = Hashtbl.create 16;
      unsubscribe_crash = Fun.id;
    }
  in
  if nshards > 1 then Stats.add t.stats "shard.homes" nshards;
  (* Subscribe the reclaim pass at create time and at priority 0, before
     any HA promotion (10) or process recovery (20): when a failure is
     declared, ownership metadata is repaired first. A home-node death is
     left to the HA layer when one is wired (a resolver is installed) —
     except that the dead node is still scrubbed out of the shards it did
     NOT home; without HA, reclaim_node's refusal is the PR 3 behavior. *)
  t.unsubscribe_crash <-
    Fabric.on_crash ~priority:0 fabric (fun node ->
        match t.resolver with
        | Some _ when shards_homed_at t node <> [] -> partial_scrub t ~node
        | _ -> reclaim_node t ~node);
  t

let unsubscribe_crash t = t.unsubscribe_crash ()

let origin t = t.homes.(0)
let epoch t = t.epochs.(0)
let pid t = t.pid
let cfg t = t.cfg
let node_count t = Array.length t.ptables
let page_table t ~node = t.ptables.(node)
let page_store t ~node = t.stores.(node)
let directory t = t.dirs.(0)
let fault_table t ~node = t.ftables.(node)
let stats t = t.stats
let fault_latencies t = t.fault_latencies
let set_tracer t tracer = t.tracer <- tracer
let set_commit_barrier t f = t.barrier <- f
let set_origin_resolver t f = t.resolver <- f
let set_origin_write_hook t f = t.on_origin_write <- f

let emit t event = match t.tracer with None -> () | Some f -> f event

let commit_fence t ~shard =
  match t.barrier with None -> () | Some f -> f shard

(* Handler occupancy at a home node. The default charges a plain delay —
   concurrent handlers overlap freely. With [serial_home_service] the
   home's handler is one service loop (1 "byte" = 1 ns): concurrent
   requests at the same home queue, and a lone overloaded origin
   saturates — which is what sharding spreads across homes. *)
let home_service t ~node d =
  match t.service with
  | None -> Engine.delay t.engine d
  | Some servers -> Resource.Server.transfer servers.(node) ~bytes:d

(* Feed a mutation of a home's staging store to the replication log.
   No-op (one pointer test) unless the HA layer installed the hook. *)
let origin_store_mutated t vpn =
  match t.on_origin_write with None -> () | Some f -> f vpn

(* Only ship real bytes for pages the typed API materialized; the wire
   cost of a full page is charged regardless (see grant sizes). *)
let snapshot_if_materialized store vpn =
  if Page_store.mem store vpn then Some (Page_store.snapshot store vpn)
  else None

(* ------------------------------------------------------------------ *)
(* Home side: ownership decisions.                                     *)

(* Run [jobs] concurrently and join. A single job runs inline in the
   caller's fiber — it can therefore complete before the join point, which
   is why the join below must re-check [pending] before blocking: an
   unconditional wait after all jobs already finished would sleep forever
   (the classic lost wake-up). *)
let fanout t ~label jobs =
  match jobs with
  | [] -> ()
  | [ job ] -> job ()
  | jobs ->
      let pending = ref (List.length jobs) in
      let failure = ref None in
      let join = Waitq.create () in
      List.iter
        (fun job ->
          Engine.spawn t.engine ~label (fun () ->
              (* An exception escaping a spawned fiber aborts the whole
                 simulation (Fiber_failure); capture it, keep the join
                 accounting intact, and re-raise in the calling fiber. *)
              (try job () with e -> if !failure = None then failure := Some e);
              decr pending;
              if !pending = 0 then ignore (Waitq.wake_one join ())))
        jobs;
      if !pending > 0 then Waitq.wait t.engine join;
      match !failure with Some e -> raise e | None -> ()

(* Raised inside a home-side handler when the home itself turns out
   to be the crashed endpoint of a failed RPC. The fiber is a zombie: its
   reply would be dropped by the fabric, the promoted standby's replica is
   the authoritative continuation of the state it was mutating, and — most
   importantly — it must not keep running, or its directory writes would
   race the promotion rebuild. {!handler} catches it and retires the
   fiber; the requester's exhausted retries route it to the new home. *)
exception Origin_dead

(* A revocation target that exhausts the retry budget IS the failure
   detector firing: escalate to a declared crash (fail-stop semantics —
   from here on the node is dead even if the true cause was a partition
   outliving the budget) and carry on without the ack. The reclaim pass
   run by the declaration scrubs whatever the dead node still appeared to
   hold, so treating the revoke as acked-without-data is sound.

   The one failure that must NOT be pinned on the target: the sending
   home itself died, which fast-unwinds every RPC it has in flight.
   Blaming the (live) victim would declare the wrong node dead — and when
   that victim is the replication standby, it would tear down the exact
   machinery about to run the failover. [src] is the home the RPC was
   issued from, captured before the call: by the time a zombie fiber
   resumes, the shard's home may already point at the promoted standby. *)
let crash_escalate t ~src ~target =
  if Fabric.crashed t.fabric ~node:src then raise Origin_dead;
  Stats.incr t.stats "crash.escalations";
  if not (Fabric.crashed t.fabric ~node:target) then
    Fabric.crash t.fabric ~node:target;
  Fabric.declare_dead t.fabric ~node:target

(* Ask [target] to surrender its copy of [vpn]; returns the page data if
   [want_data] and the target had it materialized. Crash-safe: a target
   already declared dead is skipped, one that dies mid-revocation is
   escalated — either way the revocation counts as acked without data. *)
let revoke_rpc t ~shard ~home ~target ~vpn ~mode ~want_data =
  if Fabric.crash_detected t.fabric ~node:target then begin
    Stats.incr t.stats "crash.revokes_skipped";
    None
  end
  else begin
    Stats.incr t.stats
      (match mode with
      | Messages.Invalidate -> "revoke.invalidate"
      | Messages.Downgrade -> "revoke.downgrade");
    let src = home in
    match
      Fabric.call t.fabric ~src ~dst:target ~kind:Messages.kind_revoke
        ~size:t.cfg.Proto_config.ctl_msg_size
        (Messages.Revoke
           { pid = t.pid; vpn; mode; want_data; epoch = t.epochs.(shard) })
    with
    | Messages.Revoke_ack { data; _ } -> data
    | _ -> failwith "Coherence: unexpected revoke reply"
    | exception Fabric.Unreachable _ ->
        crash_escalate t ~src ~target;
        None
  end

(* Apply a revocation to the home's own page table. The home's page
   store is never dropped: it is the staging copy that grants snapshot
   from, and every flow that could leave it stale re-installs fresh data
   (reclaim_from_owner) before the next snapshot. *)
let revoke_local t ~home ~vpn ~mode =
  match mode with
  | Messages.Invalidate -> Page_table.invalidate t.ptables.(home) vpn
  | Messages.Downgrade -> Page_table.downgrade t.ptables.(home) vpn

(* Revoke [vpn] from every node in [targets] in parallel, joining before
   returning. Used to invalidate all readers ahead of a write grant. *)
let revoke_parallel t ~shard ~home targets ~vpn =
  fanout t ~label:"revoke"
    (List.map
       (fun target () ->
         ignore
           (revoke_rpc t ~shard ~home ~target ~vpn ~mode:Messages.Invalidate
              ~want_data:false))
       targets)

(* Ship a re-homed page's current bytes back to its static shard home,
   keeping the staging copy there fresh: crash fallback rebuilds the entry
   at the shard home, whose store must cover everything any survivor has
   observed. Called exactly when the dynamic home externalizes data, so
   home-local traffic on a re-homed page stays message-free. *)
let mirror_to_static t ~src ~vpn data =
  let dst = t.homes.(shard_of t vpn) in
  if src <> dst && not (Fabric.crash_detected t.fabric ~node:dst) then begin
    Stats.incr t.stats "autopilot.mirrors";
    match
      Fabric.call t.fabric ~src ~dst ~kind:Messages.kind_page_sync
        ~size:t.cfg.Proto_config.page_msg_size
        (Messages.Page_sync { pid = t.pid; vpn; data })
    with
    | Messages.Page_sync_ack _ -> ()
    | _ -> failwith "Coherence: unexpected sync reply"
    | exception Fabric.Unreachable _ -> crash_escalate t ~src ~target:dst
  end

(* Pull fresh page data back to the home from the current exclusive
   owner, downgrading or invalidating its copy.

   With a commit barrier armed (replication), an invalidating
   reclaim goes in two phases: downgrade the owner (it keeps a read copy),
   replicate the pulled-back data, and only then invalidate. Destroying
   the owner's only copy before the standby acked the bytes would open an
   un-failover-able window — a home crash in it would roll the page
   back to the last replicated image even in `Sync mode. The page stays
   directory-locked throughout, so no write can sneak into the gap. *)
let reclaim_from_owner t ~shard ~home ~owner ~vpn ~mode =
  if owner = home then revoke_local t ~home ~vpn ~mode
  else begin
    let two_phase = t.barrier <> None && mode = Messages.Invalidate in
    let first = if two_phase then Messages.Downgrade else mode in
    let data =
      revoke_rpc t ~shard ~home ~target:owner ~vpn ~mode:first ~want_data:true
    in
    Option.iter
      (fun d ->
        Page_store.install t.stores.(home) vpn d;
        (* Re-homed page: refresh the static staging copy before the HA
           hook snapshots it, so the log never ships stale bytes. *)
        if home <> t.homes.(shard) then mirror_to_static t ~src:home ~vpn d;
        origin_store_mutated t vpn)
      data;
    if two_phase then begin
      Stats.incr t.stats "ha.two_phase_reclaims";
      commit_fence t ~shard;
      ignore
        (revoke_rpc t ~shard ~home ~target:owner ~vpn ~mode:Messages.Invalidate
           ~want_data:false)
    end
  end

(* The core ownership transition. Must run at the page's serving home; may
   block on revocations. Returns [`Nack] when the page is busy. *)
let requester_gone t ~home ~requester =
  requester <> home && Fabric.crash_detected t.fabric ~node:requester

(* Drop freshly-declared-dead nodes from a membership about to be
   installed: a revocation inside the current fan-out may have escalated
   one of them to a crash after the transition was decided. *)
let live_set t nodes =
  Node_set.of_list
    (List.filter (fun n -> not (Fabric.crash_detected t.fabric ~node:n)) nodes)

(* Per-shard load accounting, live only with more than one shard: grants
   served at the home for requesters co-located with it vs remote ones. *)
let note_shard_grant t ~shard ~home ~requester =
  if t.nshards > 1 then begin
    t.shard_grants.(shard) <- t.shard_grants.(shard) + 1;
    Stats.incr t.stats
      (if requester = home then "shard.local_grants"
       else "shard.remote_grants")
  end

(* Subscriber bookkeeping for replicate-marked pages: remember the readers
   a write grant just invalidated, so the next read grant can push copies
   back instead of letting each one re-fault. One Hashtbl probe on the
   unmarked path. *)
let note_push_subs t ~vpn nodes =
  if nodes <> [] && Hashtbl.mem t.replicate_hint vpn then begin
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.push_subs vpn) in
    Hashtbl.replace t.push_subs vpn (List.sort_uniq compare (nodes @ prev))
  end

(* Push unsolicited read copies of a replicate-marked page to the readers
   its last write grant displaced. Runs under the page's directory lock,
   right after a read grant returned the page to [Shared] — the home's
   staging copy is fresh at exactly that point. Victims may decline (stale
   epoch); the accepted ones join the Shared set so the next write revokes
   them normally. *)
let push_replicas t ~shard ~home ~dir ~vpn ~requester =
  match Hashtbl.find_opt t.push_subs vpn with
  | None -> ()
  | Some subs -> (
      Hashtbl.remove t.push_subs vpn;
      match Directory.state dir vpn with
      | Directory.Exclusive _ -> ()
      | Directory.Shared readers ->
          let targets =
            List.filter
              (fun n ->
                n <> home && n <> requester
                && (not (Node_set.mem readers n))
                && not (Fabric.crash_detected t.fabric ~node:n))
              subs
          in
          if targets <> [] then begin
            let data = snapshot_if_materialized t.stores.(home) vpn in
            let accepted = ref [] in
            fanout t ~label:"push"
              (List.map
                 (fun target () ->
                   match
                     Fabric.call t.fabric ~src:home ~dst:target
                       ~kind:Messages.kind_page_push
                       ~size:t.cfg.Proto_config.page_msg_size
                       (Messages.Page_push
                          {
                            pid = t.pid;
                            vpn;
                            data;
                            epoch = t.epochs.(shard);
                          })
                   with
                   | Messages.Page_push_ack { accepted = ok; _ } ->
                       if ok then accepted := target :: !accepted
                       else Stats.incr t.stats "autopilot.push_declined"
                   | _ -> failwith "Coherence: unexpected push reply"
                   | exception Fabric.Unreachable _ ->
                       (* Best-effort: a push is only a hint, never worth
                          an escalation. *)
                       Stats.incr t.stats "autopilot.push_declined")
                 targets);
            let live =
              List.filter
                (fun n -> not (Fabric.crash_detected t.fabric ~node:n))
                !accepted
            in
            if live <> [] then begin
              Stats.add t.stats "autopilot.replica_pushes" (List.length live);
              match Directory.state dir vpn with
              | Directory.Shared rs ->
                  Directory.set_shared dir vpn
                    (Node_set.of_list (live @ Node_set.to_list rs))
              | Directory.Exclusive _ -> ()
            end
          end)

let origin_grant t ~shard ~home ~dir ~requester ~vpn ~access =
  if requester_gone t ~home ~requester then begin
    (* The requester died between sending the request and being serviced:
       granting would hand a page to a ghost and leave it dangling in the
       directory forever. *)
    Stats.incr t.stats "crash.grants_refused";
    `Nack
  end
  else if not (Directory.try_lock dir vpn) then begin
    Stats.incr t.stats "grant.nack";
    `Nack
  end
  else if page_dir t vpn != dir then begin
    (* The page's authority moved (re-home or fallback) between dispatch
       and lock: this directory no longer speaks for it, and the lock just
       taken may even have auto-created a fresh entry here. Drop the bogus
       entry wholesale and NACK — the requester's retry re-steers. *)
    Directory.forget dir vpn;
    Stats.incr t.stats "grant.nack";
    `Nack
  end
  else
    (* The revocation fan-out below can raise (and, under crashes, the
       escalation path can run arbitrary recovery); the lock must never
       outlive this fiber either way. *)
    Fun.protect
      ~finally:(fun () -> Directory.unlock dir vpn)
      (fun () ->
        (* The home itself may have a fault in flight on this page
           (granted but not yet retired); revoking its copy underneath it
           would lose the pending update. Remote owners get the same
           protection in their Revoke handler. *)
        if requester <> home then Fault_table.await_idle t.ftables.(home) ~vpn;
        let had_copy = Directory.has_valid_copy dir vpn requester in
        (match (access, Directory.state dir vpn) with
        | Perm.Read, Directory.Exclusive owner when owner = requester -> ()
        | Perm.Read, Directory.Exclusive owner ->
            reclaim_from_owner t ~shard ~home ~owner ~vpn
              ~mode:Messages.Downgrade;
            (* The home mediated the transfer, so it now holds a valid
               copy alongside the old owner and the requester. *)
            Directory.set_shared dir vpn
              (live_set t [ owner; home; requester ])
        | Perm.Read, Directory.Shared _ ->
            Directory.add_reader dir vpn requester
        | Perm.Write, Directory.Exclusive owner when owner = requester -> ()
        | Perm.Write, Directory.Exclusive owner ->
            reclaim_from_owner t ~shard ~home ~owner ~vpn
              ~mode:Messages.Invalidate;
            note_push_subs t ~vpn [ owner ];
            Directory.set_exclusive dir vpn requester
        | Perm.Write, Directory.Shared readers ->
            let victims =
              List.filter
                (fun n -> n <> requester && n <> home)
                (Node_set.to_list readers)
            in
            revoke_parallel t ~shard ~home victims ~vpn;
            if Node_set.mem readers home && requester <> home then
              revoke_local t ~home ~vpn ~mode:Messages.Invalidate;
            note_push_subs t ~vpn victims;
            Directory.set_exclusive dir vpn requester);
        let wire_data =
          ((not had_copy) || not t.cfg.Proto_config.grant_without_data)
          && requester <> home
        in
        let data =
          if wire_data then snapshot_if_materialized t.stores.(home) vpn
          else None
        in
        (* Both extras below can block; they run before the ghost re-check
           so a requester dying under them is still caught. *)
        if home <> t.homes.(shard) then
          Option.iter (fun d -> mirror_to_static t ~src:home ~vpn d) data;
        if access = Perm.Read then
          push_replicas t ~shard ~home ~dir ~vpn ~requester;
        if requester_gone t ~home ~requester then begin
          (* The requester's failure was declared while we were blocked in
             the fan-out, i.e. after the reclaim pass already scrubbed the
             directory; the transition just applied may have reintroduced
             the ghost. Undo it: ownership falls back to the home. *)
          Stats.incr t.stats "crash.grants_refused";
          (match Directory.state dir vpn with
          | Directory.Exclusive owner when owner = requester ->
              Directory.set_exclusive dir vpn home
          | Directory.Shared readers when Node_set.mem readers requester ->
              let rest = Node_set.remove readers requester in
              if Node_set.is_empty rest then Directory.set_exclusive dir vpn home
              else Directory.set_shared dir vpn rest
          | _ -> ());
          `Nack
        end
        else begin
          Stats.incr t.stats
            (if wire_data then "grant.data" else "grant.nodata");
          note_shard_grant t ~shard ~home ~requester;
          `Grant (data, wire_data)
        end)

(* ------------------------------------------------------------------ *)
(* Node side: fault handling.                                          *)

(* Retry delay after the [attempt]-th NACK: exponential in the attempt
   with +/- 25% deterministic jitter, clamped to [3d/4, 5d/4] so that a
   degenerate config (zero or tiny backoff_base) can never collapse the
   delay to the 1 ns floor and turn backoff into a busy retry storm. *)
let backoff_delay t ~node ~attempt =
  let base = max 1 t.cfg.Proto_config.backoff_base in
  let cap = max base t.cfg.Proto_config.backoff_cap in
  let d = min cap (base * (1 lsl max 0 (min attempt 6))) in
  let lo = max 1 (d - (d / 4)) and hi = d + (d / 4) in
  let jitter = Rng.int t.rngs.(node) (max 1 (d / 2)) - (d / 4) in
  max lo (min hi (d + jitter))

let backoff t ~node ~attempt =
  Engine.delay t.engine (backoff_delay t ~node ~attempt)

(* A page request that exhausted its retry budget against a live,
   undetected home: the home is not gone, it is slow — typically
   grinding through a revoke escalation against a dead node on this very
   request's behalf, which burns the same retry budget the requester has.
   That false [Unreachable] must not abort the faulting thread. Grants
   are idempotent, so surfacing the timeout as a NACK and retrying is
   safe — unlike delegated operations, which must never be replayed.

   With an HA resolver installed, a dead home is a different story:
   exhaust-the-budget IS the failure detector (escalate an undeclared
   crash), then stall in the resolver until the standby is promoted,
   adopt the new home address, and retry there — the thread sees a
   long fault, never an abort. *)
let request_failure t ~node ~shard ~dst ~steered =
  if Fabric.crashed t.fabric ~node then `Reraise
  else if steered then begin
    (* The re-home target is unreachable. Escalate an undeclared crash —
       exhausting the budget IS the failure detector here too — so the
       fallback pass runs and the page's authority returns to its shard
       home; the retry then resolves there. A live-but-slow target keeps
       the page and is simply retried. *)
    if
      Fabric.crashed t.fabric ~node:dst
      && not (Fabric.crash_detected t.fabric ~node:dst)
    then begin
      Stats.incr t.stats "crash.escalations";
      Fabric.declare_dead t.fabric ~node:dst
    end;
    Stats.incr t.stats "crash.requester_retries";
    `Nack
  end
  else begin
    (match t.resolver with
    | Some _
      when Fabric.crashed t.fabric ~node:dst
           && not (Fabric.crash_detected t.fabric ~node:dst) ->
        Stats.incr t.stats "crash.escalations";
        Fabric.declare_dead t.fabric ~node:dst
    | _ -> ());
    if Fabric.crash_detected t.fabric ~node:dst then
      match t.resolver with
      | Some resolve -> (
          match resolve shard with
          | Some o ->
              t.home_view.(node).(shard) <- o;
              Stats.incr t.stats "ha.stalled_faults";
              `Nack
          | None -> `Reraise)
      | None -> `Reraise
    else begin
      Stats.incr t.stats "crash.requester_retries";
      `Nack
    end
  end

(* Send one [Page_request] for [vpn] from [node], which is not the page's
   home, and return the reply. A re-homed page is steered straight to its
   re-home target (the re-home decision costs no messages, so every node
   learns it at once); other pages go to the shard's home view. [None]
   when the call failed in a way the fault loop retries
   ({!request_failure}). *)
let page_request t ~node ~shard ~vpn ~access =
  let steer = Hashtbl.find_opt t.rehomed vpn in
  let dst =
    match steer with
    | Some d when d <> node -> d
    | _ -> t.home_view.(node).(shard)
  in
  (* Backstop against a view pointing at ourselves (we just stopped
     being the page's home): resolve the live authority directly. *)
  let dst = if dst = node then page_home t vpn else dst in
  match
    Fabric.call t.fabric ~src:node ~dst ~kind:Messages.kind_page_request
      ~size:t.cfg.Proto_config.ctl_msg_size
      (Messages.Page_request
         { pid = t.pid; vpn; access; epoch = t.epoch_view.(node).(shard) })
  with
  | reply -> Some reply
  | exception (Fabric.Unreachable _ as e) -> (
      match request_failure t ~node ~shard ~dst ~steered:(steer = Some dst) with
      | `Nack -> None
      | `Reraise -> raise e)

(* One protocol attempt as the fault leader. *)
let request_once t ~node ~vpn ~access =
  let shard = shard_of t vpn in
  if node = page_home t vpn then begin
    Engine.delay t.engine t.cfg.Proto_config.local_op;
    match
      origin_grant t ~shard ~home:node ~dir:(page_dir t vpn) ~requester:node
        ~vpn ~access
    with
    | `Nack -> `Nack
    | `Grant _ ->
        Page_table.set t.ptables.(node) vpn access;
        `Granted
    | exception Origin_dead ->
        (* The faulting thread runs ON the home and the home died
           under its own revocation fan-out. Surface the standard
           node-death signal so the thread crash policy applies. *)
        raise
          (Fabric.Unreachable
             { src = node; dst = node; kind = Messages.kind_revoke })
  end
  else
    match page_request t ~node ~shard ~vpn ~access with
    | None | Some (Messages.Page_nack _) -> `Nack
    | Some (Messages.Page_stale { epoch; _ }) ->
        (* Failover happened while we still addressed the old epoch: adopt
           the new one and retry — the view already points at whoever
           answered. *)
        t.epoch_view.(node).(shard) <- epoch;
        `Nack
    | Some (Messages.Page_redirect _) ->
        (* The page's authority moved while the request was in flight;
           the retry steers by the current re-home table. *)
        Stats.incr t.stats "autopilot.resteers";
        `Nack
    | Some (Messages.Page_grant { data; _ }) ->
        Option.iter (Page_store.install t.stores.(node) vpn) data;
        Page_table.set t.ptables.(node) vpn access;
        `Granted
    | Some _ -> failwith "Coherence: unexpected page reply"

let kind_of_access = function
  | Perm.Read -> Fault_event.Read
  | Perm.Write -> Fault_event.Write

(* Ensure [node] may perform [access] on [vpn]; the full fault handler. *)
let ensure t ~node ~tid ~site ~vpn ~access =
  let pt = t.ptables.(node) in
  if not (Page_table.allows pt vpn access) then begin
    let shard = shard_of t vpn in
    let t0 = Engine.now t.engine in
    let retries = ref 0 in
    let was_leader = ref false in
    let rec loop () =
      if Page_table.allows pt vpn access then ()
      else if
        node = page_home t vpn && not (Directory.is_tracked (page_dir t vpn) vpn)
      then begin
        (* Cold anonymous page at its home: plain minor fault, the
           protocol is not involved. *)
        Engine.delay t.engine t.cfg.Proto_config.local_op;
        Page_table.set pt vpn access;
        Stats.incr t.stats "fault.minor"
      end
      else begin
        Engine.delay t.engine t.cfg.Proto_config.fault_entry;
        match Fault_table.enter t.ftables.(node) ~vpn ~access with
        | Fault_table.Follower _ when t.cfg.Proto_config.coalesce_faults ->
            Stats.incr t.stats "fault.coalesced";
            Engine.delay t.engine t.cfg.Proto_config.follower_resume;
            loop ()
        | Fault_table.Follower _ ->
            (* Coalescing disabled (ablation): each concurrent fault runs
               its own protocol request, and — as in the paper's
               description of stock Linux — the prepared page is simply
               discarded because the PTE changed under it. *)
            Stats.incr t.stats "fault.duplicate";
            if node <> page_home t vpn then
              (* The duplicate's result is discarded anyway; a timeout
                 toward the live home is not worth aborting for, and a
                 dead home just means waiting out the failover. *)
              ignore (page_request t ~node ~shard ~vpn ~access)
            else Engine.delay t.engine t.cfg.Proto_config.local_op;
            loop ()
        | Fault_table.Conflict -> loop ()
        | Fault_table.Leader -> (
            was_leader := true;
            match request_once t ~node ~vpn ~access with
            | `Granted ->
                Engine.delay t.engine t.cfg.Proto_config.pte_update;
                ignore (Fault_table.finish t.ftables.(node) ~vpn `Done)
            | `Nack ->
                Stats.incr t.stats "fault.retry";
                incr retries;
                ignore (Fault_table.finish t.ftables.(node) ~vpn `Retry);
                backoff t ~node ~attempt:!retries;
                loop ()
            | exception e ->
                (* This node crashed mid-request (Unreachable). Retire the
                   fault entry before unwinding so coalesced followers wake
                   up, re-fault, and drain through the same path instead of
                   parking forever. *)
                ignore (Fault_table.finish t.ftables.(node) ~vpn `Retry);
                raise e)
      end
    in
    loop ();
    if !was_leader then begin
      let latency = Engine.now t.engine - t0 in
      Stats.incr t.stats
        (match access with
        | Perm.Read -> "fault.read"
        | Perm.Write -> "fault.write");
      Histogram.add t.fault_latencies latency;
      emit t
        {
          Fault_event.time = t0;
          node;
          tid;
          kind = kind_of_access access;
          site;
          addr = Page.base_of_page vpn;
          latency;
          retries = !retries;
        }
    end
  end

(* ------------------------------------------------------------------ *)
(* Public access API.                                                  *)

let check_node t node name =
  if node < 0 || node >= node_count t then
    invalid_arg (Printf.sprintf "Coherence.%s: bad node %d" name node)

let access_range t ~node ~tid ?(site = "?") ~addr ~len ~access () =
  check_node t node "access_range";
  let first, last = Page.pages_of_range addr ~len in
  for vpn = first to last do
    ensure t ~node ~tid ~site ~vpn ~access
  done

let load_i64 t ~node ~tid ?(site = "?") addr =
  check_node t node "load_i64";
  let vpn = Page.page_of_addr addr in
  ensure t ~node ~tid ~site ~vpn ~access:Perm.Read;
  Page_store.read_i64 t.stores.(node) vpn ~offset:(Page.offset_in_page addr)

let store_i64 t ~node ~tid ?(site = "?") addr v =
  check_node t node "store_i64";
  let vpn = Page.page_of_addr addr in
  ensure t ~node ~tid ~site ~vpn ~access:Perm.Write;
  Page_store.write_i64 t.stores.(node) vpn ~offset:(Page.offset_in_page addr) v;
  if node = home_of t vpn then origin_store_mutated t vpn

(* 32-bit and byte accessors share a page with their 64-bit neighbours;
   the protocol is oblivious to the width. Stored little-endian within the
   containing 8-byte cell for simplicity. *)
let load_i32 t ~node ~tid ?(site = "?") addr =
  check_node t node "load_i32";
  if addr land 3 <> 0 then invalid_arg "Coherence.load_i32: misaligned";
  let vpn = Page.page_of_addr addr in
  ensure t ~node ~tid ~site ~vpn ~access:Perm.Read;
  let base = addr land lnot 7 in
  let cell =
    Page_store.read_i64 t.stores.(node) vpn ~offset:(Page.offset_in_page base)
  in
  let shift = (addr land 4) * 8 in
  Int64.to_int32 (Int64.shift_right_logical cell shift)

let store_i32 t ~node ~tid ?(site = "?") addr v =
  check_node t node "store_i32";
  if addr land 3 <> 0 then invalid_arg "Coherence.store_i32: misaligned";
  let vpn = Page.page_of_addr addr in
  ensure t ~node ~tid ~site ~vpn ~access:Perm.Write;
  let base = addr land lnot 7 in
  let offset = Page.offset_in_page base in
  let cell = Page_store.read_i64 t.stores.(node) vpn ~offset in
  let shift = (addr land 4) * 8 in
  let mask = Int64.shift_left 0xFFFF_FFFFL shift in
  let v64 =
    Int64.shift_left (Int64.logand (Int64.of_int32 v) 0xFFFF_FFFFL) shift
  in
  Page_store.write_i64 t.stores.(node) vpn ~offset
    (Int64.logor (Int64.logand cell (Int64.lognot mask)) v64);
  if node = home_of t vpn then origin_store_mutated t vpn

let load_byte t ~node ~tid ?(site = "?") addr =
  check_node t node "load_byte";
  let vpn = Page.page_of_addr addr in
  ensure t ~node ~tid ~site ~vpn ~access:Perm.Read;
  Page_store.read_byte t.stores.(node) vpn ~offset:(Page.offset_in_page addr)

let store_byte t ~node ~tid ?(site = "?") addr v =
  check_node t node "store_byte";
  let vpn = Page.page_of_addr addr in
  ensure t ~node ~tid ~site ~vpn ~access:Perm.Write;
  Page_store.write_byte t.stores.(node) vpn ~offset:(Page.offset_in_page addr) v;
  if node = home_of t vpn then origin_store_mutated t vpn

let cas_i64 t ~node ~tid ?(site = "?") addr ~expected ~desired =
  check_node t node "cas_i64";
  let vpn = Page.page_of_addr addr in
  ensure t ~node ~tid ~site ~vpn ~access:Perm.Write;
  (* Exclusive ownership held; no simulation event can interleave between
     the read and the conditional write below. *)
  let offset = Page.offset_in_page addr in
  let current = Page_store.read_i64 t.stores.(node) vpn ~offset in
  if current = expected then begin
    Page_store.write_i64 t.stores.(node) vpn ~offset desired;
    if node = home_of t vpn then origin_store_mutated t vpn;
    true
  end
  else false

let fetch_add_i64 t ~node ~tid ?(site = "?") addr delta =
  check_node t node "fetch_add_i64";
  let vpn = Page.page_of_addr addr in
  ensure t ~node ~tid ~site ~vpn ~access:Perm.Write;
  let offset = Page.offset_in_page addr in
  let current = Page_store.read_i64 t.stores.(node) vpn ~offset in
  Page_store.write_i64 t.stores.(node) vpn ~offset (Int64.add current delta);
  if node = home_of t vpn then origin_store_mutated t vpn;
  current

let zap_range t ~first ~last ~node =
  check_node t node "zap_range";
  let n = Page_table.zap_range t.ptables.(node) ~first ~last in
  for vpn = first to last do
    Page_store.drop t.stores.(node) vpn
  done;
  n

let forget_range t ~first ~last =
  for vpn = first to last do
    Directory.forget t.dirs.(shard_of t vpn) vpn
  done

(* ------------------------------------------------------------------ *)
(* Placement autopilot primitives.                                     *)

(* Move a page's protocol authority to [node]: its directory entry leaves
   the current serving directory for the target's overlay directory (or
   back into the shard directory when re-homing to the static home), the
   staging copy ships over, and the re-home table steers every node there.
   Faults from [node] then resolve locally — the win for ping-ponged pages
   whose dominant faulter is remote from the shard home. The entry move is
   guarded by the page's busy flag, so it serializes against grants like
   any other protocol operation ([`Busy] = try again next tick). *)
let rehome_page t ~vpn ~node =
  check_node t node "rehome_page";
  let shard = shard_of t vpn in
  if Fabric.crash_detected t.fabric ~node then `Dead_target
  else begin
    let cur = page_home t vpn in
    if cur = node then `Noop
    else if Hashtbl.mem t.pinned vpn && node <> t.homes.(shard) then
      (* Pinned pages (futex words) only ever move BACK to their static
         home — the futex check-and-sleep needs home-local reads. *)
      `Noop
    else begin
      let dir = page_dir t vpn in
      if not (Directory.try_lock dir vpn) then begin
        Stats.incr t.stats "autopilot.rehome_busy";
        `Busy
      end
      else begin
        let state = Directory.state dir vpn in
        (* The staging snapshot only serves a target with no current copy.
           A target already holding the page has bytes at least as fresh —
           and the exclusive owner's dirty copy is STRICTLY fresher, so
           overwriting its store would serve time-travelled reads and
           lose the owner's updates on the next externalization. *)
        let target_holds =
          match state with
          | Directory.Exclusive owner -> owner = node
          | Directory.Shared readers -> Node_set.mem readers node
        in
        let ship () =
          if target_holds then ()
          else
            match snapshot_if_materialized t.stores.(cur) vpn with
          | None -> ()
          | Some data -> (
              match
                Fabric.call t.fabric ~src:cur ~dst:node
                  ~kind:Messages.kind_page_sync
                  ~size:t.cfg.Proto_config.page_msg_size
                  (Messages.Page_sync { pid = t.pid; vpn; data })
              with
              | Messages.Page_sync_ack _ -> ()
              | _ -> failwith "Coherence: unexpected sync reply")
        in
        match ship () with
        | exception Fabric.Unreachable _ ->
            Directory.unlock dir vpn;
            (* The target died undetected: the shipment exhausting its
               budget is the failure detector, same as a revoke. *)
            Stats.incr t.stats "crash.escalations";
            if not (Fabric.crashed t.fabric ~node) then
              Fabric.crash t.fabric ~node;
            Fabric.declare_dead t.fabric ~node;
            `Dead_target
        | () ->
            (* Release the busy flag, then move the entry and flip the
               routing state — no simulation event intervenes, so the
               whole move is atomic in simulated time. *)
            Directory.unlock dir vpn;
            Directory.forget dir vpn;
            let ndir =
              if node = t.homes.(shard) then t.dirs.(shard)
              else t.rehome_dirs.(node)
            in
            (match state with
            | Directory.Exclusive owner -> Directory.set_exclusive ndir vpn owner
            | Directory.Shared readers -> Directory.set_shared ndir vpn readers);
            (* Every node's next fault on the page steers by this table,
               so it goes straight to the new home; requests already in
               flight are answered with a redirect. *)
            if node = t.homes.(shard) then Hashtbl.remove t.rehomed vpn
            else Hashtbl.replace t.rehomed vpn node;
            Stats.incr t.stats "autopilot.rehomes";
            `Rehomed
      end
    end
  end

(* Pin a page to its static shard home. The futex layer calls this for
   every word it serves: its check-and-sleep is only atomic because the
   home reads the word without simulation events, and a re-homed page
   turns that read into a remote fault — a wake can then land in the
   grant-reply flight and be lost (barrier deadlock). Real kernels pin
   futex pages for the same reason. If the autopilot already moved the
   page, authority is pulled back here, retrying while a grant holds the
   entry busy. With no re-homes this is a hash lookup and an insert —
   no simulation events, so a run that never re-homes is unaffected. *)
let pin_page t ~vpn =
  if not (Hashtbl.mem t.pinned vpn) then begin
    Hashtbl.replace t.pinned vpn ();
    if Hashtbl.mem t.rehomed vpn then begin
      let home = t.homes.(shard_of t vpn) in
      let attempt = ref 0 in
      let rec pull () =
        match rehome_page t ~vpn ~node:home with
        | `Busy ->
            Engine.delay t.engine (backoff_delay t ~node:home ~attempt:!attempt);
            incr attempt;
            pull ()
        | `Rehomed -> Stats.incr t.stats "autopilot.pin_reverts"
        | `Noop | `Dead_target -> ()
      in
      pull ()
    end
  end

(* Mark a page range replicate-don't-invalidate: readers displaced by a
   write grant are remembered and pushed fresh copies when the page next
   returns to [Shared], instead of each re-faulting. *)
let mark_replicate t ~first ~last =
  if last < first then invalid_arg "Coherence.mark_replicate: bad range";
  for vpn = first to last do
    if not (Hashtbl.mem t.replicate_hint vpn) then begin
      Hashtbl.replace t.replicate_hint vpn ();
      Stats.incr t.stats "autopilot.replicate_marked"
    end
  done

(* ------------------------------------------------------------------ *)
(* Message handler.                                                    *)

let apply_invalidation t ~node ~vpn ~mode =
  (match mode with
  | Messages.Invalidate ->
      Page_table.invalidate t.ptables.(node) vpn;
      Page_store.drop t.stores.(node) vpn
  | Messages.Downgrade -> Page_table.downgrade t.ptables.(node) vpn);
  emit t
    {
      Fault_event.time = Engine.now t.engine;
      node;
      tid = -1;
      kind = Fault_event.Invalidation;
      site = "";
      addr = Page.base_of_page vpn;
      latency = 0;
      retries = 0;
    }

(* Victim-side epoch bookkeeping for home-to-node traffic: adopt a
   newer epoch (and the sender as the shard's new home), refuse an older
   one. Returns [true] when the message is from a dead epoch and must be
   acked without effect — its sender no longer speaks for the pages. *)
let stale_origin_traffic t ~node ~shard ~src ~epoch =
  if epoch > t.epoch_view.(node).(shard) then begin
    t.epoch_view.(node).(shard) <- epoch;
    t.home_view.(node).(shard) <- src
  end;
  if epoch < t.epoch_view.(node).(shard) then begin
    Stats.incr t.stats "ha.stale_revokes";
    true
  end
  else false

let handler_unguarded t (env : Fabric.env) =
  let msg = env.Fabric.msg in
  match msg.Msg.payload with
  | Messages.Page_request { pid; vpn; access; epoch } when pid = t.pid ->
      let shard = shard_of t vpn in
      let home = page_home t vpn in
      if msg.Msg.dst <> home then begin
        (* The requester's steer is stale — the page's authority moved
           (re-home, fallback, or a fresh re-home after a fallback).
           Answer with the live address; the retry resolves there. *)
        home_service t ~node:msg.Msg.dst t.cfg.Proto_config.local_op;
        Stats.incr t.stats "autopilot.redirects";
        env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
          (Messages.Page_redirect { pid = t.pid; vpn; home })
      end
      else begin
        home_service t ~node:msg.Msg.dst t.cfg.Proto_config.origin_handler;
        if epoch <> t.epochs.(shard) then begin
          Stats.incr t.stats "ha.stale_epoch_nacks";
          env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
            (Messages.Page_stale { pid = t.pid; epoch = t.epochs.(shard) })
        end
        else
          match
            origin_grant t ~shard ~home ~dir:(page_dir t vpn)
              ~requester:msg.Msg.src ~vpn ~access
          with
          | `Nack ->
              env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
                (Messages.Page_nack { pid = t.pid; vpn })
          | `Grant (data, wire_data) ->
              (* Replicate before externalize: the ownership transition
                 must be on the standby before the requester can observe
                 it. *)
              commit_fence t ~shard;
              let size =
                if wire_data then t.cfg.Proto_config.page_msg_size
                else t.cfg.Proto_config.ctl_msg_size
              in
              env.Fabric.respond ~size
                (Messages.Page_grant { pid = t.pid; vpn; data })
      end;
      true
  | Messages.Revoke { pid; vpn; mode; want_data; epoch } when pid = t.pid ->
      let node = msg.Msg.dst in
      let shard = shard_of t vpn in
      if stale_origin_traffic t ~node ~shard ~src:msg.Msg.src ~epoch then begin
        env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
          (Messages.Revoke_ack { pid = t.pid; vpn; data = None })
      end
      else begin
        (* A fault in flight on this page must complete before the
           revocation applies, or PTE updates would interleave. *)
        Fault_table.await_idle t.ftables.(node) ~vpn;
        Engine.delay t.engine t.cfg.Proto_config.invalidate_handler;
        let data =
          if want_data then snapshot_if_materialized t.stores.(node) vpn
          else None
        in
        apply_invalidation t ~node ~vpn ~mode;
        let size =
          if want_data then t.cfg.Proto_config.page_msg_size
          else t.cfg.Proto_config.ctl_msg_size
        in
        env.Fabric.respond ~size
          (Messages.Revoke_ack { pid = t.pid; vpn; data })
      end;
      true
  | Messages.Epoch_fence { pid; shard; epoch = _; keep } when pid = t.pid ->
      let node = msg.Msg.dst in
      Engine.delay t.engine t.cfg.Proto_config.invalidate_handler;
      (* Reconcile local copies of the fenced shard against what the
         promoted replica still vouches for. Under `Sync replication the
         keep list covers every copy and nothing is zapped; under `Async
         the zapped pages are exactly the lost log suffix. Deliberately
         does NOT wait on local fault entries: their leaders are parked on
         the dead home and drain through the resolver — a grant from the
         new home is authoritative over anything zapped here. *)
      let entries = ref [] in
      (* Re-homed pages are vouched for by their live overlay directory,
         not the promoted replica — the fence must not zap them. *)
      Page_table.iter t.ptables.(node) (fun vpn access ->
          if shard_of t vpn = shard && not (Hashtbl.mem t.rehomed vpn) then
            entries := (vpn, access) :: !entries);
      let zapped = ref 0 in
      List.iter
        (fun (vpn, access) ->
          match List.assoc_opt vpn keep with
          | Some Perm.Write -> ()
          | Some Perm.Read ->
              if access = Perm.Write then begin
                Page_table.downgrade t.ptables.(node) vpn;
                incr zapped
              end
          | None ->
              Page_table.invalidate t.ptables.(node) vpn;
              Page_store.drop t.stores.(node) vpn;
              incr zapped)
        !entries;
      if !zapped > 0 then Stats.add t.stats "ha.fence_zapped" !zapped;
      (* Keep pages with no local copy at all: the directory committed a
         grant whose reply never arrived (it died with the old home).
         Report them so the new home can demote the dangling entries —
         a later grant-without-data against them would hand out ownership
         of bytes this node does not have. A downgraded copy (read PTE
         under a Write keep) is NOT missing: the bytes are current and
         ownership can be re-granted without data. *)
      let missing =
        List.filter_map
          (fun (vpn, _) ->
            if Page_table.allows t.ptables.(node) vpn Perm.Read then None
            else Some vpn)
          keep
      in
      (* The epoch itself is NOT adopted here: the fence is a memory
         barrier, not an address handshake. The node learns the new
         home/epoch in-band, through the resolver and the first
         Page_stale NACK of its next fault. *)
      env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
        (Messages.Epoch_fence_ack { pid = t.pid; zapped = !zapped; missing });
      true
  | Messages.Page_sync { pid; vpn; data } when pid = t.pid ->
      (* Page-content shipment outside the grant path: install into the
         destination's store; at the static shard home this refreshes the
         staging copy and feeds the HA log. *)
      let node = msg.Msg.dst in
      Engine.delay t.engine t.cfg.Proto_config.local_op;
      Page_store.install t.stores.(node) vpn data;
      if node = t.homes.(shard_of t vpn) then origin_store_mutated t vpn;
      env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
        (Messages.Page_sync_ack { pid = t.pid });
      true
  | Messages.Page_push { pid; vpn; data; epoch } when pid = t.pid ->
      let node = msg.Msg.dst in
      let shard = shard_of t vpn in
      (* An in-flight fault is NOT a reason to decline: the pusher
         holds the page's directory lock, so that fault can only be in
         its NACK-retry loop — and the retry re-validates local
         permissions, so installing here retires it without another
         grant round trip. (That is the push's whole payoff when a write
         storm displaces every reader at once.) *)
      let accepted =
        not (stale_origin_traffic t ~node ~shard ~src:msg.Msg.src ~epoch)
      in
      if accepted then begin
        Engine.delay t.engine t.cfg.Proto_config.pte_update;
        Option.iter (Page_store.install t.stores.(node) vpn) data;
        Page_table.set t.ptables.(node) vpn Perm.Read
      end;
      env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
        (Messages.Page_push_ack { pid = t.pid; accepted });
      true
  | _ -> false

(* The home died under this handler mid-operation (see {!Origin_dead}):
   retire the fiber. The locks it held were released on unwind, the reply
   it owed will never be sent — the requester's exhausted retries take it
   through the resolver to the promoted home instead. *)
let handler t (env : Fabric.env) =
  try handler_unguarded t env
  with Origin_dead ->
    Stats.incr t.stats "ha.orphaned_handlers";
    true

(* ------------------------------------------------------------------ *)
(* Standby promotion (HA failover).                                    *)

(* Install the replica's ownership image as the new authoritative state of
   one shard. Runs in that shard's promotion fiber on the standby, after
   the old home's failure was declared (so crash_detected filters the dead
   out of the rebuilt membership). [dir_entries] is the replica directory
   snapshot restricted to the shard, [page_data] the replicated
   home-store contents for its pages. *)
let promote t ~shard ~new_origin ~dir_entries ~page_data =
  let old = t.homes.(shard) in
  if new_origin = old then invalid_arg "Coherence.promote: origin unchanged";
  if Fabric.crashed t.fabric ~node:new_origin then
    invalid_arg "Coherence.promote: standby is dead";
  let dir = Directory.create ~origin:new_origin in
  (* A page re-homed to a live overlay directory keeps its authority
     there; under [`Async] replication the Dir_forget of its move may sit
     in the lost log suffix, so the replica image can still carry the
     entry — resurrecting it here would fork the page's authority. *)
  let dir_entries =
    List.filter (fun (vpn, _) -> not (Hashtbl.mem t.rehomed vpn)) dir_entries
  in
  (* Which pages the standby already held a valid copy of, per the
     replicated image: for those, its local store is at least as fresh as
     the logged home staging copy and must not be overwritten. *)
  let standby_had = Hashtbl.create 64 in
  List.iter
    (fun (vpn, state) ->
      let recorded =
        match state with
        | Directory.Exclusive owner -> owner = new_origin
        | Directory.Shared readers -> Node_set.mem readers new_origin
      in
      (* The record alone is not enough: a grant TO the standby commits
         before its reply leaves the home, so the entry may describe a
         copy whose bytes died in flight. Only a valid local PTE proves
         the bytes arrived; otherwise the replicated image (logged, by
         append order, before that grant committed) is the fresh one. *)
      if recorded && Page_table.allows t.ptables.(new_origin) vpn Perm.Read
      then Hashtbl.replace standby_had vpn ())
    dir_entries;
  List.iter
    (fun (vpn, state) ->
      match state with
      | Directory.Exclusive owner ->
          if owner <> old && not (Fabric.crash_detected t.fabric ~node:owner)
          then Directory.set_exclusive dir vpn owner
          (* else: the entry is dropped and the page reverts to implicit
             Exclusive new_origin — it re-homes to the promoted standby,
             whose store holds the replicated data. Same linearizability
             argument as reclaim_node: whatever the dead home wrote
             since the last logged snapshot was observed by nobody. *)
      | Directory.Shared readers ->
          let live =
            List.filter
              (fun n ->
                n <> old && not (Fabric.crash_detected t.fabric ~node:n))
              (Node_set.to_list readers)
          in
          Directory.set_shared dir vpn (Node_set.of_list (new_origin :: live)))
    dir_entries;
  List.iter
    (fun (vpn, data) ->
      if not (Hashtbl.mem standby_had vpn) then
        Page_store.install t.stores.(new_origin) vpn data)
    page_data;
  (* The replication observer follows the authoritative directory —
     installed only now, so the rebuild above is not itself re-logged
     (the HA layer re-snapshots when it re-arms towards a new standby). *)
  Directory.set_observer dir (Directory.observer t.dirs.(shard));
  Directory.set_observer t.dirs.(shard) None;
  (* The dead home's local state is unreachable hardware now. *)
  t.ptables.(old) <- Page_table.create ();
  t.stores.(old) <- Page_store.create ();
  t.dirs.(shard) <- dir;
  t.homes.(shard) <- new_origin;
  t.epochs.(shard) <- t.epochs.(shard) + 1;
  t.home_view.(new_origin).(shard) <- new_origin;
  t.epoch_view.(new_origin).(shard) <- t.epochs.(shard);
  Stats.incr t.stats "ha.promotions";
  if t.nshards > 1 then Stats.incr t.stats "shard.promotions"

(* Second half of the failover: fence every survivor into the shard's new
   epoch. Each one gets the list of (page, strongest access) the promoted
   directory still vouches for on it and zaps the rest of the shard. Runs
   in the promotion fiber, before the resolver releases stalled
   requesters, so no survivor can fault against the new home with
   unreconciled state. *)
let fence_survivors t ~shard =
  let n = node_count t in
  let home = t.homes.(shard) in
  let keeps = Array.make n [] in
  Directory.iter t.dirs.(shard) (fun vpn state ->
      match state with
      | Directory.Exclusive owner ->
          if owner <> home then
            keeps.(owner) <- (vpn, Perm.Write) :: keeps.(owner)
      | Directory.Shared readers ->
          List.iter
            (fun r ->
              if r <> home then keeps.(r) <- (vpn, Perm.Read) :: keeps.(r))
            (Node_set.to_list readers));
  let jobs = ref [] in
  let src = home in
  for node = n - 1 downto 0 do
    if node <> home && not (Fabric.crash_detected t.fabric ~node) then
      jobs :=
        (fun () ->
          match
            Fabric.call t.fabric ~src ~dst:node
              ~kind:Messages.kind_epoch_fence
              ~size:
                (t.cfg.Proto_config.ctl_msg_size
                + (8 * List.length keeps.(node)))
              (Messages.Epoch_fence
                 {
                   pid = t.pid;
                   shard;
                   epoch = t.epochs.(shard);
                   keep = keeps.(node);
                 })
          with
          | Messages.Epoch_fence_ack { missing; _ } ->
              (* The survivor holds none of these despite the replicated
                 directory vouching for them: the grant reply died with
                 the old home. Demote the entries — the page re-homes to
                 the promoted home, whose store carries the replicated
                 image (logged, by append order, before the ownership
                 transition committed). The survivor's retried fault then
                 gets a fresh data grant. *)
              List.iter
                (fun vpn ->
                  Stats.incr t.stats "ha.fence_demoted";
                  match Directory.state t.dirs.(shard) vpn with
                  | Directory.Exclusive owner when owner = node ->
                      Directory.forget t.dirs.(shard) vpn
                  | Directory.Shared readers when Node_set.mem readers node ->
                      let rest = Node_set.remove readers node in
                      if Node_set.is_empty rest then
                        Directory.forget t.dirs.(shard) vpn
                      else Directory.set_shared t.dirs.(shard) vpn rest
                  | _ -> ())
                missing
          | _ -> failwith "Coherence: unexpected fence reply"
          | exception Fabric.Unreachable _ -> crash_escalate t ~src ~target:node)
        :: !jobs
  done;
  fanout t ~label:"epoch-fence" !jobs;
  Stats.incr t.stats "ha.epoch_fences"

(* ------------------------------------------------------------------ *)
(* Invariant checking (tests).                                         *)

let check_entry_invariants t vpn state =
  match state with
  | Directory.Exclusive owner ->
      Array.iteri
        (fun node pt ->
          match Page_table.get pt vpn with
          | Some Perm.Write when node <> owner ->
              failwith
                (Printf.sprintf
                   "Coherence: node %d has Write PTE on page %d owned by %d"
                   node vpn owner)
          | Some Perm.Read when node <> owner ->
              failwith
                (Printf.sprintf
                   "Coherence: node %d has Read PTE on page %d exclusively \
                    owned by %d"
                   node vpn owner)
          | _ -> ())
        t.ptables
  | Directory.Shared readers ->
      Array.iteri
        (fun node pt ->
          match Page_table.get pt vpn with
          | Some Perm.Write ->
              failwith
                (Printf.sprintf
                   "Coherence: node %d has Write PTE on shared page %d" node
                   vpn)
          | Some Perm.Read when not (Node_set.mem readers node) ->
              failwith
                (Printf.sprintf
                   "Coherence: node %d has stale Read PTE on page %d" node vpn)
          | _ -> ())
        t.ptables

let check_invariants t =
  Array.iteri
    (fun shard dir ->
      Directory.check_invariants dir;
      Directory.iter dir (fun vpn state ->
          if shard_of t vpn <> shard then
            failwith
              (Printf.sprintf
                 "Coherence: page %d tracked by shard %d but homed in shard \
                  %d"
                 vpn shard (shard_of t vpn));
          if Hashtbl.mem t.rehomed vpn then
            failwith
              (Printf.sprintf
                 "Coherence: re-homed page %d still tracked by its shard \
                  directory"
                 vpn);
          check_entry_invariants t vpn state))
    t.dirs;
  (* Re-home overlay state: a re-homed page is tracked at its target (and
     nowhere else), every overlay entry is accounted for in the re-home
     table, and overlay entries obey the same PTE discipline. *)
  Hashtbl.iter
    (fun vpn target ->
      if not (Directory.is_tracked t.rehome_dirs.(target) vpn) then
        failwith
          (Printf.sprintf
             "Coherence: page %d re-homed to node %d but not tracked there"
             vpn target))
    t.rehomed;
  Array.iteri
    (fun target dir ->
      Directory.check_invariants dir;
      Directory.iter dir (fun vpn state ->
          if Hashtbl.find_opt t.rehomed vpn <> Some target then
            failwith
              (Printf.sprintf
                 "Coherence: node %d's overlay directory tracks page %d \
                  without a re-home record"
                 target vpn);
          check_entry_invariants t vpn state))
    t.rehome_dirs
