open Dex_sim
open Dex_mem
module Fabric = Dex_net.Fabric
module Msg = Dex_net.Msg
module Ha = Dex_ha.Ha
module Log_entry = Dex_ha.Log_entry

(* Handles on the counters the fault, grant and revoke paths bump once per
   fault or message, so those bumps skip the name lookup. *)
type counters = {
  fault_minor : Stats.counter;
  fault_coalesced : Stats.counter;
  fault_retry : Stats.counter;
  fault_read : Stats.counter;
  fault_write : Stats.counter;
  grant_nack : Stats.counter;
  grant_data : Stats.counter;
  grant_nodata : Stats.counter;
  revoke_invalidate : Stats.counter;
  revoke_downgrade : Stats.counter;
}

let counters stats =
  let c = Stats.counter stats in
  {
    fault_minor = c "fault.minor";
    fault_coalesced = c "fault.coalesced";
    fault_retry = c "fault.retry";
    fault_read = c "fault.read";
    fault_write = c "fault.write";
    grant_nack = c "grant.nack";
    grant_data = c "grant.data";
    grant_nodata = c "grant.nodata";
    revoke_invalidate = c "revoke.invalidate";
    revoke_downgrade = c "revoke.downgrade";
  }

type t = {
  fabric : Fabric.t;
  engine : Engine.t;
  authority : Authority.t;
      (* which node serves each page, from which directory: per-shard
         homes and directories, the origin's epoch and node views, plus
         the autopilot's per-page re-homes and the futex layer's pins *)
  shard_grants : int array;  (* shard -> grants served, the load vector *)
  pid : int;
  cfg : Proto_config.t;
  ptables : Page_table.t array;
  stores : Page_store.t array;
  ftables : Fault_table.t array;
  rngs : Rng.t array;  (* per-node backoff jitter *)
  stats : Stats.t;
  counters : counters;  (* handles into [stats] *)
  fault_latencies : Histogram.t;
  mutable tracer : (Fault_event.t -> unit) option;
  ha : Ha.t;  (* origin replication; disabled from the start with no standbys *)
  service : Resource.Server.t array option;
      (* per-node handler occupancy when [serial_home_service] is on:
         requests at one home queue behind each other instead of
         overlapping (1 "byte" = 1 ns of handler time) *)
  replicate_hint : (Page.vpn, unit) Hashtbl.t;
      (* pages marked replicate-don't-invalidate by the autopilot *)
  push_subs : (Page.vpn, int list) Hashtbl.t;
      (* marked page -> readers invalidated by the last write grant, owed
         an unsolicited copy when the page next returns to Shared *)
}

let authority t = t.authority
let shard_load t = Array.copy t.shard_grants
let replicate_marked t vpn = Hashtbl.mem t.replicate_hint vpn

(* --- fail-stop reclaim ---------------------------------------------- *)

(* Scrub a dead node out of one directory. Ownership re-homes to the
   directory's home, whose last-known (staging) copy it then serves.
   Whatever the dead node wrote since its grant was observed by nobody —
   any reader would have pulled the data back through the home first — so
   dropping those writes is linearizable: it is as if they never executed.
   Runs synchronously from the failure declaration (the process's crash
   handler), possibly while grant fibers are blocked mid-fan-out with
   directory locks held — the one change {!Directory.step} lets through a
   lock, because every transition those fibers later apply re-checks the
   requester's liveness and filters dead nodes out of the membership it
   installs, so the scrub can never be undone by an in-flight grant. *)
let scrub_dir t ~dir ~node =
  (* Snapshot first: the scrub mutates the directory while iterating. *)
  let vpns = ref [] in
  Directory.iter dir (fun vpn _ -> vpns := vpn :: !vpns);
  List.iter
    (fun vpn ->
      match Directory.apply dir vpn (Drop { node; dead = true }) with
      | Dropped (Owner, _) -> Stats.incr t.stats "crash.pages_reclaimed"
      | Dropped (Reader, _) -> Stats.incr t.stats "crash.readers_scrubbed"
      | _ -> ())
    !vpns

let restore ?holder dir vpn state =
  ignore (Directory.apply dir ?holder vpn (Restore state))

(* Undo every autopilot re-home whose target just died: the authority of
   each affected page falls back to its static shard home, with the entry
   rebuilt from the surviving PTEs — a live writer keeps exclusivity, live
   readers keep a Shared set, and a page nobody else holds reverts to
   implicit exclusive-at-home (its staging copy was kept fresh by the
   grant-path mirror, so nothing observed is lost — the same
   linearizability argument as scrub_dir). *)
let rehome_fallback t ~node =
  List.iter
    (fun vpn ->
      let dir = (Authority.route t.authority vpn).dir in
      let writer = ref None and readers = ref [] in
      Array.iteri
        (fun n pt ->
          if n <> node && not (Fabric.crash_detected t.fabric ~node:n) then
            match Page_table.get pt vpn with
            | Some Perm.Write -> writer := Some n
            | Some Perm.Read -> readers := n :: !readers
            | None -> ())
        t.ptables;
      (match (!writer, !readers) with
      | Some w, _ -> restore dir vpn (Some (Exclusive w))
      | None, (_ :: _ as rs) ->
          restore dir vpn (Some (Shared (Node_set.of_list rs)))
      | None, [] -> ());
      Stats.incr t.stats "autopilot.fallbacks")
    (Authority.fall_back t.authority ~node)

(* Repair the ownership metadata for a dead node, synchronously from the
   failure declaration and before requesters retry: scrub it out of every
   directory served elsewhere, then fall back the pages re-homed to it.
   The origin's directory is the HA layer's to rebuild (the process's
   crash handler queues its promotion fiber next); unless replication is
   armed, the death of any shard home is fatal — this is the one place
   that refuses it. With no re-homes the overlay pass is a no-op: no
   stats, no events. *)
let reclaim_node t ~node =
  let homed = Authority.homed_at t.authority node in
  (match homed with
  | [] -> Stats.incr t.stats "crash.nodes"
  | _ when Ha.armed t.ha -> ()
  | 0 :: _ ->
      failwith
        "Coherence: the origin fail-stopped — no recovery possible (the \
         directory and the delegated services died with it)"
  | _ :: _ ->
      failwith
        "Coherence: a home node fail-stopped with no replication armed — \
         its shard's directory died with it");
  Authority.iter_dirs t.authority (fun r ->
      if r.node <> node then scrub_dir t ~dir:r.dir ~node);
  rehome_fallback t ~node;
  if homed = [] then begin
    (* Wholesale amnesia on the dead node's local state. Its fault table
       is deliberately NOT dropped: leader fibers still parked there
       unwind through the Unreachable path and retire their entries, which
       lets the coalesced followers drain instead of deadlocking. *)
    t.ptables.(node) <- Page_table.create ();
    t.stores.(node) <- Page_store.create ()
  end

let create ?(cfg = Proto_config.default) ?(seed = 1) ?(pid = 0) fabric ~origin
    =
  let engine = Fabric.engine fabric in
  let n = Fabric.node_count fabric in
  if origin < 0 || origin >= n then invalid_arg "Coherence.create: bad origin";
  let authority =
    Authority.create ~sharding:cfg.Proto_config.sharding ~origin ~nodes:n
  in
  let nshards = Authority.shard_count authority in
  let rng = Rng.create ~seed in
  let stats = Stats.create () in
  let standbys = cfg.Proto_config.standbys in
  (* Replication protects the origin only: with more shards, a non-origin
     home's death would still be fatal. An empty replica set arms an
     instance with no replication state: replication off. *)
  if standbys <> [] && nshards > 1 then
    invalid_arg "Coherence.create: replication needs one shard";
  let ha =
    Ha.arm ~engine ~fabric ~stats ~pid ~mode:cfg.Proto_config.replication
      ~origin ~standbys
  in
  let t =
    {
      fabric;
      engine;
      authority;
      shard_grants = Array.make nshards 0;
      pid;
      cfg;
      ptables = Array.init n (fun _ -> Page_table.create ());
      stores = Array.init n (fun _ -> Page_store.create ());
      ftables = Array.init n (fun _ -> Fault_table.create engine);
      rngs = Array.init n (fun _ -> Rng.split rng);
      stats;
      counters = counters stats;
      fault_latencies = Histogram.create ();
      tracer = None;
      ha;
      service =
        (if cfg.Proto_config.serial_home_service then
           Some
             (Array.init n (fun _ ->
                  Resource.Server.create engine ~bytes_per_us:1000.0))
         else None);
      replicate_hint = Hashtbl.create 16;
      push_subs = Hashtbl.create 16;
    }
  in
  if nshards > 1 then Stats.add t.stats "shard.homes" nshards;
  (* Every mutation of the origin directory streams to the standbys.
     Promotion moves the observer to the rebuilt directory. Without
     standbys there is none, so no mutation builds a log entry. *)
  if Ha.configured ha then
    Directory.set_observer
      (Authority.directory authority ~shard:0)
      (Some
         (fun vpn state ->
           Ha.append ha
             (match state with
             | Some s -> Log_entry.Dir_set { vpn; state = s }
             | None -> Log_entry.Dir_forget { vpn })));
  t

let cfg t = t.cfg
let node_count t = Array.length t.ptables
let page_table t ~node = t.ptables.(node)
let page_store t ~node = t.stores.(node)
let stats t = t.stats
let ha t = t.ha
let fault_latencies t = t.fault_latencies
let set_tracer t tracer = t.tracer <- tracer

let commit_fence t = Ha.fence t.ha

(* Handler occupancy at a home node. The default charges a plain delay —
   concurrent handlers overlap freely. With [serial_home_service] the
   home's handler is one service loop (1 "byte" = 1 ns): concurrent
   requests at the same home queue, and a lone overloaded origin
   saturates — which is what sharding spreads across homes. *)
let home_service t ~node d =
  match t.service with
  | None -> Engine.delay t.engine d
  | Some servers -> Resource.Server.transfer servers.(node) ~bytes:d

(* Only ship real bytes for pages the typed API materialized; the wire
   cost of a full page is charged regardless (see grant sizes). *)
let snapshot_if_materialized store vpn =
  if Page_store.mem store vpn then Some (Page_store.snapshot store vpn)
  else None

(* Feed a mutation of a home's staging store to the replication log:
   home-local dirtying never crosses the wire, so the directory observer
   cannot see it; ship the origin's fresh bytes. No-op (one state test,
   no snapshot) unless replication is armed. *)
let origin_store_mutated t vpn =
  if Ha.armed t.ha then
    let store = t.stores.(Authority.home t.authority ~shard:0) in
    match snapshot_if_materialized store vpn with
    | Some data -> Ha.append t.ha (Log_entry.Page_data { vpn; data })
    | None -> ()

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
   resumes, the origin may already be the promoted standby. *)
let crash_escalate t ~src ~target =
  if Fabric.crashed t.fabric ~node:src then raise Origin_dead;
  Stats.incr t.stats "crash.escalations";
  Fabric.crash t.fabric ~node:target;
  Fabric.declare_dead t.fabric ~node:target

(* Ask [target] to surrender its copy of [vpn]; returns the page data if
   [want_data] and the target had it materialized, with whether the target
   handed its buffer over private ({!Messages.Revoke_ack}). Crash-safe: a
   target already declared dead is skipped, one that dies mid-revocation
   is escalated — either way the revocation counts as acked without
   data. *)
let revoke_rpc t ~home ~target ~vpn ~mode ~want_data =
  if Fabric.crash_detected t.fabric ~node:target then begin
    Stats.incr t.stats "crash.revokes_skipped";
    None
  end
  else begin
    Stats.bump
      (match mode with
      | Messages.Invalidate -> t.counters.revoke_invalidate
      | Messages.Downgrade -> t.counters.revoke_downgrade)
      1;
    let src = home in
    match
      Fabric.call t.fabric ~src ~dst:target ~pid:t.pid
        ~kind:Messages.kind_revoke ~size:t.cfg.Proto_config.ctl_msg_size
        (Messages.Revoke
           { vpn; mode; want_data; epoch = Authority.epoch t.authority })
    with
    | Messages.Revoke_ack { data = Some data; owned } -> Some (data, owned)
    | Messages.Revoke_ack { data = None; _ } -> None
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
let revoke_parallel t ~home targets ~vpn =
  if not (Node_set.is_empty targets) then
    fanout t ~label:"revoke"
      (List.map
         (fun target () ->
           ignore
             (revoke_rpc t ~home ~target ~vpn ~mode:Messages.Invalidate
                ~want_data:false))
         (Node_set.to_list targets))

(* Ship a re-homed page's current bytes back to its static shard home,
   keeping the staging copy there fresh: crash fallback rebuilds the entry
   at the shard home, whose store must cover everything any survivor has
   observed. Called exactly when the serving home [src] externalizes data
   ([shipped]; a no-op otherwise or unless the page is re-homed), so
   home-local traffic on a re-homed page stays message-free. The shipment
   is a snapshot of [src]'s store, which holds the data just externalized:
   both stores then share one buffer, even one [src] had adopted private. *)
let mirror_to_static t ~src ~vpn ~shipped =
  let dst = Authority.home_of t.authority vpn in
  if shipped && src <> dst && not (Fabric.crash_detected t.fabric ~node:dst)
  then begin
    Stats.incr t.stats "autopilot.mirrors";
    let data = Page_store.snapshot t.stores.(src) vpn in
    match
      Fabric.call t.fabric ~src ~dst ~pid:t.pid ~kind:Messages.kind_page_sync
        ~size:t.cfg.Proto_config.page_msg_size
        (Messages.Page_sync { vpn; data })
    with
    | Messages.Page_sync_ack -> ()
    | _ -> failwith "Coherence: unexpected sync reply"
    | exception Fabric.Unreachable _ -> crash_escalate t ~src ~target:dst
  end

(* Pull fresh page data back to the home from the current exclusive
   owner, downgrading or invalidating its copy.

   With a replica set configured (even one since lost), an invalidating
   reclaim goes in two phases: downgrade the owner (it keeps a read copy),
   replicate the pulled-back data, and only then invalidate. Destroying
   the owner's only copy before the standby acked the bytes would open an
   un-failover-able window — a home crash in it would roll the page
   back to the last replicated image even in `Sync mode. The page stays
   directory-locked throughout, so no write can sneak into the gap. *)
let reclaim_from_owner t ~home ~owner ~vpn ~mode =
  if owner = home then revoke_local t ~home ~vpn ~mode
  else begin
    let two_phase = Ha.configured t.ha && mode = Messages.Invalidate in
    let first = if two_phase then Messages.Downgrade else mode in
    let data =
      revoke_rpc t ~home ~target:owner ~vpn ~mode:first ~want_data:true
    in
    (match data with
    | Some (data, true) -> Page_store.adopt t.stores.(home) vpn data
    | Some (data, false) -> Page_store.install t.stores.(home) vpn data
    | None -> ());
    let shipped = Option.is_some data in
    (* Re-homed page: refresh the static staging copy before the HA hook
       snapshots it, so the log never ships stale bytes. *)
    mirror_to_static t ~src:home ~vpn ~shipped;
    if shipped then origin_store_mutated t vpn;
    if two_phase then begin
      Stats.incr t.stats "ha.two_phase_reclaims";
      commit_fence t;
      ignore
        (revoke_rpc t ~home ~target:owner ~vpn ~mode:Messages.Invalidate
           ~want_data:false)
    end
  end

(* The core ownership transition. Must run at the page's serving home; may
   block on revocations. Returns [`Nack] when the page is busy. *)
let requester_gone t ~home ~requester =
  requester <> home && Fabric.crash_detected t.fabric ~node:requester

(* Per-shard load accounting, live only with more than one shard: grants
   served at the home for requesters co-located with it vs remote ones. *)
let note_shard_grant t ~shard ~home ~requester =
  if Authority.shard_count t.authority > 1 then begin
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
  if (not (Node_set.is_empty nodes)) && Hashtbl.mem t.replicate_hint vpn
  then begin
    let prev = Option.value ~default:[] (Hashtbl.find_opt t.push_subs vpn) in
    Hashtbl.replace t.push_subs vpn
      (List.sort_uniq compare (Node_set.to_list nodes @ prev))
  end

(* Push unsolicited read copies of a replicate-marked page to the readers
   its last write grant displaced. Runs under the page's directory lock,
   right after a read grant returned the page to [Shared] — the home's
   staging copy is fresh at exactly that point. Victims may decline (stale
   epoch); the accepted ones join the Shared set so the next write revokes
   them normally. *)
let push_replicas t ~home ~dir ~lock ~vpn ~requester =
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
            (* One image, taken now, shared by every target. *)
            let data = snapshot_if_materialized t.stores.(home) vpn in
            let accepted = ref [] in
            fanout t ~label:"push"
              (List.map
                 (fun target () ->
                   match
                     Fabric.call t.fabric ~src:home ~dst:target ~pid:t.pid
                       ~kind:Messages.kind_page_push
                       ~size:t.cfg.Proto_config.page_msg_size
                       (Messages.Page_push
                          { vpn; data; epoch = Authority.epoch t.authority })
                   with
                   | Messages.Page_push_ack { accepted = ok } ->
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
              ignore (Directory.apply dir ?holder:lock vpn (Join live))
            end
          end)

(* The grant proper, under the page's lock ([lock], as {!Directory.try_lock}
   returned it): plan the transition, carry out its revocations, then
   install the planned state. *)
let grant_locked t ~home ~dir ~lock ~requester ~vpn ~access =
  (* The home itself may have a fault in flight on this page (granted but
     not yet retired); revoking its copy underneath it would lose the
     pending update. Remote owners get the same protection in their
     Revoke handler. *)
  if requester <> home then Fault_table.await_idle t.ftables.(home) ~vpn;
  let nodata = t.cfg.Proto_config.grant_without_data in
  match
    Directory.apply dir ?holder:lock vpn
      (Grant { requester; access; home; nodata })
  with
  | Plan { reclaim; revoke; invalidate_home; displaced; ships_data; next } ->
      (match reclaim with
      | Nobody -> ()
      | Downgrade owner ->
          reclaim_from_owner t ~home ~owner ~vpn ~mode:Messages.Downgrade
      | Invalidate owner ->
          reclaim_from_owner t ~home ~owner ~vpn ~mode:Messages.Invalidate);
      revoke_parallel t ~home revoke ~vpn;
      if invalidate_home then
        revoke_local t ~home ~vpn ~mode:Messages.Invalidate;
      note_push_subs t ~vpn displaced;
      (match next with
      | Some (Shared readers) when reclaim <> Nobody ->
          (* The reclaim may have escalated a node to a declared crash
             after the plan was made: leave the dead out of the readers. *)
          let live = ref readers in
          for node = 0 to node_count t - 1 do
            if Fabric.crash_detected t.fabric ~node then
              live := Node_set.remove !live node
          done;
          restore ?holder:lock dir vpn (Some (Shared !live))
      | None -> ()
      | next -> restore ?holder:lock dir vpn next);
      let data =
        if ships_data then snapshot_if_materialized t.stores.(home) vpn
        else None
      in
      (* Both extras below can block; they run before the ghost re-check
         so a requester dying under them is still caught. *)
      mirror_to_static t ~src:home ~vpn ~shipped:(Option.is_some data);
      if access = Perm.Read then
        push_replicas t ~home ~dir ~lock ~vpn ~requester;
      if requester_gone t ~home ~requester then begin
        (* The requester's failure was declared while we were blocked in
           the fan-out, i.e. after the reclaim pass already scrubbed the
           directory; the transition just applied may have reintroduced
           the ghost. Undo it: ownership falls back to the home. *)
        Stats.incr t.stats "crash.grants_refused";
        ignore
          (Directory.apply dir ?holder:lock vpn
             (Drop { node = requester; dead = true }));
        `Nack
      end
      else begin
        Stats.bump
          (if ships_data then t.counters.grant_data
           else t.counters.grant_nodata)
          1;
        note_shard_grant t ~shard:(Authority.shard_of t.authority vpn) ~home
          ~requester;
        `Grant (data, ships_data)
      end
  | _ -> failwith "Coherence: a grant under its own lock was refused"

(* Decide a request at the page's serving home, against the route resolved
   when the request was admitted — before the handler delay. *)
let origin_grant t ~(route : Authority.route) ~requester ~vpn ~access =
  let home = route.node and dir = route.dir in
  if requester_gone t ~home ~requester then begin
    (* The requester died between sending the request and being serviced:
       granting would hand a page to a ghost and leave it dangling in the
       directory forever. *)
    Stats.incr t.stats "crash.grants_refused";
    `Nack
  end
  else
    match Directory.try_lock dir vpn with
    | None ->
        Stats.bump t.counters.grant_nack 1;
        `Nack
    | Some _ as lock when (Authority.route t.authority vpn).dir != dir ->
        (* The page's authority moved (re-home, fallback or promotion)
           between admission and lock: this directory no longer speaks for
           it, and the lock just taken may even have auto-created a fresh
           entry here. Drop the bogus entry wholesale and NACK — the
           requester's retry re-steers to the new home. *)
        restore ?holder:lock dir vpn None;
        Stats.bump t.counters.grant_nack 1;
        `Nack
    | Some holder as lock -> (
        (* The revocation fan-out can raise (and, under crashes, the
           escalation path can run arbitrary recovery); the lock must
           never outlive this fiber either way. *)
        match grant_locked t ~home ~dir ~lock ~requester ~vpn ~access with
        | granted ->
            Directory.unlock dir holder;
            granted
        | exception e ->
            Directory.unlock dir holder;
            raise e)

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

   With a replica set configured, a dead home is a different story:
   exhaust-the-budget IS the failure detector (escalate an undeclared
   crash), then stall in the resolver until the standby is promoted,
   adopt the new home address, and retry there — the thread sees a
   long fault, never an abort. *)
let request_failure t ~node ~dst ~steered =
  if Fabric.crashed t.fabric ~node then `Reraise
  else begin
    (* An unreachable re-home target is escalated too — exhausting the
       budget IS the failure detector here as well — so the fallback pass
       runs and the retry resolves at the page's shard home. A
       live-but-slow target keeps the page and is simply retried. *)
    if
      (steered || Ha.configured t.ha)
      && Fabric.crashed t.fabric ~node:dst
      && not (Fabric.crash_detected t.fabric ~node:dst)
    then begin
      Stats.incr t.stats "crash.escalations";
      Fabric.declare_dead t.fabric ~node:dst
    end;
    if steered || not (Fabric.crash_detected t.fabric ~node:dst) then begin
      Stats.incr t.stats "crash.requester_retries";
      `Nack
    end
    else
      match Ha.resolve t.ha with
      | Some o ->
          (Authority.view t.authority ~node).home <- o;
          Stats.incr t.stats "ha.stalled_faults";
          `Nack
      | None -> `Reraise
  end

(* Send one [Page_request] for [vpn] from [node], which is not the page's
   home per [route], and return the reply. A re-homed page is steered
   straight to its re-home target (the re-home decision costs no messages,
   so every node learns it at once), and a page of any other shard than 0
   straight to its shard home, which never moves; shard 0's pages go to
   the node's view of the origin, the one home a failover can move.
   [None] when the call failed in a way the fault loop retries
   ({!request_failure}). *)
let page_request t ~node ~(route : Authority.route) ~vpn ~access =
  let view = Authority.view t.authority ~node in
  let steered = Option.is_none route.shard && route.node <> node in
  (* Backstop against a view pointing at ourselves (we just stopped
     being the page's home): resolve the live authority directly. *)
  let dst =
    match route.shard with
    | Some 0 when view.home <> node -> view.home
    | _ -> route.node
  in
  match
    Fabric.call t.fabric ~src:node ~dst ~pid:t.pid
      ~kind:Messages.kind_page_request ~size:t.cfg.Proto_config.ctl_msg_size
      (Messages.Page_request { vpn; access; epoch = view.epoch })
  with
  | reply -> Some reply
  | exception (Fabric.Unreachable _ as e) -> (
      match request_failure t ~node ~dst ~steered with
      | `Nack -> None
      | `Reraise -> raise e)

(* One protocol attempt as the fault leader. *)
let request_once t ~node ~vpn ~access =
  let route = Authority.route t.authority vpn in
  if node = route.node then begin
    Engine.delay t.engine t.cfg.Proto_config.local_op;
    match origin_grant t ~route ~requester:node ~vpn ~access with
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
    match page_request t ~node ~route ~vpn ~access with
    | None | Some Messages.Page_nack -> `Nack
    | Some (Messages.Page_stale { epoch }) ->
        (* Failover happened while we still addressed the old epoch: adopt
           the new one and retry — the view already points at whoever
           answered. *)
        (Authority.view t.authority ~node).epoch <- epoch;
        `Nack
    | Some (Messages.Page_redirect _) ->
        (* The page's authority moved while the request was in flight;
           the retry steers by the current authority table. *)
        Stats.incr t.stats "autopilot.resteers";
        `Nack
    | Some (Messages.Page_grant { data }) ->
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
    let t0 = Engine.now t.engine in
    let retries = ref 0 in
    let was_leader = ref false in
    let rec loop () =
      if Page_table.allows pt vpn access then ()
      else if
        let route = Authority.route t.authority vpn in
        node = route.node && not (Directory.is_tracked route.dir vpn)
      then begin
        (* Cold anonymous page at its home: plain minor fault, the
           protocol is not involved. *)
        Engine.delay t.engine t.cfg.Proto_config.local_op;
        Page_table.set pt vpn access;
        Stats.bump t.counters.fault_minor 1
      end
      else begin
        Engine.delay t.engine t.cfg.Proto_config.fault_entry;
        match Fault_table.enter t.ftables.(node) ~vpn ~access with
        | Fault_table.Follower when t.cfg.Proto_config.coalesce_faults ->
            Stats.bump t.counters.fault_coalesced 1;
            Engine.delay t.engine t.cfg.Proto_config.follower_resume;
            loop ()
        | Fault_table.Follower ->
            (* Coalescing disabled (ablation): each concurrent fault runs
               its own protocol request, and — as in the paper's
               description of stock Linux — the prepared page is simply
               discarded because the PTE changed under it. *)
            Stats.incr t.stats "fault.duplicate";
            let route = Authority.route t.authority vpn in
            if node <> route.node then
              (* The duplicate's result is discarded anyway; a timeout
                 toward the live home is not worth aborting for, and a
                 dead home just means waiting out the failover. *)
              ignore (page_request t ~node ~route ~vpn ~access)
            else Engine.delay t.engine t.cfg.Proto_config.local_op;
            loop ()
        | Fault_table.Conflict -> loop ()
        | Fault_table.Leader -> (
            was_leader := true;
            match request_once t ~node ~vpn ~access with
            | `Granted ->
                Engine.delay t.engine t.cfg.Proto_config.pte_update;
                ignore (Fault_table.finish t.ftables.(node) ~vpn)
            | `Nack ->
                Stats.bump t.counters.fault_retry 1;
                incr retries;
                ignore (Fault_table.finish t.ftables.(node) ~vpn);
                backoff t ~node ~attempt:!retries;
                loop ()
            | exception e ->
                (* This node crashed mid-request (Unreachable). Retire the
                   fault entry before unwinding so coalesced followers wake
                   up, re-fault, and drain through the same path instead of
                   parking forever. *)
                ignore (Fault_table.finish t.ftables.(node) ~vpn);
                raise e)
      end
    in
    loop ();
    if !was_leader then begin
      let latency = Engine.now t.engine - t0 in
      Stats.bump
        (match access with
        | Perm.Read -> t.counters.fault_read
        | Perm.Write -> t.counters.fault_write)
        1;
      Histogram.add t.fault_latencies latency;
      (* The event record is built only for an installed tracer. *)
      match t.tracer with
      | None -> ()
      | Some f ->
          f
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
  if node = Authority.home_of t.authority vpn then origin_store_mutated t vpn

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
    if node = Authority.home_of t.authority vpn then
      origin_store_mutated t vpn;
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
  if node = Authority.home_of t.authority vpn then origin_store_mutated t vpn;
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
    Authority.forget t.authority vpn
  done

(* ------------------------------------------------------------------ *)
(* Placement autopilot primitives.                                     *)

(* Move a page's protocol authority to [node]: its directory entry leaves
   the current serving directory for the target's overlay directory (or
   back into the shard directory when re-homing to the static home), the
   staging copy ships over, and the authority table steers every node there.
   Faults from [node] then resolve locally — the win for ping-ponged pages
   whose dominant faulter is remote from the shard home. The entry move is
   guarded by the page's busy flag, so it serializes against grants like
   any other protocol operation ([`Busy] = try again next tick). *)
let rehome_page t ~vpn ~node =
  check_node t node "rehome_page";
  let a = t.authority in
  if Fabric.crash_detected t.fabric ~node then `Dead_target
  else begin
    let { Authority.node = cur; dir; _ } = Authority.route a vpn in
    if cur = node then `Noop
    else if Authority.pinned a vpn && node <> Authority.home_of a vpn then
      (* Pinned pages (futex words) only ever move BACK to their static
         home — the futex check-and-sleep needs home-local reads. *)
      `Noop
    else begin
      match Directory.try_lock dir vpn with
      | None ->
        Stats.incr t.stats "autopilot.rehome_busy";
        `Busy
      | Some holder ->
        (* The staging snapshot only serves a target with no current copy.
           A target already holding the page has bytes at least as fresh —
           and the exclusive owner's dirty copy is STRICTLY fresher, so
           overwriting its store would serve time-travelled reads and
           lose the owner's updates on the next externalization. *)
        let ship () =
          if Directory.has_valid_copy dir vpn node then ()
          else
            match snapshot_if_materialized t.stores.(cur) vpn with
            | None -> ()
            | Some data -> (
                match
                  Fabric.call t.fabric ~src:cur ~dst:node ~pid:t.pid
                    ~kind:Messages.kind_page_sync
                    ~size:t.cfg.Proto_config.page_msg_size
                    (Messages.Page_sync { vpn; data })
                with
                | Messages.Page_sync_ack -> ()
                | _ -> failwith "Coherence: unexpected sync reply")
        in
        match ship () with
        | exception Fabric.Unreachable _ ->
            Directory.unlock dir holder;
            if Fabric.crashed t.fabric ~node:cur then begin
              (* The shipping home died under the call (as in
                 [crash_escalate], the source is checked first): declaring
                 it falls its re-homes back to their static homes, and the
                 caller retries against that route. *)
              if not (Fabric.crash_detected t.fabric ~node:cur) then begin
                Stats.incr t.stats "crash.escalations";
                Fabric.declare_dead t.fabric ~node:cur
              end;
              `Busy
            end
            else begin
              (* The target died undetected: the shipment exhausting its
                 budget is the failure detector, same as a revoke. [cur]
                 is alive here, so the escalation pins the target. *)
              crash_escalate t ~src:cur ~target:node;
              `Dead_target
            end
        | () ->
            (* Release the busy flag, then move the entry and flip the
               routing state — no simulation event intervenes, so the
               whole move is atomic in simulated time. Every node's next
               fault on the page steers by the new route, so it goes
               straight to the new home; requests already in flight are
               answered with a redirect. *)
            Directory.unlock dir holder;
            Authority.move a vpn ~from:dir ~node (Directory.state dir vpn);
            Stats.incr t.stats "autopilot.rehomes";
            `Rehomed
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
  let a = t.authority in
  if not (Authority.pinned a vpn) then begin
    Authority.pin a vpn;
    if Option.is_none (Authority.route a vpn).shard then begin
      let home = Authority.home_of a vpn in
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
  match t.tracer with
  | None -> ()
  | Some f ->
      f
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
   newer epoch (and the sender as the new origin), refuse an older one.
   Returns [true] when the message is from a dead epoch and must be acked
   without effect — its sender no longer speaks for the pages. *)
let stale_origin_traffic t ~node ~src ~epoch =
  let view = Authority.view t.authority ~node in
  if epoch > view.epoch then begin
    view.epoch <- epoch;
    view.home <- src
  end;
  if epoch < view.epoch then begin
    Stats.incr t.stats "ha.stale_revokes";
    true
  end
  else false

let handler_unguarded t (env : Fabric.env) =
  let msg = env.Fabric.msg in
  match msg.Msg.payload with
  | Messages.Page_request { vpn; access; epoch } ->
      let route = Authority.route t.authority vpn in
      let home = route.node in
      if msg.Msg.dst <> home then begin
        (* The requester's steer is stale — the page's authority moved
           (re-home, fallback, or a fresh re-home after a fallback).
           Answer with the live address; the retry resolves there. *)
        home_service t ~node:msg.Msg.dst t.cfg.Proto_config.local_op;
        Stats.incr t.stats "autopilot.redirects";
        env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
          (Messages.Page_redirect { vpn; home })
      end
      else begin
        home_service t ~node:msg.Msg.dst t.cfg.Proto_config.origin_handler;
        let current = Authority.epoch t.authority in
        if epoch <> current then begin
          Stats.incr t.stats "ha.stale_epoch_nacks";
          env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
            (Messages.Page_stale { epoch = current })
        end
        else
          match
            origin_grant t ~route ~requester:msg.Msg.src ~vpn ~access
          with
          | `Nack ->
              env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
                Messages.Page_nack
          | `Grant (data, wire_data) ->
              (* Replicate before externalize: the ownership transition
                 must be on the standby before the requester can observe
                 it. *)
              commit_fence t;
              let size =
                if wire_data then t.cfg.Proto_config.page_msg_size
                else t.cfg.Proto_config.ctl_msg_size
              in
              env.Fabric.respond ~size (Messages.Page_grant { data })
      end;
      true
  | Messages.Revoke { vpn; mode; want_data; epoch } ->
      let node = msg.Msg.dst in
      if stale_origin_traffic t ~node ~src:msg.Msg.src ~epoch then begin
        env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
          (Messages.Revoke_ack { data = None; owned = false })
      end
      else begin
        (* A fault in flight on this page must complete before the
           revocation applies, or PTE updates would interleave. *)
        Fault_table.await_idle t.ftables.(node) ~vpn;
        Engine.delay t.engine t.cfg.Proto_config.invalidate_handler;
        let store = t.stores.(node) in
        let reply =
          match mode with
          | _ when not want_data ->
              Messages.Revoke_ack { data = None; owned = false }
          | Messages.Downgrade ->
              Messages.Revoke_ack
                { data = snapshot_if_materialized store vpn; owned = false }
          | Messages.Invalidate -> (
              (* The copy is dropped below anyway: hand its buffer over
                 instead of an image of it, private if it was. *)
              match Page_store.take store vpn with
              | Some (data, owned) ->
                  Messages.Revoke_ack { data = Some data; owned }
              | None -> Messages.Revoke_ack { data = None; owned = false })
        in
        apply_invalidation t ~node ~vpn ~mode;
        let size =
          if want_data then t.cfg.Proto_config.page_msg_size
          else t.cfg.Proto_config.ctl_msg_size
        in
        env.Fabric.respond ~size reply
      end;
      true
  | Messages.Epoch_fence { keep } ->
      let node = msg.Msg.dst in
      Engine.delay t.engine t.cfg.Proto_config.invalidate_handler;
      (* Reconcile local copies against what the promoted replica still
         vouches for. Under `Sync replication the
         keep list covers every copy and nothing is zapped; under `Async
         the zapped pages are exactly the lost log suffix. Deliberately
         does NOT wait on local fault entries: their leaders are parked on
         the dead home and drain through the resolver — a grant from the
         new home is authoritative over anything zapped here. *)
      let entries = ref [] in
      (* Only pages the origin directory serves: re-homed ones are vouched
         for by their live overlay directory, not the promoted replica —
         the fence must not zap them. *)
      Page_table.iter t.ptables.(node) (fun vpn access ->
          if Option.is_some (Authority.route t.authority vpn).shard then
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
        (Messages.Epoch_fence_ack { missing });
      true
  | Messages.Page_sync { vpn; data } ->
      (* Page-content shipment outside the grant path: install into the
         destination's store; at the static shard home this refreshes the
         staging copy and feeds the HA log. *)
      let node = msg.Msg.dst in
      Engine.delay t.engine t.cfg.Proto_config.local_op;
      Page_store.install t.stores.(node) vpn data;
      if node = Authority.home_of t.authority vpn then
        origin_store_mutated t vpn;
      env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
        Messages.Page_sync_ack;
      true
  | Messages.Page_push { vpn; data; epoch } ->
      let node = msg.Msg.dst in
      (* An in-flight fault is NOT a reason to decline: the pusher
         holds the page's directory lock, so that fault can only be in
         its NACK-retry loop — and the retry re-validates local
         permissions, so installing here retires it without another
         grant round trip. (That is the push's whole payoff when a write
         storm displaces every reader at once.) *)
      let accepted =
        not (stale_origin_traffic t ~node ~src:msg.Msg.src ~epoch)
      in
      if accepted then begin
        Engine.delay t.engine t.cfg.Proto_config.pte_update;
        Option.iter (Page_store.install t.stores.(node) vpn) data;
        Page_table.set t.ptables.(node) vpn Perm.Read
      end;
      env.Fabric.respond ~size:t.cfg.Proto_config.ctl_msg_size
        (Messages.Page_push_ack { accepted });
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
   the origin's directory. Runs in the promotion fiber on the standby,
   after the old origin's failure was declared (so crash_detected filters
   the dead out of the rebuilt membership). [dir_entries] is the replica
   directory snapshot, [page_data] the replicated origin-store
   contents. *)
let promote t ~new_origin ~dir_entries ~page_data =
  let a = t.authority in
  let old = Authority.home a ~shard:0 in
  if new_origin = old then invalid_arg "Coherence.promote: origin unchanged";
  if Fabric.crashed t.fabric ~node:new_origin then
    invalid_arg "Coherence.promote: standby is dead";
  let dir = Directory.create ~origin:new_origin in
  (* Only pages the origin directory serves: a page re-homed to a live
     overlay directory keeps its authority there. Under [`Async]
     replication the Dir_forget of its move may sit in the lost log
     suffix, so the replica image can still carry the entry — resurrecting
     it here would fork the page's authority. *)
  let served vpn = Option.is_some (Authority.route a vpn).shard in
  let dir_entries = List.filter (fun (vpn, _) -> served vpn) dir_entries in
  (* Whether [state] records a copy at the standby. The record alone is
     not enough: a grant TO the standby commits before its reply leaves
     the home, so the entry may describe a copy whose bytes died in
     flight. Only a valid local PTE proves the bytes arrived. *)
  let holds vpn state =
    (match state with
    | Directory.Exclusive owner -> owner = new_origin
    | Directory.Shared readers -> Node_set.mem readers new_origin)
    && Page_table.allows t.ptables.(new_origin) vpn Perm.Read
  in
  let standby_had = Hashtbl.create 64 in
  List.iter
    (fun (vpn, state) ->
      if holds vpn state then Hashtbl.replace standby_had vpn ())
    dir_entries;
  (* A dead owner's page stays untracked, implicitly Exclusive new_origin:
     it re-homes to the promoted standby, whose store holds the replicated
     data. Same linearizability argument as reclaim_node: whatever the
     dead home wrote since the last logged snapshot was observed by
     nobody. *)
  let live n = n <> old && not (Fabric.crash_detected t.fabric ~node:n) in
  List.iter
    (fun (vpn, state) ->
      restore dir vpn
        (match state with
        | Directory.Exclusive owner -> if live owner then Some state else None
        | Directory.Shared readers ->
            let live = List.filter live (Node_set.to_list readers) in
            Some (Shared (Node_set.of_list (new_origin :: live)))))
    dir_entries;
  (* Backfill the standby's store with the replicated home staging copy,
     except where the standby's own copy is at least as fresh: per the
     replicated entry for pages the origin directory serves, per the live
     overlay entry for re-homed ones — and a re-home target's store IS the
     page's staging copy. *)
  List.iter
    (fun (vpn, data) ->
      let had =
        match Authority.route a vpn with
        | { shard = Some _; _ } -> Hashtbl.mem standby_had vpn
        | { node; dir = overlay; shard = None } ->
            node = new_origin || holds vpn (Directory.state overlay vpn)
      in
      (* The replica keeps its image (other standbys may share it), so
         the store shares it too. *)
      if not had then Page_store.install t.stores.(new_origin) vpn data)
    page_data;
  let old_dir = Authority.directory a ~shard:0 in
  (* The dead home's local state is unreachable hardware now. *)
  t.ptables.(old) <- Page_table.create ();
  t.stores.(old) <- Page_store.create ();
  Authority.promote a ~home:new_origin dir;
  (* The replication observer follows the authoritative directory —
     installed only now, so neither the rebuild nor the fold-back is
     itself re-logged (the HA layer re-snapshots when it re-arms towards a
     new standby). *)
  Directory.set_observer dir (Directory.observer old_dir);
  Directory.set_observer old_dir None;
  Stats.incr t.stats "ha.promotions"

(* Second half of the failover: fence every survivor into the new epoch.
   Each one gets the list of (page, strongest access) the promoted
   directory still vouches for on it and zaps the rest. Runs in the
   promotion fiber, before the resolver releases stalled requesters, so
   no survivor can fault against the new origin with unreconciled
   state. *)
let fence_survivors t =
  let n = node_count t in
  let home = Authority.home t.authority ~shard:0 in
  let dir = Authority.directory t.authority ~shard:0 in
  let keeps = Array.make n [] in
  Directory.iter dir (fun vpn state ->
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
            Fabric.call t.fabric ~src ~dst:node ~pid:t.pid
              ~kind:Messages.kind_epoch_fence
              ~size:
                (t.cfg.Proto_config.ctl_msg_size
                + (8 * List.length keeps.(node)))
              (Messages.Epoch_fence { keep = keeps.(node) })
          with
          | Messages.Epoch_fence_ack { missing } ->
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
                  ignore
                    (Directory.apply dir vpn (Drop { node; dead = false })))
                missing
          | _ -> failwith "Coherence: unexpected fence reply"
          | exception Fabric.Unreachable _ -> crash_escalate t ~src ~target:node)
        :: !jobs
  done;
  fanout t ~label:"epoch-fence" !jobs;
  Stats.incr t.stats "ha.epoch_fences";
  (* A page re-homed to the promoted home now names its static home:
     fold it back into the origin directory, which replicates it. Only
     after the fence, which must leave it alone: a live home served it
     throughout, so a copy a survivor lacks is a grant reply in flight,
     not one that died with the old home. Grants holding an overlay
     entry are waited out, so the moves are atomic in simulated time. *)
  let folded () =
    List.filter_map
      (fun (vpn, target) -> if target = home then Some vpn else None)
      (Authority.rehomed_pages t.authority)
  in
  let rec settle attempt =
    let busy vpn = Directory.locked (Authority.route t.authority vpn).dir vpn in
    if List.exists busy (folded ()) then begin
      backoff t ~node:home ~attempt;
      settle (attempt + 1)
    end
  in
  settle 0;
  List.iter
    (fun vpn ->
      let dir = (Authority.route t.authority vpn).dir in
      Authority.move t.authority vpn ~from:dir ~node:home
        (Directory.state dir vpn))
    (folded ())

(* ------------------------------------------------------------------ *)
(* Invariant checking (tests).                                         *)

let check_entry_invariants t vpn state =
  Array.iteri
    (fun node pt ->
      match (Page_table.get pt vpn, state) with
      | None, _ -> ()
      | Some _, Directory.Exclusive owner when owner = node -> ()
      | Some Perm.Read, Directory.Shared rs when Node_set.mem rs node -> ()
      | Some access, _ ->
          failwith
            (Printf.sprintf
               "Coherence: node %d has a %s PTE on page %d, recorded as %s"
               node
               (match access with Perm.Read -> "Read" | Perm.Write -> "Write")
               vpn
               (match state with
               | Directory.Exclusive owner -> Printf.sprintf "owned by %d" owner
               | Directory.Shared _ -> "shared")))
    t.ptables

let check_invariants t =
  let a = t.authority in
  List.iter
    (fun (vpn, target) ->
      if target = Authority.home_of a vpn then
        Printf.ksprintf failwith
          "Coherence: page %d re-homed to its static shard home" vpn)
    (Authority.rehomed_pages a);
  Authority.iter_dirs a (fun { dir; _ } ->
      Directory.check_invariants dir;
      Directory.iter dir (fun vpn state ->
          if (Authority.route a vpn).dir != dir then
            Printf.ksprintf failwith
              "Coherence: page %d tracked outside its serving directory" vpn;
          check_entry_invariants t vpn state))
