open Dex_sim
module Fabric = Dex_net.Fabric
module Msg = Dex_net.Msg

type state = Active | Promoting | Disabled

(* A fully seeded image of a {e previous} generation, retained at a
   surviving standby until its current-generation snapshot is fully
   applied. Closes the re-arm race: a crash of the new origin while the
   snapshot is still streaming can fall back to this image instead of
   promoting a half-armed replica. *)
type prev_image = {
  p_epoch : int;  (* generation the image belongs to *)
  p_origin : int;  (* origin that generation was rooted at *)
  p_applied : int;  (* its watermark when the generation ended *)
  p_replica : Replica.t;
  p_applied_rev : Log_entry.t list;
}

(* One member of the replica set. Origin-side shipping cursors and the
   standby-side materialized state live on the same record because the
   simulation hosts every node in one process; the split is kept explicit
   in the field grouping. *)
type standby = {
  sb_node : int;
  (* Origin side: shipping cursors into the shared generation log. *)
  mutable sb_shipped : int;  (* entries handed to this standby's shipper *)
  mutable sb_acked : int;  (* its acked watermark, as the origin knows it *)
  mutable sb_shipping : bool;  (* a shipper fiber towards it is alive *)
  mutable sb_live : bool;  (* false once pruned from the set *)
  (* Standby side: epoch guard and the incrementally applied replica, plus
     the applied entries retained for the replay-determinism check. *)
  mutable sb_epoch : int;  (* newest origin generation accepted *)
  mutable sb_replica : Replica.t;
  mutable sb_applied_rev : Log_entry.t list;
  mutable sb_applied : int;  (* its own applied watermark *)
  mutable sb_prev : prev_image option;
}

(* A configured replica set (k > 0) and the replication state around it.
   It outlives the set's loss: a lost set is [Disabled]. *)
type set = {
  engine : Engine.t;
  fabric : Fabric.t;
  stats : Stats.t;
  pid : int;
  max_lag : int;  (* entries a fence lets the log run past the quorum *)
  k : int;  (* configured standby count; set_size = k + 1 *)
  mutable origin : int;
  mutable gen_origin : int;  (* origin the current generation is rooted at *)
  mutable standbys : standby list;  (* current replica set, pruned in place *)
  mutable state : state;
  mutable epoch : int;  (* origin generation, bumped at every (re-)arm *)
  (* The current generation's log, indexable so per-standby shippers can
     cut batches at their own cursors. Compaction replaces a still-
     unshipped entry in place, so it never moves sequence numbers. *)
  mutable log : Log_entry.t array;
  mutable next_seq : int;
  mutable snapshot_seq : int;  (* the generation is seeded up to here *)
  mutable deferred_rev : Log_entry.t list;  (* arrived during a failover *)
  fence_q : unit Waitq.t;  (* fibers blocked in {!fence} *)
  resolve_q : unit Waitq.t;  (* fibers blocked in {!resolve} *)
  (* Promoted-origin side: the ledger of wakes consumed at the dead
     origin, served to retried futex waits. *)
  mutable promoted : Replica.t option;
  mutable promote_hook : (new_origin:int -> Replica.t -> Log_entry.t list) option;
  mutable detect_ns : Time_ns.t;  (* when the origin's death was declared *)
  mutable electing : int option;  (* promotion target, while the hook runs *)
  mutable reelect : bool;  (* the elected standby died mid-promotion *)
  mutable last_election : (int * (int * int * int) list) option;
}

let live t = List.filter (fun s -> s.sb_live) t.standbys

(* Quorum arithmetic. The replica set is {origin} ∪ k standbys; an
   externalization fence demands acks from ⌈(k+1)/2⌉ standbys — a majority
   of the full set holds every acked write {e besides} the origin's own
   copy, which is what makes a simultaneous origin+standby crash
   survivable. When pruning shrinks the live set below that width, the
   fence falls back to every remaining standby as long as origin+live is
   still a majority of the original set ([ha.quorum_degraded]); below
   that, `Sync` stalls rather than lie ([ha.quorum_stalls]). *)
let set_size t = t.k + 1
let required_acks t = (set_size t + 1) / 2
let live_count t = List.length (live t)
let quorate t = 2 * (live_count t + 1) > set_size t

(* The needed-th highest acked watermark among live standbys: everything
   at or below it is on enough replicas to survive any failure pattern the
   quorum rule covers. [-1] when the quorum is lost. *)
let quorum_watermark t =
  if not (quorate t) then -1
  else
    let acks =
      List.sort
        (fun a b -> compare b a)
        (List.map (fun s -> s.sb_acked) (live t))
    in
    match acks with
    | [] -> -1
    | _ -> List.nth acks (min (required_acks t) (List.length acks) - 1)

let lag_ok t =
  let w = quorum_watermark t in
  w >= 0 && t.next_seq - w <= t.max_lag

let disable t =
  if t.state <> Disabled then begin
    t.state <- Disabled;
    t.deferred_rev <- [];
    List.iter (fun s -> s.sb_live <- false) t.standbys;
    Stats.incr t.stats "ha.disabled";
    ignore (Waitq.wake_all t.fence_q ())
  end

(* ------------------------------------------------------------------ *)
(* The generation log.                                                 *)

let log_push t e =
  let cap = Array.length t.log in
  if t.next_seq = cap then begin
    let bigger = Array.make (max 64 (2 * cap)) e in
    Array.blit t.log 0 bigger 0 cap;
    t.log <- bigger
  end;
  t.log.(t.next_seq) <- e;
  t.next_seq <- t.next_seq + 1

(* ------------------------------------------------------------------ *)
(* Shipping: one on-demand fiber per live standby drains the shared log
   from that standby's cursor and retires when it catches up, so a
   quiescent run never holds a parked shipper (which would read as a
   deadlock to the engine).                                             *)

let rec kick t =
  if t.state = Active then
    List.iter
      (fun s ->
        if s.sb_live && (not s.sb_shipping) && s.sb_shipped < t.next_seq
        then begin
          s.sb_shipping <- true;
          Engine.spawn t.engine ~label:"ha-ship" (fun () -> ship t s)
        end)
      t.standbys

and ship t s =
  if t.state <> Active || (not s.sb_live) || s.sb_shipped >= t.next_seq then
    s.sb_shipping <- false
  else begin
    let first_seq = s.sb_shipped in
    let n = t.next_seq - first_seq in
    let batch = Array.to_list (Array.sub t.log first_seq n) in
    s.sb_shipped <- first_seq + n;
    let size =
      List.fold_left (fun acc e -> acc + Log_entry.wire_size e) 0 batch
    in
    Stats.incr t.stats "ha.ship_batches";
    Stats.add t.stats "ha.entries_shipped" n;
    match
      Fabric.call t.fabric ~src:t.origin ~dst:s.sb_node ~pid:t.pid
        ~kind:Ha_messages.kind_repl ~size
        (Ha_messages.Repl_append
           { epoch = t.epoch; first_seq; entries = batch })
    with
    | Ha_messages.Repl_ack { watermark } ->
        if watermark > s.sb_acked then begin
          Stats.add t.stats "ha.entries_acked" (watermark - s.sb_acked);
          s.sb_acked <- watermark
        end;
        ignore (Waitq.wake_all t.fence_q ());
        ship t s
    | Ha_messages.Repl_nack _ ->
        (* A newer generation exists: this origin is deposed. Stop pushing
           — the new origin owns the set now, and every local fence is
           moot (the promotion path has already released them). *)
        s.sb_shipping <- false
    | _ -> failwith "Ha: unexpected replication reply"
    | exception Fabric.Unreachable _ ->
        s.sb_shipping <- false;
        if Fabric.crashed t.fabric ~node:s.sb_node then begin
          (* The standby died. Declaring the failure runs the process's
             crash handler, whose {!handle_crash} prunes it from the
             replica set. *)
          if not (Fabric.crash_detected t.fabric ~node:s.sb_node) then
            Fabric.declare_dead t.fabric ~node:s.sb_node
          else prune t s
        end
        else if not (Fabric.crashed t.fabric ~node:t.origin) then
          (* Neither endpoint crashed yet the budget ran out: treat the
             link as lost and prune the standby rather than wedging every
             fence forever. *)
          prune t s
    (* else: the origin itself died mid-ship; the promotion path owns the
       aftermath and this fiber just retires. *)
  end

(* Remove a dead (or unreachable) standby from the live set. Fences are
   re-evaluated: pruning can flip the set from waiting to quorum-lost, and
   the waiters must register the stall. With nobody left, replication
   disables outright — the PR 4 behaviour for k = 1.                     *)
and prune t s =
  if s.sb_live then begin
    s.sb_live <- false;
    Stats.incr t.stats "ha.standby_lost";
    if live_count t = 0 then disable t
    else begin
      if live_count t < required_acks t then
        Stats.incr t.stats "ha.quorum_degraded";
      ignore (Waitq.wake_all t.fence_q ())
    end
  end

(* ------------------------------------------------------------------ *)
(* Origin-side API.                                                     *)

let append t e =
  match t.state with
  | Disabled -> ()
  | Promoting ->
      (* Mutations that race the failover (origin-local activity at the
         promoted node before re-arming completes) are queued and shipped
         after the re-arm snapshot; every entry is idempotent against it. *)
      t.deferred_rev <- e :: t.deferred_rev
  | Active ->
      Stats.incr t.stats "ha.entries";
      let compactable =
        t.next_seq > 0
        && (match (e, t.log.(t.next_seq - 1)) with
           | ( Log_entry.Page_data { vpn; _ },
               Log_entry.Page_data { vpn = v; _ } ) ->
               v = vpn
           | _ -> false)
        (* Only while no standby has been handed the old image: once any
           shipper cut a batch past it, a replacement would fork the
           replica histories (the laggards would apply the new image under
           the old sequence number, the leaders never see it). *)
        && List.for_all
             (fun s -> (not s.sb_live) || s.sb_shipped < t.next_seq)
             t.standbys
      in
      if compactable then begin
        Stats.incr t.stats "ha.compacted";
        t.log.(t.next_seq - 1) <- e
      end
      else log_push t e;
      kick t

let fence t =
  match t.state with
  | Disabled | Promoting -> ()
  | Active ->
      if not (lag_ok t) then begin
        Stats.incr t.stats "ha.fence_waits";
        let stall_counted = ref false in
        while t.state = Active && not (lag_ok t) do
          if (not (quorate t)) && not !stall_counted then begin
            (* Too few replicas remain for the ack rule: refuse to
               externalize rather than acknowledge writes a minority
               crash could lose. Operator-visible, and released only by
               the set shrinking to nothing (disable) or a failover. *)
            stall_counted := true;
            Stats.incr t.stats "ha.quorum_stalls"
          end;
          kick t;
          Waitq.wait t.engine t.fence_q
        done
      end

let rec resolve t =
  match t.state with
  | Promoting ->
      Waitq.wait t.engine t.resolve_q;
      (* Re-examine from scratch: the promoted origin may itself have
         crashed by the time this fiber is scheduled (back-to-back
         failovers). *)
      resolve t
  | Active
    when Fabric.crashed t.fabric ~node:t.origin
         && not (Fabric.crash_detected t.fabric ~node:t.origin) ->
      (* The origin is dead but nobody has declared it yet — the caller's
         exhausted retry budget IS the failure detection. Declaring runs
         the process's crash handler, and with it {!handle_crash},
         synchronously, so the next pass finds the promotion in flight
         instead of a dead end. *)
      Fabric.declare_dead t.fabric ~node:t.origin;
      resolve t
  | Active | Disabled ->
      if Fabric.crashed t.fabric ~node:t.origin then None else Some t.origin

let take_wake t ~addr ~tid =
  match t.promoted with
  | Some ledger when Replica.take_wake ledger ~addr ~tid ->
      Stats.incr t.stats "ha.wakes_redelivered";
      (* Tell the standbys the verdict is delivered. *)
      append t (Log_entry.Futex_unpark { addr; tid; woken = false });
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Failover.                                                            *)

(* A standby record at the start of generation [epoch] rooted at
   [origin]: nothing shipped, acked or applied yet. [prev] is the fully
   seeded image of an earlier generation it carries over, if any. *)
let fresh_standby ~epoch ~origin ?prev node =
  {
    sb_node = node;
    sb_shipped = 0;
    sb_acked = 0;
    sb_shipping = false;
    sb_live = true;
    sb_epoch = epoch;
    sb_replica = Replica.create ~origin;
    sb_applied_rev = [];
    sb_applied = 0;
    sb_prev = prev;
  }

(* Start a fresh generation: keep the surviving standbys (their previous
   images ride along until the new snapshot seeds them), recruit fresh
   nodes up to k, and reset the log. The caller appends the bootstrap
   snapshot and then stamps [snapshot_seq].                              *)
let rearm t =
  let old_epoch = t.epoch in
  let old_origin = t.gen_origin in
  let old_snapshot_seq = t.snapshot_seq in
  t.epoch <- t.epoch + 1;
  let survivors =
    List.filter
      (fun s ->
        s.sb_live
        && s.sb_node <> t.origin
        && not (Fabric.crashed t.fabric ~node:s.sb_node))
      t.standbys
  in
  let carry s =
    (* Retain the standby's best fully seeded image: the generation that
       just ended if the snapshot reached it, else whatever it was already
       carrying. A half-seeded image is never promotable. *)
    if s.sb_applied >= old_snapshot_seq then
      Some
        {
          p_epoch = old_epoch;
          p_origin = old_origin;
          p_applied = s.sb_applied;
          p_replica = s.sb_replica;
          p_applied_rev = s.sb_applied_rev;
        }
    else s.sb_prev
  in
  let fresh = fresh_standby ~epoch:t.epoch ~origin:t.origin in
  let kept = List.map (fun s -> fresh ?prev:(carry s) s.sb_node) survivors in
  let taken = t.origin :: List.map (fun s -> s.sb_node) survivors in
  let nodes = Fabric.node_count t.fabric in
  let recruits = ref [] in
  for node = 0 to nodes - 1 do
    if
      List.length kept + List.length !recruits < t.k
      && (not (List.mem node taken))
      && not (Fabric.crashed t.fabric ~node)
    then begin
      Stats.incr t.stats "ha.recruits";
      recruits := !recruits @ [ fresh node ]
    end
  done;
  t.standbys <- kept @ !recruits;
  t.log <- [||];
  t.next_seq <- 0;
  t.snapshot_seq <- 0;
  t.gen_origin <- t.origin;
  if t.standbys = [] then begin
    (* Nobody left to replicate to; a further origin crash is fatal. *)
    t.deferred_rev <- [];
    t.state <- Disabled;
    Stats.incr t.stats "ha.disabled"
  end
  else begin
    let deferred = List.rev t.deferred_rev in
    t.deferred_rev <- [];
    t.state <- Active;
    append t (Log_entry.Reset { origin = t.origin });
    (* Replay the promoted ledger's undelivered wakes, then whatever
       trickled in during the failover. The caller's bootstrap snapshot
       follows and supersedes both (newest image wins per entry). *)
    (match t.promoted with
    | Some ledger ->
        List.iter
          (fun (addr, tid) ->
            append t (Log_entry.Futex_unpark { addr; tid; woken = true }))
          (Replica.pending_wakes ledger)
    | None -> ());
    List.iter (append t) deferred
  end

(* Watermark-ranked election: the best candidate is the fully seeded
   replica of the newest generation with the highest applied watermark;
   node id breaks ties deterministically. Standbys whose current-
   generation snapshot never finished fall back to their retained
   previous image — never to the half-armed one.                        *)
let elect t =
  let reachable =
    List.filter
      (fun s -> s.sb_live && not (Fabric.crashed t.fabric ~node:s.sb_node))
      t.standbys
  in
  let candidate s =
    if s.sb_applied >= t.snapshot_seq then
      Some (s, t.epoch, s.sb_applied, `Current)
    else
      match s.sb_prev with
      | Some p -> Some (s, p.p_epoch, p.p_applied, `Prev p)
      | None -> None
  in
  let candidates =
    (* Newest generation first, then highest watermark, then lowest node
       id — the deterministic total order every survivor would compute. *)
    List.sort
      (fun (s, ep, w, _) (s', ep', w', _) ->
        compare (-ep, -w, s.sb_node) (-ep', -w', s'.sb_node))
      (List.filter_map candidate reachable)
  in
  let tally = List.map (fun (s, ep, w, _) -> (s.sb_node, ep, w)) candidates in
  let best = match candidates with [] -> None | c :: _ -> Some c in
  t.last_election <-
    Some ((match best with Some (s, _, _, _) -> s.sb_node | None -> -1), tally);
  best

let rec promote_attempt t hook =
  match elect t with
  | None ->
      (* No promotable replica remains — the crash pattern exceeded the
         quorum. Release the stalled requesters with a dead origin: the
         resolver answers [None] and the process layer applies its
         origin-crash verdict. *)
      t.electing <- None;
      t.state <- Disabled;
      Stats.incr t.stats "ha.disabled";
      ignore (Waitq.wake_all t.fence_q ());
      ignore (Waitq.wake_all t.resolve_q ())
  | Some (s, _epoch, _w, image_src) ->
      t.reelect <- false;
      t.electing <- Some s.sb_node;
      let root, image, applied_rev =
        match image_src with
        | `Current -> (t.gen_origin, s.sb_replica, s.sb_applied_rev)
        | `Prev p ->
            (* The generation died before its snapshot seeded anyone
               reachable: abort the re-arm and promote the retained
               previous image instead. *)
            Stats.incr t.stats "ha.rearm_aborted";
            (p.p_origin, p.p_replica, p.p_applied_rev)
      in
      (* Replay the retained log against a fresh replica: the standby's
         incrementally maintained image and the from-scratch replay must
         be bit-identical, or the log itself is not a faithful
         serialization. *)
      let applied = List.rev applied_rev in
      let fresh = Replica.create ~origin:root in
      List.iter (Replica.apply fresh) applied;
      if not (Replica.equal fresh image) then
        failwith "Ha: replication log replay diverged from the standby replica";
      Stats.add t.stats "ha.replay_entries" (List.length applied);
      let new_origin = s.sb_node in
      let bootstrap =
        (* The hook blocks on the fabric (epoch fencing); if the standby
           being installed dies under it, the coherence layer aborts the
           fence with an exception rather than mis-escalating healthy
           survivors. Swallow it only when the death is real. *)
        try Some (hook ~new_origin image)
        with e ->
          if t.reelect || Fabric.crashed t.fabric ~node:new_origin then None
          else raise e
      in
      match bootstrap with
      | None ->
          Stats.incr t.stats "ha.reelections";
          promote_attempt t hook
      | Some _ when t.reelect ->
          (* The elected standby died while the hook was installing it; its
             own crash declaration cleans up, and the election reruns over
             the remainder. *)
          Stats.incr t.stats "ha.reelections";
          promote_attempt t hook
      | Some bootstrap ->
          t.electing <- None;
          t.origin <- new_origin;
          t.promoted <- Some image;
          Stats.incr t.stats "ha.failovers";
          Stats.add t.stats "ha.failover_ns"
            (Engine.now t.engine - t.detect_ns);
          rearm t;
          (match t.state with
          | Active ->
              List.iter (append t) bootstrap;
              (* The generation is seeded once the whole bootstrap is in
                 the log; standbys below this watermark are not
                 promotable. *)
              t.snapshot_seq <- t.next_seq
          | Promoting | Disabled -> ());
          (* Only now may stalled requesters retry: the new origin is
             serving and every retried fault is back under replication. *)
          ignore (Waitq.wake_all t.resolve_q ())

let handle_crash t ~node =
  match t.state with
  | Disabled -> ()
  | Active when node = t.origin -> (
      match t.promote_hook with
      | None ->
          (* Nobody wired a promotion path (a process always does):
             stay out of the way. *)
          disable t
      | Some hook ->
          t.state <- Promoting;
          t.detect_ns <- Engine.now t.engine;
          (* Fibers blocked on the dead origin's fences must unwind. *)
          ignore (Waitq.wake_all t.fence_q ());
          Engine.spawn t.engine ~label:"ha-promote" (fun () ->
              promote_attempt t hook))
  | Active -> (
      match List.find_opt (fun s -> s.sb_node = node) t.standbys with
      | Some s -> prune t s
      | None -> ())
  | Promoting -> (
      (* A standby dying mid-failover leaves the candidate pool; if it was
         the one being installed, the promotion fiber re-elects. *)
      match List.find_opt (fun s -> s.sb_node = node && s.sb_live) t.standbys with
      | Some s ->
          s.sb_live <- false;
          Stats.incr t.stats "ha.standby_lost";
          if t.electing = Some node then t.reelect <- true
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Standby-side message handling.                                       *)

let router t (env : Fabric.env) =
  match env.Fabric.msg.Msg.payload with
  | Ha_messages.Repl_append { epoch; first_seq; entries } -> (
      let dst = env.Fabric.msg.Msg.dst in
      match List.find_opt (fun s -> s.sb_node = dst) t.standbys with
      | Some s when epoch >= s.sb_epoch ->
          s.sb_epoch <- epoch;
          if first_seq <> s.sb_applied then
            (* Per-standby shipping is sequential over the reliable
               transport, so a gap is a protocol bug, not a fault. *)
            failwith "Ha: replication batch out of order";
          List.iter
            (fun e ->
              Replica.apply s.sb_replica e;
              s.sb_applied_rev <- e :: s.sb_applied_rev;
              s.sb_applied <- s.sb_applied + 1)
            entries;
          (* Fully seeded: the retained previous image is obsolete. *)
          if s.sb_applied >= t.snapshot_seq then s.sb_prev <- None;
          env.Fabric.respond
            (Ha_messages.Repl_ack { watermark = s.sb_applied });
          true
      | Some s ->
          (* Per-origin-epoch guard: a deposed (zombie) origin must not
             advance this standby's watermark — its log forked from the
             promoted history the moment the election ran. *)
          Stats.incr t.stats "ha.zombie_nacks";
          env.Fabric.respond
            (Ha_messages.Repl_nack { epoch = s.sb_epoch });
          true
      | None ->
          (* Addressed to a node that is not (or no longer) in the replica
             set — a zombie origin streaming to a promoted or pruned
             node. *)
          Stats.incr t.stats "ha.zombie_nacks";
          env.Fabric.respond
            (Ha_messages.Repl_nack { epoch = t.epoch });
          true)
  | _ -> false

(* An empty replica set builds none of the replication state: the
   instance is its origin, where {!resolve} looks, and every entry point
   answers as it does for a lost set. *)
type t = Unreplicated of { fabric : Fabric.t; origin : int } | Replicated of set

let arm ~engine ~fabric ~stats ~pid ~mode ~origin ~standbys =
  if standbys = [] then Unreplicated { fabric; origin }
  else begin
    let nodes = Fabric.node_count fabric in
    List.iter
      (fun s ->
        if s = origin then invalid_arg "Ha.arm: standby equals origin";
        if s < 0 || s >= nodes then invalid_arg "Ha.arm: bad standby node")
      standbys;
    if
      List.length (List.sort_uniq compare standbys) <> List.length standbys
    then invalid_arg "Ha.arm: duplicate standby";
    Replicated
      {
        engine;
        fabric;
        stats;
        pid;
        max_lag = (match mode with `Sync -> 0 | `Async lag -> lag);
        k = List.length standbys;
        origin;
        gen_origin = origin;
        standbys = List.map (fresh_standby ~epoch:0 ~origin) standbys;
        state = Active;
        epoch = 0;
        log = [||];
        next_seq = 0;
        snapshot_seq = 0;
        deferred_rev = [];
        fence_q = Waitq.create ();
        resolve_q = Waitq.create ();
        promoted = None;
        promote_hook = None;
        detect_ns = 0;
        electing = None;
        reelect = false;
        last_election = None;
      }
  end

let origin = function
  | Unreplicated { origin; _ } -> origin
  | Replicated t -> t.origin

let standbys = function
  | Unreplicated _ -> []
  | Replicated t -> List.map (fun s -> s.sb_node) (live t)

let configured = function Unreplicated _ -> false | Replicated _ -> true
let active = function Unreplicated _ -> false | Replicated t -> t.state = Active

let armed = function
  | Unreplicated _ -> false
  | Replicated t -> (
      match t.state with Active | Promoting -> true | Disabled -> false)

let last_election = function
  | Unreplicated _ -> None
  | Replicated t -> t.last_election

let set_promote_hook t f =
  match t with
  | Unreplicated _ -> ()
  | Replicated t -> t.promote_hook <- Some f

let append t e = match t with Unreplicated _ -> () | Replicated t -> append t e
let fence = function Unreplicated _ -> () | Replicated t -> fence t

let resolve = function
  | Unreplicated { fabric; origin } ->
      if Fabric.crashed fabric ~node:origin then None else Some origin
  | Replicated t -> resolve t

let take_wake t ~addr ~tid =
  match t with
  | Unreplicated _ -> false
  | Replicated t -> take_wake t ~addr ~tid

let handle_crash t ~node =
  match t with
  | Unreplicated _ -> ()
  | Replicated t -> handle_crash t ~node

(* No shipper ever stamps an unreplicated instance's pid on a batch. *)
let router t env =
  match t with Unreplicated _ -> false | Replicated t -> router t env
