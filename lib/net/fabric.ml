open Dex_sim

(* Wire framing of the reliable layer (active only under chaos). These
   constructors never escape the fabric: handlers always see the unwrapped
   inner payload. *)
type Msg.payload +=
  | Rel_req of { seq : int; low : int; oneway : bool; inner : Msg.payload }
      (* [low] is the sender-side watermark: every seq below it has
         completed and will never be retransmitted, so the receiver may
         prune its dedup state for them. *)
  | Rel_reply of { seq : int; inner : Msg.payload }
  | Rel_ack of { seq : int }
  | Rel_busy of { seq : int }
      (* receiver → sender: the request is delivered and its handler is
         still running — a long-blocking call (a parked futex wait, a
         grant grinding through a revoke escalation), not a lost message.
         Refills the sender's retransmit budget instead of completing the
         transaction, so slow handlers and dead peers stay
         distinguishable: a dead peer never sends one. *)

(* Receiver-side fate of a sequence number. Entries may only be forgotten
   once the sender can no longer retransmit that seq — forgetting earlier
   would let a late retransmission re-run a handler. Two pruning paths
   guarantee that: an explicit ack of each delivered reply, and the [low]
   watermark piggybacked on every request (which also reaps acked one-way
   entries and entries whose reply-ack was lost). *)
type rel_remote =
  | Rel_in_progress  (* handler dispatched, outcome not yet known *)
  | Rel_acked  (* one-way message: delivery committed and acked *)
  | Rel_replied of int * Msg.payload  (* reply size + payload, for replay *)

(* Sender-side state of a transaction in flight. *)
type rel_pending = {
  outcome : Msg.payload option Ivar.t;
      (* [Some reply] for a call, [None] for an acked one-way send *)
  mutable wake : [ `Done | `Timeout ] Ivar.t;
      (* the current attempt's: the outcome and the attempt's RTO timer
         race to fill it *)
  mutable busy : bool;  (* a {!Rel_busy} arrived since the last transmit *)
}

exception Unreachable of { src : int; dst : int; kind : string }

(* A message counter and a byte counter, bumped per message. *)
type traffic = { msgs : Stats.counter; bytes : Stats.counter }

(* What a message kind's traffic is labelled with, built once per kind
   instead of once per message. *)
type per_kind = {
  sent : traffic;  (* "sent.<kind>" and "bytes.<kind>" *)
  resp : string;  (* "<kind>.resp", the kind of a reply *)
  handler : string;  (* "handler:<kind>", the label of a handler fiber *)
}

type t = {
  engine : Engine.t;
  cfg : Net_config.t;
  handlers : handler option array;
  links : Resource.Server.t array;  (* directed, src * nodes + dst *)
  send_pools : Resource.Pool.t array;  (* directed, per connection *)
  sinks : Rdma_sink.t array;  (* per node *)
  stats : Stats.t;
  kinds : (string, per_kind) Hashtbl.t;
  loopback : traffic;  (* "path.loopback", "bytes.loopback" *)
  rdma : traffic;  (* "path.rdma", "bytes.rdma" *)
  verb : traffic;  (* "path.verb", "bytes.verb" *)
  chaos : Net_config.chaos option;
  inject_rng : Rng.t;  (* drop/dup/reorder/jitter draws, delivery order *)
  rto_rng : Rng.t;  (* retransmission-timeout jitter *)
  mutable rel_seq : int;  (* next request sequence number, fabric-global *)
  rel_seen : (int, rel_remote) Hashtbl.t;
  rel_pending : (int, rel_pending) Hashtbl.t;
      (* seq -> its transaction, until the transaction settles *)
  mutable rel_pruned : int;  (* every seq below this is gone from rel_seen *)
  dead : bool array;  (* fail-stop ground truth, per node *)
  detected : bool array;  (* has the failure been declared *)
  mutable crash_handler : int -> unit;
}

and env = { msg : Msg.t; respond : ?size:int -> Msg.payload -> unit }
and handler = t -> env -> unit

let engine t = t.engine
let node_count t = t.cfg.Net_config.nodes
let reliable t = t.chaos <> None

let check_node t node name =
  if node < 0 || node >= node_count t then
    invalid_arg (Printf.sprintf "Fabric.%s: bad node %d" name node)

(* --- fail-stop crashes -------------------------------------------------

   A crashed node neither sends nor receives: every delivery whose source
   or destination is dead is discarded at the receive boundary, exactly
   like a SIGKILLed process whose NIC keeps the frames but whose kernel
   never services them. The transport itself stays silent about the death;
   peers find out the honest way, by exhausting their retransmission
   budget ([Unreachable]), and then {e declare} the crash, which runs the
   one crash handler (the cluster's, which recovers each process). A
   connection-level keepalive backstop declares the crash after one full
   retry budget even if no traffic happened to be in flight. *)

let crashed t ~node =
  check_node t node "crashed";
  t.dead.(node)

let crash_detected t ~node =
  check_node t node "crash_detected";
  t.detected.(node)

let live_nodes t =
  List.filter (fun n -> not t.dead.(n)) (List.init (Array.length t.dead) Fun.id)

let set_crash_handler t f = t.crash_handler <- f

let declare_dead t ~node =
  check_node t node "declare_dead";
  if not t.dead.(node) then
    invalid_arg "Fabric.declare_dead: node is not crashed";
  if not t.detected.(node) then begin
    t.detected.(node) <- true;
    t.crash_handler node
  end

(* The undithered sum of the sender's whole retransmission schedule: after
   this long, any peer with traffic in flight to the node has certainly
   seen [Unreachable]. The keepalive uses the same clock, so detection
   always happens on the retry-budget timescale. *)
let detection_budget (c : Net_config.chaos) =
  let open Net_config in
  let total = ref 0 in
  for attempt = 0 to c.max_retransmits do
    total := !total + min c.rto_cap (max 1 c.rto * (1 lsl min attempt 6))
  done;
  !total

let crash t ~node =
  check_node t node "crash";
  (match t.chaos with
  | None ->
      invalid_arg
        "Fabric.crash: fail-stop crashes need the reliable transport \
         (Net_config.chaos)"
  | Some c ->
      if not t.dead.(node) then begin
        t.dead.(node) <- true;
        Stats.incr t.stats "chaos.node_crashes";
        Engine.schedule t.engine ~delay:(detection_budget c) (fun () ->
            if not t.detected.(node) then declare_dead t ~node)
      end)

let traffic stats ~msgs ~bytes =
  { msgs = Stats.counter stats msgs; bytes = Stats.counter stats bytes }

let count tr ~size =
  Stats.bump tr.msgs 1;
  Stats.bump tr.bytes size

let create engine cfg =
  Net_config.validate cfg;
  let stats = Stats.create () in
  let path name =
    traffic stats ~msgs:("path." ^ name) ~bytes:("bytes." ^ name)
  in
  let n = cfg.Net_config.nodes in
  let chaos_rng =
    Rng.create
      ~seed:
        (match cfg.Net_config.chaos with
        | Some c -> c.Net_config.chaos_seed
        | None -> 0)
  in
  let t =
    {
      engine;
      cfg;
      handlers = Array.make n None;
      links =
        Array.init (n * n) (fun _ ->
            Resource.Server.create engine
              ~bytes_per_us:cfg.Net_config.link_bandwidth_bytes_per_us);
      send_pools =
        Array.init (n * n) (fun _ ->
            Resource.Pool.create engine ~capacity:cfg.Net_config.send_pool_slots);
      sinks =
        Array.init n (fun _ ->
            Rdma_sink.create engine ~slots:cfg.Net_config.sink_slots
              ~copy_ns_per_byte:cfg.Net_config.copy_ns_per_byte);
      stats;
      kinds = Hashtbl.create 16;
      loopback = path "loopback";
      rdma = path "rdma";
      verb = path "verb";
      chaos = cfg.Net_config.chaos;
      inject_rng = Rng.split chaos_rng;
      rto_rng = Rng.split chaos_rng;
      rel_seq = 0;
      rel_seen = Hashtbl.create 64;
      rel_pending = Hashtbl.create 16;
      rel_pruned = 0;
      dead = Array.make n false;
      detected = Array.make n false;
      crash_handler = ignore;
    }
  in
  (* Scheduled fail-stop crashes are engine events, planted up front so the
     fault schedule is part of the deterministic event stream. *)
  (match cfg.Net_config.chaos with
  | None -> ()
  | Some c ->
      List.iter
        (fun cr ->
          Engine.at engine ~time:cr.Net_config.crash_at (fun () ->
              crash t ~node:cr.Net_config.crash_node))
        c.Net_config.crashes);
  t

let set_handler t ~node handler =
  check_node t node "set_handler";
  t.handlers.(node) <- Some handler

let per_kind t kind =
  match Hashtbl.find t.kinds kind with
  | n -> n
  | exception Not_found ->
      let n =
        {
          sent =
            traffic t.stats ~msgs:("sent." ^ kind) ~bytes:("bytes." ^ kind);
          resp = kind ^ ".resp";
          handler = "handler:" ^ kind;
        }
      in
      Hashtbl.add t.kinds kind n;
      n

let no_respond ?size:_ _payload =
  invalid_arg "Fabric: respond called on a one-way message"

let dispatch t (msg : Msg.t) respond =
  match t.handlers.(msg.dst) with
  | None ->
      invalid_arg
        (Printf.sprintf "Fabric: no handler installed on node %d" msg.dst)
  | Some handler ->
      Engine.spawn t.engine ~label:(per_kind t msg.kind).handler (fun () ->
          handler t { msg; respond })

(* --- fault injection ---------------------------------------------------

   Faults materialize at the receive boundary, after the message has fully
   crossed the wire: send-side resource accounting (buffer pools, link
   serialization) is identical whether or not the message survives, exactly
   as a NIC charges for a frame the far switch then discards. Loopback is
   exempt — a self-addressed message never touches the NIC. *)

let partitioned c ~now ~a ~b =
  List.exists
    (fun p ->
      Net_config.(
        ((p.p_a = a && p.p_b = b) || (p.p_a = b && p.p_b = a))
        && now >= p.p_from && now < p.p_until))
    c.Net_config.partitions

let chaos_deliver t c (msg : Msg.t) deliver =
  let open Net_config in
  if partitioned c ~now:(Engine.now t.engine) ~a:msg.Msg.src ~b:msg.Msg.dst
  then Stats.incr t.stats "chaos.partition_drops"
  else if c.drop_prob > 0.0 && Rng.float t.inject_rng 1.0 < c.drop_prob then
    Stats.incr t.stats "chaos.drops"
  else begin
    (* Each surviving copy draws its own jitter and reorder fate, so a
       duplicate can arrive before its original. *)
    let deliver_copy () =
      let jitter =
        if c.delay_jitter_ns > 0 then
          Rng.int t.inject_rng (c.delay_jitter_ns + 1)
        else 0
      in
      let reordered =
        c.reorder_prob > 0.0 && Rng.float t.inject_rng 1.0 < c.reorder_prob
      in
      if reordered then Stats.incr t.stats "chaos.reorders";
      let extra =
        jitter
        + (if reordered then 2 * t.cfg.Net_config.link_latency else 0)
      in
      if extra = 0 then deliver ()
      else Engine.schedule t.engine ~delay:extra deliver
    in
    deliver_copy ();
    if c.dup_prob > 0.0 && Rng.float t.inject_rng 1.0 < c.dup_prob then begin
      Stats.incr t.stats "chaos.dups";
      deliver_copy ()
    end
  end

(* Fail-stop guard at the receive boundary: a dead source's in-flight
   traffic and a dead destination's arrivals are both discarded — frames
   addressed to a SIGKILLed process land in a NIC nobody services. The
   check runs at the delivery instant (inside any chaos-injected delay),
   so copies already jittered into the future still see the node's latest
   state when they land. *)
let arrive t (msg : Msg.t) deliver =
  if t.dead.(msg.Msg.src) || t.dead.(msg.Msg.dst) then
    Stats.incr t.stats "chaos.crash_drops"
  else deliver ()

(* A message off the wire: through fault injection, if any, to [arrive]. *)
let receive t msg deliver =
  match t.chaos with
  | None -> arrive t msg deliver
  | Some c -> chaos_deliver t c msg (fun () -> arrive t msg deliver)

(* Transport [msg] and invoke [deliver] at the destination. Runs in the
   calling fiber up to the send-side costs, then as a chain of timed
   engine callbacks ({!Engine.after}), one per step at which a transfer
   fiber would block: the same events in the same order, without a fiber.
   The chain starts from a zero-delay event, where a spawned fiber's first
   step would run. An exception in a step still surfaces as
   [Engine.Fiber_failure], labelled as the transfer fiber was. *)
let transmit t (msg : Msg.t) deliver =
  count (per_kind t msg.kind).sent ~size:msg.size;
  if msg.src = msg.dst then begin
    (* Loopback legitimately bypasses the send pool and the sink: a
       self-addressed message never touches the NIC, so no DMA-ready buffer
       is pinned on either side. *)
    count t.loopback ~size:msg.size;
    Engine.schedule t.engine ~delay:t.cfg.Net_config.loopback_latency
      (fun () -> arrive t msg deliver)
  end
  else begin
    if msg.size >= t.cfg.Net_config.rdma_threshold then begin
      (* RDMA path: reserve a sink slot at the destination, RDMA-write, copy
         out. The caller is blocked through slot reservation and setup, which
         is where RDMA backpressure bites. The sink slot IS the RDMA-side
         receive resource (§III-E): one-sided writes land in pre-registered
         sink memory, never consuming a receive work request. *)
      count t.rdma ~size:msg.size;
      let sink = t.sinks.(msg.dst) in
      Rdma_sink.acquire sink;
      Engine.delay t.engine t.cfg.Net_config.rdma_setup;
      let link = t.links.((msg.src * node_count t) + msg.dst) in
      let fail e = raise (Engine.Fiber_failure ("rdma-transfer", e)) in
      Engine.schedule t.engine ~delay:0 (fun () ->
          let wire =
            try Resource.Server.reserve link ~bytes:msg.size with e -> fail e
          in
          Engine.after t.engine wire (fun () ->
              Engine.after t.engine t.cfg.Net_config.link_latency (fun () ->
                  Engine.after t.engine (Rdma_sink.copy_ns sink ~bytes:msg.size)
                    (fun () ->
                      try
                        Rdma_sink.release sink;
                        receive t msg deliver
                      with e -> fail e))))
    end
    else begin
      (* VERB path: grab a DMA-ready send buffer, post, serialize on the
         link; the buffer is reclaimed once the send completes. The receive
         work request the delivery consumes is re-posted at once, so the
         receive side never blocks and is not modelled. *)
      count t.verb ~size:msg.size;
      let pool = t.send_pools.((msg.src * node_count t) + msg.dst) in
      Resource.Pool.acquire pool;
      Engine.delay t.engine t.cfg.Net_config.verb_overhead;
      let link = t.links.((msg.src * node_count t) + msg.dst) in
      let fail e = raise (Engine.Fiber_failure ("verb-transfer", e)) in
      Engine.schedule t.engine ~delay:0 (fun () ->
          let wire =
            try Resource.Server.reserve link ~bytes:msg.size with e -> fail e
          in
          Engine.after t.engine wire (fun () ->
              Resource.Pool.release pool;
              Engine.after t.engine t.cfg.Net_config.link_latency (fun () ->
                  try receive t msg deliver with e -> fail e)))
    end
  end

(* --- reliable delivery (chaos runs only) -------------------------------

   A thin end-to-end layer in the style of RC retransmission, but one the
   simulator can drive through arbitrary loss: requests carry a
   fabric-global sequence number; the receiver remembers every seq it has
   committed and replays the cached outcome for retransmissions, so a
   handler runs at most once per logical message no matter how often the
   wire duplicates or the sender retransmits it; the sender retransmits on
   a jittered exponentially-backed-off timeout until acked/replied or
   [max_retransmits] is exhausted, then raises {!Unreachable}. *)

let fresh_seq t =
  let s = t.rel_seq in
  t.rel_seq <- s + 1;
  s

(* Same clamp discipline as [Coherence.backoff_delay]: exponential in the
   attempt number, capped, with jitter confined to [3d/4, 5d/4] so the
   delay can never collapse to zero nor double. *)
let rel_rto t c ~attempt =
  let open Net_config in
  let base = max 1 c.rto in
  let d = min c.rto_cap (base * (1 lsl min attempt 6)) in
  let lo = max 1 (d - (d / 4)) and hi = d + (d / 4) in
  let jittered = d - (d / 4) + Rng.int t.rto_rng (max 1 ((d / 2) + 1)) in
  max lo (min hi jittered)

(* A settled seq's dedup entry may only be dropped once no copy of that
   request can still be in flight — dropping earlier would let a straggler
   re-run the handler. Copies stop being (re)transmitted the moment the seq
   settles, but already-transmitted copies can linger behind jitter,
   reordering and queueing; one full capped RTO plus the jitter bound
   comfortably covers that, so removals are deferred by that grace rather
   than applied on the spot. *)
let prune_grace (c : Net_config.chaos) =
  c.Net_config.rto_cap + c.Net_config.delay_jitter_ns

(* Reap every [rel_seen] entry below the watermark carried by an incoming
   request: the sender has settled all of them and will never retransmit
   those seqs again. This is the backstop that also collects acked one-way
   entries and cached replies whose explicit ack got lost. *)
let rel_prune t c ~low =
  if low > t.rel_pruned then begin
    let lo = t.rel_pruned and hi = low - 1 in
    t.rel_pruned <- low;
    Engine.schedule t.engine ~delay:(prune_grace c) (fun () ->
        for s = lo to hi do
          Hashtbl.remove t.rel_seen s
        done)
  end

(* The message travelling back from [req]'s destination to its sender. *)
let answer (req : Msg.t) ~size ~kind payload =
  { Msg.src = req.dst; dst = req.src; pid = req.pid; size; kind; payload }

(* A reply or an ack settles its transaction: the outcome is in, the seq
   is no longer pending, and the current attempt wakes unless its timer
   already has. A seq is pending exactly until it settles or gives up. *)
let rel_settle t seq p outcome =
  Ivar.fill p.outcome outcome;
  Hashtbl.remove t.rel_pending seq;
  ignore (Ivar.try_fill p.wake `Done)

(* Acks are pure completion events: zero payload bytes on the wire. *)
let rel_send_ack t ~(req : Msg.t) ~seq =
  transmit t
    (answer req ~size:0 ~kind:(req.Msg.kind ^ ".ack") (Rel_ack { seq }))
    (fun () ->
      match Hashtbl.find_opt t.rel_pending seq with
      | Some p -> rel_settle t seq p None
      | None -> Stats.incr t.stats "chaos.dup_acks")

(* Keepalive for a call whose handler is still running at the receiver:
   zero payload, does not complete the transaction, only refills the
   sender's retransmit budget (consumed by [rel_transact] at its next
   timeout). *)
let rel_send_busy t ~(req : Msg.t) ~seq =
  transmit t
    (answer req ~size:0 ~kind:(req.Msg.kind ^ ".busy") (Rel_busy { seq }))
    (fun () ->
      match Hashtbl.find_opt t.rel_pending seq with
      | Some p -> p.busy <- true
      | None -> ())

(* Requester -> replier ack of a delivered reply, so the replier can drop
   the cached copy promptly instead of waiting for the watermark to crawl
   past it. Removal is deferred by the prune grace for the same reason as
   in [rel_prune]; a lost ack is harmless, the watermark reaps the entry
   eventually. *)
let rel_ack_reply t c ~(req : Msg.t) ~seq =
  let amsg =
    {
      Msg.src = req.Msg.src;
      dst = req.Msg.dst;
      pid = req.Msg.pid;
      size = 0;
      kind = req.Msg.kind ^ ".ack";
      payload = Rel_ack { seq };
    }
  in
  transmit t amsg (fun () ->
      match Hashtbl.find_opt t.rel_seen seq with
      | Some (Rel_replied _) ->
          Engine.schedule t.engine ~delay:(prune_grace c) (fun () ->
              Hashtbl.remove t.rel_seen seq)
      | _ -> ())

(* A delivered reply starts its ack to the replier before it wakes the
   sender. *)
let rel_send_reply t c ~(req : Msg.t) ~seq ~size reply =
  transmit t
    (answer req ~size ~kind:(per_kind t req.Msg.kind).resp
       (Rel_reply { seq; inner = reply }))
    (fun () ->
      match Hashtbl.find_opt t.rel_pending seq with
      | Some p ->
          Engine.spawn t.engine ~label:"rel-reply-ack" (fun () ->
              rel_ack_reply t c ~req ~seq);
          rel_settle t seq p (Some reply)
      | None -> Stats.incr t.stats "chaos.dup_replies")

(* Receive a (possibly retransmitted, possibly duplicated) request. Runs in
   the delivery context, so anything that can block goes to a fresh fiber. *)
let rel_dispatch t c (msg : Msg.t) ~seq ~low ~oneway ~inner =
  rel_prune t c ~low;
  match Hashtbl.find_opt t.rel_seen seq with
  | Some Rel_in_progress ->
      (* The handler is still running; its eventual reply covers this copy
         too. Nothing to replay yet — but tell the sender the call is in
         good hands, or a handler that legitimately blocks longer than the
         retransmit budget (a parked futex wait) reads as a dead peer. *)
      Stats.incr t.stats "chaos.dup_requests";
      Engine.spawn t.engine ~label:"rel-busy" (fun () ->
          rel_send_busy t ~req:msg ~seq)
  | Some Rel_acked ->
      Stats.incr t.stats "chaos.dup_requests";
      Engine.spawn t.engine ~label:"rel-ack" (fun () ->
          rel_send_ack t ~req:msg ~seq)
  | Some (Rel_replied (size, reply)) ->
      Stats.incr t.stats "chaos.dup_requests";
      Stats.incr t.stats "chaos.replayed_replies";
      Engine.spawn t.engine ~label:"rel-replay" (fun () ->
          rel_send_reply t c ~req:msg ~seq ~size reply)
  | None ->
      let inner_msg = { msg with Msg.payload = inner } in
      if oneway then begin
        (* Delivery is the commit point — mirroring the unreliable fabric,
           where a send is "done" once the delivery event fires and the
           handler runs in its own fiber. Ack first, dispatch exactly once. *)
        Hashtbl.replace t.rel_seen seq Rel_acked;
        Engine.spawn t.engine ~label:"rel-ack" (fun () ->
            rel_send_ack t ~req:msg ~seq);
        dispatch t inner_msg no_respond
      end
      else begin
        Hashtbl.replace t.rel_seen seq Rel_in_progress;
        let respond ?(size = 64) reply =
          (match Hashtbl.find_opt t.rel_seen seq with
          | Some Rel_in_progress -> ()
          | _ -> invalid_arg "Fabric: respond called twice");
          (* Cache before sending: from here on, retransmissions replay the
             cached reply instead of re-running the handler. *)
          Hashtbl.replace t.rel_seen seq (Rel_replied (size, reply));
          rel_send_reply t c ~req:msg ~seq ~size reply
        in
        dispatch t inner_msg respond
      end

(* The sender-side watermark: every seq below the smallest still-pending
   one has settled and will never be retransmitted again, so the receiver
   may reap its dedup state for them (after the prune grace). *)
let rel_watermark t =
  Hashtbl.fold (fun s _ acc -> min s acc) t.rel_pending t.rel_seq

(* Send [payload] reliably and block until the far side acks (one-way) or
   replies (call). Returns [None] for acked one-way sends. *)
let rel_transact t c ~src ~dst ~pid ~kind ~size ~oneway payload =
  let seq = fresh_seq t in
  let p = { outcome = Ivar.create (); wake = Ivar.create (); busy = false } in
  Hashtbl.replace t.rel_pending seq p;
  let rec go attempt =
    if t.dead.(src) then begin
      (* The sending node died mid-transaction. Its fiber must unwind
         promptly — grinding through the remaining retry budget would keep
         a zombie alive long past the crash. *)
      Hashtbl.remove t.rel_pending seq;
      raise (Unreachable { src; dst; kind })
    end;
    if t.detected.(dst) then begin
      (* The peer is already declared dead; retransmitting is pointless. *)
      Hashtbl.remove t.rel_pending seq;
      raise (Unreachable { src; dst; kind })
    end;
    if attempt > c.Net_config.max_retransmits then begin
      Hashtbl.remove t.rel_pending seq;
      raise (Unreachable { src; dst; kind })
    end;
    if attempt > 0 then Stats.incr t.stats "chaos.retransmits";
    let low = rel_watermark t in
    let msg =
      {
        Msg.src;
        dst;
        pid;
        size;
        kind;
        payload = Rel_req { seq; low; oneway; inner = payload };
      }
    in
    transmit t msg (fun () ->
        rel_dispatch t c msg ~seq ~low ~oneway ~inner:payload);
    (* The outcome may already be in: transmit blocks this fiber through
       the send-side costs, during which an earlier copy's reply can
       arrive. *)
    if Ivar.is_full p.outcome then Ivar.read t.engine p.outcome
    else begin
      let wake = Ivar.create () in
      p.wake <- wake;
      Engine.schedule t.engine ~delay:(rel_rto t c ~attempt) (fun () ->
          ignore (Ivar.try_fill wake `Timeout));
      match Ivar.read t.engine wake with
      | `Done -> Ivar.read t.engine p.outcome
      | `Timeout when p.busy ->
          (* The receiver vouched for the call since our last transmit:
             the handler is alive, just slow. Refill the budget (the RTO
             stays at its current backoff — no point hammering a peer
             that already has the request). *)
          p.busy <- false;
          Stats.incr t.stats "chaos.busy_waits";
          go attempt
      | `Timeout ->
          Stats.incr t.stats "chaos.timeouts";
          go (attempt + 1)
    end
  in
  go 0

(* Zero-size messages are legal: a pure completion event (e.g. a
   zero-payload ack) still occupies buffer slots and pays per-message
   overheads, it just adds no serialization time. Only negative sizes are
   programming errors. *)
let send t ~src ~dst ~pid ~kind ~size payload =
  check_node t src "send";
  check_node t dst "send";
  if size < 0 then invalid_arg "Fabric.send: negative size";
  match t.chaos with
  | Some c when src <> dst ->
      ignore (rel_transact t c ~src ~dst ~pid ~kind ~size ~oneway:true payload)
  | _ ->
      (* Pristine RC transport (and loopback, which is lossless even under
         chaos): fire and forget. *)
      let msg = { Msg.src; dst; pid; size; kind; payload } in
      transmit t msg (fun () -> dispatch t msg no_respond)

let call t ~src ~dst ~pid ~kind ~size payload =
  check_node t src "call";
  check_node t dst "call";
  if size < 0 then invalid_arg "Fabric.call: negative size";
  match t.chaos with
  | Some c when src <> dst -> (
      match
        rel_transact t c ~src ~dst ~pid ~kind ~size ~oneway:false payload
      with
      | Some reply -> reply
      | None -> assert false (* a call resolves with a reply, never an ack *))
  | _ ->
      let msg = { Msg.src; dst; pid; size; kind; payload } in
      let reply = Ivar.create () in
      let responded = ref false in
      let respond ?(size = 64) r =
        if !responded then invalid_arg "Fabric: respond called twice";
        responded := true;
        transmit t
          (answer msg ~size ~kind:(per_kind t kind).resp r)
          (fun () -> Ivar.fill reply r)
      in
      transmit t msg (fun () -> dispatch t msg respond);
      Ivar.read t.engine reply

let stats t = t.stats

let rel_table_sizes t =
  (Hashtbl.length t.rel_seen, Hashtbl.length t.rel_pending)

let send_pool_waits t =
  Array.fold_left (fun acc p -> acc + Resource.Pool.waits p) 0 t.send_pools

let recv_pool_waits _ = 0

let sink_waits t =
  Array.fold_left (fun acc s -> acc + Rdma_sink.exhaustion_waits s) 0 t.sinks
