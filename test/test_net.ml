(* Tests for the simulated InfiniBand fabric: verb/RDMA path selection,
   buffer-pool backpressure, RPC, loopback, statistics. *)

open Dex_sim
open Dex_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_cfg ?(nodes = 2) ?send_pool_slots ?sink_slots () =
  let cfg = Net_config.default ~nodes () in
  let cfg =
    match send_pool_slots with
    | None -> cfg
    | Some n -> { cfg with Net_config.send_pool_slots = n }
  in
  match sink_slots with
  | None -> cfg
  | Some n -> { cfg with Net_config.sink_slots = n }

let echo_handler _fabric (env : Fabric.env) =
  match env.Fabric.msg.Msg.payload with
  | Msg.Ping n -> env.Fabric.respond (Msg.Pong n)
  | _ -> Alcotest.fail "unexpected payload"

let test_rpc_roundtrip () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Fabric.set_handler fabric ~node:1 echo_handler;
  let result = ref (-1) in
  let elapsed = ref 0 in
  Engine.spawn e (fun () ->
      let t0 = Engine.now e in
      (match Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 7)
       with
      | Msg.Pong n -> result := n
      | _ -> Alcotest.fail "bad reply");
      elapsed := Engine.now e - t0);
  Engine.run_until_quiescent e;
  check_int "echoed" 7 !result;
  (* Two verb messages: each ~ verb overhead + serialization + link latency;
     must land in the single-digit-microsecond range. *)
  check_bool "RTT plausible" true
    (!elapsed > Time_ns.us 3 && !elapsed < Time_ns.us 10)

let test_rpc_concurrent_interleaved () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Fabric.set_handler fabric ~node:1 echo_handler;
  let replies = ref [] in
  for i = 1 to 10 do
    Engine.spawn e (fun () ->
        match
          Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping i)
        with
        | Msg.Pong n -> replies := n :: !replies
        | _ -> Alcotest.fail "bad reply")
  done;
  Engine.run_until_quiescent e;
  Alcotest.(check (list int))
    "every caller got its own reply" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.sort compare !replies)

let test_loopback () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Fabric.set_handler fabric ~node:0 echo_handler;
  let elapsed = ref 0 in
  Engine.spawn e (fun () ->
      let t0 = Engine.now e in
      ignore (Fabric.call fabric ~src:0 ~dst:0 ~kind:"ping" ~size:64 (Msg.Ping 1));
      elapsed := Engine.now e - t0);
  Engine.run_until_quiescent e;
  check_bool "loopback much faster than network" true (!elapsed < Time_ns.us 1);
  check_int "loopback path used" 2 (Stats.get (Fabric.stats fabric) "path.loopback")

let test_path_selection () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  let received = ref 0 in
  Fabric.set_handler fabric ~node:1 (fun _ _ -> incr received);
  Engine.spawn e (fun () ->
      Fabric.send fabric ~src:0 ~dst:1 ~kind:"ctl" ~size:64 (Msg.Ping 0);
      Fabric.send fabric ~src:0 ~dst:1 ~kind:"page" ~size:4096 (Msg.Ping 0));
  Engine.run_until_quiescent e;
  let st = Fabric.stats fabric in
  check_int "both delivered" 2 !received;
  check_int "verb for small" 1 (Stats.get st "path.verb");
  check_int "rdma for 4KB" 1 (Stats.get st "path.rdma");
  check_int "kind count" 1 (Stats.get st "sent.page");
  check_int "kind bytes" 4096 (Stats.get st "bytes.page")

let test_rdma_slower_than_verb_for_page () =
  (* An RDMA 4KB fetch costs setup + serialization + copy; it must be in the
     ~10us range with the calibrated defaults (paper: 13.6us end-to-end
     page retrieval including protocol work). *)
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  let arrival = ref 0 in
  Fabric.set_handler fabric ~node:1 (fun _ _ -> arrival := Engine.now e);
  Engine.spawn e (fun () ->
      Fabric.send fabric ~src:0 ~dst:1 ~kind:"page" ~size:4096 (Msg.Ping 0));
  Engine.run_until_quiescent e;
  check_bool "page transfer ~10us" true
    (!arrival > Time_ns.us 8 && !arrival < Time_ns.us 14)

let test_zero_size_messages () =
  (* A zero-payload ack is a legal message: it still travels the verb path
     and pays per-message overheads, it just adds no serialization time.
     Only negative sizes are programming errors. *)
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Fabric.set_handler fabric ~node:1 (fun _ env ->
      if env.Fabric.msg.Msg.kind = "ping" then
        env.Fabric.respond ~size:0 (Msg.Pong 9));
  let got = ref (-1) in
  Engine.spawn e (fun () ->
      Fabric.send fabric ~src:0 ~dst:1 ~kind:"ack" ~size:0 (Msg.Ping 0);
      (match Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:0 (Msg.Ping 9)
       with
      | Msg.Pong n -> got := n
      | _ -> Alcotest.fail "bad reply");
      match Fabric.send fabric ~src:0 ~dst:1 ~kind:"bad" ~size:(-1) (Msg.Ping 0)
      with
      | () -> Alcotest.fail "negative size must be rejected"
      | exception Invalid_argument _ -> ());
  Engine.run_until_quiescent e;
  check_int "zero-size RPC completed" 9 !got;
  let st = Fabric.stats fabric in
  check_int "zero-size messages rode the verb path" 3
    (Stats.get st "path.verb");
  check_int "and added no bytes" 0 (Stats.get st "bytes.verb")

let test_per_path_accounting () =
  (* The receive-side asymmetry of Sec. III-E: verb messages consume (and
     immediately recycle) a receive work request, RDMA transfers land in
     sink slots instead, and loopback touches neither. The per-path stats
     must reflect exactly which resources each message class used. *)
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Fabric.set_handler fabric ~node:0 (fun _ _ -> ());
  Fabric.set_handler fabric ~node:1 (fun _ _ -> ());
  Engine.spawn e (fun () ->
      Fabric.send fabric ~src:0 ~dst:1 ~kind:"ctl" ~size:64 (Msg.Ping 0);
      Fabric.send fabric ~src:0 ~dst:1 ~kind:"page" ~size:8192 (Msg.Ping 0);
      Fabric.send fabric ~src:0 ~dst:0 ~kind:"self" ~size:64 (Msg.Ping 0));
  Engine.run_until_quiescent e;
  let st = Fabric.stats fabric in
  check_int "one verb message" 1 (Stats.get st "path.verb");
  check_int "verb bytes" 64 (Stats.get st "bytes.verb");
  check_int "one rdma message" 1 (Stats.get st "path.rdma");
  check_int "rdma bytes" 8192 (Stats.get st "bytes.rdma");
  check_int "one loopback message" 1 (Stats.get st "path.loopback");
  check_int "loopback bytes" 64 (Stats.get st "bytes.loopback");
  (* With ample pool capacity nothing waits; the accessors exist so the
     protocol layer can assert the same on its own traffic. *)
  check_int "no recv-pool waits" 0 (Fabric.recv_pool_waits fabric);
  check_int "no sink waits" 0 (Fabric.sink_waits fabric)

let test_send_pool_backpressure () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ~send_pool_slots:1 ()) in
  let received = ref 0 in
  Fabric.set_handler fabric ~node:1 (fun _ _ -> incr received);
  for _ = 1 to 8 do
    Engine.spawn e (fun () ->
        Fabric.send fabric ~src:0 ~dst:1 ~kind:"ctl" ~size:1024 (Msg.Ping 0))
  done;
  Engine.run_until_quiescent e;
  check_int "all delivered despite exhaustion" 8 !received;
  check_bool "pool exhaustion observed" true (Fabric.send_pool_waits fabric > 0)

let test_sink_backpressure () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ~sink_slots:1 ()) in
  let received = ref 0 in
  Fabric.set_handler fabric ~node:1 (fun _ _ -> incr received);
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Fabric.send fabric ~src:0 ~dst:1 ~kind:"page" ~size:4096 (Msg.Ping 0))
  done;
  Engine.run_until_quiescent e;
  check_int "all delivered despite sink pressure" 4 !received;
  check_bool "sink exhaustion observed" true (Fabric.sink_waits fabric > 0)

let test_link_fifo_ordering () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  let log = ref [] in
  Fabric.set_handler fabric ~node:1 (fun _ env ->
      match env.Fabric.msg.Msg.payload with
      | Msg.Ping n -> log := n :: !log
      | _ -> ());
  Engine.spawn e (fun () ->
      for i = 1 to 5 do
        Fabric.send fabric ~src:0 ~dst:1 ~kind:"ctl" ~size:64 (Msg.Ping i)
      done);
  Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "in-order delivery" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_no_handler_error () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Engine.spawn e (fun () ->
      Fabric.send fabric ~src:0 ~dst:1 ~kind:"ctl" ~size:64 (Msg.Ping 0));
  (match Engine.run_until_quiescent e with
  | () -> Alcotest.fail "expected failure"
  | exception Engine.Fiber_failure (_, Invalid_argument _) -> ()
  | exception _ -> Alcotest.fail "wrong exception")

let test_bad_node_rejected () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Engine.spawn e (fun () ->
      match Fabric.send fabric ~src:0 ~dst:5 ~kind:"x" ~size:1 (Msg.Ping 0) with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ());
  Engine.run_until_quiescent e

let test_respond_twice_rejected () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Fabric.set_handler fabric ~node:1 (fun _ env ->
      env.Fabric.respond (Msg.Pong 1);
      match env.Fabric.respond (Msg.Pong 2) with
      | () -> Alcotest.fail "second respond should raise"
      | exception Invalid_argument _ -> ());
  Engine.spawn e (fun () ->
      ignore (Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 1)));
  Engine.run_until_quiescent e

let test_respond_on_oneway_rejected () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  let checked = ref false in
  Fabric.set_handler fabric ~node:1 (fun _ env ->
      (match env.Fabric.respond (Msg.Pong 0) with
      | () -> Alcotest.fail "respond on one-way should raise"
      | exception Invalid_argument _ -> ());
      checked := true);
  Engine.spawn e (fun () ->
      Fabric.send fabric ~src:0 ~dst:1 ~kind:"ctl" ~size:64 (Msg.Ping 0));
  Engine.run_until_quiescent e;
  check_bool "handler ran" true !checked

let test_bandwidth_contention () =
  (* Two big transfers on the same link must take about twice as long as
     one: the link is a FIFO bandwidth server. *)
  let run n =
    let e = Engine.create () in
    let fabric = Fabric.create e (small_cfg ()) in
    Fabric.set_handler fabric ~node:1 (fun _ _ -> ());
    for _ = 1 to n do
      Engine.spawn e (fun () ->
          Fabric.send fabric ~src:0 ~dst:1 ~kind:"bulk" ~size:1_000_000
            (Msg.Ping 0))
    done;
    Engine.run_until_quiescent e;
    Engine.now e
  in
  let t1 = run 1 and t2 = run 2 in
  (* Serialization on the shared link dominates, but per-message setup and
     the sink copy overlap partially, so the ratio sits below 2. *)
  let ratio = float_of_int t2 /. float_of_int t1 in
  check_bool "transfers serialized on the link" true (ratio > 1.4 && ratio < 2.3)

let test_config_validation () =
  let bad f =
    let cfg = f (Net_config.default ~nodes:2 ()) in
    match Net_config.validate cfg with
    | () -> Alcotest.fail "expected rejection"
    | exception Invalid_argument _ -> ()
  in
  bad (fun c -> { c with Net_config.nodes = 0 });
  bad (fun c -> { c with Net_config.link_bandwidth_bytes_per_us = 0.0 });
  bad (fun c -> { c with Net_config.send_pool_slots = 0 });
  bad (fun c -> { c with Net_config.rdma_threshold = 0 })

let test_sink_accounting () =
  let e = Engine.create () in
  let sink = Rdma_sink.create e ~slots:4 ~copy_ns_per_byte:0.1 in
  check_int "slots" 4 (Rdma_sink.slots sink);
  Engine.spawn e (fun () ->
      Rdma_sink.acquire sink;
      Rdma_sink.acquire sink;
      check_int "two in use" 2 (Rdma_sink.in_use sink);
      Rdma_sink.copy_out_and_release sink ~bytes:4096;
      check_int "one released" 1 (Rdma_sink.in_use sink);
      Rdma_sink.copy_out_and_release sink ~bytes:4096);
  Engine.run_until_quiescent e;
  check_int "all released" 0 (Rdma_sink.in_use sink);
  check_int "no waits" 0 (Rdma_sink.exhaustion_waits sink)

(* --- chaos mode -------------------------------------------------------- *)

let chaos_cfg ?(nodes = 2) ?(seed = 7) ?(drop = 0.0) ?(dup = 0.0)
    ?(reorder = 0.0) ?(jitter = 0) ?(partitions = []) ?(degrades = [])
    ?(crashes = []) ?rto ?max_retransmits () =
  let c =
    {
      Net_config.chaos_default with
      Net_config.chaos_seed = seed;
      drop_prob = drop;
      dup_prob = dup;
      reorder_prob = reorder;
      delay_jitter_ns = jitter;
      partitions;
      degrades;
      crashes;
    }
  in
  let c =
    match rto with
    | None -> c
    | Some r ->
        { c with Net_config.rto = r; rto_cap = max r c.Net_config.rto_cap }
  in
  let c =
    match max_retransmits with
    | None -> c
    | Some m -> { c with Net_config.max_retransmits = m }
  in
  { (Net_config.default ~nodes ()) with Net_config.chaos = Some c }

let chaos_stat fabric name = Stats.get (Fabric.stats fabric) name

let test_chaos_off_is_pristine () =
  let e = Engine.create () in
  let fabric = Fabric.create e (small_cfg ()) in
  Fabric.set_handler fabric ~node:1 echo_handler;
  check_bool "reliable layer off" false (Fabric.reliable fabric);
  Engine.spawn e (fun () ->
      ignore (Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 1)));
  Engine.run_until_quiescent e;
  check_int "no chaos counters" 0
    (chaos_stat fabric "chaos.drops" + chaos_stat fabric "chaos.retransmits")

let test_chaos_rpc_survives_drops () =
  let e = Engine.create () in
  let fabric =
    Fabric.create e (chaos_cfg ~drop:0.35 ~rto:(Time_ns.us 20) ())
  in
  Fabric.set_handler fabric ~node:1 echo_handler;
  let got = ref [] in
  Engine.spawn e (fun () ->
      for i = 1 to 25 do
        match Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping i) with
        | Msg.Pong n -> got := n :: !got
        | _ -> Alcotest.fail "bad reply"
      done);
  Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "every RPC completed, in order"
    (List.init 25 (fun i -> i + 1))
    (List.rev !got);
  check_bool "drops injected" true (chaos_stat fabric "chaos.drops" > 0);
  check_bool "retransmissions recovered" true
    (chaos_stat fabric "chaos.retransmits" > 0)

let test_chaos_exactly_once_under_dup () =
  let e = Engine.create () in
  let fabric =
    Fabric.create e
      (chaos_cfg ~seed:11 ~drop:0.2 ~dup:0.6 ~rto:(Time_ns.us 20) ())
  in
  let delivered = ref 0 in
  Fabric.set_handler fabric ~node:1 (fun _ _ -> incr delivered);
  Engine.spawn e (fun () ->
      for _ = 1 to 30 do
        Fabric.send fabric ~src:0 ~dst:1 ~kind:"ctl" ~size:64 (Msg.Ping 0)
      done);
  Engine.run_until_quiescent e;
  check_int "each logical send dispatched exactly once" 30 !delivered;
  check_bool "duplicates injected" true (chaos_stat fabric "chaos.dups" > 0);
  check_bool "receiver discarded duplicates" true
    (chaos_stat fabric "chaos.dup_requests" > 0)

let test_chaos_partition_heals () =
  let heal_at = Time_ns.us 60 in
  let e = Engine.create () in
  let fabric =
    Fabric.create e
      (chaos_cfg ~rto:(Time_ns.us 10)
         ~partitions:
           [ { Net_config.p_a = 0; p_b = 1; p_from = 0; p_until = heal_at } ]
         ())
  in
  Fabric.set_handler fabric ~node:1 echo_handler;
  let done_at = ref 0 in
  Engine.spawn e (fun () ->
      (match Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 9) with
      | Msg.Pong 9 -> ()
      | _ -> Alcotest.fail "bad reply");
      done_at := Engine.now e);
  Engine.run_until_quiescent e;
  check_bool "RPC completed only after the partition healed" true
    (!done_at > heal_at);
  check_bool "partition discarded traffic" true
    (chaos_stat fabric "chaos.partition_drops" > 0);
  check_bool "sender retransmitted through the outage" true
    (chaos_stat fabric "chaos.retransmits" > 0)

let test_chaos_unreachable () =
  let e = Engine.create () in
  let fabric =
    Fabric.create e
      (chaos_cfg ~rto:(Time_ns.us 10) ~max_retransmits:3
         ~partitions:
           [ { Net_config.p_a = 0; p_b = 1; p_from = 0; p_until = Time_ns.s 10 } ]
         ())
  in
  Fabric.set_handler fabric ~node:1 echo_handler;
  Engine.spawn e (fun () ->
      ignore (Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 0)));
  (match Engine.run_until_quiescent e with
  | () -> Alcotest.fail "expected Unreachable"
  | exception Engine.Fiber_failure (_, Fabric.Unreachable { src = 0; dst = 1; _ })
    -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  check_int "gave up after max_retransmits" 3
    (chaos_stat fabric "chaos.retransmits")

let test_chaos_reordering () =
  let e = Engine.create () in
  let fabric = Fabric.create e (chaos_cfg ~seed:3 ~reorder:0.4 ()) in
  let log = ref [] in
  Fabric.set_handler fabric ~node:1 (fun _ env ->
      match env.Fabric.msg.Msg.payload with
      | Msg.Ping n -> log := n :: !log
      | _ -> ());
  for i = 1 to 10 do
    Engine.spawn e (fun () ->
        Fabric.send fabric ~src:0 ~dst:1 ~kind:"ctl" ~size:64 (Msg.Ping i))
  done;
  Engine.run_until_quiescent e;
  let log = List.rev !log in
  Alcotest.(check (list int))
    "all messages delivered exactly once"
    (List.init 10 (fun i -> i + 1))
    (List.sort compare log);
  check_bool "reordering injected" true
    (chaos_stat fabric "chaos.reorders" > 0);
  check_bool "later traffic overtook a held-back message" true
    (log <> List.init 10 (fun i -> i + 1))

let test_chaos_degrade_slows_link () =
  let run cfg =
    let e = Engine.create () in
    let fabric = Fabric.create e cfg in
    let arrived = ref 0 in
    Fabric.set_handler fabric ~node:1 (fun _ _ -> arrived := Engine.now e);
    Engine.spawn e (fun () ->
        Fabric.send fabric ~src:0 ~dst:1 ~kind:"bulk" ~size:1_000_000
          (Msg.Ping 0));
    Engine.run e;
    !arrived
  in
  let healthy = run (small_cfg ()) in
  let degraded =
    run
      (chaos_cfg ~rto:(Time_ns.ms 50)
         ~degrades:
           [ { Net_config.d_src = 0; d_dst = 1; d_at = 0; d_factor = 0.1 } ]
         ())
  in
  let ratio = float_of_int degraded /. float_of_int healthy in
  check_bool "10x bandwidth cut slows the transfer accordingly" true
    (ratio > 5.0 && ratio < 12.0)

let test_chaos_config_validation () =
  let bad f =
    let c = f Net_config.chaos_default in
    let cfg =
      { (Net_config.default ~nodes:2 ()) with Net_config.chaos = Some c }
    in
    match Net_config.validate cfg with
    | () -> Alcotest.fail "expected rejection"
    | exception Invalid_argument _ -> ()
  in
  bad (fun c -> { c with Net_config.drop_prob = 1.5 });
  bad (fun c -> { c with Net_config.dup_prob = -0.1 });
  bad (fun c -> { c with Net_config.delay_jitter_ns = -1 });
  bad (fun c -> { c with Net_config.rto = 0 });
  bad (fun c -> { c with Net_config.rto_cap = 1 });
  bad (fun c -> { c with Net_config.max_retransmits = -1 });
  bad (fun c ->
      {
        c with
        Net_config.partitions =
          [ { Net_config.p_a = 0; p_b = 0; p_from = 0; p_until = 10 } ];
      });
  bad (fun c ->
      {
        c with
        Net_config.partitions =
          [ { Net_config.p_a = 0; p_b = 1; p_from = 10; p_until = 5 } ];
      });
  bad (fun c ->
      {
        c with
        Net_config.degrades =
          [ { Net_config.d_src = 0; d_dst = 9; d_at = 0; d_factor = 0.5 } ];
      });
  bad (fun c ->
      {
        c with
        Net_config.degrades =
          [ { Net_config.d_src = 0; d_dst = 1; d_at = 0; d_factor = 0.0 } ];
      })

(* Satellite regression: the reliable layer's dedup and pending tables must
   drain once traffic quiesces — replies are acked and settled entries are
   forgotten (after a grace window covering in-flight straggler copies). *)
let test_chaos_tables_pruned () =
  let e = Engine.create () in
  let fabric =
    Fabric.create e
      (chaos_cfg ~seed:5 ~drop:0.2 ~dup:0.3 ~rto:(Time_ns.us 20) ())
  in
  Fabric.set_handler fabric ~node:1 echo_handler;
  for i = 1 to 50 do
    Engine.spawn e (fun () ->
        ignore
          (Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping i)))
  done;
  Engine.run_until_quiescent e;
  (* A dropped reply-ack can leave its entry stranded; the next message's
     piggybacked watermark prunes every settled predecessor, so one more
     round trip drains the tail of the chaotic burst. *)
  Engine.spawn e (fun () ->
      ignore
        (Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 0)));
  Engine.run_until_quiescent e;
  let seen, pending = Fabric.rel_table_sizes fabric in
  check_int "no pending transactions" 0 pending;
  check_bool
    (Printf.sprintf "dedup table pruned after quiescence (%d left)" seen)
    true (seen <= 2)

(* --- fail-stop crashes ------------------------------------------------- *)

let test_crash_blackhole_and_detection () =
  let e = Engine.create () in
  let fabric =
    Fabric.create e
      (chaos_cfg ~nodes:3 ~rto:(Time_ns.us 10) ~max_retransmits:3 ())
  in
  Fabric.set_handler fabric ~node:1 echo_handler;
  Fabric.set_handler fabric ~node:2 echo_handler;
  let order = ref [] in
  let sub tag = Fabric.on_crash fabric (fun node -> order := (tag, node) :: !order) in
  let (_ : unit -> unit) = sub "a" in
  let unsubscribe_gone = sub "gone" in
  let (_ : unit -> unit) = sub "b" in
  unsubscribe_gone ();
  Engine.spawn e (fun () ->
      ignore
        (Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 1));
      Fabric.crash fabric ~node:1;
      check_bool "dead immediately" true (Fabric.crashed fabric ~node:1);
      check_bool "not yet detected" false (Fabric.crash_detected fabric ~node:1);
      (* Talking to the dead node exhausts the retry budget. *)
      match
        Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 2)
      with
      | _ -> Alcotest.fail "expected Unreachable"
      | exception Fabric.Unreachable { dst = 1; _ } ->
          Fabric.declare_dead fabric ~node:1;
          check_bool "now detected" true (Fabric.crash_detected fabric ~node:1));
  Engine.run_until_quiescent e;
  check_bool "deliveries to the dead node were black-holed" true
    (chaos_stat fabric "chaos.crash_drops" > 0);
  check_int "crash counted" 1 (chaos_stat fabric "chaos.node_crashes");
  Alcotest.(check (list (pair string int)))
    "live subscribers ran once, in registration order"
    [ ("a", 1); ("b", 1) ]
    (List.rev !order)

(* A scheduled crash with zero traffic towards the dead node must still be
   declared via the keepalive backstop (detection budget), and the healthy
   pair must keep working. *)
let test_crash_scheduled_and_keepalive () =
  let e = Engine.create () in
  let fabric =
    Fabric.create e
      (chaos_cfg ~nodes:3 ~rto:(Time_ns.us 10) ~max_retransmits:2
         ~crashes:[ { Net_config.crash_node = 2; crash_at = Time_ns.us 5 } ]
         ())
  in
  Fabric.set_handler fabric ~node:1 echo_handler;
  Fabric.set_handler fabric ~node:2 echo_handler;
  let declared_at = ref (-1) in
  let (_ : unit -> unit) =
    Fabric.on_crash fabric (fun node ->
        if node = 2 then declared_at := Engine.now e)
  in
  Engine.spawn e (fun () ->
      ignore
        (Fabric.call fabric ~src:0 ~dst:1 ~kind:"ping" ~size:64 (Msg.Ping 7)));
  Engine.run_until_quiescent e;
  check_bool "dead at the scheduled time" true (Fabric.crashed fabric ~node:2);
  check_bool "keepalive declared the silent death" true
    (!declared_at > Time_ns.us 5);
  check_bool "crash requires chaos mode" true
    (match
       Fabric.crash (Fabric.create (Engine.create ()) (small_cfg ())) ~node:1
     with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "dex_net"
    [
      ( "fabric",
        [
          Alcotest.test_case "RPC roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "concurrent RPCs" `Quick
            test_rpc_concurrent_interleaved;
          Alcotest.test_case "loopback" `Quick test_loopback;
          Alcotest.test_case "verb/RDMA path selection" `Quick
            test_path_selection;
          Alcotest.test_case "4KB page cost" `Quick
            test_rdma_slower_than_verb_for_page;
          Alcotest.test_case "send-pool backpressure" `Quick
            test_send_pool_backpressure;
          Alcotest.test_case "sink backpressure" `Quick test_sink_backpressure;
          Alcotest.test_case "in-order delivery" `Quick test_link_fifo_ordering;
          Alcotest.test_case "missing handler" `Quick test_no_handler_error;
          Alcotest.test_case "bad node" `Quick test_bad_node_rejected;
          Alcotest.test_case "respond twice" `Quick test_respond_twice_rejected;
          Alcotest.test_case "respond on one-way" `Quick
            test_respond_on_oneway_rejected;
          Alcotest.test_case "bandwidth contention" `Quick
            test_bandwidth_contention;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "sink accounting" `Quick test_sink_accounting;
          Alcotest.test_case "zero-size messages" `Quick
            test_zero_size_messages;
          Alcotest.test_case "per-path accounting" `Quick
            test_per_path_accounting;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "chaos off is pristine" `Quick
            test_chaos_off_is_pristine;
          Alcotest.test_case "RPCs survive drops" `Quick
            test_chaos_rpc_survives_drops;
          Alcotest.test_case "exactly-once under duplication" `Quick
            test_chaos_exactly_once_under_dup;
          Alcotest.test_case "transient partition heals" `Quick
            test_chaos_partition_heals;
          Alcotest.test_case "permanent partition raises" `Quick
            test_chaos_unreachable;
          Alcotest.test_case "reordering" `Quick test_chaos_reordering;
          Alcotest.test_case "bandwidth degrade" `Quick
            test_chaos_degrade_slows_link;
          Alcotest.test_case "chaos config validation" `Quick
            test_chaos_config_validation;
          Alcotest.test_case "tables pruned after quiescence" `Quick
            test_chaos_tables_pruned;
        ] );
      ( "crash",
        [
          Alcotest.test_case "black-hole + organic detection" `Quick
            test_crash_blackhole_and_detection;
          Alcotest.test_case "scheduled crash + keepalive backstop" `Quick
            test_crash_scheduled_and_keepalive;
        ] );
    ]
