(* Tests for the memory consistency protocol: ownership transitions, data
   shipping, coalescing, NACK/retry, invariants and consistency properties. *)

open Dex_sim
open Dex_mem
open Dex_proto

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i64 = Alcotest.(check int64)

(* One protocol instance over a fresh n-node fabric, message routing
   (protocol and replication) installed on every node and failure
   declarations routed to the directory reclaim. [net] overrides the
   fabric configuration (used by the chaos suite); its node count must
   match [nodes]. *)
let setup_with_fabric ?(nodes = 4) ?seed ?cfg ?net () =
  let engine = Engine.create () in
  let net_cfg =
    match net with
    | Some n -> n
    | None -> Dex_net.Net_config.default ~nodes ()
  in
  let fabric = Dex_net.Fabric.create engine net_cfg in
  let coh = Coherence.create ?cfg ?seed fabric ~origin:0 in
  for node = 0 to nodes - 1 do
    Dex_net.Fabric.set_handler fabric ~node (fun _ env ->
        if
          not
            (Coherence.handler coh env
            || Dex_ha.Ha.router (Coherence.ha coh) env)
        then failwith "test_proto: unrouted message")
  done;
  Dex_net.Fabric.set_crash_handler fabric (fun node ->
      Coherence.reclaim_node coh ~node);
  (engine, coh, fabric)

let setup ?nodes ?seed ?cfg ?net () =
  let engine, coh, _ = setup_with_fabric ?nodes ?seed ?cfg ?net () in
  (engine, coh)

(* Page-authority probes: shard 0's directory (the only one with one
   shard), the node serving a page, and the re-homed pages. *)
let dir0 coh = Authority.directory (Coherence.authority coh) ~shard:0
let page_home coh vpn = (Authority.route (Coherence.authority coh) vpn).node
let rehomed_pages coh = Authority.rehomed_pages (Coherence.authority coh)

(* Accumulated across every property case that ran over a chaos fabric, so
   a final directed test can prove the fault paths were actually
   exercised (not vacuously green because nothing was ever dropped). *)
let chaos_retransmits = ref 0
let chaos_partition_drops = ref 0
let chaos_faults_injected = ref 0

let harvest_chaos fabric =
  let get = Stats.get (Dex_net.Fabric.stats fabric) in
  chaos_retransmits := !chaos_retransmits + get "chaos.retransmits";
  chaos_partition_drops := !chaos_partition_drops + get "chaos.partition_drops";
  chaos_faults_injected :=
    !chaos_faults_injected + get "chaos.drops" + get "chaos.dups"
    + get "chaos.reorders"

(* The fault mix the acceptance criteria call for: 5% drops, 2% dups,
   reordering and jitter on, and (with more than 2 nodes) a transient
   partition cutting node 2 off from the origin that heals mid-run. RTOs
   are tightened so the short property programs retransmit through the
   outage instead of idling. *)
let chaos_net ~nodes =
  let open Dex_net.Net_config in
  let chaos =
    {
      chaos_default with
      chaos_seed = 99;
      drop_prob = 0.05;
      dup_prob = 0.02;
      reorder_prob = 0.05;
      delay_jitter_ns = Time_ns.ns 1_000;
      partitions =
        (if nodes > 2 then
           [
             {
               p_a = 0;
               p_b = 2;
               p_from = Time_ns.us 50;
               p_until = Time_ns.us 250;
             };
           ]
         else []);
      rto = Time_ns.us 50;
      rto_cap = Time_ns.us 400;
    }
  in
  { (default ~nodes ()) with chaos = Some chaos }

(* Page ownership spread over 4 home nodes: the SC properties must hold
   unchanged when requests route to per-shard directories. *)
let shard_cfg = { Proto_config.default with sharding = `Hash 4 }

let addr0 = Layout.heap_base

(* Run [f] as a fiber and drive the simulation to quiescence. *)
let run_fiber engine f =
  Engine.spawn engine f;
  Engine.run_until_quiescent engine

let test_remote_read_fetches_data () =
  let engine, coh = setup () in
  let seen = ref 0L in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 42L;
      seen := Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
  check_i64 "remote read sees origin write" 42L !seen;
  (match Directory.state (dir0 coh) (Page.page_of_addr addr0) with
  | Directory.Shared readers ->
      check_bool "requester is a reader" true (Node_set.mem readers 1)
  | Directory.Exclusive _ -> Alcotest.fail "expected shared state");
  Coherence.check_invariants coh

let test_uncontended_fault_latency () =
  let engine, coh = setup () in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 1L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0));
  let h = Coherence.fault_latencies coh in
  check_int "exactly one protocol fault" 1 (Histogram.count h);
  let lat = Histogram.max_value h in
  (* Paper: ~19.3us fast path including the 13.6us page retrieval. *)
  check_bool
    (Printf.sprintf "fast-path latency ~19us (got %.1fus)"
       (Time_ns.to_us_f lat))
    true
    (lat > Time_ns.us 15 && lat < Time_ns.us 24)

let test_write_invalidates_readers () =
  let engine, coh = setup () in
  let final = ref 0L in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 1L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
      ignore (Coherence.load_i64 coh ~node:2 ~tid:2 addr0);
      Coherence.store_i64 coh ~node:3 ~tid:3 addr0 99L;
      final := Coherence.load_i64 coh ~node:2 ~tid:2 addr0);
  check_i64 "reader sees the new value after invalidation" 99L !final;
  let st = Coherence.stats coh in
  check_bool "invalidations happened" true (Stats.get st "revoke.invalidate" >= 2);
  Coherence.check_invariants coh

let test_upgrade_grants_without_data () =
  let engine, coh = setup () in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 5L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
      (* Read -> Write upgrade: node 1 already holds valid data. *)
      Coherence.store_i64 coh ~node:1 ~tid:1 addr0 6L);
  let st = Coherence.stats coh in
  check_bool "at least one grant without data" true
    (Stats.get st "grant.nodata" >= 1);
  (match Directory.state (dir0 coh) (Page.page_of_addr addr0) with
  | Directory.Exclusive 1 -> ()
  | _ -> Alcotest.fail "node 1 should own the page exclusively");
  Coherence.check_invariants coh

let test_write_data_preserved_across_nodes () =
  (* Values written by different nodes to different offsets of the same
     page must all survive the ownership ping-pong. *)
  let engine, coh = setup () in
  let a = addr0 and b = addr0 + 8 and c = addr0 + 16 in
  let ra = ref 0L and rb = ref 0L and rc = ref 0L in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 a 10L;
      Coherence.store_i64 coh ~node:1 ~tid:1 b 11L;
      Coherence.store_i64 coh ~node:2 ~tid:2 c 12L;
      ra := Coherence.load_i64 coh ~node:3 ~tid:3 a;
      rb := Coherence.load_i64 coh ~node:3 ~tid:3 b;
      rc := Coherence.load_i64 coh ~node:3 ~tid:3 c);
  check_i64 "offset 0" 10L !ra;
  check_i64 "offset 8" 11L !rb;
  check_i64 "offset 16" 12L !rc;
  Coherence.check_invariants coh

let test_leader_follower_coalescing () =
  let engine, coh = setup () in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L);
  (* Four threads on node 1 read the same cold page simultaneously. *)
  for tid = 0 to 3 do
    Engine.spawn engine (fun () ->
        ignore (Coherence.load_i64 coh ~node:1 ~tid addr0))
  done;
  Engine.run_until_quiescent engine;
  let st = Coherence.stats coh in
  check_int "one leader fault" 1 (Stats.get st "fault.read");
  check_int "three coalesced followers" 3 (Stats.get st "fault.coalesced")

let test_origin_minor_faults_bypass_protocol () =
  let engine, coh = setup () in
  run_fiber engine (fun () ->
      for i = 0 to 9 do
        Coherence.store_i64 coh ~node:0 ~tid:0 (addr0 + (i * Page.size)) 1L
      done);
  let st = Coherence.stats coh in
  check_int "ten minor faults" 10 (Stats.get st "fault.minor");
  check_int "no protocol writes" 0 (Stats.get st "fault.write");
  check_int "no protocol latencies recorded" 0
    (Histogram.count (Coherence.fault_latencies coh))

let test_access_range_faults_per_page () =
  let engine, coh = setup () in
  run_fiber engine (fun () ->
      Coherence.access_range coh ~node:1 ~tid:0 ~addr:addr0
        ~len:(10 * Page.size) ~access:Perm.Read ());
  check_int "one protocol fault per page" 10
    (Stats.get (Coherence.stats coh) "fault.read");
  (* Second pass over the same range: all hits, no new faults. *)
  run_fiber engine (fun () ->
      Coherence.access_range coh ~node:1 ~tid:0 ~addr:addr0
        ~len:(10 * Page.size) ~access:Perm.Read ());
  check_int "no refaults on hits" 10
    (Stats.get (Coherence.stats coh) "fault.read")

let test_nack_and_retry () =
  let engine, coh = setup () in
  let vpn = Page.page_of_addr addr0 in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 1L);
  (* Hold the directory lock for 100us; the remote fault must retry. *)
  let holder = Option.get (Directory.try_lock (dir0 coh) vpn) in
  Engine.schedule engine ~delay:(Time_ns.us 100) (fun () ->
      Directory.unlock (dir0 coh) holder);
  let lat = ref 0 in
  Engine.spawn engine (fun () ->
      let t0 = Engine.now engine in
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
      lat := Engine.now engine - t0);
  Engine.run_until_quiescent engine;
  check_bool "retries counted" true
    (Stats.get (Coherence.stats coh) "fault.retry" >= 1);
  check_bool "contended fault is slow (>100us)" true (!lat > Time_ns.us 100);
  Coherence.check_invariants coh

let test_concurrent_writers_converge () =
  let engine, coh = setup ~nodes:3 () in
  let writes_per_node = 30 in
  (* Two remote nodes fight over one page; the origin only mediates. *)
  for node = 1 to 2 do
    Engine.spawn engine (fun () ->
        for i = 1 to writes_per_node do
          Coherence.store_i64 coh ~node ~tid:node addr0
            (Int64.of_int ((node * 1000) + i));
          (* a little compute between writes so the two nodes interleave *)
          Engine.delay engine (Time_ns.us 2)
        done)
  done;
  Engine.run_until_quiescent engine;
  Coherence.check_invariants coh;
  let final = ref 0L in
  run_fiber engine (fun () ->
      final := Coherence.load_i64 coh ~node:0 ~tid:0 addr0);
  check_bool "final value is one of the last writes" true
    (!final = Int64.of_int (1000 + writes_per_node)
    || !final = Int64.of_int (2000 + writes_per_node));
  (* Each exclusive transfer amortizes a burst of local writes (and NACK
     backoff amortizes even more), so the fault count is well below the
     write count but clearly nonzero. *)
  check_bool "page ping-pong caused protocol faults" true
    (Stats.get (Coherence.stats coh) "fault.write" >= 3)

let test_single_writer_monotonic_readers () =
  (* Sequential consistency smoke test: a single writer publishes an
     increasing counter; every reader must observe a non-decreasing
     sequence ending at the final value. *)
  let engine, coh = setup ~nodes:4 () in
  let n_writes = 20 in
  Engine.spawn engine (fun () ->
      for i = 1 to n_writes do
        Coherence.store_i64 coh ~node:0 ~tid:0 addr0 (Int64.of_int i);
        Engine.delay engine (Time_ns.us 30)
      done);
  let violations = ref 0 in
  for node = 1 to 3 do
    Engine.spawn engine (fun () ->
        let prev = ref 0L in
        for _ = 1 to 40 do
          let v = Coherence.load_i64 coh ~node ~tid:node addr0 in
          if v < !prev then incr violations;
          prev := v;
          Engine.delay engine (Time_ns.us 11)
        done)
  done;
  Engine.run_until_quiescent engine;
  check_int "no monotonicity violations" 0 !violations;
  Coherence.check_invariants coh

let prop_sequential_writes_then_read ?cfg ?net ~name () =
  (* Random single-threaded programs issuing writes from random nodes; a
     final sweep from one node must read exactly the model values. *)
  QCheck.Test.make ~name ~count:40
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (triple (int_bound 3) (int_bound 15) (int_range 1 1000)))
    (fun ops ->
      let engine, coh, fabric = setup_with_fabric ~nodes:4 ?cfg ?net () in
      let model = Hashtbl.create 16 in
      let ok = ref true in
      run_fiber engine (fun () ->
          List.iter
            (fun (node, slot, v) ->
              let addr = addr0 + (slot * 520 * 8) in
              (* slots spread over pages, some sharing *)
              Coherence.store_i64 coh ~node ~tid:node addr (Int64.of_int v);
              Hashtbl.replace model addr (Int64.of_int v))
            ops;
          Hashtbl.iter
            (fun addr v ->
              let got = Coherence.load_i64 coh ~node:3 ~tid:3 addr in
              if got <> v then ok := false)
            model);
      Coherence.check_invariants coh;
      harvest_chaos fabric;
      !ok)

let prop_single_writer_per_address_monotonic ?cfg ?net ~name () =
  (* Per-address single-writer, multi-reader: with one designated writer
     per address publishing increasing values, every reader must observe a
     non-decreasing sequence at each address — a consequence of sequential
     consistency that would break under stale reads. *)
  QCheck.Test.make ~name ~count:20
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, n_addrs) ->
      let engine, coh, fabric = setup_with_fabric ~nodes:4 ~seed ?cfg ?net () in
      let addr_of k = addr0 + (k * 192) in
      (* writers: one per address, on rotating nodes *)
      for k = 0 to n_addrs - 1 do
        Engine.spawn engine (fun () ->
            for i = 1 to 12 do
              Coherence.store_i64 coh ~node:(k mod 4) ~tid:k (addr_of k)
                (Int64.of_int i);
              Engine.delay engine (Time_ns.us 17)
            done)
      done;
      let ok = ref true in
      (* readers: every node polls every address *)
      for node = 0 to 3 do
        Engine.spawn engine (fun () ->
            let prev = Array.make n_addrs 0L in
            for _ = 1 to 25 do
              for k = 0 to n_addrs - 1 do
                let v =
                  Coherence.load_i64 coh ~node ~tid:(100 + node) (addr_of k)
                in
                if v < prev.(k) then ok := false;
                prev.(k) <- v
              done;
              Engine.delay engine (Time_ns.us 9)
            done)
      done;
      Engine.run_until_quiescent engine;
      Coherence.check_invariants coh;
      harvest_chaos fabric;
      !ok)

let prop_invariants_under_concurrency ?cfg ?net ~name () =
  QCheck.Test.make ~name ~count:25
    QCheck.(
      pair small_int
        (list_of_size Gen.(1 -- 20)
           (triple (int_bound 3) (int_bound 3) bool)))
    (fun (seed, threads) ->
      let engine, coh, fabric = setup_with_fabric ~nodes:4 ~seed ?cfg ?net () in
      List.iteri
        (fun tid (node, slot, is_write) ->
          Engine.spawn engine (fun () ->
              let addr = addr0 + (slot * Page.size) in
              for i = 1 to 5 do
                if is_write then
                  Coherence.store_i64 coh ~node ~tid addr (Int64.of_int i)
                else ignore (Coherence.load_i64 coh ~node ~tid addr);
                Engine.delay engine (Time_ns.us 3)
              done))
        threads;
      Engine.run_until_quiescent engine;
      Coherence.check_invariants coh;
      harvest_chaos fabric;
      true)

let test_no_lost_updates_origin_race () =
  (* Regression: a remote write request arriving while the origin has a
     granted-but-not-retired fault on the same page must wait for the
     origin's pending read-modify-write, or the update is lost. *)
  let engine, coh = setup ~nodes:4 () in
  let per_thread = 25 in
  let host_calls = ref 0 in
  for node = 0 to 3 do
    for t = 0 to 1 do
      Engine.spawn engine (fun () ->
          for _ = 1 to per_thread do
            incr host_calls;
            ignore
              (Coherence.fetch_add_i64 coh ~node ~tid:((node * 2) + t) addr0
                 1L);
            Engine.delay engine (Time_ns.ns (300 * (((node * 2) + t mod 5) + 1)))
          done)
    done
  done;
  Engine.run_until_quiescent engine;
  let final = ref 0L in
  run_fiber engine (fun () -> final := Coherence.load_i64 coh ~node:0 ~tid:0 addr0);
  Alcotest.(check int64)
    "every increment retained"
    (Int64.of_int !host_calls)
    !final;
  Coherence.check_invariants coh

let test_zap_range () =
  let engine, coh = setup () in
  run_fiber engine (fun () ->
      Coherence.access_range coh ~node:1 ~tid:0 ~addr:addr0
        ~len:(4 * Page.size) ~access:Perm.Read ());
  let first = Page.page_of_addr addr0 in
  let n = Coherence.zap_range coh ~first ~last:(first + 1) ~node:1 in
  check_int "two zapped" 2 n;
  check_bool "rest intact" true
    (Page_table.allows (Coherence.page_table coh ~node:1) (first + 2) Perm.Read)

let test_tracer_records_faults () =
  let engine, coh = setup () in
  let events = ref [] in
  Coherence.set_tracer coh (Some (fun e -> events := e :: !events));
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 1L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:7 ~site:"reader_loop" addr0);
      Coherence.store_i64 coh ~node:2 ~tid:8 addr0 2L);
  let reads =
    List.filter (fun e -> e.Fault_event.kind = Fault_event.Read) !events
  in
  (match reads with
  | [ e ] ->
      check_int "node" 1 e.Fault_event.node;
      check_int "tid" 7 e.Fault_event.tid;
      Alcotest.(check string) "site" "reader_loop" e.Fault_event.site;
      check_int "addr is page base" addr0 e.Fault_event.addr;
      check_bool "latency recorded" true (e.Fault_event.latency > 0)
  | _ -> Alcotest.fail "expected exactly one read fault event");
  check_bool "invalidation events recorded" true
    (List.exists
       (fun e -> e.Fault_event.kind = Fault_event.Invalidation)
       !events)

let test_contended_pingpong_is_bimodal () =
  (* Two nodes hammer the same page with writes: the latency distribution
     must show a fast uncontended mode and a slow retry mode (paper §V-D:
     19.3us vs 158.8us). *)
  let engine, coh = setup ~nodes:3 () in
  for node = 1 to 2 do
    Engine.spawn engine (fun () ->
        for i = 1 to 100 do
          Coherence.store_i64 coh ~node ~tid:node addr0 (Int64.of_int i);
          Engine.delay engine (Time_ns.us 1)
        done)
  done;
  Engine.run_until_quiescent engine;
  let h = Coherence.fault_latencies coh in
  let fast =
    List.length
      (List.filter (fun v -> v < Time_ns.us 40) (Histogram.to_list h))
  in
  let slow =
    List.length
      (List.filter (fun v -> v > Time_ns.us 60) (Histogram.to_list h))
  in
  check_bool "has a fast mode" true (fast > 0);
  check_bool "has a slow (retry) mode" true (slow > 0);
  check_bool "retries occurred" true
    (Stats.get (Coherence.stats coh) "fault.retry" > 0)

(* ------------------------------------------------------------------ *)
(* Write sweeps and mis-addressed requests.                            *)

let test_batched_write_scan_revokes_readers () =
  (* Two nodes read a window, then a third sweeps it with writes: the
     write grants must invalidate both readers of every page and leave the
     sweeper exclusive owner of the whole window. *)
  let engine, coh = setup () in
  let len = 12 * Page.size in
  run_fiber engine (fun () ->
      Coherence.access_range coh ~node:1 ~tid:0 ~addr:addr0 ~len
        ~access:Perm.Read ();
      Coherence.access_range coh ~node:2 ~tid:0 ~addr:addr0 ~len
        ~access:Perm.Read ();
      Coherence.access_range coh ~node:3 ~tid:0 ~addr:addr0 ~len
        ~access:Perm.Write ());
  let first = Page.page_of_addr addr0 in
  for vpn = first to first + 11 do
    (match Directory.state (dir0 coh) vpn with
    | Directory.Exclusive 3 -> ()
    | _ -> Alcotest.fail "node 3 should own the whole window");
    check_bool "reader PTEs zapped" true
      (Page_table.get (Coherence.page_table coh ~node:1) vpn = None
      && Page_table.get (Coherence.page_table coh ~node:2) vpn = None)
  done;
  Coherence.check_invariants coh

(* A page request reaching a live node that does not home the page is
   answered with the page's live home, even when nothing was ever
   re-homed. *)
let test_misaddressed_request_redirects () =
  let engine, coh, fabric = setup_with_fabric () in
  let vpn = Page.page_of_addr addr0 in
  let reply = ref None in
  run_fiber engine (fun () ->
      reply :=
        Some
          (Dex_net.Fabric.call fabric ~src:1 ~dst:2 ~pid:0
             ~kind:Messages.kind_page_request
             ~size:Proto_config.default.ctl_msg_size
             (Messages.Page_request { vpn; access = Perm.Read; epoch = 0 })));
  (match !reply with
  | Some (Messages.Page_redirect { home; vpn = v; _ }) ->
      check_int "redirected to the origin"
        (Authority.home (Coherence.authority coh) ~shard:0)
        home;
      check_int "for the requested page" vpn v
  | _ -> Alcotest.fail "expected a Page_redirect reply");
  check_int "redirect counted" 1
    (Stats.get (Coherence.stats coh) "autopilot.redirects");
  Coherence.check_invariants coh

let test_revoke_parallel_zero_cost_handlers () =
  (* Regression for a lost-wakeup hazard in the revocation join: with
     invalidate_handler = 0 victim-side handling costs nothing, so revoke
     jobs complete as early as the engine allows — including, for a
     single victim, before the join point is even reached. The join must
     re-check its pending count instead of unconditionally sleeping. *)
  let cfg = { Proto_config.default with invalidate_handler = 0 } in
  let engine, coh = setup ~cfg () in
  let finished = ref false in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 1L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
      ignore (Coherence.load_i64 coh ~node:2 ~tid:2 addr0);
      ignore (Coherence.load_i64 coh ~node:3 ~tid:3 addr0);
      (* three victims: spawned fan-out *)
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 2L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
      (* one victim: the fan-out job runs inline in the granting fiber *)
      Coherence.store_i64 coh ~node:2 ~tid:2 addr0 3L;
      finished := true);
  check_bool "fan-out joined and the program completed" true !finished;
  check_bool "invalidations happened" true
    (Stats.get (Coherence.stats coh) "revoke.invalidate" >= 3);
  Coherence.check_invariants coh

let prop_backoff_clamped =
  (* The retry delay must stay within +/- 25% of the undithered exponential
     delay for ANY backoff_base, including degenerate ones (0 or tiny):
     the jitter may never drag it to the 1 ns floor. *)
  QCheck.Test.make ~name:"backoff delay clamped to [3d/4, 5d/4]" ~count:300
    QCheck.(pair (int_range 0 20) (int_range 0 1_000_000))
    (fun (attempt, base) ->
      let cfg = { Proto_config.default with backoff_base = base } in
      let _engine, coh = setup ~cfg () in
      let dflt = Proto_config.default in
      let base' = max 1 base in
      let cap = max base' dflt.Proto_config.backoff_cap in
      let d = min cap (base' * (1 lsl max 0 (min attempt 6))) in
      let delay = Coherence.backoff_delay coh ~node:1 ~attempt in
      delay >= 1 && delay >= d - (d / 4) && delay <= d + (d / 4))

(* --- fail-stop crashes ------------------------------------------------- *)

(* A chaos fabric with fast retransmission so Unreachable escalation fires
   quickly in directed tests. *)
let crash_net ?(crashes = []) ~nodes () =
  let open Dex_net.Net_config in
  let chaos =
    {
      chaos_default with
      chaos_seed = 7;
      rto = Time_ns.us 20;
      rto_cap = Time_ns.us 100;
      max_retransmits = 4;
      crashes;
    }
  in
  { (default ~nodes ()) with chaos = Some chaos }

(* Satellite regression: a revocation that exhausts its retry budget
   against a dead node unwinds with [Unreachable] through the origin's
   grant path — the directory entry must come out unlocked and the write
   must still be granted (the dead copy counts as invalidated). *)
let test_unreachable_leaves_no_lock () =
  let engine, coh, fabric =
    setup_with_fabric ~nodes:3 ~net:(crash_net ~nodes:3 ()) ()
  in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
      Dex_net.Fabric.crash fabric ~node:1;
      (* Node 2's write must revoke node 1's read copy; the dead node
         never acks, the origin escalates and completes the grant. *)
      Coherence.store_i64 coh ~node:2 ~tid:2 addr0 9L);
  Engine.run_until_quiescent engine;
  let vpn = Page.page_of_addr addr0 in
  check_bool "page not left locked" false
    (Directory.locked (dir0 coh) vpn);
  check_bool "retry-budget exhaustion escalated to a crash declaration" true
    (Stats.get (Coherence.stats coh) "crash.escalations" > 0);
  (match Directory.state (dir0 coh) vpn with
  | Directory.Exclusive 2 -> ()
  | _ -> Alcotest.fail "the surviving writer owns the page");
  Coherence.check_invariants coh

(* Reclaim semantics: exclusive pages of the dead node re-home to the
   origin's last-known copy (the unobserved write never happened), reader
   sets are scrubbed, the dead node's tables are reset. *)
let test_reclaim_rehomes_ownership () =
  let engine, coh, fabric =
    setup_with_fabric ~nodes:3 ~net:(crash_net ~nodes:3 ()) ()
  in
  let addr_b = addr0 + Page.size in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
      Coherence.store_i64 coh ~node:1 ~tid:1 addr0 42L;
      (* page B: node 1 and node 2 are both readers *)
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr_b);
      ignore (Coherence.load_i64 coh ~node:2 ~tid:2 addr_b));
  Engine.run_until_quiescent engine;
  run_fiber engine (fun () ->
      Dex_net.Fabric.crash fabric ~node:1;
      Dex_net.Fabric.declare_dead fabric ~node:1);
  let dir = dir0 coh in
  (match Directory.state dir (Page.page_of_addr addr0) with
  | Directory.Exclusive 0 -> ()
  | _ -> Alcotest.fail "dead node's exclusive page re-homed to the origin");
  (match Directory.state dir (Page.page_of_addr addr_b) with
  | Directory.Shared s ->
      check_bool "dead node scrubbed from the reader set" false
        (Node_set.mem s 1)
  | Directory.Exclusive _ -> Alcotest.fail "page B should stay shared");
  check_int "dead node's page table reset" 0
    (Page_table.count (Coherence.page_table coh ~node:1));
  check_bool "pages reclaimed counted" true
    (Stats.get (Coherence.stats coh) "crash.pages_reclaimed" > 0);
  check_bool "reader scrub counted" true
    (Stats.get (Coherence.stats coh) "crash.readers_scrubbed" > 0);
  Coherence.check_invariants coh;
  (* The unobserved write is as if it never executed. *)
  let v = ref 0L in
  run_fiber engine (fun () -> v := Coherence.load_i64 coh ~node:0 ~tid:0 addr0);
  check_i64 "origin's last-known copy survives" 7L !v;
  (* The origin itself can never be reclaimed. *)
  check_bool "reclaiming the origin is refused" true
    (match Coherence.reclaim_node coh ~node:0 with
    | () -> false
    | exception Failure _ -> true)

(* Satellite: the SC property suite re-run with a scheduled mid-run crash
   of a non-origin node. Fibers caught on the dead node absorb their own
   unwind (there is no Process-layer guard at this level); everyone else
   must finish, the invariants must hold, and no directory entry may still
   name the dead node. *)
let prop_invariants_with_crash ~name () =
  QCheck.Test.make ~name ~count:25
    QCheck.(
      pair small_int
        (list_of_size Gen.(1 -- 20)
           (triple (int_bound 3) (int_bound 3) bool)))
    (fun (seed, threads) ->
      let net =
        crash_net ~nodes:4
          ~crashes:
            [ { Dex_net.Net_config.crash_node = 3; crash_at = Time_ns.us 120 } ]
          ()
      in
      let engine, coh, fabric = setup_with_fabric ~nodes:4 ~seed ~net () in
      List.iteri
        (fun tid (node, slot, is_write) ->
          Engine.spawn engine (fun () ->
              let addr = addr0 + (slot * Page.size) in
              try
                for i = 1 to 5 do
                  if is_write then
                    Coherence.store_i64 coh ~node ~tid addr (Int64.of_int i)
                  else ignore (Coherence.load_i64 coh ~node ~tid addr);
                  Engine.delay engine (Time_ns.us 3)
                done
              with
              | Dex_net.Fabric.Unreachable _
              when Dex_net.Fabric.crashed fabric ~node
              ->
                ()))
        threads;
      Engine.run_until_quiescent engine;
      Coherence.check_invariants coh;
      check_bool "crash declared" true
        (Dex_net.Fabric.crash_detected fabric ~node:3);
      Authority.entries_naming (Coherence.authority coh) ~node:3 = 0)

(* Runs after the chaos property cases (alcotest executes suites in order):
   the sequential-consistency results above are only meaningful evidence if
   faults were actually injected and recovered from. *)
let test_chaos_fault_paths_exercised () =
  check_bool "faults were injected across the chaos property runs" true
    (!chaos_faults_injected > 0);
  check_bool "lost messages were retransmitted (chaos.retransmits > 0)" true
    (!chaos_retransmits > 0);
  check_bool "the transient partition discarded traffic" true
    (!chaos_partition_drops > 0)

(* --- placement autopilot primitives ------------------------------------ *)

(* Re-homing moves a page's serving authority without touching data: SC
   holds across the move for accessors on every node, the overlay lists
   exactly the moved pages, and moving back to the static home clears it. *)
let test_rehome_moves_authority () =
  let engine, coh = setup ~nodes:4 () in
  let vpn = Page.page_of_addr addr0 in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
      check_int "static home serves the page" 0 (page_home coh vpn);
      (match Coherence.rehome_page coh ~vpn ~node:2 with
      | `Rehomed -> ()
      | _ -> Alcotest.fail "re-home to node 2 must succeed");
      check_int "dynamic home serves the page" 2 (page_home coh vpn);
      Alcotest.(check (list (pair int int)))
        "overlay lists the moved page" [ (vpn, 2) ]
        (rehomed_pages coh);
      (* SC across the move: a write from one node, reads from all. *)
      Coherence.store_i64 coh ~node:1 ~tid:1 addr0 8L;
      for node = 0 to 3 do
        check_i64 "every node reads through the dynamic home" 8L
          (Coherence.load_i64 coh ~node ~tid:node addr0)
      done;
      (match Coherence.rehome_page coh ~vpn ~node:2 with
      | `Noop -> ()
      | _ -> Alcotest.fail "re-home to the current home is a no-op");
      (match Coherence.rehome_page coh ~vpn ~node:0 with
      | `Rehomed -> ()
      | _ -> Alcotest.fail "re-home back to the static home must succeed");
      Alcotest.(check (list (pair int int)))
        "overlay cleared on the way back" [] (rehomed_pages coh));
  check_int "both moves counted" 2
    (Stats.get (Coherence.stats coh) "autopilot.rehomes");
  check_bool "out-of-range target rejected" true
    (match Coherence.rehome_page coh ~vpn ~node:7 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Coherence.check_invariants coh

let test_rehome_refuses_dead_target () =
  let engine, coh, fabric =
    setup_with_fabric ~nodes:3 ~net:(crash_net ~nodes:3 ()) ()
  in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
      Dex_net.Fabric.crash fabric ~node:2;
      Dex_net.Fabric.declare_dead fabric ~node:2;
      match Coherence.rehome_page coh ~vpn:(Page.page_of_addr addr0) ~node:2 with
      | `Dead_target -> ()
      | _ -> Alcotest.fail "re-home onto a declared-dead node must refuse");
  Coherence.check_invariants coh

(* Pinning pulls a re-homed page back to its static shard home and holds
   it there: later re-home attempts become no-ops (the futex layer relies
   on this to keep its check-and-sleep home-local). *)
let test_pin_page_reverts_and_holds () =
  let engine, coh = setup ~nodes:4 () in
  let vpn = Page.page_of_addr addr0 in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
      (match Coherence.rehome_page coh ~vpn ~node:3 with
      | `Rehomed -> ()
      | _ -> Alcotest.fail "setup re-home must succeed");
      Coherence.pin_page coh ~vpn;
      check_int "pin pulled authority back to the static home" 0
        (page_home coh vpn);
      check_bool "page reports pinned" true
        (Authority.pinned (Coherence.authority coh) vpn);
      check_int "the pull-back is counted" 1
        (Stats.get (Coherence.stats coh) "autopilot.pin_reverts");
      (match Coherence.rehome_page coh ~vpn ~node:2 with
      | `Noop -> ()
      | _ -> Alcotest.fail "re-homing a pinned page must refuse");
      check_int "refused re-home leaves authority put" 0
        (page_home coh vpn);
      (* Idempotent: pinning an already-pinned, already-home page moves
         nothing. *)
      Coherence.pin_page coh ~vpn;
      check_int "re-pinning reverts nothing" 1
        (Stats.get (Coherence.stats coh) "autopilot.pin_reverts"));
  Coherence.check_invariants coh

(* The replicate-don't-invalidate path end to end: after a marked page's
   write cycle retires, the first read grant makes the home push copies to
   the displaced readers — their next reads hit locally, with no faults. *)
let test_mark_replicate_pushes_copies () =
  let engine, coh = setup ~nodes:4 () in
  let vpn = Page.page_of_addr addr0 in
  let st = Coherence.stats coh in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 1L;
      for node = 1 to 3 do
        ignore (Coherence.load_i64 coh ~node ~tid:node addr0)
      done;
      Coherence.mark_replicate coh ~first:vpn ~last:vpn;
      check_bool "mark recorded" true (Coherence.replicate_marked coh vpn);
      (* The write revokes readers 1..3 and records them as push
         subscribers; node 1's read grant returns the page to Shared and
         triggers unsolicited pushes to nodes 2 and 3. *)
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 2L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0));
  run_fiber engine (fun () ->
      (* Quiescence above joined the pushes; 2 and 3 now read locally. *)
      let faults_before = Stats.get st "fault.read" in
      check_i64 "pushed copy holds the new value (node 2)" 2L
        (Coherence.load_i64 coh ~node:2 ~tid:2 addr0);
      check_i64 "pushed copy holds the new value (node 3)" 2L
        (Coherence.load_i64 coh ~node:3 ~tid:3 addr0);
      check_int "displaced readers re-read without faulting" faults_before
        (Stats.get st "fault.read"));
  check_bool "pushes counted" true
    (Stats.get st "autopilot.replica_pushes" >= 2);
  check_int "no victim declined" 0 (Stats.get st "autopilot.push_declined");
  Coherence.check_invariants coh

(* A re-homed page whose dynamic home crashes must fall back to its static
   shard home with the last-externalized bytes, and surviving copy holders
   keep working — re-homed entries are deliberately not HA-replicated, so
   this fallback IS their crash story. *)
let test_rehomed_home_crash_falls_back () =
  let engine, coh, fabric =
    setup_with_fabric ~nodes:3 ~net:(crash_net ~nodes:3 ()) ()
  in
  let vpn = Page.page_of_addr addr0 in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
      (match Coherence.rehome_page coh ~vpn ~node:1 with
      | `Rehomed -> ()
      | _ -> Alcotest.fail "setup re-home must succeed");
      (* A write served by the dynamic home, then a read that forces the
         writer to externalize its bytes — which the dynamic home mirrors
         back to the static shard home. *)
      Coherence.store_i64 coh ~node:2 ~tid:2 addr0 9L;
      ignore (Coherence.load_i64 coh ~node:0 ~tid:0 addr0);
      check_bool "externalized bytes mirrored to the static home" true
        (Stats.get (Coherence.stats coh) "autopilot.mirrors" > 0));
  run_fiber engine (fun () ->
      Dex_net.Fabric.crash fabric ~node:1;
      Dex_net.Fabric.declare_dead fabric ~node:1);
  check_int "authority fell back to the static shard home" 0
    (page_home coh vpn);
  check_bool "fallback counted" true
    (Stats.get (Coherence.stats coh) "autopilot.fallbacks" > 0);
  Alcotest.(check (list (pair int int)))
    "overlay no longer lists the page" [] (rehomed_pages coh);
  let v = ref 0L in
  run_fiber engine (fun () ->
      v := Coherence.load_i64 coh ~node:2 ~tid:2 addr0);
  check_i64 "the externalized write survives the crash" 9L !v;
  Coherence.check_invariants coh

(* A re-home landing inside the home's handler delay (6.0-7.5 us into a
   remote load with default configs): the request was admitted by the
   static home, whose directory no longer speaks for the page once the
   delay ends. The grant must NACK and the retry be served by the new
   home, rather than node 0 granting out of node 2's overlay directory and
   recording itself as a reader of a page it no longer serves. *)
let test_rehome_inside_handler_delay () =
  let engine, coh = setup ~nodes:4 () in
  let vpn = Page.page_of_addr addr0 in
  let st = Coherence.stats coh in
  run_fiber engine (fun () -> Coherence.store_i64 coh ~node:2 ~tid:2 addr0 7L);
  let retries = Stats.get st "fault.retry" in
  let seen = ref 0L in
  run_fiber engine (fun () ->
      Engine.spawn engine (fun () ->
          Engine.delay engine (Time_ns.ns 6_500);
          match Coherence.rehome_page coh ~vpn ~node:2 with
          | `Rehomed -> ()
          | _ -> Alcotest.fail "re-home to node 2 must succeed");
      seen := Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
  check_i64 "the load sees the store" 7L !seen;
  check_int "the grant admitted at node 0 is retried" 1
    (Stats.get st "fault.retry" - retries);
  check_int "node 2 serves the page" 2 (page_home coh vpn);
  (match
     Directory.state (Authority.route (Coherence.authority coh) vpn).dir vpn
   with
  | Directory.Shared rs ->
      Alcotest.(check (list int)) "readers" [ 1; 2 ] (Node_set.to_list rs)
  | Directory.Exclusive _ -> Alcotest.fail "the page must be shared");
  Coherence.check_invariants coh

(* Single-writer monotonicity must survive an adversary driving the
   autopilot's levers mid-run — re-homes to random nodes, replicate marks
   and pins on exactly the hot pages — on a chaotic fabric with sharded
   homes underneath. *)
(* ------------------------------------------------------------------ *)
(* Page-buffer ownership. [Page_store.install] adopts the buffer it is
   given, so a path that hands one page image to two places must copy.
   Writing straight into one side's store must leave the other side's
   bytes alone. *)

let raw_word coh ~node vpn =
  Page_store.read_i64 (Coherence.page_store coh ~node) vpn ~offset:0

let check_unshared name coh vpn ~writer ~other =
  let before = raw_word coh ~node:other vpn in
  Page_store.write_i64 (Coherence.page_store coh ~node:writer) vpn ~offset:0
    (Int64.add (raw_word coh ~node:writer vpn) 1000L);
  check_i64 name before (raw_word coh ~node:other vpn)

let expect_rehome coh ~vpn ~node =
  match Coherence.rehome_page coh ~vpn ~node with
  | `Rehomed -> ()
  | _ -> Alcotest.fail "setup re-home must succeed"

(* A read grant with data from a re-homed page's serving home (node 2)
   also mirrors the image back to the static home (node 0). *)
let test_grant_data_not_shared () =
  let engine, coh = setup ~nodes:4 () in
  let vpn = Page.page_of_addr addr0 in
  let mirrors () = Stats.get (Coherence.stats coh) "autopilot.mirrors" in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
      expect_rehome coh ~vpn ~node:2;
      let m0 = mirrors () in
      check_i64 "read through the serving home" 7L
        (Coherence.load_i64 coh ~node:1 ~tid:1 addr0);
      check_bool "the grant was mirrored" true (mirrors () > m0));
  check_unshared "requester vs serving home" coh vpn ~writer:1 ~other:2;
  check_unshared "requester vs static home" coh vpn ~writer:1 ~other:0;
  check_unshared "serving home vs static home" coh vpn ~writer:2 ~other:0

(* The serving home's own read reclaims the page from its exclusive owner
   (node 1), installs the pulled-back image and mirrors it to the static
   home; the grant to itself carries no data, so nothing re-mirrors. *)
let test_reclaim_data_not_shared () =
  let engine, coh = setup ~nodes:4 () in
  let vpn = Page.page_of_addr addr0 in
  let mirrors () = Stats.get (Coherence.stats coh) "autopilot.mirrors" in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
      expect_rehome coh ~vpn ~node:2;
      Coherence.store_i64 coh ~node:1 ~tid:1 addr0 8L;
      let m0 = mirrors () in
      check_i64 "the home reads the owner's write" 8L
        (Coherence.load_i64 coh ~node:2 ~tid:2 addr0);
      check_bool "the reclaim was mirrored" true (mirrors () > m0));
  check_unshared "serving home vs static home" coh vpn ~writer:2 ~other:0;
  check_unshared "static home vs serving home" coh vpn ~writer:0 ~other:2;
  check_unshared "owner vs serving home" coh vpn ~writer:1 ~other:2

(* One read grant of a replicate-marked page pushes copies to the two
   displaced readers (nodes 2 and 3). *)
let test_pushed_copies_not_shared () =
  let engine, coh = setup ~nodes:4 () in
  let vpn = Page.page_of_addr addr0 in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 1L;
      for node = 1 to 3 do
        ignore (Coherence.load_i64 coh ~node ~tid:node addr0)
      done;
      Coherence.mark_replicate coh ~first:vpn ~last:vpn;
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 2L;
      ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0));
  check_int "both readers got a push" 2
    (Stats.get (Coherence.stats coh) "autopilot.replica_pushes");
  check_unshared "pushed copies" coh vpn ~writer:2 ~other:3;
  check_unshared "pushed copy vs home" coh vpn ~writer:2 ~other:0;
  check_unshared "pushed copy vs requester" coh vpn ~writer:3 ~other:1

(* Promotion backfills the new origin from the replica's image, which the
   replica keeps (and every other standby shares): the promoted store
   must hold its own copy. *)
let test_promoted_image_not_shared () =
  let engine, coh = setup ~nodes:3 () in
  let vpn = Page.page_of_addr addr0 in
  let image = Bytes.make Page.size '\000' in
  Bytes.set_int64_le image 0 5L;
  run_fiber engine (fun () ->
      Coherence.promote coh ~new_origin:1 ~dir_entries:[]
        ~page_data:[ (vpn, image) ]);
  check_i64 "the promoted store holds the image" 5L (raw_word coh ~node:1 vpn);
  Page_store.write_i64 (Coherence.page_store coh ~node:1) vpn ~offset:0 6L;
  check_i64 "the replica's image is untouched" 5L (Bytes.get_int64_le image 0)

(* The serving home (node 2) of a re-homed page reclaims it for its own
   write from the exclusive owner (node 1), which hands its private buffer
   over; the reclaim mirrors that buffer to the static home (node 0), so
   both homes must hold it shared. A write on either side unshares the
   pair, so each side's write is checked on a run of its own. *)
let test_moved_and_mirrored_buffer_shared () =
  let mirrored () =
    let engine, coh = setup ~nodes:4 () in
    let vpn = Page.page_of_addr addr0 in
    let count name = Stats.get (Coherence.stats coh) name in
    run_fiber engine (fun () ->
        Coherence.store_i64 coh ~node:0 ~tid:0 addr0 7L;
        expect_rehome coh ~vpn ~node:2;
        Coherence.store_i64 coh ~node:1 ~tid:1 addr0 8L;
        let m0 = count "autopilot.mirrors"
        and i0 = count "revoke.invalidate" in
        Coherence.access_range coh ~node:2 ~tid:2 ~addr:addr0 ~len:8
          ~access:Perm.Write ();
        check_bool "the owner's copy was revoked" true
          (count "revoke.invalidate" > i0);
        check_bool "the reclaim was mirrored" true
          (count "autopilot.mirrors" > m0));
    check_i64 "the serving home holds the owner's write" 8L
      (raw_word coh ~node:2 vpn);
    (coh, vpn)
  in
  let coh, vpn = mirrored () in
  check_unshared "serving home vs static home" coh vpn ~writer:2 ~other:0;
  let coh, vpn = mirrored () in
  check_unshared "static home vs serving home" coh vpn ~writer:0 ~other:2

(* Direct major-heap words allocated so far: a 4 KB page buffer is too
   large for the minor heap, so each one shows here. *)
let major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let major_words_of f =
  let w0 = major_words () in
  f ();
  major_words () -. w0

(* Grants and revokes move page images without copying them: a read grant
   that downgrades the owner allocates no page buffer; an invalidating
   revoke hands the owner's buffer to the home, which keeps it private, so
   the home's write after it copies nothing; and a write to a shared image
   copies it exactly once. Every page and node is touched first, so the
   measured steps grow no table. *)
let test_page_buffer_budget () =
  let engine, coh = setup ~nodes:3 () in
  let vpn = Page.page_of_addr addr0 in
  let store node = Coherence.page_store coh ~node in
  let page_buffer =
    major_words_of (fun () ->
        ignore (Sys.opaque_identity (Bytes.create Page.size)))
  in
  run_fiber engine (fun () ->
      for round = 1 to 2 do
        List.iter
          (fun node ->
            Coherence.store_i64 coh ~node ~tid:node addr0
              (Int64.of_int round);
            ignore
              (Coherence.load_i64 coh ~node:((node + 1) mod 3) ~tid:0 addr0))
          [ 0; 1; 2 ]
      done;
      Coherence.store_i64 coh ~node:1 ~tid:1 addr0 10L;
      let read =
        major_words_of (fun () ->
            check_i64 "the reader sees the owner's write" 10L
              (Coherence.load_i64 coh ~node:2 ~tid:2 addr0))
      in
      check_bool
        (Printf.sprintf "read grant + downgrade: %.0f major words" read)
        true (read < page_buffer);
      let twice =
        major_words_of (fun () ->
            Page_store.write_i64 (store 2) vpn ~offset:8 1L;
            Page_store.write_i64 (store 2) vpn ~offset:16 2L)
      in
      check_bool
        (Printf.sprintf "two writes after sharing: %.0f major words" twice)
        true (twice = page_buffer);
      (* Node 1 writes again; its image is shared with the home and node
         2, so its write copies, and the home's write fault takes the
         owner's buffer back. *)
      Coherence.store_i64 coh ~node:1 ~tid:1 addr0 11L;
      let owners = Page_store.snapshot (store 1) vpn in
      Coherence.access_range coh ~node:0 ~tid:0 ~addr:addr0 ~len:8
        ~access:Perm.Write ();
      check_bool "the home holds the owner's former buffer" true
        (Page_store.snapshot (store 0) vpn == owners);
      Coherence.store_i64 coh ~node:1 ~tid:1 addr0 12L;
      let home_write =
        major_words_of (fun () ->
            Coherence.store_i64 coh ~node:0 ~tid:0 addr0 13L)
      in
      check_bool
        (Printf.sprintf "invalidating revoke + home write: %.0f major words"
           home_write)
        true (home_write < page_buffer));
  check_i64 "the home's write landed" 13L (raw_word coh ~node:0 vpn);
  Coherence.check_invariants coh

(* The three write-grant shapes on 2 nodes, each after the home (node 0)
   stored 1 to the page: node 1 takes the page from the home, which ships
   its image ([`Remote]); node 1 reads the page and upgrades its read copy,
   granted without data ([`Upgrade]); or node 1 reads it and the home
   takes it back, revoking node 1's copy ([`Home]). Returns the engine,
   the protocol and the new owner, after the grant and before the owner
   writes. *)
let write_grant ?cfg ?net shape =
  let engine, coh, _ = setup_with_fabric ~nodes:2 ?cfg ?net () in
  let owner = match shape with `Home -> 0 | `Remote | `Upgrade -> 1 in
  run_fiber engine (fun () ->
      Coherence.store_i64 coh ~node:0 ~tid:0 addr0 1L;
      (match shape with
      | `Remote -> ()
      | `Upgrade | `Home ->
          check_i64 "the reader sees the home's write" 1L
            (Coherence.load_i64 coh ~node:1 ~tid:1 addr0));
      Coherence.access_range coh ~node:owner ~tid:owner ~addr:addr0 ~len:8
        ~access:Perm.Write ());
  (engine, coh, owner)

let shape_name = function
  | `Remote -> "remote write grant"
  | `Upgrade -> "remote upgrade"
  | `Home -> "home-local write grant"

(* Page buffers the new owner's two writes after [write_grant] allocate,
   and the home's word 0 after them. *)
let owner_writes coh ~owner =
  let vpn = Page.page_of_addr addr0 in
  let store = Coherence.page_store coh ~node:owner in
  let page_buffer =
    major_words_of (fun () ->
        ignore (Sys.opaque_identity (Bytes.create Page.size)))
  in
  let words =
    major_words_of (fun () ->
        Page_store.write_i64 store vpn ~offset:0 2L;
        Page_store.write_i64 store vpn ~offset:8 3L)
  in
  check_i64 "the owner reads its write" 2L (raw_word coh ~node:owner vpn);
  (words /. page_buffer, raw_word coh ~node:0 vpn)

(* Where no node can fail and no replica set streams the origin's store,
   a write grant at the page's static home leaves the new owner's buffer
   private in every shape: its writes copy nothing. The home keeps the
   buffer in its entry, unread until a reclaim replaces it. *)
let test_write_grant_lends shape () =
  let engine, coh, owner = write_grant shape in
  let copies, _ = owner_writes coh ~owner in
  check_bool
    (Printf.sprintf "owner's writes copy no page (%.2f pages)" copies)
    true (copies < 1.);
  (* The page travels on unchanged: the other node reads the owner's
     write after the next transfer. *)
  let other = 1 - owner in
  run_fiber engine (fun () ->
      check_i64 "the other node reads the owner's write" 2L
        (Coherence.load_i64 coh ~node:other ~tid:other addr0));
  Coherence.check_invariants coh

(* With a recovery path (a chaos fabric, where nodes can fail, or one
   standby), the same grants keep the home's pre-grant image: the
   owner's first write copies the page, exactly once. *)
let test_write_grant_keeps_staging ?cfg ?net () =
  List.iter
    (fun shape ->
      let _, coh, owner = write_grant ?cfg ?net shape in
      let copies, home_word = owner_writes coh ~owner in
      let name = shape_name shape in
      check_bool
        (Printf.sprintf "%s: owner's writes copy one page (%.2f pages)" name
           copies)
        true
        (copies >= 1. && copies < 2.);
      if owner <> 0 then
        check_i64 (name ^ ": the home keeps the pre-grant image") 1L home_word)
    [ `Remote; `Upgrade; `Home ]

(* Words allocated so far, both heaps, as in test_net's call budget. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Mean words of [step] on 2 nodes, after 50 rounds of warm-up, over 500
   rounds that each run [prepare] and then [step]. Each step covers the
   whole fault: request, handler fibers, revokes, reply, install and the
   write. *)
let words_per_step ~prepare ~step =
  let engine, coh = setup ~nodes:2 () in
  let warmup = 50 and rounds = 500 and words = ref 0. in
  run_fiber engine (fun () ->
      for round = 1 to warmup + rounds do
        prepare coh;
        let w0 = allocated_words () in
        step coh;
        let w1 = allocated_words () in
        if round > warmup then words := !words +. (w1 -. w0)
      done);
  Coherence.check_invariants coh;
  !words /. float_of_int rounds

let store node i coh = Coherence.store_i64 coh ~node ~tid:node addr0 i

(* Words per write grant: a remote one (node 1 takes the page from the
   home, which invalidates its own copy and ships the data), a remote
   upgrade (node 1 read the page, and its write is granted without data)
   and a home-local one (the home takes the page back, revoking node 1's
   copy over the wire). *)
let test_grant_budget () =
  List.iter
    (fun (name, words, bound) ->
      check_bool
        (Printf.sprintf "%.1f words per %s write grant (at most %.1f)" words
           name bound)
        true (words <= bound))
    [
      ("remote", words_per_step ~prepare:(store 0 0L) ~step:(store 1 1L), 268.);
      ( "remote upgrade",
        words_per_step
          ~prepare:(fun coh ->
            store 0 0L coh;
            ignore (Coherence.load_i64 coh ~node:1 ~tid:1 addr0))
          ~step:(store 1 1L),
        248. );
      ( "home-local",
        words_per_step ~prepare:(store 1 1L) ~step:(store 0 0L),
        264. );
    ]

(* Readers see each address's values in store order while the autopilot
   re-homes, pins and marks the pages under test. At quiescence, every
   node whose page table allows a read of a page reads, in its own store,
   the last value stored to each address: a copy the protocol vouches for
   is never a stale or lent image. On a pristine fabric, write grants at a
   page's static home lend the home's image; on [chaos_net] they do not. *)
let prop_monotonic_under_autopilot_actions ?net ~name () =
  QCheck.Test.make ~name ~count:15
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, n_addrs) ->
      let cfg = { Proto_config.default with sharding = `Hash 4 } in
      let engine, coh, fabric =
        setup_with_fabric ~nodes:4 ~seed ~cfg ?net ()
      in
      let addr_of k = addr0 + (k * 192) in
      let last = Array.make n_addrs 0L in
      for k = 0 to n_addrs - 1 do
        Engine.spawn engine (fun () ->
            for i = 1 to 12 do
              Coherence.store_i64 coh ~node:(k mod 4) ~tid:k (addr_of k)
                (Int64.of_int i);
              last.(k) <- Int64.of_int i;
              Engine.delay engine (Time_ns.us 17)
            done)
      done;
      let ok = ref true in
      for node = 0 to 3 do
        Engine.spawn engine (fun () ->
            let prev = Array.make n_addrs 0L in
            for _ = 1 to 25 do
              for k = 0 to n_addrs - 1 do
                let v =
                  Coherence.load_i64 coh ~node ~tid:(100 + node) (addr_of k)
                in
                if v < prev.(k) then ok := false;
                prev.(k) <- v
              done;
              Engine.delay engine (Time_ns.us 9)
            done)
      done;
      (* The adversary: autopilot actions against the pages under test. *)
      Engine.spawn engine (fun () ->
          let rng = Random.State.make [| seed; 0x9e37 |] in
          for _ = 1 to 20 do
            let vpn =
              Page.page_of_addr (addr_of (Random.State.int rng n_addrs))
            in
            (match Random.State.int rng 4 with
            | 0 | 1 ->
                ignore
                  (Coherence.rehome_page coh ~vpn
                     ~node:(Random.State.int rng 4))
            | 2 -> Coherence.mark_replicate coh ~first:vpn ~last:vpn
            | _ -> Coherence.pin_page coh ~vpn);
            Engine.delay engine (Time_ns.us 13)
          done);
      Engine.run_until_quiescent engine;
      Coherence.check_invariants coh;
      harvest_chaos fabric;
      for node = 0 to 3 do
        for k = 0 to n_addrs - 1 do
          let addr = addr_of k in
          let vpn = Page.page_of_addr addr in
          if
            Page_table.allows (Coherence.page_table coh ~node) vpn Perm.Read
            && Page_store.read_i64
                 (Coherence.page_store coh ~node)
                 vpn ~offset:(Page.offset_in_page addr)
               <> last.(k)
          then ok := false
        done
      done;
      !ok)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dex_proto"
    [
      ( "coherence",
        [
          Alcotest.test_case "remote read fetches data" `Quick
            test_remote_read_fetches_data;
          Alcotest.test_case "uncontended fault latency" `Quick
            test_uncontended_fault_latency;
          Alcotest.test_case "write invalidates readers" `Quick
            test_write_invalidates_readers;
          Alcotest.test_case "upgrade grants without data" `Quick
            test_upgrade_grants_without_data;
          Alcotest.test_case "offsets preserved across nodes" `Quick
            test_write_data_preserved_across_nodes;
          Alcotest.test_case "leader/follower coalescing" `Quick
            test_leader_follower_coalescing;
          Alcotest.test_case "origin minor faults" `Quick
            test_origin_minor_faults_bypass_protocol;
          Alcotest.test_case "access_range per-page faults" `Quick
            test_access_range_faults_per_page;
          Alcotest.test_case "NACK and retry" `Quick test_nack_and_retry;
          Alcotest.test_case "concurrent writers converge" `Quick
            test_concurrent_writers_converge;
          Alcotest.test_case "single-writer monotonic readers" `Quick
            test_single_writer_monotonic_readers;
          Alcotest.test_case "no lost updates (origin race)" `Quick
            test_no_lost_updates_origin_race;
          Alcotest.test_case "zap range" `Quick test_zap_range;
          Alcotest.test_case "fault tracer" `Quick test_tracer_records_faults;
          Alcotest.test_case "contended ping-pong bimodal" `Quick
            test_contended_pingpong_is_bimodal;
          Alcotest.test_case "batched write scan revokes readers" `Quick
            test_batched_write_scan_revokes_readers;
          Alcotest.test_case "mis-addressed request is redirected" `Quick
            test_misaddressed_request_redirects;
          Alcotest.test_case "revoke fan-out with zero-cost handlers" `Quick
            test_revoke_parallel_zero_cost_handlers;
        ]
        @ qsuite
            [
              prop_sequential_writes_then_read
                ~name:"random write sequences match a reference memory" ();
              prop_single_writer_per_address_monotonic
                ~name:"per-address single-writer monotonicity" ();
              prop_invariants_under_concurrency
                ~name:"directory/PTE invariants under random concurrency" ();
              prop_sequential_writes_then_read ~cfg:shard_cfg
                ~name:"random write sequences (4 sharded homes)" ();
              prop_single_writer_per_address_monotonic ~cfg:shard_cfg
                ~name:"per-address single-writer monotonicity (4 sharded homes)"
                ();
              prop_invariants_under_concurrency ~cfg:shard_cfg
                ~name:
                  "directory/PTE invariants under random concurrency (4 \
                   sharded homes)" ();
              prop_backoff_clamped;
            ]
      );
      ( "chaos",
        qsuite
          [
            prop_sequential_writes_then_read ~net:(chaos_net ~nodes:4)
              ~name:"random write sequences under drop/dup/reorder + partition"
              ();
            prop_single_writer_per_address_monotonic ~net:(chaos_net ~nodes:4)
              ~name:"single-writer monotonicity under drop/dup/reorder" ();
            prop_invariants_under_concurrency ~net:(chaos_net ~nodes:4)
              ~name:"invariants under random concurrency + chaos" ();
            prop_invariants_under_concurrency ~cfg:shard_cfg
              ~net:(chaos_net ~nodes:4)
              ~name:"invariants under chaos (4 sharded homes)" ();
          ]
        @ [
            Alcotest.test_case "chaos fault paths exercised" `Quick
              test_chaos_fault_paths_exercised;
          ] );
      ( "crash",
        [
          Alcotest.test_case "mid-protocol Unreachable leaves no lock" `Quick
            test_unreachable_leaves_no_lock;
          Alcotest.test_case "reclaim re-homes ownership" `Quick
            test_reclaim_rehomes_ownership;
        ]
        @ qsuite
            [
              prop_invariants_with_crash
                ~name:"invariants + ghost-free directory under mid-run crash"
                ();
            ] );
      ( "buffers",
        [
          Alcotest.test_case "grant data is not shared" `Quick
            test_grant_data_not_shared;
          Alcotest.test_case "reclaimed data is not shared" `Quick
            test_reclaim_data_not_shared;
          Alcotest.test_case "pushed copies are not shared" `Quick
            test_pushed_copies_not_shared;
          Alcotest.test_case "promoted image is not shared" `Quick
            test_promoted_image_not_shared;
          Alcotest.test_case "moved and mirrored buffer is shared" `Quick
            test_moved_and_mirrored_buffer_shared;
          Alcotest.test_case "page-buffer budget" `Quick
            test_page_buffer_budget;
        ]
        @ List.map
            (fun shape ->
              Alcotest.test_case
                (shape_name shape ^ " lends the home's image")
                `Quick
                (test_write_grant_lends shape))
            [ `Remote; `Upgrade; `Home ]
        @ [
            Alcotest.test_case "chaos keeps the pre-grant image" `Quick
              (test_write_grant_keeps_staging ~net:(chaos_net ~nodes:2));
            Alcotest.test_case "a standby keeps the pre-grant image" `Quick
              (test_write_grant_keeps_staging
                 ~cfg:{ Proto_config.default with standbys = [ 1 ] });
        ] );
      ( "budget",
        [ Alcotest.test_case "write grant allocation" `Quick test_grant_budget ]
      );
      ( "autopilot",
        [
          Alcotest.test_case "re-home moves serving authority" `Quick
            test_rehome_moves_authority;
          Alcotest.test_case "re-home refuses dead targets" `Quick
            test_rehome_refuses_dead_target;
          Alcotest.test_case "pin pulls a page back and holds it" `Quick
            test_pin_page_reverts_and_holds;
          Alcotest.test_case "replicate mark pushes read copies" `Quick
            test_mark_replicate_pushes_copies;
          Alcotest.test_case "re-homed page survives its home crashing" `Quick
            test_rehomed_home_crash_falls_back;
          Alcotest.test_case "re-home inside the handler delay retries" `Quick
            test_rehome_inside_handler_delay;
        ]
        @ qsuite
            [
              prop_monotonic_under_autopilot_actions ~net:(chaos_net ~nodes:4)
                ~name:
                  "single-writer monotonicity with live re-home/pin/replicate \
                   under chaos (sharded)" ();
              prop_monotonic_under_autopilot_actions
                ~name:
                  "single-writer monotonicity with live re-home/pin/replicate \
                   (sharded)" ();
            ] );
    ]
