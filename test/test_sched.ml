(* Tests for the scheduling extensions: placement policies, data-affinity
   migration, safe-point balancing and the placement autopilot. *)

open Dex_sim
open Dex_core
open Dex_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_placement_round_robin () =
  let cl = Dex.cluster ~nodes:4 () in
  let rng = Rng.create ~seed:1 in
  let picks =
    List.init 8 (fun index ->
        Placement.choose Placement.Round_robin cl ~rng ~index ~total:8)
  in
  Alcotest.(check (list int)) "block distribution" [ 0; 0; 1; 1; 2; 2; 3; 3 ]
    picks

let test_placement_pin_and_random () =
  let cl = Dex.cluster ~nodes:4 () in
  let rng = Rng.create ~seed:1 in
  check_int "pin" 2
    (Placement.choose (Placement.Pin 2) cl ~rng ~index:0 ~total:1);
  Alcotest.check_raises "bad pin" (Invalid_argument "Placement.choose: bad pin")
    (fun () ->
      ignore (Placement.choose (Placement.Pin 9) cl ~rng ~index:0 ~total:1));
  for _ = 1 to 50 do
    let n = Placement.choose Placement.Random cl ~rng ~index:0 ~total:1 in
    check_bool "random in range" true (n >= 0 && n < 4)
  done

let test_placement_least_loaded () =
  let cl = Dex.cluster ~nodes:3 () in
  ignore
    (Dex.run cl (fun proc main ->
         ignore main;
         (* Saturate node 0 and half of node 1; node 2 stays idle. *)
         let busy node n =
           List.init n (fun _ ->
               Process.spawn proc (fun th ->
                   Process.migrate th node;
                   let pool = Cluster.cores cl ~node in
                   Dex_sim.Resource.Pool.acquire pool;
                   Engine.delay (Cluster.engine cl) (Time_ns.ms 8);
                   Dex_sim.Resource.Pool.release pool))
         in
         let b0 = busy 0 8 and b1 = busy 1 4 in
         let checker =
           Process.spawn proc (fun th ->
               Engine.delay (Cluster.engine cl) (Time_ns.ms 3);
               let rng = Rng.create ~seed:2 in
               let n =
                 Placement.choose Placement.Least_loaded cl ~rng ~index:0
                   ~total:1
               in
               check_int "picks the idle node" 2 n;
               ignore th)
         in
         List.iter Process.join (b0 @ b1 @ [ checker ])))

let test_affinity_counts_and_best_node () =
  let cl = Dex.cluster ~nodes:3 () in
  ignore
    (Dex.run cl (fun proc main ->
         let coh = Process.coherence proc in
         let buf = Process.memalign main ~align:4096 ~bytes:(8 * 4096)
             ~tag:"data" in
         (* Node 1 writes six pages, node 2 writes two. *)
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               Process.write th buf ~len:(6 * 4096);
               Process.migrate th 2;
               Process.write th (buf + (6 * 4096)) ~len:(2 * 4096))
         in
         Process.join th;
         let ranges = [ (buf, 8 * 4096) ] in
         let counts = Affinity.owned_pages coh ~ranges in
         check_int "node1 owns six" 6 counts.(1);
         check_int "node2 owns two" 2 counts.(2);
         check_int "best node" 1 (Affinity.best_node coh ~ranges);
         (* Migrate the main... a worker to its data. *)
         let w =
           Process.spawn proc (fun th ->
               let chosen = Affinity.migrate_to_data th ~ranges in
               check_int "moved to node 1" 1 chosen;
               check_int "location updated" 1 (Process.location th))
         in
         Process.join w))

let test_affinity_untracked_counts_origin () =
  let cl = Dex.cluster ~nodes:2 () in
  ignore
    (Dex.run cl (fun proc main ->
         let coh = Process.coherence proc in
         let buf = Process.malloc main ~bytes:4096 ~tag:"fresh" in
         let counts = Affinity.owned_pages coh ~ranges:[ (buf, 4096) ] in
         check_bool "origin holds untouched pages" true (counts.(0) >= 1)))

let test_balancer_safe_points () =
  let cl = Dex.cluster ~nodes:4 () in
  ignore
    (Dex.run cl (fun proc main ->
         ignore main;
         let balancer = Balancer.create proc ~policy:Placement.Round_robin in
         let locations = Array.make 4 (-1) in
         let barrier = Sync.Barrier.create proc ~parties:5 () in
         let threads =
           List.init 4 (fun i ->
               Process.spawn proc (fun th ->
                   Sync.Barrier.await th barrier;
                   (* safe point: honour any pending request *)
                   ignore (Balancer.checkpoint balancer th);
                   locations.(i) <- Process.location th))
         in
         Balancer.rebalance balancer
           ~tids:(List.map Process.tid threads);
         check_int "four requests pending" 4 (Balancer.pending balancer);
         Sync.Barrier.await main barrier;
         List.iter Process.join threads;
         Alcotest.(check (list int)) "spread per round-robin" [ 0; 1; 2; 3 ]
           (Array.to_list locations);
         check_int "requests drained" 0 (Balancer.pending balancer)))

let test_balancer_checkpoint_noop () =
  let cl = Dex.cluster ~nodes:2 () in
  ignore
    (Dex.run cl (fun proc main ->
         ignore main;
         let balancer = Balancer.create proc ~policy:Placement.Round_robin in
         let th =
           Process.spawn proc (fun th ->
               check_bool "no pending request" false
                 (Balancer.checkpoint balancer th);
               Balancer.request balancer ~tid:(Process.tid th) ~node:0;
               (* already at node 0: request consumed, no migration *)
               check_bool "same-node request is a no-op" false
                 (Balancer.checkpoint balancer th))
         in
         Process.join th;
         Alcotest.check_raises "bad node"
           (Invalid_argument "Balancer.request: bad node") (fun () ->
             Balancer.request balancer ~tid:0 ~node:5)))

(* ------------------------------------------------------------------ *)
(* The Least_loaded herd bug (satellite regression): pool occupancy only
   changes when a thread actually migrates at a safe point, so a batch
   rebalance that consults occupancy alone sends EVERY thread to the one
   idlest node. The fix threads a [pending] array through the pass. *)

let test_least_loaded_rebalance_spreads () =
  let cl = Dex.cluster ~nodes:4 () in
  ignore
    (Dex.run cl (fun proc main ->
         ignore main;
         let balancer = Balancer.create proc ~policy:Placement.Least_loaded in
         let tids = List.init 8 (fun i -> 1000 + i) in
         Balancer.rebalance balancer ~tids;
         let per_node = Array.make 4 0 in
         List.iter
           (fun tid ->
             match Balancer.requested balancer ~tid with
             | Some node -> per_node.(node) <- per_node.(node) + 1
             | None -> Alcotest.fail "every tid got a request")
           tids;
         (* 8 threads over 4 equally idle nodes: two per node, not eight
            on one. *)
         Alcotest.(check (list int))
           "batch spreads instead of herding" [ 2; 2; 2; 2 ]
           (Array.to_list per_node)))

let test_placement_pending_is_honoured () =
  let cl = Dex.cluster ~nodes:4 () in
  let rng = Rng.create ~seed:1 in
  (* All pools idle; 8 planned arrivals on node 0 must push the pick off
     it. *)
  check_int "planned load counts against idleness" 1
    (Placement.choose ~pending:[| 8; 0; 0; 0 |] Placement.Least_loaded cl
       ~rng ~index:0 ~total:1);
  Alcotest.check_raises "pending arity checked"
    (Invalid_argument "Placement.choose: pending array must have one slot per node")
    (fun () ->
      ignore
        (Placement.choose ~pending:[| 0; 0 |] Placement.Least_loaded cl ~rng
           ~index:0 ~total:1))

(* Affinity counting must see through sharded page homes: ownership lives
   in per-shard directories, not only the origin's. *)
let test_affinity_best_node_under_sharding () =
  let cl =
    Dex.cluster ~nodes:3
      ~proto:{ Dex_proto.Proto_config.default with sharding = `Hash 3 }
      ()
  in
  ignore
    (Dex.run cl (fun proc main ->
         let coh = Process.coherence proc in
         let buf =
           Process.memalign main ~align:4096 ~bytes:(8 * 4096) ~tag:"data"
         in
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               Process.write th buf ~len:(6 * 4096);
               Process.migrate th 2;
               Process.write th (buf + (6 * 4096)) ~len:(2 * 4096))
         in
         Process.join th;
         let ranges = [ (buf, 8 * 4096) ] in
         let counts = Affinity.owned_pages coh ~ranges in
         check_int "node1 owns six (sharded homes)" 6 counts.(1);
         check_int "node2 owns two (sharded homes)" 2 counts.(2);
         check_int "best node (sharded homes)" 1
           (Affinity.best_node coh ~ranges)))

(* ------------------------------------------------------------------ *)
(* The autopilot end to end at the unit level: a dominant-writer
   ping-pong page must get re-homed onto the dominant node within a few
   profiling windows, with co-location and replication disabled so the
   test isolates the re-home lever. *)

let ap_config =
  {
    Autopilot.default with
    Autopilot.interval = Time_ns.us 50;
    min_faults = 4;
    colocate = false;
    replicate = false;
  }

let test_autopilot_rehomes_dominant_pingpong () =
  let cl = Dex.cluster ~nodes:2 () in
  let rehomes = ref 0 in
  let home = ref (-1) in
  let overlay = ref [] in
  let ticks = ref 0 in
  ignore
    (Dex.run cl (fun proc main ->
         let ap = Autopilot.attach ~config:ap_config proc in
         let coh = Process.coherence proc in
         let flag = Process.memalign main ~align:4096 ~bytes:8 ~tag:"flag" in
         Process.store main flag 0L;
         (* Node 1 carries two faulting threads (a writer and a re-reader)
            against main's one: its share of the page's faults dominates,
            so the controller must move the page's home there. *)
         let writer =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               for i = 1 to 60 do
                 Process.store th ~site:"pp_w" flag (Int64.of_int i);
                 Process.compute th ~ns:(Time_ns.us 25)
               done)
         in
         let reader =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               for _ = 1 to 60 do
                 ignore (Process.load th ~site:"pp_r" flag);
                 Process.compute th ~ns:(Time_ns.us 25)
               done)
         in
         for i = 1 to 60 do
           Process.store main ~site:"pp_m" flag (Int64.of_int (1000 + i));
           Process.compute main ~ns:(Time_ns.us 50)
         done;
         Process.join writer;
         Process.join reader;
         rehomes :=
           Stats.get (Dex_proto.Coherence.stats coh) "autopilot.rehomes";
         home :=
           Dex_proto.Coherence.page_home coh
             (Dex_mem.Page.page_of_addr flag);
         overlay := Dex_proto.Coherence.rehomed_pages coh;
         ticks := Autopilot.ticks ap;
         Dex_proto.Coherence.check_invariants coh;
         Autopilot.stop ap;
         (* Idempotent. *)
         Autopilot.stop ap));
  check_bool "profiling windows elapsed" true (!ticks > 0);
  (* The hot page is the only re-homeable traffic in the program (futex
     pages are pinned), so any re-home is the controller pulling the
     right lever. A symmetric ping-pong gives it no stable resting
     place — each move makes the new home's faults invisible, so
     dominance swings back — but the overlay must always agree with the
     served home. *)
  check_bool "the contended page was re-homed" true (!rehomes >= 1);
  (match !overlay with
  | [] -> check_int "home reverted with an empty overlay" 0 !home
  | [ (_, n) ] -> check_int "overlay agrees with the served home" !home n
  | _ -> Alcotest.fail "only the one hot page may be re-homed")

let test_autopilot_attach_validates_config () =
  let cl = Dex.cluster ~nodes:2 () in
  ignore
    (Dex.run cl (fun proc main ->
         ignore main;
         Alcotest.check_raises "zero trace capacity refused"
           (Invalid_argument "Autopilot.attach: bad trace capacity")
           (fun () ->
             ignore
               (Autopilot.attach
                  ~config:{ ap_config with Autopilot.trace_capacity = 0 }
                  proc));
         Alcotest.check_raises "zero action budget refused"
           (Invalid_argument "Autopilot.attach: bad action budget")
           (fun () ->
             ignore
               (Autopilot.attach
                  ~config:{ ap_config with Autopilot.max_actions_per_tick = 0 }
                  proc))))

let () =
  Alcotest.run "dex_sched"
    [
      ( "placement",
        [
          Alcotest.test_case "round robin" `Quick test_placement_round_robin;
          Alcotest.test_case "pin / random" `Quick test_placement_pin_and_random;
          Alcotest.test_case "least loaded" `Quick test_placement_least_loaded;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "ownership counting" `Quick
            test_affinity_counts_and_best_node;
          Alcotest.test_case "untracked pages belong to origin" `Quick
            test_affinity_untracked_counts_origin;
        ] );
      ( "balancer",
        [
          Alcotest.test_case "safe-point migration" `Quick
            test_balancer_safe_points;
          Alcotest.test_case "checkpoint no-op" `Quick
            test_balancer_checkpoint_noop;
          Alcotest.test_case "least-loaded batch spreads (herd bug)" `Quick
            test_least_loaded_rebalance_spreads;
          Alcotest.test_case "pending load honoured" `Quick
            test_placement_pending_is_honoured;
        ] );
      ( "affinity-sharded",
        [
          Alcotest.test_case "best node under sharded homes" `Quick
            test_affinity_best_node_under_sharding;
        ] );
      ( "autopilot",
        [
          Alcotest.test_case "re-homes a dominant-writer ping-pong" `Quick
            test_autopilot_rehomes_dominant_pingpong;
          Alcotest.test_case "attach validates its config" `Quick
            test_autopilot_attach_validates_config;
        ] );
    ]
