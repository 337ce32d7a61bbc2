(* Tests for the scheduling extensions: data-affinity migration,
   safe-point balancing and the placement autopilot. *)

open Dex_sim
open Dex_core
open Dex_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

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
         let balancer = Balancer.create proc in
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
         (* Thread i is sent to node 3 - i: every target differs from
            the order the threads were spawned in. *)
         List.iteri
           (fun i th -> Balancer.request balancer ~tid:(Process.tid th) ~node:(3 - i))
           threads;
         check_int "four requests pending" 4 (Balancer.pending balancer);
         Alcotest.(check (option int)) "request readable before the safe point"
           (Some 3)
           (Balancer.requested balancer ~tid:(Process.tid (List.hd threads)));
         Sync.Barrier.await main barrier;
         List.iter Process.join threads;
         Alcotest.(check (list int)) "each thread at its requested node"
           [ 3; 2; 1; 0 ] (Array.to_list locations);
         check_int "requests drained" 0 (Balancer.pending balancer)))

let test_balancer_checkpoint_noop () =
  let cl = Dex.cluster ~nodes:2 () in
  ignore
    (Dex.run cl (fun proc main ->
         ignore main;
         let balancer = Balancer.create proc in
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
   profiling windows. The cluster isolates the re-home lever: with two
   cores per node, co-locating the page's faulters onto either node would
   put three threads on two cores, which the controller refuses, and a
   page written from both nodes never classifies as read-mostly. *)

let test_autopilot_rehomes_dominant_pingpong () =
  let config =
    {
      Core_config.default with
      cores_per_node = 2;
      autopilot_interval = Time_ns.us 50;
    }
  in
  let cl = Dex.cluster ~nodes:2 ~config () in
  let rehomes = ref 0 and colocations = ref 0 in
  let home = ref (-1) in
  let overlay = ref [] in
  let ticks = ref 0 in
  ignore
    (Dex.run cl (fun proc main ->
         let ap = Autopilot.attach proc in
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
         let get = Stats.get (Dex_proto.Coherence.stats coh) in
         rehomes := get "autopilot.rehomes";
         colocations := get "autopilot.colocations";
         let authority = Dex_proto.Coherence.authority coh in
         home :=
           (Dex_proto.Authority.route authority
              (Dex_mem.Page.page_of_addr flag))
             .node;
         overlay := Dex_proto.Authority.rehomed_pages authority;
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
  check_int "no thread was co-located" 0 !colocations;
  (match !overlay with
  | [] -> check_int "home reverted with an empty overlay" 0 !home
  | [ (_, n) ] -> check_int "overlay agrees with the served home" !home n
  | _ -> Alcotest.fail "only the one hot page may be re-homed")

let () =
  Alcotest.run "dex_sched"
    [
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
        ] );
    ]
