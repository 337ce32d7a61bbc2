(* Tests for the benchmark applications: workload generators, the shared
   harness, and per-app correctness (all variants must compute the same
   result as the host reference, at every node count). *)

open Dex_apps
module A = App_common

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Workload generators *)

let test_text_corpus_embeds_keys () =
  let keys = [ "Xylophone"; "Quasar" ] in
  let text = Workloads.text_corpus ~seed:3 ~bytes:300_000 ~keys () in
  check_int "requested size" 300_000 (Bytes.length text);
  let total =
    List.fold_left
      (fun acc k -> acc + Workloads.count_occurrences text k)
      0 keys
  in
  (* ~one key per 64 KB in 300 KB. *)
  check_bool "keys embedded" true (total >= 2 && total <= 12)

let test_text_corpus_deterministic () =
  let mk () = Workloads.text_corpus ~seed:9 ~bytes:10_000 ~keys:[ "Kilo" ] () in
  check_bool "same seed, same text" true (Bytes.equal (mk ()) (mk ()))

let test_count_occurrences () =
  let text = Bytes.of_string "abcabcab" in
  check_int "overlapping scan" 2 (Workloads.count_occurrences text "abc");
  check_int "suffix" 3 (Workloads.count_occurrences text "ab");
  Alcotest.check_raises "empty key"
    (Invalid_argument "Workloads.count_occurrences: empty key") (fun () ->
      ignore (Workloads.count_occurrences text ""))

let test_points_3d () =
  let pts = Workloads.points_3d ~seed:4 ~n:1000 ~clusters:5 in
  check_int "3 coords per point" 3000 (Array.length pts);
  Array.iter
    (fun c -> check_bool "coordinates near unit cube" true (c > -0.1 && c < 1.1))
    pts

let test_rmat_csr_valid () =
  let g = Workloads.rmat ~seed:5 ~vertices:1024 ~edges:8192 in
  check_int "vertices" 1024 g.Workloads.vertices;
  check_int "offsets length" 1025 (Array.length g.Workloads.offsets);
  check_int "edge count" 8192 g.Workloads.offsets.(1024);
  check_int "targets length" 8192 (Array.length g.Workloads.targets);
  (* offsets monotone, targets in range *)
  for v = 0 to 1023 do
    check_bool "monotone offsets" true
      (g.Workloads.offsets.(v) <= g.Workloads.offsets.(v + 1))
  done;
  Array.iter
    (fun t -> check_bool "target in range" true (t >= 0 && t < 1024))
    g.Workloads.targets

let test_rmat_skewed () =
  (* R-MAT with Graph500 parameters concentrates edges on low vertex ids. *)
  let g = Workloads.rmat ~seed:5 ~vertices:4096 ~edges:65536 in
  let deg v = g.Workloads.offsets.(v + 1) - g.Workloads.offsets.(v) in
  let low = ref 0 in
  for v = 0 to 255 do
    low := !low + deg v
  done;
  (* the lowest 1/16 of ids should hold far more than 1/16 of edges *)
  check_bool "skewed degrees" true (!low > 65536 / 8)

let test_rmat_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Workloads.rmat: vertices must be a positive power of two")
    (fun () -> ignore (Workloads.rmat ~seed:1 ~vertices:1000 ~edges:10))

let test_black_scholes_sanity () =
  (* A call deep in the money is worth ~spot - strike discounted. *)
  let deep = Workloads.black_scholes_call (100.0, 10.0, 0.02, 0.2, 1.0) in
  check_bool "deep ITM close to intrinsic" true (deep > 89.0 && deep < 91.0);
  let otm = Workloads.black_scholes_call (10.0, 100.0, 0.02, 0.2, 1.0) in
  check_bool "deep OTM nearly worthless" true (otm >= 0.0 && otm < 0.1)

(* ------------------------------------------------------------------ *)
(* Harness *)

let prop_partition_covers =
  QCheck.Test.make ~name:"partition covers the range exactly" ~count:300
    QCheck.(pair (int_range 0 10_000) (int_range 1 64))
    (fun (total, parts) ->
      let pieces = List.init parts (fun i -> A.partition ~total ~parts ~index:i) in
      let lens = List.map snd pieces in
      List.fold_left ( + ) 0 lens = total
      && (* contiguity *)
      fst
        (List.fold_left
           (fun (ok, expect) (off, len) -> (ok && off = expect, off + len))
           (true, 0) pieces))

(* The one-slot memo recomputes for a new key and, once that key has
   evicted the first, recomputes the first again rather than returning
   the evicting value. *)
let test_memo_evicts () =
  let calls = ref 0 in
  let f = A.memo (fun (a, b) -> incr calls; (a * 10) + b) in
  check_int "first" 12 (f (1, 2));
  check_int "hit" 12 (f (1, 2));
  check_int "one call" 1 !calls;
  check_int "other key" 34 (f (3, 4));
  check_int "first again" 12 (f (1, 2));
  check_int "each miss computes" 3 !calls

let test_variant_names () =
  Alcotest.(check string) "baseline" "baseline" (A.variant_name A.Baseline);
  Alcotest.(check string) "initial" "initial" (A.variant_name A.Initial);
  Alcotest.(check string) "optimized" "optimized" (A.variant_name A.Optimized)

(* ------------------------------------------------------------------ *)
(* Applications: cross-variant correctness at reduced scale. *)

(* Each application must produce the same checksum in every variant and at
   every node count — the DSM, migration and synchronization machinery may
   not change program results. Only GRP's and EP's checksums pass through
   simulated memory (workers [fetch_add] into shared words the main thread
   loads back); KMN, BT, FT, BLK, BFS and BP return host references, so for
   them agreement shows determinism only. *)
let checksums_agree name (runs : (unit -> A.result) list) =
  match List.map (fun f -> (f ()).A.checksum) runs with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i c ->
          Alcotest.(check int64)
            (Printf.sprintf "%s run %d agrees" name i)
            first c)
        rest;
      check_bool (name ^ " nonzero result") true (first <> 0L)

let grp_small =
  { Grp.text_bytes = 1 lsl 20; key_interval = 8192; cpu_ns_per_byte = 10.0;
    chunk_bytes = 1 lsl 18 }

let test_grp () =
  let run nodes variant () = Grp.run ~nodes ~variant ~params:grp_small () in
  checksums_agree "GRP"
    [ run 1 A.Baseline; run 2 A.Initial; run 3 A.Optimized ];
  let expected = Grp.expected_matches grp_small ~seed:11 in
  let r = Grp.run ~nodes:2 ~variant:A.Initial ~params:grp_small () in
  Alcotest.(check int64) "GRP counts every key occurrence"
    (Int64.of_int expected) r.A.checksum

let kmn_small =
  { Kmn.points = 4_000; clusters = 8; iterations = 3; ns_per_point = 400.0;
    chunk_points = 64 }

let test_kmn () =
  let run nodes variant () = Kmn.run ~nodes ~variant ~params:kmn_small () in
  checksums_agree "KMN"
    [ run 1 A.Baseline; run 2 A.Initial; run 2 A.Optimized; run 4 A.Optimized ]

(* The input cloud depends on [clusters]: a run with another cluster count
   must not leave its points behind for the next. *)
let test_kmn_oracle_keyed_on_clusters () =
  let points clusters =
    Workloads.points_3d ~seed:13 ~n:kmn_small.points ~clusters
  in
  let kmn4 = { kmn_small with clusters = 4 } in
  ignore (Kmn.run ~nodes:1 ~variant:A.Baseline ~params:kmn4 ());
  Alcotest.(check (array (float 0.0)))
    "4-cluster points" (points 4) (Kmn.oracle kmn4 ~seed:13).cloud;
  Alcotest.(check (array (float 0.0)))
    "8-cluster points after a 4-cluster run" (points 8)
    (Kmn.oracle kmn_small ~seed:13).cloud

let ep_small = { Ep.pairs = 1 lsl 16; batch = 1 lsl 12; ns_per_pair = 25.0 }

let test_ep () =
  let run nodes variant () = Ep.run ~nodes ~variant ~params:ep_small () in
  checksums_agree "EP" [ run 1 A.Baseline; run 2 A.Initial; run 3 A.Optimized ];
  (* The distributed tallies must match the sequential reference. *)
  let tallies = Ep.reference_tallies ep_small ~seed:17 in
  check_bool "EP tallies populated" true (Array.exists (fun n -> n > 0) tallies);
  let expected = Ep.reference_checksum ep_small ~seed:17 in
  List.iter
    (fun variant ->
      Alcotest.(check int64)
        ("EP " ^ A.variant_name variant ^ " matches the reference")
        expected (run 2 variant ()).A.checksum)
    [ A.Initial; A.Optimized ]

(* [Ep.body] runs against the oracle it is given, even after another
   seed's lookup has evicted that oracle from the memo. *)
let test_ep_body_oracle () =
  let seed = 5 in
  let o = Ep.oracle ep_small ~seed in
  let expected = Ep.reference_checksum ep_small ~seed in
  List.iter
    (fun (nodes, variant) ->
      ignore (Ep.oracle ep_small ~seed:(seed + 1));
      let cl = Dex_core.Dex.cluster ~nodes () in
      let got = ref 0L in
      ignore
        (Dex_core.Dex.run cl (fun proc main ->
             let ctx =
               {
                 A.proc;
                 cl;
                 variant;
                 nodes;
                 threads = 2 * nodes;
                 seed;
                 nodemap = Fun.id;
               }
             in
             got := Ep.body ep_small o ctx main));
      Alcotest.(check int64)
        (Printf.sprintf "EP body, %d node(s), %s" nodes (A.variant_name variant))
        expected !got)
    [ (1, A.Initial); (1, A.Optimized); (2, A.Initial); (2, A.Optimized) ]

let bt_small =
  { Npb_bt.timesteps = 2; regions_per_step = 2; cells = 20_000;
    ns_per_cell = 10.0; update_chunk = 1024 }

let test_bt () =
  let run nodes variant () = Npb_bt.run ~nodes ~variant ~params:bt_small () in
  checksums_agree "BT" [ run 1 A.Baseline; run 2 A.Initial; run 2 A.Optimized ]

let ft_small =
  { Npb_ft.grid_bytes = 1 lsl 17; iterations = 2; ns_per_byte = 1.6 }

let test_ft () =
  let run nodes variant () = Npb_ft.run ~nodes ~variant ~params:ft_small () in
  checksums_agree "FT" [ run 1 A.Baseline; run 2 A.Initial; run 2 A.Optimized ]

let blk_small =
  { Blk.options = 3_000; rounds = 2; ns_per_option = 150.0; chunk = 512 }

let test_blk () =
  let run nodes variant () = Blk.run ~nodes ~variant ~params:blk_small () in
  checksums_agree "BLK" [ run 1 A.Baseline; run 2 A.Initial; run 2 A.Optimized ];
  let s = Blk.reference_sum blk_small ~seed:19 in
  check_bool "plausible price sum" true (s > 0.0)

let bfs_small =
  { Bfs.scale = 10; edge_factor = 8; ns_per_edge = 12.0; max_iters = 64;
    sample_pages = 16 }

let test_bfs () =
  let run nodes variant () = Bfs.run ~nodes ~variant ~params:bfs_small () in
  checksums_agree "BFS" [ run 1 A.Baseline; run 2 A.Initial; run 2 A.Optimized ];
  check_bool "BFS reaches vertices" true
    (Bfs.reference_level_sum bfs_small ~seed:31 > 0);
  (* Simulated behaviour pinned: the host-side plans (frontier split by
     thread, level pages checked) must drive the same accesses. *)
  List.iter
    (fun (variant, time, faults) ->
      let r = run 2 variant () in
      Alcotest.(check (pair int int))
        ("BFS " ^ A.variant_name variant ^ " (sim_time, faults)")
        (time, faults) (r.A.sim_time, r.A.faults))
    [ (A.Initial, 2_172_575, 81); (A.Optimized, 2_126_174, 82) ]

(* BFS at 4 nodes on a graph of 8 level pages, with Initial's sample cap
   below that: which pages a thread samples, and the order Optimized
   visits its inboxes in, both show in the run's counters. *)
let bfs_pinned = { bfs_small with Bfs.scale = 12; sample_pages = 4 }

let test_bfs_4_nodes () =
  List.iter
    (fun (variant, time, faults, stats) ->
      let r = Bfs.run ~nodes:4 ~variant ~params:bfs_pinned () in
      let name = "BFS 4 nodes " ^ A.variant_name variant in
      Alcotest.(check (pair int int))
        (name ^ " (sim_time, faults)")
        (time, faults) (r.A.sim_time, r.A.faults);
      Alcotest.(check (list (pair string int)))
        (name ^ " counters") stats
        (Dex_sim.Stats.to_list r.A.stats))
    [
      ( A.Initial,
        5_217_557,
        441,
        [
          ("delegation", 240);
          ("fault.coalesced", 1200);
          ("fault.minor", 65);
          ("fault.read", 265);
          ("fault.retry", 124);
          ("fault.write", 176);
          ("grant.data", 232);
          ("grant.nack", 124);
          ("grant.nodata", 151);
          ("migration.backward", 24);
          ("migration.forward", 24);
          ("revoke.downgrade", 79);
          ("revoke.invalidate", 173);
          ("vma.sync", 6);
        ] );
      ( A.Optimized,
        5_964_187,
        434,
        [
          ("delegation", 240);
          ("fault.coalesced", 1489);
          ("fault.minor", 190);
          ("fault.read", 254);
          ("fault.retry", 117);
          ("fault.write", 180);
          ("grant.data", 242);
          ("grant.nack", 117);
          ("grant.nodata", 139);
          ("migration.backward", 24);
          ("migration.forward", 24);
          ("revoke.downgrade", 64);
          ("revoke.invalidate", 141);
          ("vma.sync", 6);
        ] );
    ]

let bp_small =
  {
    Bp.vertices = 4_096;
    bytes_per_vertex = 64;
    iterations = 3;
    ns_per_vertex = 90.0;
    llc_bytes = 64 * 1024;
    miss_floor = 0.4;
    flag_chunk = 256;
    globals_bytes = 0;
  }

let test_bp () =
  let run nodes variant () = Bp.run ~nodes ~variant ~params:bp_small () in
  checksums_agree "BP" [ run 1 A.Baseline; run 2 A.Initial; run 2 A.Optimized ]

let test_registry () =
  check_int "eight applications" 8 (List.length Apps.all);
  Alcotest.(check (list string))
    "paper order"
    [ "GRP"; "KMN"; "BT"; "EP"; "FT"; "BLK"; "BFS"; "BP" ]
    Apps.names;
  let e = Apps.find "bfs" in
  Alcotest.(check string) "case-insensitive lookup" "BFS" e.Apps.name;
  check_bool "find raises" true
    (match Apps.find "nope" with _ -> false | exception Not_found -> true)

let test_results_deterministic () =
  let r1 = Grp.run ~nodes:2 ~variant:A.Initial ~params:grp_small () in
  let r2 = Grp.run ~nodes:2 ~variant:A.Initial ~params:grp_small () in
  check_int "same simulated time" r1.A.sim_time r2.A.sim_time;
  check_int "same fault count" r1.A.faults r2.A.faults

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dex_apps"
    [
      ( "workloads",
        [
          Alcotest.test_case "corpus embeds keys" `Quick
            test_text_corpus_embeds_keys;
          Alcotest.test_case "corpus deterministic" `Quick
            test_text_corpus_deterministic;
          Alcotest.test_case "count_occurrences" `Quick test_count_occurrences;
          Alcotest.test_case "points_3d" `Quick test_points_3d;
          Alcotest.test_case "rmat CSR valid" `Quick test_rmat_csr_valid;
          Alcotest.test_case "rmat skewed" `Quick test_rmat_skewed;
          Alcotest.test_case "rmat validation" `Quick test_rmat_validation;
          Alcotest.test_case "black-scholes sanity" `Quick
            test_black_scholes_sanity;
        ] );
      ( "harness",
        [
          Alcotest.test_case "variant names" `Quick test_variant_names;
          Alcotest.test_case "memo evicts" `Quick test_memo_evicts;
        ]
        @ qsuite [ prop_partition_covers ] );
      ( "applications",
        [
          Alcotest.test_case "GRP correctness" `Quick test_grp;
          Alcotest.test_case "KMN correctness" `Quick test_kmn;
          Alcotest.test_case "KMN oracle keyed on clusters" `Quick
            test_kmn_oracle_keyed_on_clusters;
          Alcotest.test_case "EP correctness" `Quick test_ep;
          Alcotest.test_case "EP body takes its oracle" `Quick
            test_ep_body_oracle;
          Alcotest.test_case "BT correctness" `Quick test_bt;
          Alcotest.test_case "FT correctness" `Quick test_ft;
          Alcotest.test_case "BLK correctness" `Quick test_blk;
          Alcotest.test_case "BFS correctness" `Quick test_bfs;
          Alcotest.test_case "BFS plans at 4 nodes" `Quick test_bfs_4_nodes;
          Alcotest.test_case "BP correctness" `Quick test_bp;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "determinism" `Quick test_results_deterministic;
        ] );
    ]
