(* Tests for the DeX core: thread migration, work delegation, futexes,
   synchronization primitives, VMA synchronization and the public API. *)

open Dex_sim
open Dex_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Time_ns.us

let in_us ns = Time_ns.to_us_f ns

(* ------------------------------------------------------------------ *)
(* Quickstart: distribute threads, shared counter, migrate back.       *)

let test_quickstart_distributed_counter () =
  let cl = Dex.cluster ~nodes:4 () in
  let final = ref 0L in
  let proc =
    Dex.run cl (fun proc main ->
        let counter = Process.malloc main ~bytes:8 ~tag:"counter" in
        let threads =
          List.init 4 (fun i ->
              Process.spawn proc (fun th ->
                  Process.migrate th i;
                  ignore (Process.fetch_add th counter 1L);
                  Process.migrate th (Process.origin proc)))
        in
        List.iter Process.join threads;
        final := Process.load main counter)
  in
  Alcotest.(check int64) "all increments arrived" 4L !final;
  (* Three forward migrations (node 0 is a no-op) and three backward. *)
  let log = Process.migration_log proc in
  let fwd = List.filter (fun r -> r.Process.m_direction = `Forward) log in
  let bwd = List.filter (fun r -> r.Process.m_direction = `Backward) log in
  check_int "forward migrations" 3 (List.length fwd);
  check_int "backward migrations" 3 (List.length bwd)

(* ------------------------------------------------------------------ *)
(* Table II shape: first/second forward and backward migration.        *)

let test_migration_latencies () =
  let cl = Dex.cluster ~nodes:2 () in
  let proc =
    Dex.run cl (fun proc main ->
        ignore proc;
        Process.migrate main 1;
        Process.migrate main 0;
        Process.migrate main 1;
        Process.migrate main 0)
  in
  match Process.migration_log proc with
  | [ f1; b1; f2; b2 ] ->
      check_bool "first forward flagged" true f1.Process.m_first_to_node;
      check_bool "second forward not first" false f2.Process.m_first_to_node;
      (* Paper Table II: 1st forward 12.1us origin / 800us remote; 2nd
         forward 6.6us / 230us; backward ~24.7us end to end. *)
      check_bool
        (Printf.sprintf "1st fwd origin ~12us (got %.1f)"
           (in_us f1.Process.m_origin_ns))
        true
        (f1.Process.m_origin_ns > us 10 && f1.Process.m_origin_ns < us 14);
      check_bool
        (Printf.sprintf "1st fwd remote ~800us (got %.1f)"
           (in_us f1.Process.m_remote_ns))
        true
        (f1.Process.m_remote_ns > us 770 && f1.Process.m_remote_ns < us 830);
      check_bool
        (Printf.sprintf "2nd fwd origin ~6.6us (got %.1f)"
           (in_us f2.Process.m_origin_ns))
        true
        (f2.Process.m_origin_ns > us 5 && f2.Process.m_origin_ns < us 8);
      check_bool
        (Printf.sprintf "2nd fwd remote ~230us (got %.1f)"
           (in_us f2.Process.m_remote_ns))
        true
        (f2.Process.m_remote_ns > us 220 && f2.Process.m_remote_ns < us 240);
      let bwd_total r = r.Process.m_origin_ns + r.Process.m_remote_ns in
      check_bool
        (Printf.sprintf "backward ~22us handling (got %.1f)"
           (in_us (bwd_total b1)))
        true
        (bwd_total b1 > us 18 && bwd_total b1 < us 28);
      check_bool "2nd backward similar" true
        (abs (bwd_total b2 - bwd_total b1) < us 2);
      (* Figure 3: remote-worker construction dominates the first forward
         migration and is absent from the second. *)
      check_int "remote worker cost in 1st breakdown" (us 620)
        (List.assoc "remote worker" f1.Process.m_breakdown);
      check_bool "no remote worker in 2nd" true
        (not (List.mem_assoc "remote worker" f2.Process.m_breakdown))
  | log -> Alcotest.failf "unexpected migration log length %d" (List.length log)

(* A remote worker is state, not a fiber: once a thread that visited
   node 1 is joined, no fiber is left behind for the worker. *)
let test_remote_worker_leaves_no_fiber () =
  let cl = Dex.cluster ~nodes:2 () in
  let eng = Cluster.engine cl in
  let before = ref 0 and after = ref 0 in
  ignore
    (Dex.run cl (fun proc _main ->
         before := Engine.live_fibers eng;
         Process.join (Process.spawn proc (fun th -> Process.migrate th 1));
         after := Engine.live_fibers eng));
  check_int "live fibers after the visit" !before !after

let test_migrate_validation () =
  let cl = Dex.cluster ~nodes:2 () in
  ignore
    (Dex.run cl (fun _proc main ->
         (match Process.migrate main 7 with
         | () -> Alcotest.fail "expected rejection"
         | exception Invalid_argument _ -> ());
         (* migrating to the current node is a no-op *)
         Process.migrate main 0))

(* ------------------------------------------------------------------ *)
(* DSM through the public API + on-demand VMA sync.                    *)

let test_remote_sees_origin_data_and_vma_sync () =
  let cl = Dex.cluster ~nodes:2 () in
  let got = ref 0L in
  let proc =
    Dex.run cl (fun proc main ->
        let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
        Process.store main cell 1234L;
        let th =
          Process.spawn proc (fun th ->
              Process.migrate th 1;
              (* First touch from node 1: heap VMA unknown there, pulled
                 on demand from the origin. *)
              got := Process.load th cell)
        in
        Process.join th)
  in
  Alcotest.(check int64) "remote read" 1234L !got;
  check_bool "on-demand VMA sync happened" true
    (Stats.get (Process.stats proc) "vma.sync" >= 1)

(* A fault-free access allocates nothing but [load]'s boxed result: no
   guard closure, no VMA lookup closure or option, no radix-tree closure,
   and a [compute] that nothing can interleave with advances the clock in
   place instead of queueing a timer. *)
let test_fault_free_access_allocation () =
  let cl = Dex.cluster ~nodes:2 () in
  let n = 10_000 in
  let words = ref nan in
  ignore
    (Dex.run cl (fun _proc main ->
         let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
         (* Fault the page in and warm the VMA cache first. *)
         Process.store main cell 1L;
         ignore (Process.load main cell);
         Process.compute main ~ns:100;
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           Process.store main cell 7L;
           ignore (Process.load main cell);
           Process.compute main ~ns:100
         done;
         words := (Gc.minor_words () -. w0) /. float_of_int n));
  check_bool
    (Printf.sprintf "%.1f words per store + load + compute (at most 3)" !words)
    true (!words <= 3.0)

(* Bytes allocated so far, both heaps. OCaml 5.1's [Gc.allocated_bytes]
   counts each minor-heap word as one byte; [Gc.minor_words] is exact. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* A process pays for the nodes and pages it uses, not for the rack: on
   8 nodes, creating a process and shutting it down allocates at most
   24 KB (about 112 KB when every page-number table began with a 4 KB
   root array). The first round warms what a cluster builds once. *)
let test_process_allocation_budget () =
  let cl = Dex.cluster ~nodes:8 () in
  let create_and_shut_down () =
    let a0 = allocated_bytes () in
    let proc = Process.create cl () in
    Engine.spawn (Cluster.engine cl) ~label:"shutdown" (fun () ->
        Process.shutdown proc);
    Cluster.run cl;
    allocated_bytes () -. a0
  in
  ignore (create_and_shut_down ());
  let bytes = create_and_shut_down () in
  check_bool
    (Printf.sprintf "%.0f bytes per Process.create + shutdown (at most 24 KB)"
       bytes)
    true
    (bytes <= 24. *. 1024.)

let expect_segfault f =
  let cl = Dex.cluster ~nodes:2 () in
  match Dex.run cl f with
  | _ -> Alcotest.fail "expected segfault"
  | exception Engine.Fiber_failure (_, Process.Segfault _) -> ()

let test_segfault_unmapped_origin () =
  expect_segfault (fun _proc main -> Process.read main 0x50 ~len:8)

let test_segfault_unmapped_remote () =
  expect_segfault (fun _proc main ->
      Process.migrate main 1;
      (* The origin confirms there is no VMA here: remote thread dies. *)
      Process.read main 0x50 ~len:8)

let test_segfault_write_to_readonly () =
  expect_segfault (fun _proc main ->
      let addr = Process.mmap main ~perm:Dex_mem.Perm.ro ~len:4096 ~tag:"ro" () in
      Process.write main addr ~len:8)

(* ------------------------------------------------------------------ *)
(* munmap / mprotect broadcast.                                        *)

let test_munmap_broadcast_kills_remote_access () =
  let cl = Dex.cluster ~nodes:2 () in
  let before = ref 0L in
  let reached_after = ref false in
  (match
     Dex.run cl (fun proc main ->
         let region = Process.mmap main ~len:(4 * 4096) ~tag:"scratch" () in
         Process.store main region 7L;
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               before := Process.load th region;
               (* Wait for the origin to unmap, then touch again. *)
               Engine.delay (Cluster.engine cl) (Time_ns.ms 2);
               reached_after := true;
               ignore (Process.load th region))
         in
         Engine.delay (Cluster.engine cl) (Time_ns.ms 1);
         Process.munmap main ~addr:region ~len:(4 * 4096);
         Process.join th)
   with
  | _ -> Alcotest.fail "expected segfault after munmap"
  | exception Engine.Fiber_failure (_, Process.Segfault _) -> ());
  Alcotest.(check int64) "read before unmap fine" 7L !before;
  check_bool "remote reached the post-unmap access" true !reached_after

(* Two munmaps from two threads at once: both shrinks are in flight at
   node 1 together, and each is applied by the handler that delivered it. *)
let test_concurrent_munmaps_at_one_node () =
  let cl = Dex.cluster ~nodes:2 () in
  let len = 4 * 4096 in
  let regions = ref [] in
  let holds proc node r =
    Option.is_some (Dex_mem.Vma_tree.find (Process.vma_tree proc ~node) r)
  in
  let ptes proc node r =
    let pt =
      Dex_proto.Coherence.page_table (Process.coherence proc) ~node
    in
    let first, last = Dex_mem.Page.pages_of_range r ~len in
    List.length
      (List.filter
         (fun vpn -> Option.is_some (Dex_mem.Page_table.get pt vpn))
         (List.init (last - first + 1) (fun i -> first + i)))
  in
  let proc =
    Dex.run cl (fun proc main ->
        let rs =
          List.map (fun tag -> Process.mmap main ~len ~tag ()) [ "a"; "b" ]
        in
        regions := rs;
        Process.join
          (Process.spawn proc (fun th ->
               Process.migrate th 1;
               List.iter (fun r -> Process.write th r ~len) rs));
        List.iter
          (fun r ->
            check_bool "node 1 holds the VMA" true (holds proc 1 r);
            check_int "node 1 holds every page" 4 (ptes proc 1 r))
          rs;
        List.iter Process.join
          (List.map
             (fun r -> Process.spawn proc (fun th -> Process.munmap th ~addr:r ~len))
             rs))
  in
  List.iter
    (fun r ->
      check_bool "no VMA left at node 1" false (holds proc 1 r);
      check_int "no PTE left at node 1" 0 (ptes proc 1 r))
    !regions;
  Dex_proto.Coherence.check_invariants (Process.coherence proc)

(* munmap forgets a re-homed page where it is served: its overlay entry
   and its re-home record go with the mapping. *)
let test_munmap_forgets_rehomed_page () =
  let cl = Dex.cluster ~nodes:3 () in
  let proc =
    Dex.run cl (fun proc main ->
        let region = Process.mmap main ~len:4096 ~tag:"scratch" () in
        Process.store main region 7L;
        (match
           Dex_proto.Coherence.rehome_page (Process.coherence proc)
             ~vpn:(Dex_mem.Page.page_of_addr region) ~node:2
         with
        | `Rehomed -> ()
        | _ -> Alcotest.fail "setup re-home must succeed");
        Process.munmap main ~addr:region ~len:4096)
  in
  let coh = Process.coherence proc in
  Alcotest.(check (list (pair int int)))
    "no re-home outlives the mapping" []
    (Dex_proto.Authority.rehomed_pages (Dex_proto.Coherence.authority coh));
  Dex_proto.Coherence.check_invariants coh

let test_mprotect_downgrade_broadcast () =
  expect_segfault (fun _proc main ->
      let region = Process.mmap main ~len:4096 ~tag:"data" () in
      Process.write main region ~len:4096;
      Process.mprotect main ~addr:region ~len:4096 ~perm:Dex_mem.Perm.ro;
      (* Reads still fine, writes now fault. *)
      Process.read main region ~len:4096;
      Process.write main region ~len:8)

(* Only a downgrade is broadcast eagerly: none -> ro grants a right and
   sends no node op, rw -> ro takes one away and reaches node 1 (whose
   worker exists once a thread has been there). *)
let test_mprotect_broadcasts_only_downgrades () =
  let cl = Dex.cluster ~nodes:2 () in
  let node_ops () =
    Stats.get (Dex_net.Fabric.stats (Cluster.fabric cl)) "sent.node_op"
  in
  let upgrade = ref (-1) and downgrade = ref (-1) in
  ignore
    (Dex.run cl (fun _proc main ->
         let closed =
           Process.mmap main ~perm:Dex_mem.Perm.none ~len:4096 ~tag:"closed" ()
         in
         let open_ = Process.mmap main ~len:4096 ~tag:"open" () in
         Process.migrate main 1;
         Process.migrate main 0;
         let n0 = node_ops () in
         Process.mprotect main ~addr:closed ~len:4096 ~perm:Dex_mem.Perm.ro;
         upgrade := node_ops () - n0;
         Process.mprotect main ~addr:open_ ~len:4096 ~perm:Dex_mem.Perm.ro;
         downgrade := node_ops () - n0 - !upgrade));
  check_int "none -> ro sends no node op" 0 !upgrade;
  check_int "rw -> ro reaches the other node" 1 !downgrade

(* ------------------------------------------------------------------ *)
(* Work delegation.                                                    *)

let test_remote_malloc_is_delegated () =
  let cl = Dex.cluster ~nodes:2 () in
  let proc =
    Dex.run cl (fun proc main ->
        let th =
          Process.spawn proc (fun th ->
              Process.migrate th 1;
              let a = Process.malloc th ~bytes:64 ~tag:"remote-buf" in
              Process.store th a 1L)
        in
        Process.join th;
        ignore main)
  in
  check_bool "delegations recorded" true
    (Stats.get (Process.stats proc) "delegation" >= 1)

let test_futex_eagain () =
  let cl = Dex.cluster ~nodes:2 () in
  ignore
    (Dex.run cl (fun _proc main ->
         let w = Process.malloc main ~bytes:8 ~tag:"futexword" in
         Process.store main w 5L;
         (* Value mismatch: must return EAGAIN instead of sleeping. *)
         check_bool "EAGAIN" false (Process.futex_wait main ~addr:w ~expected:99L)))

let test_futex_wake_across_nodes () =
  let cl = Dex.cluster ~nodes:2 () in
  let woken_at = ref 0 in
  ignore
    (Dex.run cl (fun proc main ->
         let w = Process.malloc main ~bytes:8 ~tag:"futexword" in
         Process.store main w 0L;
         let sleeper =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               check_bool "slept and woken" true
                 (Process.futex_wait th ~addr:w ~expected:0L);
               woken_at := Engine.now (Cluster.engine cl))
         in
         Engine.delay (Cluster.engine cl) (Time_ns.ms 1);
         Process.store main w 1L;
         ignore (Process.futex_wake main ~addr:w ~count:1);
         Process.join sleeper));
  check_bool "woken after the wake, not before" true (!woken_at >= Time_ns.ms 1)

(* ------------------------------------------------------------------ *)
(* Synchronization primitives across nodes.                            *)

let test_mutex_mutual_exclusion () =
  let cl = Dex.cluster ~nodes:4 () in
  let in_cs = ref false in
  let overlaps = ref 0 in
  let final = ref 0L in
  ignore
    (Dex.run cl (fun proc main ->
         let m = Sync.Mutex.create proc () in
         let counter = Process.malloc main ~bytes:8 ~tag:"shared" in
         let worker node th =
           Process.migrate th node;
           for _ = 1 to 10 do
             Sync.Mutex.lock th m;
             if !in_cs then incr overlaps;
             in_cs := true;
             (* Non-atomic read-modify-write: only safe under the lock. *)
             let v = Process.load th counter in
             Process.compute th ~ns:(us 3);
             Process.store th counter (Int64.add v 1L);
             in_cs := false;
             Sync.Mutex.unlock th m
           done
         in
         let threads =
           List.init 4 (fun i -> Process.spawn proc (worker (i mod 4)))
         in
         List.iter Process.join threads;
         final := Process.load main counter))
  ;
  check_int "no critical-section overlap" 0 !overlaps;
  Alcotest.(check int64) "no lost updates" 40L !final

let test_barrier_rounds () =
  let cl = Dex.cluster ~nodes:4 () in
  let parties = 8 in
  let rounds = 5 in
  let arrived = Array.make rounds 0 in
  let violations = ref 0 in
  ignore
    (Dex.run cl (fun proc main ->
         ignore main;
         let b = Sync.Barrier.create proc ~parties () in
         let threads =
           List.init parties (fun i ->
               Process.spawn proc (fun th ->
                   Process.migrate th (i mod 4);
                   for r = 0 to rounds - 1 do
                     (* stagger arrivals *)
                     Process.compute th ~ns:(us ((i * 7) + 1));
                     arrived.(r) <- arrived.(r) + 1;
                     Sync.Barrier.await th b;
                     (* After the barrier, everyone must have arrived. *)
                     if arrived.(r) <> parties then incr violations
                   done))
         in
         List.iter Process.join threads));
  check_int "barrier never released early" 0 !violations

(* ------------------------------------------------------------------ *)
(* Hardware resources.                                                 *)

let test_core_pool_limits_node () =
  let cl = Dex.cluster ~nodes:1 () in
  ignore
    (Dex.run cl (fun proc main ->
         ignore main;
         let threads =
           List.init 16 (fun _ ->
               Process.spawn proc (fun th -> Process.compute th ~ns:(us 100)))
         in
         List.iter Process.join threads));
  (* 16 threads of 100us on 8 cores: two waves, plus thread start costs. *)
  let total = Dex.elapsed cl in
  check_bool
    (Printf.sprintf "two waves on 8 cores (got %.0fus)" (in_us total))
    true
    (total >= us 218 && total < us 260)

let test_membw_contention_slows_streams () =
  let run streams =
    let cl = Dex.cluster ~nodes:1 () in
    ignore
      (Dex.run cl (fun proc main ->
           ignore main;
           let threads =
             List.init streams (fun _ ->
                 Process.spawn proc (fun th ->
                     Process.compute_membound th ~ns:0 ~bytes:3_000_000))
           in
           List.iter Process.join threads));
    Dex.elapsed cl
  in
  let t1 = run 1 and t4 = run 4 in
  let ratio = float_of_int t4 /. float_of_int t1 in
  (* 4 streams move 4x the data and pay a contention penalty on top. *)
  check_bool (Printf.sprintf "contention penalty (ratio %.2f)" ratio) true
    (ratio > 4.5)

(* ------------------------------------------------------------------ *)
(* Concurrent migration paths.                                         *)

let test_concurrent_first_migrations_share_worker () =
  (* Two threads migrate to a brand-new node at the same time: exactly one
     builds the remote worker (the other waits in the Creating state). *)
  let cl = Dex.cluster ~nodes:2 () in
  let proc =
    Dex.run cl (fun proc main ->
        ignore main;
        let threads =
          List.init 2 (fun _ ->
              Process.spawn proc (fun th -> Process.migrate th 1))
        in
        List.iter Process.join threads)
  in
  let fwd =
    List.filter
      (fun r -> r.Process.m_direction = `Forward)
      (Process.migration_log proc)
  in
  check_int "two forward migrations" 2 (List.length fwd);
  check_int "exactly one built the worker" 1
    (List.length (List.filter (fun r -> r.Process.m_first_to_node) fwd));
  (* The non-builder waited for worker construction, so its remote-side
     cost is dominated by the wait, not a second worker build. *)
  List.iter
    (fun r ->
      if not r.Process.m_first_to_node then
        check_bool "follower paid no worker-build phase" true
          (not (List.mem_assoc "remote worker" r.Process.m_breakdown)))
    fwd

let test_migration_to_third_node () =
  (* A thread hops 0 -> 1 -> 2 -> 0; memory stays consistent throughout. *)
  let cl = Dex.cluster ~nodes:3 () in
  ignore
    (Dex.run cl (fun proc main ->
         let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               Process.store th cell 1L;
               Process.migrate th 2;
               check_int "direct hop" 2 (Process.location th);
               Alcotest.(check int64) "sees own write" 1L (Process.load th cell);
               Process.store th cell 2L;
               Process.migrate th 0)
         in
         Process.join th;
         Alcotest.(check int64) "final value at origin" 2L
           (Process.load main cell)))

(* ------------------------------------------------------------------ *)
(* File I/O delegation.                                                *)

let test_file_io_local_and_remote () =
  let cl = Dex.cluster ~nodes:2 () in
  let proc =
    Dex.run cl (fun proc main ->
        let fd = Process.file_open main "input.dat" in
        Process.file_write main ~fd ~bytes:10_000;
        Process.file_close main ~fd;
        let th =
          Process.spawn proc (fun th ->
              Process.migrate th 1;
              (* Remote read: delegated to the origin's file table. *)
              let fd = Process.file_open th "input.dat" in
              check_int "full read" 10_000
                (Process.file_read th ~fd ~bytes:20_000);
              check_int "EOF" 0 (Process.file_read th ~fd ~bytes:100);
              Process.file_close th ~fd)
        in
        Process.join th)
  in
  check_bool "remote file ops were delegated" true
    (Stats.get (Process.stats proc) "delegation" >= 4)

let test_file_io_large_read_uses_rdma () =
  (* A big delegated read's payload travels back as the syscall result and
     must ride the fabric's RDMA path. *)
  let cl = Dex.cluster ~nodes:2 () in
  ignore
    (Dex.run cl (fun proc main ->
         let fd = Process.file_open main "big.bin" in
         Process.file_write main ~fd ~bytes:(1 lsl 20);
         Process.file_close main ~fd;
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               let fd = Process.file_open th "big.bin" in
               ignore (Process.file_read th ~fd ~bytes:(1 lsl 20));
               Process.file_close th ~fd)
         in
         Process.join th));
  check_bool "rdma path used" true
    (Stats.get (Dex_net.Fabric.stats (Cluster.fabric cl)) "path.rdma" >= 1)

(* A remote write carries its payload on the request leg: the delegate
   message bills 64 bytes of header plus the data, the reply only its
   64-byte header. *)
let test_file_write_remote_bills_request () =
  let cl = Dex.cluster ~nodes:2 () in
  let get = Stats.get (Dex_net.Fabric.stats (Cluster.fabric cl)) in
  let wire () = get "bytes.verb" + get "bytes.rdma" + get "bytes.loopback" in
  ignore
    (Dex.run cl (fun proc _main ->
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               let fd = Process.file_open th "out.dat" in
               let req = get "bytes.delegate"
               and resp = get "bytes.delegate.resp"
               and total = wire () in
               Process.file_write th ~fd ~bytes:4096;
               check_int "request leg carries the payload" (64 + 4096)
                 (get "bytes.delegate" - req);
               check_int "reply leg is the header alone" 64
                 (get "bytes.delegate.resp" - resp);
               check_int "nothing else crossed the fabric" (64 + 4096 + 64)
                 (wire () - total);
               Process.file_close th ~fd)
         in
         Process.join th))

let test_file_bad_fd () =
  let cl = Dex.cluster ~nodes:1 () in
  match
    Dex.run cl (fun _proc main ->
        ignore (Process.file_read main ~fd:99 ~bytes:10))
  with
  | _ -> Alcotest.fail "expected failure"
  | exception Engine.Fiber_failure (_, Invalid_argument _) -> ()

(* ------------------------------------------------------------------ *)
(* Protocol ablation flags keep results correct.                       *)

let test_no_coalescing_still_correct () =
  let proto =
    { Dex_proto.Proto_config.default with coalesce_faults = false }
  in
  let cl = Dex.cluster ~nodes:2 ~proto () in
  let total = ref 0L in
  let proc =
    Dex.run cl (fun proc main ->
        let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
        let start = Sync.Barrier.create proc ~parties:6 () in
        let threads =
          List.init 6 (fun _ ->
              Process.spawn proc (fun th ->
                  Process.migrate th 1;
                  (* all six fault on the cold page simultaneously *)
                  Sync.Barrier.await th start;
                  for _ = 1 to 10 do
                    ignore (Process.fetch_add th cell 1L);
                    Process.compute th ~ns:(us 3)
                  done))
        in
        List.iter Process.join threads;
        total := Process.load main cell)
  in
  Alcotest.(check int64) "no lost updates without coalescing" 60L !total;
  check_bool "duplicate requests happened" true
    (Stats.get
       (Dex_proto.Coherence.stats (Process.coherence proc))
       "fault.duplicate"
    >= 1)

let test_no_nodata_grants_still_correct () =
  let proto =
    { Dex_proto.Proto_config.default with grant_without_data = false }
  in
  let cl = Dex.cluster ~nodes:3 ~proto () in
  let final = ref 0L in
  ignore
    (Dex.run cl (fun proc main ->
         let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               ignore (Process.load th cell);
               Process.store th cell 77L;
               Process.migrate th 2;
               ignore (Process.load th cell))
         in
         Process.join th;
         final := Process.load main cell));
  Alcotest.(check int64) "value survives full-data grants" 77L !final

(* ------------------------------------------------------------------ *)
(* Multiple processes sharing one cluster (pid-disambiguated wires).   *)

let test_two_processes_isolated () =
  let cl = Dex.cluster ~nodes:2 () in
  let procs = [ Process.create cl (); Process.create cl () ] in
  let results = Array.make 2 0L in
  List.iteri
    (fun i proc ->
      let main =
        Process.spawn proc ~name:"main" (fun main ->
            let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
            let threads =
              List.init 3 (fun _ ->
                  Process.spawn proc (fun th ->
                      Process.migrate th 1;
                      for _ = 1 to 5 do
                        ignore (Process.fetch_add th cell 1L);
                        Process.compute th ~ns:(us ((i * 3) + 2))
                      done))
            in
            List.iter Process.join threads;
            results.(i) <- Process.load main cell)
      in
      Engine.spawn (Cluster.engine cl) ~label:"supervisor" (fun () ->
          Process.join main;
          Process.shutdown proc))
    procs;
  Cluster.run cl;
  Alcotest.(check int64) "process 0 isolated" 15L results.(0);
  Alcotest.(check int64) "process 1 isolated" 15L results.(1);
  (* Same heap addresses in both processes, yet no cross-talk: the wire
     messages are pid-disambiguated and each process has its own
     directory. *)
  List.iter
    (fun proc -> Dex_proto.Coherence.check_invariants (Process.coherence proc))
    procs

(* The cluster routes on the envelope's pid alone. Once a finished
   process has detached, a message addressed to its pid is refused at the
   cluster, naming that pid — even a page request the live process on the
   same nodes would have granted. *)
let test_detached_pid_refused () =
  let cl = Dex.cluster ~nodes:2 () in
  let finished =
    Dex.run cl (fun _ main -> ignore (Process.malloc main ~bytes:8 ~tag:"x"))
  in
  let live = Process.create cl () in
  let pid = Process.pid finished in
  check_bool "the live process has another pid" true (Process.pid live <> pid);
  let size = Dex_proto.Proto_config.default.ctl_msg_size in
  Engine.spawn (Cluster.engine cl) ~label:"stray" (fun () ->
      ignore
        (Dex_net.Fabric.call (Cluster.fabric cl) ~src:1 ~dst:0 ~pid
           ~kind:Dex_proto.Messages.kind_page_request ~size
           (Dex_proto.Messages.Page_request
              { vpn = 0; access = Dex_mem.Perm.Read; epoch = 0 })));
  match Cluster.run cl with
  | () -> Alcotest.fail "a message for a detached process was delivered"
  | exception Engine.Fiber_failure (label, Failure msg) ->
      Alcotest.(check string) "refused by the node's handler"
        ("handler:" ^ Dex_proto.Messages.kind_page_request)
        label;
      Alcotest.(check string) "the refusal names the pid"
        (Printf.sprintf "Cluster: unrouted message [%s pid %d 1->0 %dB]"
           Dex_proto.Messages.kind_page_request pid size)
        msg

(* ------------------------------------------------------------------ *)
(* Migration fuzzing: random hop/compute/store programs vs a model.    *)

let prop_migration_fuzz =
  QCheck.Test.make ~name:"random migrate/store programs match a host model"
    ~count:15
    QCheck.(
      pair small_int
        (list_of_size Gen.(5 -- 30)
           (triple (int_bound 3) (int_bound 3) (int_bound 100))))
    (fun (seed, steps) ->
      (* [steps]: (thread, action-node, value). Each of 4 threads owns its
         own cell (single writer per address); threads hop between nodes
         and update their cell from wherever they are. *)
      let cl = Dex.cluster ~nodes:4 ~seed () in
      let model = Array.make 4 0L in
      let final = Array.make 4 0L in
      let proc =
        Dex.run cl (fun proc main ->
             let cells =
               Array.init 4 (fun i ->
                   Process.malloc main ~bytes:8
                     ~tag:(Printf.sprintf "cell%d" i))
             in
             let per_thread = Array.make 4 [] in
             List.iter
               (fun (t, node, v) ->
                 per_thread.(t) <- (node, v) :: per_thread.(t))
               steps;
             let threads =
               List.init 4 (fun t ->
                   Process.spawn proc (fun th ->
                       List.iter
                         (fun (node, v) ->
                           Process.migrate th node;
                           let prev = Process.load th cells.(t) in
                           Process.store th cells.(t)
                             (Int64.add prev (Int64.of_int v));
                           Process.compute th ~ns:(us ((v mod 7) + 1)))
                         (List.rev per_thread.(t))))
             in
             List.iter
               (fun (t, _, v) -> model.(t) <- Int64.add model.(t) (Int64.of_int v))
               steps;
             List.iter Process.join threads;
             for t = 0 to 3 do
               final.(t) <- Process.load main cells.(t)
             done)
      in
      Dex_proto.Coherence.check_invariants (Process.coherence proc);
      final = model)

(* ------------------------------------------------------------------ *)
(* End-to-end chaos: migration handshakes, delegated mallocs and futex
   RPCs all ride the reliable layer, so an application mixing them must
   produce exactly the same answer on a lossy fabric as on a pristine
   one — with the chaos counters proving the faults were real.           *)

let chaos_net ~nodes =
  let open Dex_net.Net_config in
  let chaos =
    {
      chaos_default with
      chaos_seed = 41;
      drop_prob = 0.04;
      dup_prob = 0.03;
      reorder_prob = 0.05;
      delay_jitter_ns = Time_ns.ns 2_000;
      rto = Time_ns.us 60;
      rto_cap = Time_ns.us 500;
    }
  in
  { (default ~nodes ()) with chaos = Some chaos }

let test_chaos_end_to_end () =
  let cl = Dex.cluster ~nodes:4 ~net:(chaos_net ~nodes:4) () in
  let in_cs = ref false in
  let overlaps = ref 0 in
  let final = ref 0L in
  let remote_allocs = ref [] in
  ignore
    (Dex.run cl (fun proc main ->
         let m = Sync.Mutex.create proc () in
         let counter = Process.malloc main ~bytes:8 ~tag:"shared" in
         let worker node th =
           Process.migrate th node;
           (* Delegated malloc: runs at the origin via an RPC that chaos
              may drop or duplicate — it must still allocate exactly once. *)
           let scratch = Process.malloc th ~bytes:64 ~tag:"scratch" in
           remote_allocs := scratch :: !remote_allocs;
           for _ = 1 to 5 do
             Sync.Mutex.lock th m;
             if !in_cs then incr overlaps;
             in_cs := true;
             let v = Process.load th counter in
             Process.compute th ~ns:(us 2);
             Process.store th counter (Int64.add v 1L);
             in_cs := false;
             Sync.Mutex.unlock th m
           done;
           Process.migrate th (Process.origin proc)
         in
         let threads =
           List.init 4 (fun i -> Process.spawn proc (worker (i mod 4)))
         in
         List.iter Process.join threads;
         final := Process.load main counter));
  check_int "no critical-section overlap" 0 !overlaps;
  Alcotest.(check int64) "no lost updates under chaos" 20L !final;
  let distinct = List.sort_uniq compare !remote_allocs in
  check_int "each delegated malloc ran exactly once" 4 (List.length distinct);
  let get = Stats.get (Dex_net.Fabric.stats (Cluster.fabric cl)) in
  check_bool "faults were injected" true
    (get "chaos.drops" + get "chaos.dups" > 0);
  check_bool "reliable layer recovered lost messages" true
    (get "chaos.retransmits" > 0)

(* ------------------------------------------------------------------ *)
(* Fail-stop node crashes: a worker node dies mid-run, the origin
   reclaims its pages and threads, and the survivors' answers are
   unaffected. The fabric carries no other faults so the runs are
   deterministic; detection rides the retry budget (~340us here).        *)

let crash_net ?(max_retransmits = 4) ~nodes () =
  let open Dex_net.Net_config in
  let chaos =
    {
      chaos_default with
      chaos_seed = 11;
      rto = Time_ns.us 20;
      rto_cap = Time_ns.us 100;
      max_retransmits;
    }
  in
  { (default ~nodes ()) with chaos = Some chaos }

(* Shared workload: a survivor on node 1 stores a shared flag every round
   (so the victim's cached copy keeps getting revoked and its next load
   must cross the fabric — that remote access is what unwinds the zombie
   after its node dies); a victim on node 3 loads the flag and counts
   rounds. Each also stores its own private counter word. *)
let run_crash_workload ~policy =
  let nodes = 4 in
  let proto = { Dex_proto.Proto_config.default with on_crash = policy } in
  let cl = Dex.cluster ~nodes ~net:(crash_net ~nodes ()) ~proto () in
  let s_rounds = 16 and v_rounds = 16 in
  let s_progress = ref 0 and v_progress = ref 0 in
  let s_final = ref 0L in
  let victim_crashed = ref false in
  let proc =
    Dex.run cl (fun proc main ->
        (* One page per word: packing them onto one page would make even
           the "private" counters ping-pong with the flag's revocations,
           and whether the dead node owns anything at the crash instant
           would be a coin flip. *)
        let flag = Process.memalign main ~align:4096 ~bytes:8 ~tag:"flag" in
        let s_ctr = Process.memalign main ~align:4096 ~bytes:8 ~tag:"s_ctr" in
        let v_ctr = Process.memalign main ~align:4096 ~bytes:8 ~tag:"v_ctr" in
        let survivor =
          Process.spawn proc (fun th ->
              Process.migrate th 1;
              for r = 1 to s_rounds do
                Process.store th flag (Int64.of_int r);
                Process.store th s_ctr (Int64.of_int r);
                Process.compute th ~ns:(us 40);
                s_progress := r
              done;
              Process.migrate th (Process.origin proc))
        in
        let victim =
          Process.spawn proc (fun th ->
              Process.migrate th 3;
              for r = 1 to v_rounds do
                ignore (Process.load th flag);
                Process.store th v_ctr (Int64.of_int r);
                Process.compute th ~ns:(us 80);
                v_progress := r
              done;
              Process.migrate th (Process.origin proc))
        in
        let watchdog =
          Process.spawn proc (fun th ->
              (* Fire after the victim's first-migration reconstruction
                 (~850us) completes, so the crash catches it mid-rounds
                 rather than mid-flight. *)
              Process.compute th ~ns:(us 1300);
              Cluster.crash_node cl ~node:3)
        in
        List.iter Process.join [ watchdog; survivor; victim ];
        victim_crashed := Process.crashed victim;
        s_final := Process.load main s_ctr)
  in
  let coh = Process.coherence proc in
  Dex_proto.Coherence.check_invariants coh;
  check_bool "node 3 is recorded dead" true (Cluster.node_crashed cl ~node:3);
  check_int "no directory entry references the dead node" 0
    (Dex_proto.Authority.entries_naming
       (Dex_proto.Coherence.authority coh)
       ~node:3);
  check_bool "reclaim found pages to re-home" true
    (Stats.get (Dex_proto.Coherence.stats coh) "crash.pages_reclaimed" > 0);
  check_int "survivor completed every round" s_rounds !s_progress;
  Alcotest.(check int64)
    "survivor's memory is intact" (Int64.of_int s_rounds) !s_final;
  (proc, !victim_crashed, !v_progress, v_rounds)

let test_crash_recovery_abort () =
  let proc, victim_crashed, v_progress, v_rounds =
    run_crash_workload ~policy:`Abort
  in
  check_bool "victim thread reports crashed" true victim_crashed;
  check_bool "victim did not finish its rounds" true (v_progress < v_rounds);
  check_int "exactly one thread aborted" 1
    (Stats.get (Process.stats proc) "crash.threads_aborted")

let test_crash_recovery_rehome () =
  let proc, victim_crashed, v_progress, v_rounds =
    run_crash_workload ~policy:`Rehome
  in
  check_bool "re-homed thread is not crashed" false victim_crashed;
  check_int "re-homed thread finished every round" v_rounds v_progress;
  check_int "exactly one thread re-homed" 1
    (Stats.get (Process.stats proc) "crash.threads_rehomed")

(* Satellite: the futex queues under crash, straight against the module.
   Cancelled waiters resume with [`Crashed], and are invisible to both
   [wake] and [waiters] — an address whose waiters all died wakes 0. *)
let test_futex_cancel_unit () =
  let engine = Engine.create () in
  let fx = Futex.create engine in
  let a = 4096 and b = 8192 in
  let verdicts = ref [] in
  let park owner addr =
    Engine.spawn engine (fun () ->
        (* Bind the verdict before touching [verdicts]: consing directly
           would read [!verdicts] BEFORE the wait suspends (right-to-left
           evaluation) and clobber every append made while parked. *)
        let r = Futex.wait ~owner fx ~addr in
        verdicts := (owner, r) :: !verdicts)
  in
  park 1 a;
  park 2 a;
  park 1 b;
  Engine.spawn engine (fun () ->
      Engine.delay engine (us 1);
      check_int "two live waiters on a" 2 (Futex.waiters fx ~addr:a);
      check_int "cancel reaps node-1 waiters everywhere" 2
        (Futex.cancel fx ~owned_by:(fun o -> o = 1));
      check_int "cancelled waiter invisible on a" 1 (Futex.waiters fx ~addr:a);
      check_int "all waiters on b died: none left" 0 (Futex.waiters fx ~addr:b);
      let wake addr = List.length (Futex.wake_tids fx ~addr ~count:10) in
      check_int "waking the dead address wakes 0" 0 (wake b);
      check_int "survivor still wakeable" 1 (wake a);
      check_int "queue fully drained" 0 (Futex.waiters fx ~addr:a));
  Engine.run_until_quiescent engine;
  let v owner = List.filter (fun (o, _) -> o = owner) !verdicts in
  check_bool "node-1 waiters saw the crash verdict" true
    (List.for_all (fun (_, r) -> r = `Crashed) (v 1) && List.length (v 1) = 2);
  check_bool "node-2 waiter saw a real wake" true (v 2 = [ (2, `Woken) ])

(* Satellite, end to end: a thread parked in futex_wait on a node that
   dies. The crash hook cancels its origin-side waiter, so a later wake
   finds nobody — no ghost swallows a wake meant for survivors.           *)
let test_futex_wake_after_crash () =
  let nodes = 3 in
  (* A delegated futex_wait keeps a reliable transaction open against the
     origin for the whole park; a stock 4-retransmit budget (340us) would
     falsely expire it against a perfectly live origin long before the
     crash fires. Give the park enough rope to outlive the schedule. *)
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~max_retransmits:12 ~nodes ()) ()
  in
  let woken = ref (-1) in
  let proc =
    Dex.run cl (fun proc main ->
        let w = Process.malloc main ~bytes:8 ~tag:"futexword" in
        let waiter =
          Process.spawn proc (fun th ->
              Process.migrate th 1;
              ignore (Process.futex_wait th ~addr:w ~expected:0L))
        in
        (* Let the waiter migrate (~850us) and park, then kill its node
           and wait out the detection budget so the cancel has run. *)
        Process.compute main ~ns:(us 1500);
        Cluster.crash_node cl ~node:1;
        Process.compute main ~ns:(Time_ns.ms 4);
        woken := Process.futex_wake main ~addr:w ~count:10;
        Process.join waiter)
  in
  check_int "no ghost waiter woken" 0 !woken;
  check_int "the parked waiter was cancelled" 1
    (Stats.get (Process.stats proc) "crash.futex_cancelled");
  Dex_proto.Coherence.check_invariants (Process.coherence proc)

(* A finished process leaves no registration on its cluster: once
   [Dex.run] returns, its protocol state is garbage. Kept out of line so
   no stack slot of the caller holds the process. *)
let[@inline never] run_tiny_process ?origin cl =
  let proc =
    Dex.run ?origin cl (fun _ main ->
        let a = Process.malloc main ~bytes:8 ~tag:"word" in
        Process.store main a 1L)
  in
  let watch = Weak.create 1 in
  Weak.set watch 0 (Some (Process.coherence proc));
  watch

let test_finished_process_is_released () =
  let cl = Dex.cluster ~nodes:2 () in
  let watch = run_tiny_process cl in
  Gc.full_major ();
  check_bool "the finished process's coherence state was freed" false
    (Weak.check watch 0);
  ignore (Sys.opaque_identity cl)

(* A finished process must not react to a later crash: node 1 was the
   origin of a process that already exited, so its death is harmless to
   the live process homed at node 0. *)
let test_crash_of_finished_origin_spares_live_process () =
  let nodes = 3 in
  let cl = Dex.cluster ~nodes ~net:(crash_net ~nodes ()) () in
  ignore (run_tiny_process ~origin:1 cl);
  let final = ref 0L in
  let proc =
    Dex.run cl (fun _ main ->
        let a = Process.memalign main ~align:4096 ~bytes:8 ~tag:"word" in
        Process.store main a 7L;
        Process.compute main ~ns:(us 100);
        Cluster.crash_node cl ~node:1;
        (* Outlast the keepalive backstop that declares the crash. *)
        Process.compute main ~ns:(Time_ns.ms 1);
        final := Process.load main a)
  in
  check_bool "node 1 was declared dead" true
    (Dex_net.Fabric.crash_detected (Cluster.fabric cl) ~node:1);
  Alcotest.(check int64) "the live process finished intact" 7L !final;
  check_int "the live process reclaimed the dead node" 1
    (Stats.get (Dex_proto.Coherence.stats (Process.coherence proc)) "crash.nodes")

(* An origin crash with no live replica is refused loudly, end to end.
   [standbys] are crashed first (and declared by the keepalive backstop),
   then the origin. A thread's visit to node 2 leaves a worker there, and
   the main thread stands on the origin, so the first to notice the crash
   is shutdown's exit broadcast to that worker: its retry budget runs out,
   it declares the origin dead, and the process's recovery sequence
   raises in that "node-op" fiber. Returns the refusal's message. *)
let origin_crash_refusal ~standbys =
  let nodes = 3 in
  let proto = { Dex_proto.Proto_config.default with standbys } in
  let cl = Dex.cluster ~nodes ~net:(crash_net ~nodes ()) ~proto () in
  match
    Dex.run cl (fun proc main ->
        let a = Process.malloc main ~bytes:8 ~tag:"word" in
        Process.join
          (Process.spawn proc (fun th ->
               Process.migrate th 2;
               Process.store th a 1L;
               Process.migrate th (Process.origin proc)));
        List.iter (fun node -> Cluster.crash_node cl ~node) standbys;
        Process.compute main ~ns:(Time_ns.ms 1);
        Cluster.crash_node cl ~node:0)
  with
  | _ -> Alcotest.fail "an unsurvivable origin crash was not refused"
  | exception Engine.Fiber_failure ("node-op", Failure msg) -> msg

let check_prefix what ~prefix msg =
  check_bool
    (Printf.sprintf "%s (got %S)" what msg)
    true
    (String.starts_with ~prefix msg)

(* Without replication, the directory reclaim refuses first. *)
let test_origin_crash_unreplicated_refused () =
  check_prefix "Coherence refuses the origin's loss"
    ~prefix:"Coherence: the origin fail-stopped"
    (origin_crash_refusal ~standbys:[])

(* With replication disabled by the loss of its only standby, nothing
   is armed to promote, so the directory reclaim refuses, as it does
   without replication. *)
let test_origin_crash_after_standby_loss_refused () =
  check_prefix "Coherence refuses the origin's loss"
    ~prefix:"Coherence: the origin fail-stopped"
    (origin_crash_refusal ~standbys:[ 1 ])

(* ------------------------------------------------------------------ *)
(* Two-state mutex and delegation under contention.                    *)

(* Two-state mutex: an uncontended remote lock/unlock cycle is pure CAS
   traffic — not a single delegated futex syscall crosses the fabric. *)
let test_mutex_uncontended_elides_wake () =
  let cl = Dex.cluster ~nodes:2 () in
  let proc =
    Dex.run cl (fun proc main ->
        let m = Sync.Mutex.create proc () in
        let th =
          Process.spawn proc (fun th ->
              Process.migrate th 1;
              for _ = 1 to 5 do
                Sync.Mutex.lock th m;
                Sync.Mutex.unlock th m
              done)
        in
        Process.join th;
        ignore main)
  in
  let get = Stats.get (Process.stats proc) in
  check_int "every unlock skipped the wake RPC" 5 (get "sync.wake_elided");
  check_int "no delegated syscalls at all" 0 (get "delegation")

(* qcheck SC: random contended mutex workloads — every contended lock
   and unlock delegates a futex wait or wake to the origin — must stay
   sequentially consistent: no lost updates, no critical-section overlap,
   coherence invariants intact.                                         *)
let prop_delegated_sync_sc =
  QCheck.Test.make
    ~name:"delegation preserves SC for contended mutex counters"
    ~count:10
    QCheck.(triple (int_range 2 5) (int_range 1 6) small_int)
    (fun (nthreads, rounds, seed) ->
      let cl = Dex.cluster ~nodes:4 ~seed () in
      let in_cs = ref false in
      let overlaps = ref 0 in
      let final = ref 0L in
      let proc =
        Dex.run cl (fun proc main ->
            let m = Sync.Mutex.create proc () in
            let counter = Process.malloc main ~bytes:8 ~tag:"shared" in
            let threads =
              List.init nthreads (fun i ->
                  Process.spawn proc (fun th ->
                      Process.migrate th ((i mod 3) + 1);
                      for _ = 1 to rounds do
                        Sync.Mutex.lock th m;
                        if !in_cs then incr overlaps;
                        in_cs := true;
                        let v = Process.load th counter in
                        Process.compute th ~ns:(us ((i mod 5) + 1));
                        Process.store th counter (Int64.add v 1L);
                        in_cs := false;
                        Sync.Mutex.unlock th m
                      done))
            in
            List.iter Process.join threads;
            final := Process.load main counter)
      in
      Dex_proto.Coherence.check_invariants (Process.coherence proc);
      !overlaps = 0 && !final = Int64.of_int (nthreads * rounds))

let () =
  Alcotest.run "dex_core"
    [
      ( "migration",
        [
          Alcotest.test_case "quickstart distributed counter" `Quick
            test_quickstart_distributed_counter;
          Alcotest.test_case "Table II latencies" `Quick
            test_migration_latencies;
          Alcotest.test_case "validation" `Quick test_migrate_validation;
          Alcotest.test_case "remote worker leaves no fiber" `Quick
            test_remote_worker_leaves_no_fiber;
        ] );
      ( "memory",
        [
          Alcotest.test_case "remote data + VMA sync" `Quick
            test_remote_sees_origin_data_and_vma_sync;
          Alcotest.test_case "segfault unmapped (origin)" `Quick
            test_segfault_unmapped_origin;
          Alcotest.test_case "segfault unmapped (remote)" `Quick
            test_segfault_unmapped_remote;
          Alcotest.test_case "segfault read-only write" `Quick
            test_segfault_write_to_readonly;
          Alcotest.test_case "munmap broadcast" `Quick
            test_munmap_broadcast_kills_remote_access;
          Alcotest.test_case "concurrent munmaps at one node" `Quick
            test_concurrent_munmaps_at_one_node;
          Alcotest.test_case "munmap forgets a re-homed page" `Quick
            test_munmap_forgets_rehomed_page;
          Alcotest.test_case "mprotect downgrade" `Quick
            test_mprotect_downgrade_broadcast;
          Alcotest.test_case "mprotect broadcasts only downgrades" `Quick
            test_mprotect_broadcasts_only_downgrades;
          Alcotest.test_case "fault-free access allocation" `Quick
            test_fault_free_access_allocation;
        ] );
      ( "budget",
        [
          Alcotest.test_case "process create + shutdown allocation" `Quick
            test_process_allocation_budget;
        ] );
      ( "delegation",
        [
          Alcotest.test_case "remote malloc" `Quick
            test_remote_malloc_is_delegated;
          Alcotest.test_case "futex EAGAIN" `Quick test_futex_eagain;
          Alcotest.test_case "futex wake across nodes" `Quick
            test_futex_wake_across_nodes;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex mutual exclusion" `Quick
            test_mutex_mutual_exclusion;
          Alcotest.test_case "barrier rounds" `Quick test_barrier_rounds;
          Alcotest.test_case "uncontended mutex elides wake RPC" `Quick
            test_mutex_uncontended_elides_wake;
          QCheck_alcotest.to_alcotest prop_delegated_sync_sc;
        ] );
      ( "resources",
        [
          Alcotest.test_case "core pool limits" `Quick
            test_core_pool_limits_node;
          Alcotest.test_case "memory bandwidth contention" `Quick
            test_membw_contention_slows_streams;
        ] );
      ( "migration_concurrency",
        [
          Alcotest.test_case "concurrent first migrations" `Quick
            test_concurrent_first_migrations_share_worker;
          Alcotest.test_case "third-node hop" `Quick
            test_migration_to_third_node;
        ] );
      ( "file_io",
        [
          Alcotest.test_case "local and remote" `Quick
            test_file_io_local_and_remote;
          Alcotest.test_case "large read uses RDMA" `Quick
            test_file_io_large_read_uses_rdma;
          Alcotest.test_case "remote write bills the request leg" `Quick
            test_file_write_remote_bills_request;
          Alcotest.test_case "bad fd" `Quick test_file_bad_fd;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "no coalescing still correct" `Quick
            test_no_coalescing_still_correct;
          Alcotest.test_case "no no-data grants still correct" `Quick
            test_no_nodata_grants_still_correct;
        ] );
      ( "multi_process",
        [
          Alcotest.test_case "two processes isolated" `Quick
            test_two_processes_isolated;
          Alcotest.test_case "message for a detached pid refused" `Quick
            test_detached_pid_refused;
        ] );
      ("fuzz", List.map QCheck_alcotest.to_alcotest [ prop_migration_fuzz ]);
      ( "chaos",
        [
          Alcotest.test_case "migration + delegation + futex under chaos"
            `Quick test_chaos_end_to_end;
        ] );
      ( "crash",
        [
          Alcotest.test_case "node crash: abort policy" `Quick
            test_crash_recovery_abort;
          Alcotest.test_case "node crash: rehome policy" `Quick
            test_crash_recovery_rehome;
          Alcotest.test_case "futex cancel (unit)" `Quick test_futex_cancel_unit;
          Alcotest.test_case "futex wake after node crash" `Quick
            test_futex_wake_after_crash;
          Alcotest.test_case "finished process is released" `Quick
            test_finished_process_is_released;
          Alcotest.test_case "crash of a finished origin spares live process"
            `Quick test_crash_of_finished_origin_spares_live_process;
          Alcotest.test_case "unreplicated origin crash is refused" `Quick
            test_origin_crash_unreplicated_refused;
          Alcotest.test_case "origin crash after standby loss is refused"
            `Quick test_origin_crash_after_standby_loss_refused;
        ] );
    ]
