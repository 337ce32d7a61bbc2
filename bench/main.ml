(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§V) on the simulated rack, plus the ablation, fault and
   serving studies built on it.

   Usage: main.exe [tiny] [table1] [fig2] [table2] [fig3] [fault] [profile]
                   [ablation] [chaos] [crash] [failover] [shard]
                   [autopilot] [serve] [baseline]
   With no arguments, every section runs (the order of the paper). *)

open Dex_core
module A = Dex_apps.App_common
module Time_ns = Dex_sim.Time_ns

let section title =
  Format.printf
    "@.=============================================================@.";
  Format.printf "%s@." title;
  Format.printf "=============================================================@."

(* ------------------------------------------------------------------ *)
(* Table I: conversion complexity.                                     *)

let table1 () =
  section
    "Table I: complexity to apply DeX to existing applications (changed LoC)";
  Format.printf "%-6s %-13s %16s %18s@." "App" "Multithread" "Initial (+/-)"
    "Optimized (+/-)";
  let ti = ref 0 and tr = ref 0 and oa = ref 0 and orm = ref 0 in
  List.iter
    (fun e ->
      let c = e.Dex_apps.Apps.conversion in
      ti := !ti + c.A.initial_added;
      tr := !tr + c.A.initial_removed;
      oa := !oa + c.A.optimized_added;
      orm := !orm + c.A.optimized_removed;
      Format.printf "%-6s %-13s %11d/%-4d %13d/%-4d@." e.Dex_apps.Apps.name
        c.A.multithread c.A.initial_added c.A.initial_removed
        c.A.optimized_added c.A.optimized_removed)
    Dex_apps.Apps.all;
  Format.printf "%-6s %-13s %11d/%-4d %13d/%-4d@." "total" "" !ti !tr !oa !orm;
  Format.printf
    "(paper: ~110 added / 42 removed to convert; 246 lines changed to \
     optimize)@."

(* ------------------------------------------------------------------ *)
(* Figure 2: application scalability.                                  *)

let node_counts = [ 1; 2; 4; 8 ]

(* A bar like the paper's Figure 2 series: 5 columns per 1x of speedup,
   with the single-machine reference (1.0x) marked by '|'. *)
let bar speedup =
  let cols_per_x = 5 in
  let width = 5 * cols_per_x in
  (* up to 5x on screen *)
  let filled =
    min width (int_of_float (Float.round (speedup *. float_of_int cols_per_x)))
  in
  String.init (width + 1) (fun i ->
      if i < filled then '#' else if i = cols_per_x then '|' else ' ')

let fig2 () =
  section
    "Figure 2: scalability normalized to the unmodified application on a \
     single machine (8 threads)";
  let winners = ref 0 in
  List.iter
    (fun e ->
      let name = e.Dex_apps.Apps.name in
      let base = e.Dex_apps.Apps.run ~nodes:1 ~variant:A.Baseline () in
      Format.printf "@.%s — %s (baseline %.2f ms simulated)@." name
        e.Dex_apps.Apps.descr
        (Time_ns.to_ms_f base.A.sim_time);
      Format.printf "  %-6s %13s %8s %13s %8s@." "nodes" "initial" "faults"
        "optimized" "faults";
      let best = ref 0.0 in
      List.iter
        (fun nodes ->
          let speedup variant =
            let r = e.Dex_apps.Apps.run ~nodes ~variant () in
            assert (r.A.checksum = base.A.checksum);
            (float_of_int base.A.sim_time /. float_of_int r.A.sim_time,
             r.A.faults)
          in
          let si, fi = speedup A.Initial in
          let so, fo = speedup A.Optimized in
          best := Float.max !best (Float.max si so);
          Format.printf "  %-6d %12.2fx %8d %12.2fx %8d@." nodes si fi so fo;
          Format.printf "         init %s@."  (bar si);
          Format.printf "         opt  %s@." (bar so))
        node_counts;
      if !best > 1.05 then incr winners;
      Format.printf "  best speedup %.2fx@." !best)
    Dex_apps.Apps.all;
  Format.printf
    "@.%d of 8 applications scaled beyond the single machine (paper: 6 of \
     8, best case 10.06x).@."
    !winners

(* ------------------------------------------------------------------ *)
(* Table II + Figure 3: thread migration microbenchmark.               *)

let migration_microbench () =
  let cl = Dex.cluster ~nodes:2 () in
  let proc =
    Dex.run cl (fun _proc main ->
        (* The paper migrates a thread every (simulated) second, ten
           times. *)
        for _ = 1 to 10 do
          Process.migrate main 1;
          Dex_sim.Engine.delay (Cluster.engine cl) (Time_ns.ms 500);
          Process.migrate main 0;
          Dex_sim.Engine.delay (Cluster.engine cl) (Time_ns.ms 500)
        done)
  in
  Process.migration_log proc

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

let table2 () =
  section "Table II: migration latency (microseconds)";
  let log = migration_microbench () in
  let fwd = List.filter (fun r -> r.Process.m_direction = `Forward) log in
  let bwd = List.filter (fun r -> r.Process.m_direction = `Backward) log in
  match (fwd, bwd) with
  | f1 :: frest, b1 :: brest ->
      let us r = Time_ns.to_us_f r in
      let row label o r =
        Format.printf "  %-22s %10.1f %10.1f %10.1f@." label o r (o +. r)
      in
      Format.printf "  %-22s %10s %10s %10s@." "Origin->Remote" "origin"
        "remote" "total";
      row "1st migration" (us f1.Process.m_origin_ns)
        (us f1.Process.m_remote_ns);
      row "2nd+ (average)"
        (avg (List.map (fun r -> us r.Process.m_origin_ns) frest))
        (avg (List.map (fun r -> us r.Process.m_remote_ns) frest));
      Format.printf "  %-22s %10s %10s %10s@." "Remote->Origin" "remote"
        "origin" "total";
      row "1st migration" (us b1.Process.m_remote_ns)
        (us b1.Process.m_origin_ns);
      row "2nd+ (average)"
        (avg (List.map (fun r -> us r.Process.m_remote_ns) brest))
        (avg (List.map (fun r -> us r.Process.m_origin_ns) brest));
      Format.printf
        "  (paper: 1st forward 12.1/800.0/812.1; 2nd 6.6/230.0/236.6; \
         backward ~24.7 total)@."
  | _ -> Format.printf "  unexpected migration log@."

let fig3 () =
  section "Figure 3: breakdown of migration latency at the remote node";
  let log = migration_microbench () in
  let fwd = List.filter (fun r -> r.Process.m_direction = `Forward) log in
  match fwd with
  | f1 :: f2 :: _ ->
      let phases =
        [ "remote worker"; "address space"; "thread creation";
          "context setup"; "enqueue" ]
      in
      Format.printf "  %-18s %14s %14s@." "phase" "1st migration"
        "2nd migration";
      List.iter
        (fun phase ->
          let get r =
            match List.assoc_opt phase r.Process.m_breakdown with
            | Some ns -> Time_ns.to_us_f ns
            | None -> 0.0
          in
          Format.printf "  %-18s %12.1fus %12.1fus@." phase (get f1) (get f2))
        phases;
      Format.printf
        "  (paper: remote-worker construction, 620us, dominates the first \
         migration)@."
  | _ -> Format.printf "  unexpected migration log@."

(* ------------------------------------------------------------------ *)
(* §V-D: page fault handling microbenchmark.                           *)

let fault_microbench () =
  section
    "Page-fault handling microbenchmark (two threads ping-ponging one \
     page, Sec. V-D)";
  let cl = Dex.cluster ~nodes:2 () in
  let coh = ref None in
  ignore
    (Dex.run cl (fun proc main ->
         coh := Some (Process.coherence proc);
         let page = Process.malloc main ~bytes:8 ~tag:"contended" in
         let barrier = Sync.Barrier.create proc ~parties:2 () in
         let stop = Time_ns.ms 400 in
         let worker node th =
           Process.migrate th node;
           Sync.Barrier.await th barrier;
           let i = ref 0 in
           while Dex_sim.Engine.now (Cluster.engine cl) < stop do
             incr i;
             Process.store th ~site:"micro.update" page (Int64.of_int !i);
             Process.compute th ~ns:(Time_ns.us 2)
           done
         in
         let a = Process.spawn proc (worker 0) in
         let b = Process.spawn proc (worker 1) in
         Process.join a;
         Process.join b));
  let coh = Option.get !coh in
  let h = Dex_proto.Coherence.fault_latencies coh in
  let lats = Dex_sim.Histogram.to_list h in
  let fast = List.filter (fun v -> v <= Time_ns.us 40) lats in
  let slow = List.filter (fun v -> v > Time_ns.us 40) lats in
  let mean l = avg (List.map (fun v -> Time_ns.to_us_f v) l) in
  let pct l =
    100.0 *. float_of_int (List.length l) /. float_of_int (List.length lats)
  in
  Format.printf "  protocol faults handled : %d@." (List.length lats);
  Format.printf "  fast path (no retry)    : %d (%.1f%%), mean %.1f us@."
    (List.length fast) (pct fast) (mean fast);
  Format.printf "  contended (with retry)  : %d (%.1f%%), mean %.1f us@."
    (List.length slow) (pct slow) (mean slow);
  Format.printf
    "  (paper: bimodal — 27.5%% handled in 19.3us; contended faults \
     average 158.8us)@.";
  (* The messaging-layer constant: one uncontended 4 KB page retrieval. *)
  let cl = Dex.cluster ~nodes:2 () in
  let fetch = ref 0 in
  ignore
    (Dex.run cl (fun proc main ->
         let page = Process.malloc main ~bytes:8 ~tag:"single" in
         Process.store main page 1L;
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               (* Warm the on-demand VMA sync so only the fault remains. *)
               ignore (Process.load th (page + 4096 * 4));
               let t0 = Dex_sim.Engine.now (Cluster.engine cl) in
               ignore (Process.load th page);
               fetch := Dex_sim.Engine.now (Cluster.engine cl) - t0)
         in
         Process.join th));
  Format.printf
    "  one uncontended remote fault with 4KB data: %.1f us (paper: 19.3us \
     fast path, 13.6us of it page retrieval)@."
    (Time_ns.to_us_f !fetch)

(* ------------------------------------------------------------------ *)
(* §V-C: profiling-driven optimization demo.                           *)

let profile_demo () =
  section
    "Profiling methodology (Sec. IV / V-C): fault trace of a naive GRP-style \
     hot loop";
  let cl = Dex.cluster ~nodes:4 () in
  let events = ref [] in
  let alloc = ref None in
  ignore
    (Dex.run cl (fun proc main ->
         alloc := Some (Process.allocator proc);
         let trace = Dex_profile.Trace.attach (Process.coherence proc) in
         let args = Process.malloc main ~bytes:(8 * 32) ~tag:"grp.args" in
         let total = Process.malloc main ~bytes:8 ~tag:"grp.total" in
         let text =
           Process.memalign main ~align:4096 ~bytes:262144 ~tag:"grp.text"
         in
         let threads =
           List.init 8 (fun i ->
               Process.spawn proc (fun th ->
                   Process.migrate th (i mod 4);
                   Process.read th ~site:"grp.scan" (text + (i * 32768))
                     ~len:32768;
                   for m = 1 to 20 do
                     ignore
                       (Process.fetch_add th ~site:"grp.total_update" total 1L);
                     Process.store th ~site:"grp.args_update"
                       (args + (i * 32))
                       (Int64.of_int m);
                     Process.compute th ~ns:(Time_ns.us 30)
                   done))
         in
         List.iter Process.join threads;
         events := Dex_profile.Trace.events trace));
  Dex_profile.Report.pp_summary ?alloc:!alloc Format.std_formatter !events;
  Format.printf
    "The report points at grp.total/grp.args — the objects the paper's \
     optimization page-aligns and stages locally.@."

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices in DESIGN.md.                       *)

(* Scaled-down parameters for the `tiny` CLI mode, used by the dune
   runtest smoke invocation (test/cli). *)
let tiny = ref false

let ablation () =
  section "Ablation: leader/follower fault coalescing (Sec. III-C)";
  let storm_pages = if !tiny then 8 else 64 in
  (* Eight threads on one remote node storm the same cold pages. *)
  let storm ~coalesce =
    let proto = { Dex_proto.Proto_config.default with coalesce_faults = coalesce } in
    let cl = Dex.cluster ~nodes:2 ~proto () in
    let coh = ref None in
    ignore
      (Dex.run cl (fun proc main ->
           coh := Some (Process.coherence proc);
           let buf = Process.memalign main ~align:4096
               ~bytes:(storm_pages * 4096) ~tag:"storm" in
           let barrier = Sync.Barrier.create proc ~parties:8 () in
           let threads =
             List.init 8 (fun _ ->
                 Process.spawn proc (fun th ->
                     Process.migrate th 1;
                     Sync.Barrier.await th barrier;
                     Process.read th ~site:"storm" buf
                       ~len:(storm_pages * 4096)))
           in
           List.iter Process.join threads));
    let stats = Dex_proto.Coherence.stats (Option.get !coh) in
    let fstats = Dex_net.Fabric.stats (Cluster.fabric cl) in
    ( Dex.elapsed cl,
      Dex_sim.Stats.get fstats "sent.page_req",
      Dex_sim.Stats.get stats "fault.coalesced"
      + Dex_sim.Stats.get stats "fault.duplicate" )
  in
  let t_on, req_on, co_on = storm ~coalesce:true in
  let t_off, req_off, co_off = storm ~coalesce:false in
  Format.printf "  %-24s %12s %14s %16s@." "" "sim time" "page requests"
    "absorbed faults";
  Format.printf "  %-24s %10.2fms %14d %16d@." "coalescing ON"
    (Time_ns.to_ms_f t_on) req_on co_on;
  Format.printf "  %-24s %10.2fms %14d %16d@." "coalescing OFF"
    (Time_ns.to_ms_f t_off) req_off co_off;
  Format.printf
    "  -> coalescing cuts origin traffic %.1fx on concurrent same-page \
     faults@."
    (float_of_int req_off /. float_of_int (max 1 req_on));
  section "Ablation: ownership grant without data (Sec. III-B)";
  (* Repeated read -> write upgrades: with the optimization the upgrade
     grant is a 64-byte control message, without it every grant ships the
     page. *)
  let upgrade_iters = if !tiny then 10 else 100 in
  let upgrades ~nodata =
    let proto =
      { Dex_proto.Proto_config.default with grant_without_data = nodata }
    in
    let cl = Dex.cluster ~nodes:2 ~proto () in
    let coh = ref None in
    ignore
      (Dex.run cl (fun proc main ->
           coh := Some (Process.coherence proc);
           let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
           let barrier = Sync.Barrier.create proc ~parties:2 () in
           let remote =
             Process.spawn proc (fun th ->
                 Process.migrate th 1;
                 for i = 1 to upgrade_iters do
                   Sync.Barrier.await th barrier;
                   (* read ... then decide to write: upgrade *)
                   ignore (Process.load th ~site:"abl.read" cell);
                   Process.store th ~site:"abl.write" cell (Int64.of_int i);
                   Sync.Barrier.await th barrier
                 done)
           in
           for _ = 1 to upgrade_iters do
             Sync.Barrier.await main barrier;
             Sync.Barrier.await main barrier;
             (* the origin reads the result, downgrading the remote *)
             ignore (Process.load main ~site:"abl.check" cell)
           done;
           Process.join remote));
    let fstats = Dex_net.Fabric.stats (Cluster.fabric cl) in
    ( Dex.elapsed cl,
      Dex_sim.Stats.get fstats "bytes.page_req.resp",
      Dex_sim.Stats.get
        (Dex_proto.Coherence.stats (Option.get !coh))
        "grant.nodata" )
  in
  let t_on, bytes_on, nodata_on = upgrades ~nodata:true in
  let t_off, bytes_off, nodata_off = upgrades ~nodata:false in
  Format.printf "  %-24s %12s %16s %14s@." "" "sim time" "grant bytes"
    "no-data grants";
  Format.printf "  %-24s %10.2fms %16d %14d@." "optimization ON"
    (Time_ns.to_ms_f t_on) bytes_on nodata_on;
  Format.printf "  %-24s %10.2fms %16d %14d@." "optimization OFF"
    (Time_ns.to_ms_f t_off) bytes_off nodata_off;
  Format.printf
    "  -> granting ownership without data saves %.1f%% of grant-path \
     bytes on upgrade-heavy sharing@."
    (100.0
    *. (1.0 -. (float_of_int bytes_on /. float_of_int (max 1 bytes_off))))

(* ------------------------------------------------------------------ *)
(* Baseline: traditional relaxed-consistency DSM (Sec. II / VI).       *)

let baseline_lrc () =
  section
    "Baseline: DeX (sequential consistency) vs a classic lazy-release DSM \
     on a false-sharing workload";
  let nodes = 4 in
  let rounds = 50 in
  (* Four nodes each update their own word of ONE page, [rounds] times.
     Under DeX this is worst-case false sharing; under LRC each node keeps
     writing its cached copy and ships word diffs at release. *)
  let dex_time, dex_bytes =
    let cl = Dex.cluster ~nodes () in
    ignore
      (Dex.run cl (fun proc main ->
           let page = Process.malloc main ~bytes:(nodes * 8) ~tag:"shared" in
           let threads =
             List.init nodes (fun node ->
                 Process.spawn proc (fun th ->
                     Process.migrate th node;
                     for i = 1 to rounds do
                       Process.store th ~site:"bl.write"
                         (page + (node * 8))
                         (Int64.of_int i);
                       Process.compute th ~ns:(Time_ns.us 5)
                     done))
           in
           List.iter Process.join threads));
    let fstats = Dex_net.Fabric.stats (Cluster.fabric cl) in
    ( Dex.elapsed cl,
      Dex_sim.Stats.get fstats "bytes.page_req.resp"
      + Dex_sim.Stats.get fstats "bytes.revoke.resp" )
  in
  let lrc_time, lrc_bytes =
    let engine = Dex_sim.Engine.create () in
    let fabric =
      Dex_net.Fabric.create engine (Dex_net.Net_config.default ~nodes ())
    in
    let lrc = Dex_proto.Lrc.create fabric ~origin:0 in
    for node = 0 to nodes - 1 do
      Dex_net.Fabric.set_handler fabric ~node (fun _ env ->
          if not (Dex_proto.Lrc.handler lrc env) then
            failwith "bench: unrouted LRC message")
    done;
    let addr = Dex_mem.Layout.heap_base in
    for node = 0 to nodes - 1 do
      Dex_sim.Engine.spawn engine (fun () ->
          (* The LRC programming model: every node needs its own lock
             discipline written into the code. *)
          for i = 1 to rounds do
            Dex_proto.Lrc.acquire lrc ~node ~tid:node ~lock:node;
            Dex_proto.Lrc.write_i64 lrc ~node ~tid:node
              (addr + (node * 8))
              (Int64.of_int i);
            Dex_proto.Lrc.release lrc ~node ~tid:node ~lock:node;
            Dex_sim.Engine.delay engine (Time_ns.us 5)
          done)
    done;
    Dex_sim.Engine.run_until_quiescent engine;
    ( Dex_sim.Engine.now engine,
      Dex_sim.Stats.get (Dex_proto.Lrc.stats lrc) "lrc.diff_bytes"
      + (Dex_sim.Stats.get (Dex_proto.Lrc.stats lrc) "lrc.fetch" * 4096) )
  in
  Format.printf "  %-34s %12s %14s@." "" "sim time" "data bytes";
  Format.printf "  %-34s %10.2fms %14d@." "DeX (transparent, SC)"
    (Time_ns.to_ms_f dex_time) dex_bytes;
  Format.printf "  %-34s %10.2fms %14d@." "LRC baseline (acquire/release)"
    (Time_ns.to_ms_f lrc_time) lrc_bytes;
  Format.printf
    "  -> the relaxed model avoids page ping-pong (%.1fx less time, %.1fx \
     fewer bytes here) but requires rewriting every access around \
     acquire/release and silently returns stale data on races — the \
     programmability cost that, per Sec. II, killed classic DSM.@."
    (float_of_int dex_time /. float_of_int (max 1 lrc_time))
    (float_of_int dex_bytes /. float_of_int (max 1 lrc_bytes))

(* ------------------------------------------------------------------ *)
(* Chaos: the same remote working-set walk at increasing fault rates.   *)

let chaos_bench () =
  section
    "Chaos: coherence throughput vs injected fault rate (reliable fabric)";
  let pages = if !tiny then 24 else 192 in
  let chaos_of ?partition drop =
    {
      Dex_net.Net_config.chaos_default with
      Dex_net.Net_config.chaos_seed = 17;
      drop_prob = drop;
      dup_prob = drop /. 2.0;
      reorder_prob = 0.02;
      delay_jitter_ns = Time_ns.ns 1_000;
      partitions = Option.to_list partition;
      rto = Time_ns.us 100;
      rto_cap = Time_ns.ms 1;
    }
  in
  (* One remote thread pulls [pages] cold pages from the origin, dirties
     them all (upgrade + revocation traffic), and migrates back — every
     message class of the protocol rides the lossy wire. *)
  let run chaos =
    let net =
      { (Dex_net.Net_config.default ~nodes:2 ()) with Dex_net.Net_config.chaos }
    in
    let cl = Dex.cluster ~nodes:2 ~net () in
    ignore
      (Dex.run cl (fun proc main ->
           let buf =
             Process.memalign main ~align:4096 ~bytes:(pages * 4096)
               ~tag:"chaos.buf"
           in
           let th =
             Process.spawn proc (fun th ->
                 Process.migrate th 1;
                 Process.read th ~site:"chaos.scan" buf ~len:(pages * 4096);
                 for p = 0 to pages - 1 do
                   Process.store th ~site:"chaos.mark" (buf + (p * 4096)) 1L
                 done;
                 Process.migrate th (Process.origin proc))
           in
           Process.join th));
    (Dex.elapsed cl, Dex_net.Fabric.stats (Cluster.fabric cl))
  in
  Format.printf "  %-22s %12s %10s %8s %12s %9s@." "" "sim time" "pages/ms"
    "drops" "retransmits" "timeouts";
  let row label (t, st) =
    let get = Dex_sim.Stats.get st in
    Format.printf "  %-22s %10.2fms %10.1f %8d %12d %9d@." label
      (Time_ns.to_ms_f t)
      (float_of_int pages /. Time_ns.to_ms_f t)
      (get "chaos.drops")
      (get "chaos.retransmits")
      (get "chaos.timeouts")
  in
  row "pristine (chaos off)" (run None);
  List.iter
    (fun drop ->
      row
        (Printf.sprintf "drop %4.1f%%" (100.0 *. drop))
        (run (Some (chaos_of drop))))
    [ 0.0; 0.01; 0.05; 0.10; 0.20 ];
  (* A transient origin partition in the middle of the scan: traffic
     stalls, retransmission rides it out, the run completes untouched —
     only later. (The window starts at 1 ms because the first ~850 us go
     to the initial migration's local process setup, not the wire.) *)
  let partition =
    {
      Dex_net.Net_config.p_a = 0;
      p_b = 1;
      p_from = Time_ns.ms 1;
      p_until = Time_ns.ms 1 + Time_ns.us 500;
    }
  in
  let t, st = run (Some (chaos_of ~partition 0.0)) in
  row "500us partition" (t, st);
  Format.printf "  ";
  Dex_profile.Report.pp_chaos Format.std_formatter st;
  Format.printf
    "  -> the 'drop 0.0%%' row is the price of reliability alone (acks + \
     timers); rising drop rates trade latency for retransmissions while \
     every run returns the exact pristine answer@."

(* ------------------------------------------------------------------ *)
(* Crash: fail-stop a worker node mid-run; survivors finish, the origin
   reclaims everything the dead node owned.                            *)

let crash_bench () =
  section "Crash: fail-stop of a worker node mid-run (reliable fabric)";
  let pages = if !tiny then 12 else 96 in
  let s_rounds = if !tiny then 20 else 28 in
  let v_rounds = if !tiny then 12 else 16 in
  let chaos crashes =
    {
      Dex_net.Net_config.chaos_default with
      Dex_net.Net_config.chaos_seed = 23;
      rto = Time_ns.us 100;
      rto_cap = Time_ns.us 500;
      max_retransmits = 8;
      crashes;
    }
  in
  (* Two remote threads walk private page windows and race on one shared
     flag page. The victim (node 2) fail-stops mid-run: its thread aborts,
     while the survivor (node 1) keeps going — its next store to the flag
     must revoke the dead node's read copy, which is exactly the organic
     Unreachable-escalation detection path. *)
  let run crashes =
    let net =
      {
        (Dex_net.Net_config.default ~nodes:3 ()) with
        Dex_net.Net_config.chaos = Some (chaos crashes);
      }
    in
    let cl = Dex.cluster ~nodes:3 ~net () in
    let survivor = ref 0 and victim = ref 0 in
    let proc =
      Dex.run cl (fun proc main ->
          let size = pages * 4096 in
          let alloc tag =
            Process.memalign main ~align:4096 ~bytes:size ~tag
          in
          let own1 = alloc "crash.own1" and own2 = alloc "crash.own2" in
          let flag =
            Process.memalign main ~align:4096 ~bytes:4096 ~tag:"crash.flag"
          in
          let worker node buf counter rounds think op =
            Process.spawn proc ~name:(Printf.sprintf "n%d" node) (fun th ->
                Process.migrate th node;
                for r = 1 to rounds do
                  Process.write th ~site:"crash.own" buf ~len:size;
                  op th r;
                  Process.compute th ~ns:think;
                  counter := r
                done;
                Process.migrate th (Process.origin proc))
          in
          let s =
            worker 1 own1 survivor s_rounds (Time_ns.us 100) (fun th r ->
                Process.store th ~site:"crash.flag" flag (Int64.of_int r))
          in
          let v =
            worker 2 own2 victim v_rounds (Time_ns.us 300) (fun th _ ->
                ignore (Process.load th ~site:"crash.flag" flag))
          in
          Process.join s;
          Process.join v)
    in
    (cl, proc, !survivor, !victim)
  in
  Format.printf "  %-22s %10s %9s %8s@." "" "sim time" "survivor" "victim";
  let row label (cl, _, s, v) =
    Format.printf "  %-22s %10.2fms %6d/%-2d %5d/%-2d@." label
      (Time_ns.to_ms_f (Dex.elapsed cl))
      s s_rounds v v_rounds
  in
  row "no crash" (run []);
  let crash_at =
    if !tiny then Time_ns.ms 2 + Time_ns.us 200 else Time_ns.ms 4
  in
  let ((_, proc, _, _) as crashed) =
    run [ { Dex_net.Net_config.crash_node = 2; crash_at } ]
  in
  row
    (Printf.sprintf "node 2 dies @%.1fms" (Time_ns.to_ms_f crash_at))
    crashed;
  let coh = Process.coherence proc in
  Format.printf "  ";
  Dex_profile.Report.pp_crash Format.std_formatter (Dex_proto.Coherence.stats coh);
  Format.printf "  ";
  Dex_profile.Report.pp_recovery Format.std_formatter (Process.stats proc);
  (* The reclaim pass must leave consistent, ghost-free ownership. *)
  Dex_proto.Coherence.check_invariants coh;
  Format.printf
    "  -> post-reclaim invariants hold; directory entries still naming the \
     dead node: %d@."
    (Dex_proto.Authority.entries_naming
       (Dex_proto.Coherence.authority coh)
       ~node:2)

(* ------------------------------------------------------------------ *)
(* Failover: origin replication cost (fences, log traffic) and the price
   of an actual origin fail-stop under each replication mode.           *)

let failover_bench () =
  section "Failover: origin replication and standby promotion";
  let nodes = 4 in
  let writers = nodes - 1 in
  let rounds = if !tiny then 12 else 40 in
  let crash_at_us = if !tiny then 800 else 1500 in
  let chaos =
    {
      Dex_net.Net_config.chaos_default with
      Dex_net.Net_config.chaos_seed = 11;
      rto = Time_ns.us 20;
      rto_cap = Time_ns.us 100;
      max_retransmits = 4;
    }
  in
  let net =
    {
      (Dex_net.Net_config.default ~nodes ()) with
      Dex_net.Net_config.chaos = Some chaos;
    }
  in
  (* The failover workload from the tests: writers on every non-origin
     node hammer one shared counter; optionally the origin fail-stops
     mid-run (with [double] a standby dies at the same instant). Main
     rides out the crash off-origin. *)
  let run ?(k = 1) ?(double = false) ~crash mode =
    let proto =
      {
        Dex_proto.Proto_config.default with
        Dex_proto.Proto_config.replication = mode;
        standbys = List.init k (fun i -> i + 1);
        on_crash = `Rehome;
      }
    in
    let cl = Dex.cluster ~nodes ~net ~proto () in
    let final = ref (-1L) in
    let proc =
      Dex.run cl (fun proc main ->
          let counter =
            Process.memalign main ~align:4096 ~bytes:8 ~tag:"fo.counter"
          in
          Process.store main counter 0L;
          let threads =
            List.init writers (fun i ->
                Process.spawn proc (fun th ->
                    (* In the double-crash row, keep writers off the doomed
                       standby: increments parked on a crashed worker node
                       die with it (fail-stop node-local loss, not a
                       replication gap). *)
                    let home =
                      if double then 2 + (i mod (nodes - 2)) else i + 1
                    in
                    Process.migrate th home;
                    for _ = 1 to rounds do
                      ignore (Process.fetch_add th counter 1L);
                      Process.compute th ~ns:(Time_ns.us 30)
                    done))
          in
          Process.migrate main 2;
          if crash then begin
            Process.compute main ~ns:(Time_ns.us crash_at_us);
            Cluster.crash_node cl ~node:0;
            if double then Cluster.crash_node cl ~node:1
          end;
          List.iter Process.join threads;
          final := Process.load main counter)
    in
    (cl, proc, !final)
  in
  let expect = writers * rounds in
  Format.printf "  %-26s %10s %9s %8s %8s %12s@." "" "sim time" "counter"
    "fences" "entries" "recover(us)";
  let row label (cl, proc, final) =
    let pget = Dex_sim.Stats.get (Process.stats proc) in
    Format.printf "  %-26s %8.2fms %5Ld/%-3d %8d %8d %12s@." label
      (Time_ns.to_ms_f (Dex.elapsed cl))
      final expect
      (pget "ha.fence_waits")
      (pget "ha.entries")
      (if pget "ha.failovers" > 0 then
         Printf.sprintf "%.1f" (float_of_int (pget "ha.failover_ns") /. 1000.0)
       else "-")
  in
  row "replication off" (run ~k:0 ~crash:false `Sync);
  row "sync k=1, healthy" (run ~crash:false `Sync);
  row "sync k=2, healthy" (run ~k:2 ~crash:false `Sync);
  row "sync k=3, healthy" (run ~k:3 ~crash:false `Sync);
  row "async lag 8, healthy" (run ~crash:false (`Async 8));
  row "sync k=1, origin dies" (run ~crash:true `Sync);
  row "sync k=2, double crash" (run ~k:2 ~crash:true ~double:true `Sync);
  row "async lag 8, origin dies" (run ~crash:true (`Async 8));
  Format.printf
    "  -> 'healthy' rows price the replication log per replica-set size \
     (sync pays a majority-ack fence on every externalized grant); the \
     crash rows show the stall-not-abort failover — sync keeps the \
     counter exact even when origin and standby die together (k=2), \
     async may lose up to its lag@."

(* ------------------------------------------------------------------ *)
(* Sharded homes: one origin's protocol handler is a single service loop
   (serial_home_service models exactly that), so past ~8 nodes the
   fault traffic of every node queues behind one CPU and throughput
   flatlines — the paper's fig2 ceiling. Partitioning page ownership
   across home nodes (Proto_config.sharding) spreads the brokerage. The
   workload rotates slab ownership between threads every round, so every
   page transfer is brokered by that page's home on every round.        *)

let shard_bench () =
  section "Sharded homes: page ownership partitioned across home nodes";
  let rounds = if !tiny then 2 else 3 in
  let pages_per_thread = if !tiny then 4 else 16 in
  let per_node = if !tiny then 2 else 3 in
  let psz = Dex_mem.Page.size in
  let run ~nodes ~shards =
    let proto =
      {
        Dex_proto.Proto_config.default with
        Dex_proto.Proto_config.sharding = `Range shards;
        (* Same cost model for every row, including the unsharded
           baseline: each home's handler is one service loop. *)
        serial_home_service = true;
      }
    in
    let cl = Dex.cluster ~nodes ~proto () in
    let checksum = ref 0L in
    let proc =
      Dex.run cl (fun proc main ->
          let nthreads = per_node * (nodes - 1) in
          let slab_bytes = pages_per_thread * psz in
          (* Align each slab to the 64-page `Range run so consecutive
             slabs land in consecutive runs: the working set spreads
             round-robin over the shards instead of packing into run 0. *)
          let slabs =
            Array.init nthreads (fun _ ->
                Process.memalign main ~align:(64 * psz) ~bytes:slab_bytes
                  ~tag:"shard.slab")
          in
          (* Rounds are joined: within a round every thread writes a
             different slab (ownership of every page moves, brokered by
             the page's home), and no write races the final read-back. *)
          let run_round r ~readback =
            let threads =
              List.init nthreads (fun i ->
                  Process.spawn proc (fun th ->
                      Process.migrate th (1 + (i mod (nodes - 1)));
                      let slab = slabs.((i + r) mod nthreads) in
                      for p = 0 to pages_per_thread - 1 do
                        Process.store th
                          (slab + (p * psz))
                          (Int64.of_int ((i * 1000) + p))
                      done;
                      if readback then
                        (* The thread owns the pages it just wrote: the
                           read-back is fault-free, so the run's cost is
                           pure page service. *)
                        for p = 0 to pages_per_thread - 1 do
                          checksum :=
                            Int64.add !checksum
                              (Process.load th (slab + (p * psz)))
                        done))
            in
            List.iter Process.join threads
          in
          for r = 1 to rounds do
            run_round r ~readback:(r = rounds)
          done;
          ignore main)
    in
    (cl, proc, !checksum)
  in
  let node_counts = if !tiny then [ 8 ] else [ 8; 12; 16 ] in
  List.iter
    (fun nodes ->
      Format.printf "@.  %d nodes, %d writer threads@." nodes
        (per_node * (nodes - 1));
      Format.printf "  %-8s %10s %12s %10s %9s@." "shards" "sim time"
        "moved pg/ms" "faults" "locality";
      let reference = ref None in
      List.iter
        (fun shards ->
          let cl, proc, sum = run ~nodes ~shards in
          (match !reference with
          | None -> reference := Some sum
          | Some s -> assert (s = sum));
          let coh = Process.coherence proc in
          Dex_proto.Coherence.check_invariants coh;
          let cget = Dex_sim.Stats.get (Dex_proto.Coherence.stats coh) in
          let faults = cget "fault.read" + cget "fault.write" in
          let local = cget "shard.local_grants"
          and remote = cget "shard.remote_grants" in
          Format.printf "  %-8d %8.2fms %12.0f %10d %9s@." shards
            (Time_ns.to_ms_f (Dex.elapsed cl))
            (float_of_int faults /. Time_ns.to_ms_f (Dex.elapsed cl))
            faults
            (if shards = 1 || local + remote = 0 then "-"
             else
               Printf.sprintf "%.0f%%"
                 (100.0 *. float_of_int local /. float_of_int (local + remote))))
        [ 1; 2; 4; 8 ])
    node_counts;
  Format.printf
    "@.  -> with one home every transfer queues on a single handler loop \
     and page throughput flatlines as nodes are added; sharding ownership \
     across homes spreads the brokerage (checksums agree across every \
     row: sharding changes placement, never results)@."

(* ------------------------------------------------------------------ *)
(* Placement autopilot: the Sec. IV profiling loop closed online. Each
   app's Initial conversion still has its placement pathology — BLK:
   neighbouring threads' option slices share boundary pages across
   nodes; BP: the master's per-chunk publish shares a page with the
   read-only model parameters, so every publish invalidates every
   node's copy. The [+autopilot] row runs the SAME Initial binary with
   the controller attached: it must rediscover the Optimized variant's
   hand placement — co-locate the page-sharing threads, re-home pages,
   replicate the read-mostly page — and close at least half the
   Initial->Optimized gap with zero application-source changes.       *)

let autopilot_bench () =
  section
    "Placement autopilot: closing the Initial->Optimized gap online (Sec. IV)";
  let config = { Core_config.default with cores_per_node = 16 } in
  let ap_config =
    {
      config with
      Core_config.autopilot = true;
      autopilot_interval = Time_ns.us 100;
    }
  in
  let show name descr run =
    Format.printf "@.  %s — %s@." name descr;
    Format.printf "  %-22s %10s %8s %8s@." "" "sim time" "faults" "retries";
    let base : A.result = run config A.Baseline in
    let init = run config A.Initial in
    let ap = run ap_config A.Initial in
    let opt = run config A.Optimized in
    (* Placement must never change results: every row computes the same
       answer, autopilot included. *)
    List.iter
      (fun (r : A.result) -> assert (r.A.checksum = base.A.checksum))
      [ init; ap; opt ];
    let row label (r : A.result) =
      Format.printf "  %-22s %8.2fms %8d %8d@." label
        (Time_ns.to_ms_f r.A.sim_time)
        r.A.faults r.A.retries
    in
    row "baseline" base;
    row "initial" init;
    row "initial + autopilot" ap;
    row "optimized (by hand)" opt;
    let closure metric =
      let i = float_of_int (metric init)
      and a = float_of_int (metric ap)
      and o = float_of_int (metric opt) in
      if i <= o then 0.0 else 100.0 *. (i -. a) /. (i -. o)
    in
    Format.printf "  ";
    Dex_profile.Report.pp_autopilot Format.std_formatter ap.A.stats;
    Format.printf
      "  -> autopilot closes %.0f%% of the time gap, %.0f%% of the fault \
       gap@."
      (closure (fun r -> r.A.sim_time))
      (closure (fun r -> r.A.faults))
  in
  (* BLK: 1024 options make the per-thread price slices exact sub-page
     runs (16 per page), so whole page-sharing groups fit on one node —
     the geometry where co-location wins outright. *)
  let blk_params =
    {
      Dex_apps.Blk.default_params with
      Dex_apps.Blk.options = 1024;
      rounds = (if !tiny then 40 else 400);
      chunk = 2048;
    }
  in
  show "BLK" "co-locate the threads sharing each slice boundary page"
    (fun config variant ->
      Dex_apps.Blk.run ~nodes:4 ~variant ~config ~params:blk_params ());
  (* BP: the globals protocol packs the master's per-chunk publish word
     next to the parameters every worker re-reads each chunk — the
     paper's read-only-parameters pathology. The replicate lever turns
     each publish's invalidation storm into pushed copies. *)
  let bp_params =
    {
      Dex_apps.Bp.default_params with
      Dex_apps.Bp.vertices = (if !tiny then 1 lsl 14 else 1 lsl 16);
      bytes_per_vertex = 64;
      iterations = (if !tiny then 6 else 24);
      flag_chunk = 16;
      globals_bytes = 4096;
    }
  in
  show "BP" "replicate the packed publish-word + parameters page"
    (fun config variant ->
      Dex_apps.Bp.run ~nodes:4 ~variant ~config ~params:bp_params ())

(* ------------------------------------------------------------------ *)
(* Serving: the multi-tenant layer under open-loop load. A latency
   ladder climbs to saturation; admission control (shedding) keeps the
   admitted tail bounded past it; equal fair sharing defangs a noisy
   neighbour; and the fault rows compare per-tenant digests
   answer-for-answer against no-fault baselines.                        *)

let serve_bench () =
  section "Serving: multi-tenant open-loop traffic, admission and isolation";
  let module SC = Dex_serve.Serve_config in
  let module S = Dex_serve.Serve in
  let module H = Dex_sim.Histogram in
  let n_tenants = if !tiny then 3 else 4 in
  let duration = if !tiny then Time_ns.ms 4 else Time_ns.ms 10 in
  let tenants rate =
    List.init n_tenants (fun i ->
        {
          SC.default_tenant with
          SC.t_name = Printf.sprintf "t%d" i;
          t_arrival = SC.Poisson rate;
        })
  in
  let base rate =
    { SC.default with SC.tenants = tenants rate; duration; shed = false }
  in
  let fleet (r : S.result) =
    List.fold_left
      (fun acc (tr : S.tenant_result) -> H.merge acc tr.tr_sojourn)
      (H.create ()) r.r_tenants
  in
  let total f (r : S.result) =
    List.fold_left (fun acc tr -> acc + f tr) 0 r.r_tenants
  in
  let pct h q =
    if H.count h = 0 then 0.0
    else float_of_int (H.percentile h q) /. 1000.0
  in
  (* Calibrate: a tenant saturates at max_inflight requests per
     uncontended mean service time, measured here at a trickle. *)
  let probe = S.run (base 0.5) in
  let svc_ns = H.mean (fleet probe) in
  let sat =
    float_of_int SC.default_tenant.SC.t_max_inflight *. 1.0e6 /. svc_ns
  in
  Format.printf
    "  calibration: mean service=%.0fus -> saturation ~%.1f req/ms/tenant \
     (%d tenants x %d nodes)@."
    (svc_ns /. 1000.0) sat n_tenants probe.r_nodes;
  Format.printf "  %-10s %9s %8s %9s %6s %9s %9s %9s@." "load" "offered"
    "rejected" "shed" "compl" "p50(us)" "p99(us)" "p999(us)";
  let point ?(shed = false) mult =
    let r = S.run { (base (mult *. sat)) with SC.shed } in
    let h = fleet r in
    Format.printf "  %4.1fx%s %9d %8d %9d %6d %9.1f %9.1f %9.1f@."
      mult
      (if shed then " shed" else "     ")
      (total (fun (tr : S.tenant_result) -> tr.tr_offered) r)
      (total (fun (tr : S.tenant_result) -> tr.tr_rejected) r)
      (total (fun (tr : S.tenant_result) -> tr.tr_shed) r)
      (total (fun (tr : S.tenant_result) -> tr.tr_completed) r)
      (pct h 50.0) (pct h 99.0) (pct h 99.9);
    r
  in
  let (_ : S.result) = point 0.5 in
  let (_ : S.result) = point 0.8 in
  let cruise = point 1.1 in
  let hot = point 1.5 in
  let hot_shed = point ~shed:true 1.5 in
  let p99 r = pct (fleet r) 99.0 in
  Format.printf
    "  -> at 1.5x saturation, shedding holds the admitted p99 at %.1fus \
     vs %.1fus unshed (%.1fx)@."
    (p99 hot_shed) (p99 hot)
    (p99 hot /. Float.max 1.0 (p99 hot_shed));
  Dex_profile.Report.pp_serve
    ~tenants:
      (List.map
         (fun (tr : S.tenant_result) -> (tr.tr_name, tr.tr_sojourn))
         cruise.r_tenants)
    Format.std_formatter cruise.r_stats;
  (* Noisy neighbour: one tenant floods the ingress gate with outsized
     requests; the victims' tail only survives under equal fair sharing
     with the per-tenant cap. The printed label keeps its pinned
     wording. *)
  let nn fair =
    let hog =
      {
        SC.default_tenant with
        SC.t_name = "hog";
        t_arrival = SC.Poisson (2.0 *. sat);
        t_max_inflight = 8;
        t_req_bytes = 1 lsl 17;
      }
    in
    let victims =
      List.init 2 (fun i ->
          {
            SC.default_tenant with
            SC.t_name = Printf.sprintf "v%d" i;
            t_arrival = SC.Poisson (0.5 *. sat);
          })
    in
    let r =
      S.run
        {
          SC.default with
          SC.tenants = hog :: victims;
          duration;
          shed = false;
          fair;
          gate_bytes_per_us = 512.0;
        }
    in
    List.fold_left
      (fun acc (tr : S.tenant_result) ->
        if tr.tr_name = "hog" then acc else H.merge acc tr.tr_sojourn)
      (H.create ()) r.r_tenants
  in
  let fifo = nn false and fair = nn true in
  Format.printf
    "  noisy neighbour: victim p99 %.1fus behind a FIFO gate, %.1fus under \
     fair sharing@."
    (pct fifo 99.0) (pct fair 99.0);
  (* Fault rows. Equal digests mean the same requests produced the same
     answers — checked tenant by tenant against the no-fault baseline. *)
  let chaos_net ~nodes =
    let chaos =
      {
        Dex_net.Net_config.chaos_default with
        Dex_net.Net_config.chaos_seed = 11;
        rto = Time_ns.us 20;
        rto_cap = Time_ns.us 100;
        max_retransmits = 4;
      }
    in
    {
      (Dex_net.Net_config.default ~nodes ()) with
      Dex_net.Net_config.chaos = Some chaos;
    }
  in
  let crash_row ~label ~ha ~victim_node ~spared cfg =
    let nodes = S.required_nodes cfg in
    let proto =
      if ha then None
      else
        Some
          {
            Dex_proto.Proto_config.default with
            Dex_proto.Proto_config.on_crash = `Rehome;
          }
    in
    let run ?events () =
      S.run ~net:(chaos_net ~nodes) ?proto ?events cfg
    in
    let baseline = run () in
    let crashed =
      run
        ~events:
          [
            ( Time_ns.ms 2,
              fun cl -> Cluster.crash_node cl ~node:victim_node );
          ]
        ()
    in
    let intact =
      List.for_all2
        (fun (b : S.tenant_result) (c : S.tenant_result) ->
          (not (List.mem b.tr_name spared))
          || b.tr_completed = c.tr_completed
             && Int64.equal b.tr_digest c.tr_digest
             && c.tr_corrupted = 0)
        baseline.r_tenants crashed.r_tenants
    in
    if not intact then
      failwith (label ^ ": digests diverged from the no-fault baseline");
    Format.printf
      "  %-44s completed=%d retried=%d -> %s digests match baseline@." label
      (total (fun (tr : S.tenant_result) -> tr.tr_completed) crashed)
      (Dex_sim.Stats.get crashed.r_stats "serve.retried")
      (String.concat "," spared)
  in
  let iso_cfg =
    {
      SC.default with
      SC.tenants = tenants (0.5 *. sat);
      duration;
      shed = false;
    }
  in
  (* Node 1 is tenant t0's second (worker) node; neighbours keep their
     answers. *)
  crash_row ~label:"worker node dies mid-serve (rehome)" ~ha:false
    ~victim_node:1
    ~spared:(List.init (n_tenants - 1) (fun i -> Printf.sprintf "t%d" (i + 1)))
    iso_cfg;
  (* With ha placement every tenant — the victim included — is lossless:
     the origin was thread-free and lost mains are re-issued. *)
  crash_row ~label:"service origin dies mid-serve (ha failover)" ~ha:true
    ~victim_node:0
    ~spared:(List.init n_tenants (fun i -> Printf.sprintf "t%d" i))
    { iso_cfg with SC.ha = true }

let sections_list =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("table2", table2);
    ("fig3", fig3);
    ("fault", fault_microbench);
    ("profile", profile_demo);
    ("ablation", ablation);
    ("chaos", chaos_bench);
    ("crash", crash_bench);
    ("failover", failover_bench);
    ("shard", shard_bench);
    ("autopilot", autopilot_bench);
    ("serve", serve_bench);
    ("baseline", baseline_lrc);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  (* `tiny` scales the workloads down; used by the runtest smoke rule. *)
  let args =
    match args with
    | "tiny" :: rest ->
        tiny := true;
        rest
    | _ -> args
  in
  let requested =
    match args with [] -> List.map fst sections_list | _ :: _ -> args
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections_list with
      | Some f -> f ()
      | None ->
          Format.eprintf "unknown section %S (known: %s)@." name
            (String.concat ", " (List.map fst sections_list));
          exit 2)
    requested
