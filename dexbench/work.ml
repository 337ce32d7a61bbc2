(* The four workloads. Each has a set-up step, timed as setup_s, that
   returns its rep: a fixed amount of work, fixed by the seed, that the
   runner repeats for the length of the run. Everything is driven from
   outside the library, through its public functions only. *)

open Dex_core
module A = Dex_apps.App_common
module Coh = Dex_proto.Coherence
module Fabric = Dex_net.Fabric
module H = Dex_sim.Histogram
module Stats = Dex_sim.Stats
module Time_ns = Dex_sim.Time_ns
module SC = Dex_serve.Serve_config
module S = Dex_serve.Serve

(* [Tiny] is for the cram test; [Bench] is what the benchmark measures. *)
type size = Tiny | Bench

type rep = {
  ops : int;  (** operations completed: the unit of ops_per_s *)
  failed : int;  (** operations whose result was wrong *)
  layers : (string * float) list;  (** per-layer values of this rep *)
}

(* [prepare size seed] is the set-up; it returns the rep. *)
type t = { name : string; prepare : size -> int option -> unit -> rep }

let fl = float_of_int
let ratio a b = if b = 0 then 0.0 else fl a /. fl b
let us = Time_ns.to_us_f
let pct h q = if H.count h = 0 then 0.0 else us (H.percentile h q)

let sum_stats stats =
  let total = Stats.create () in
  List.iter
    (fun st -> List.iter (fun (k, v) -> Stats.add total k v) (Stats.to_list st))
    stats;
  total

(* Coherence-layer counts, from an instance's (or a sum of instances')
   counters. *)
let proto_counts st =
  let g = Stats.get st in
  let faults = g "fault.read" + g "fault.write" in
  [
    ("proto.faults", fl faults);
    ("proto.read_faults", fl (g "fault.read"));
    ("proto.write_faults", fl (g "fault.write"));
    ("proto.retries", fl (g "fault.retry"));
    ("proto.retries_per_fault", ratio (g "fault.retry") faults);
    ("proto.coalesced", fl (g "fault.coalesced"));
    ("proto.grant_nodata", fl (g "grant.nodata"));
    ("proto.invalidations", fl (g "revoke.invalidate"));
  ]

(* Simulated fault latencies, split as Sec. V-D does: a fault slower than
   40 us went through at least one NACK-and-retry round. *)
let fault_latencies h =
  let fast, slow = List.partition (fun v -> v <= Time_ns.us 40) (H.to_list h) in
  let mean l =
    if l = [] then 0.0 else us (List.fold_left ( + ) 0 l) /. fl (List.length l)
  in
  [
    ("proto.fault_p50_sim_us", pct h 50.0);
    ("proto.fault_p99_sim_us", pct h 99.0);
    ("proto.fast_mean_sim_us", mean fast);
    ("proto.contended_mean_sim_us", mean slow);
    ("proto.contended_share", ratio (List.length slow) (H.count h));
  ]

(* A fabric's traffic, read as soon as a run ends so the run's cluster
   is not kept alive. *)
type traffic = {
  msgs : int;
  bytes : int;
  send_waits : int;
  recv_waits : int;
  sink_waits : int;
}

let net_traffic fab =
  let get k = Stats.get (Fabric.stats fab) k in
  {
    msgs = get "path.loopback" + get "path.rdma" + get "path.verb";
    bytes = get "bytes.loopback" + get "bytes.rdma" + get "bytes.verb";
    send_waits = Fabric.send_pool_waits fab;
    recv_waits = Fabric.recv_pool_waits fab;
    sink_waits = Fabric.sink_waits fab;
  }

let net_counts traffic ~faults =
  let sum f = List.fold_left (fun n t -> n + f t) 0 traffic in
  let msgs = sum (fun t -> t.msgs) and bytes = sum (fun t -> t.bytes) in
  [
    ("net.msgs", fl msgs);
    ("net.bytes", fl bytes);
    ("net.msgs_per_fault", ratio msgs faults);
    ("net.bytes_per_fault", ratio bytes faults);
    ("net.send_pool_waits", fl (sum (fun t -> t.send_waits)));
    ("net.recv_pool_waits", fl (sum (fun t -> t.recv_waits)));
    ("net.sink_waits", fl (sum (fun t -> t.sink_waits)));
  ]

(* A failed invariant check fails every operation of the run it ends. *)
let invariants_hold coh =
  match Coh.check_invariants coh with () -> true | exception Failure _ -> false

(* The memory pass: one untimed rep in which the workloads read the live
   heap, after a full collection, at fixed points — the end of each
   simulated run whose main thread the benchmark owns, the end of each
   serve arrival window, and after each app run of fig2, whose process
   lives inside the library. Taken at fixed points of the simulation,
   the reading is fixed by the seed, not by when the GC happened to
   run. *)
let probing = ref false
let live_peak_words = ref 0

let live_words () =
  Gc.full_major ();
  let w = (Gc.stat ()).live_words in
  live_peak_words := max !live_peak_words w;
  w

let probe_live () = if !probing then ignore (live_words ())

(* ------------------------------------------------------------------ *)
(* fig2: the Figure 2 sweep, closed loop. Set-up runs each app's
   single-machine baseline, the sweep's reference for time and checksum;
   a rep runs the 64 distributed configurations.                       *)

let fig2_apps ~div seed =
  let open Dex_apps in
  let d n = max 1 (n / div) in
  let log2 n = int_of_float (Float.round (Float.log2 (fl n))) in
  [
    ( "GRP",
      fun ~nodes ~variant ->
        let p = Grp.default_params in
        Grp.run ~nodes ~variant ?seed
          ~params:{ p with text_bytes = d p.text_bytes; chunk_bytes = d p.chunk_bytes }
          () );
    ( "KMN",
      fun ~nodes ~variant ->
        let p = Kmn.default_params in
        Kmn.run ~nodes ~variant ?seed ~params:{ p with points = d p.points } () );
    ( "BT",
      fun ~nodes ~variant ->
        let p = Npb_bt.default_params in
        Npb_bt.run ~nodes ~variant ?seed ~params:{ p with cells = d p.cells } () );
    ( "EP",
      fun ~nodes ~variant ->
        let p = Ep.default_params in
        Ep.run ~nodes ~variant ?seed
          ~params:{ p with pairs = d p.pairs; batch = d p.batch }
          () );
    ( "FT",
      fun ~nodes ~variant ->
        let p = Npb_ft.default_params in
        Npb_ft.run ~nodes ~variant ?seed
          ~params:{ p with grid_bytes = d p.grid_bytes }
          () );
    ( "BLK",
      fun ~nodes ~variant ->
        let p = Blk.default_params in
        Blk.run ~nodes ~variant ?seed ~params:{ p with options = d p.options } () );
    ( "BFS",
      fun ~nodes ~variant ->
        let p = Bfs.default_params in
        Bfs.run ~nodes ~variant ?seed ~params:{ p with scale = p.scale - log2 div } ()
    );
    ( "BP",
      fun ~nodes ~variant ->
        let p = Bp.default_params in
        Bp.run ~nodes ~variant ?seed
          ~params:{ p with vertices = d p.vertices; llc_bytes = d p.llc_bytes }
          () );
  ]

let fig2_configs =
  List.concat_map
    (fun nodes -> [ (nodes, A.Initial); (nodes, A.Optimized) ])
    [ 1; 2; 4; 8 ]

let app_span_args (r : A.result) =
  [
    ("sim_ms", Json.num (Time_ns.to_ms_f r.sim_time));
    ("faults", Json.int r.faults);
  ]

let fig2 size seed =
  let div = match size with Tiny -> 64 | Bench -> 8 in
  let baselines =
    List.map
      (fun (name, run) ->
        let base =
          Spans.host (name ^ " baseline") ~args:app_span_args (fun () ->
              run ~nodes:1 ~variant:A.Baseline)
        in
        (name, run, base))
      (fig2_apps ~div seed)
  in
  let rep () =
    let apps =
      List.map
        (fun (name, run, (base : A.result)) ->
          let c0 = Sys.time () in
          let runs =
            List.map
              (fun (nodes, variant) ->
                Spans.host
                  (Printf.sprintf "%s %dn %s" name nodes (A.variant_name variant))
                  ~args:app_span_args
                  (fun () ->
                    let r = run ~nodes ~variant in
                    probe_live ();
                    r))
              fig2_configs
          in
          let host_ms = (Sys.time () -. c0) *. 1000.0 in
          let best =
            List.fold_left
              (fun b (r : A.result) -> Float.max b (fl base.sim_time /. fl r.sim_time))
              0.0 runs
          in
          (name, base, runs, best, host_ms))
        baselines
    in
    let runs = List.concat_map (fun (_, _, runs, _, _) -> runs) apps in
    let failed =
      List.fold_left
        (fun n (_, (base : A.result), runs, _, _) ->
          n
          + List.length
              (List.filter (fun (r : A.result) -> r.checksum <> base.checksum) runs))
        0 apps
    in
    let total f = List.fold_left (fun n r -> n + f r) 0 in
    let bests = List.map (fun (_, _, _, b, _) -> b) apps in
    let per_app =
      List.concat_map
        (fun (name, _, runs, best, host_ms) ->
          let key k = Printf.sprintf "apps.%s.%s" name k in
          [
            (key "best_speedup", best);
            (key "host_ms", host_ms);
            (key "faults", fl (total (fun (r : A.result) -> r.faults) runs));
            (key "retries", fl (total (fun (r : A.result) -> r.retries) runs));
          ])
        apps
    in
    {
      ops = List.length runs;
      failed;
      layers =
        per_app
        @ [
            ( "apps.speedup_geomean",
              Float.exp
                (List.fold_left (fun s b -> s +. Float.log b) 0.0 bests
                /. fl (List.length bests)) );
            ("apps.scaled", fl (List.length (List.filter (fun b -> b > 1.05) bests)));
            ("core.migrations", fl (total (fun (r : A.result) -> r.migrations) runs));
          ]
        @ proto_counts (sum_stats (List.map (fun (r : A.result) -> r.stats) runs));
    }
  in
  rep

(* ------------------------------------------------------------------ *)
(* pingpong: Sec. V-D. Two threads on two nodes store to one page every
   2 us of simulated time, so nearly every store is a write fault that
   revokes the other node's copy. Afterwards the origin reads the page
   back: it must hold the last value one of the two threads stored.    *)

let pingpong_run seed ~stop =
  let cl = Dex.cluster ?seed ~nodes:2 () in
  let coh = ref None and readback_ok = ref false in
  let proc =
    Dex.run cl (fun proc main ->
        let c = Process.coherence proc in
        coh := Some c;
        Coh.set_tracer c (Spans.fault_tracer ());
        let page = Process.malloc main ~bytes:8 ~tag:"contended" in
        let barrier = Sync.Barrier.create proc ~parties:2 () in
        (* Each thread stores its node in the low byte, so the two never
           store the same value. *)
        let last = Array.make 2 0L in
        let worker node th =
          Process.migrate th node;
          Sync.Barrier.await th barrier;
          let i = ref 0 in
          while Dex_sim.Engine.now (Cluster.engine cl) < stop do
            incr i;
            last.(node) <- Int64.of_int ((!i lsl 8) lor node);
            Process.store th ~site:"micro.update" page last.(node);
            Process.compute th ~ns:(Time_ns.us 2)
          done
        in
        let a = Process.spawn proc (worker 0) in
        let b = Process.spawn proc (worker 1) in
        Process.join a;
        Process.join b;
        let v = Process.load main ~site:"micro.readback" page in
        readback_ok := v <> 0L && (v = last.(0) || v = last.(1));
        probe_live ())
  in
  (cl, proc, Option.get !coh, !readback_ok)

let pingpong size seed =
  let stop = Time_ns.ms (match size with Tiny -> 40 | Bench -> 4000) in
  fun () ->
    let cl, proc, coh, readback_ok =
      Spans.host "pingpong"
        ~args:(fun (cl, _, coh, _) ->
          [
            ("sim_ms", Json.num (Time_ns.to_ms_f (Dex.elapsed cl)));
            ("faults", Json.int (H.count (Coh.fault_latencies coh)));
          ])
        (fun () -> pingpong_run seed ~stop)
    in
    let h = Coh.fault_latencies coh in
    let faults = H.count h in
    let log = Process.migration_log proc in
    Spans.migrations log;
    {
      ops = faults;
      failed = (if readback_ok && invariants_hold coh then 0 else faults);
      layers =
        proto_counts (Coh.stats coh)
        @ fault_latencies h
        @ net_counts [ net_traffic (Cluster.fabric cl) ] ~faults
        @ [ ("core.migrations", fl (List.length log)) ];
    }

(* ------------------------------------------------------------------ *)
(* homes: many pages, reads beside writes, revoke fan-out and home
   queueing. Every non-origin node runs [per_node] persistent threads.
   In round r thread i reads slab i+r+1, which thread i+1 is about to
   write, meets the others at a barrier, writes slab i+r and meets them
   again, so every page changes owner every round. Each home's handler
   is one service loop (serial_home_service); a rep runs once with a
   single home and once with ownership ranged over 8 homes. The seed
   picks the values written and the backoff jitter, not the access
   pattern, so the work a rep does barely depends on it. Threads are
   spawned once: tids are never reused and a process holds at most
   Layout.max_threads. *)

type homes_shape = { nodes : int; per_node : int; pages : int; rounds : int }

let homes_shape = function
  | Tiny -> { nodes = 8; per_node = 2; pages = 4; rounds = 4 }
  | Bench -> { nodes = 16; per_node = 3; pages = 16; rounds = 25 }

(* What one run leaves behind; the cluster itself is dropped. *)
type homes_run = {
  accesses : int;
  wrong : int;  (** reads that saw another value than the host expects *)
  consistent : bool;
  faults : int;
  sim_ms : float;
  stats : Stats.t;
  latencies : H.t;
  traffic : traffic;
  shard_load : int array;
  migrations : int;
  delegations : int;
  delegation_batches : int;
}

let homes_run shape seed ~salt ~shards =
  let { nodes; pages; rounds; per_node } = shape in
  let threads = per_node * (nodes - 1) in
  let value ~round ~thread ~page =
    Int64.add salt (Int64.of_int ((((round * threads) + thread) * pages) + page))
  in
  (* What a page of [slab] holds after [round] (-1: before the first). *)
  let expected ~slab ~round ~page =
    if round < 0 then 0L
    else value ~round ~thread:((slab - round + threads) mod threads) ~page
  in
  let proto =
    {
      Dex_proto.Proto_config.default with
      sharding = (if shards = 1 then `Hash 1 else `Range shards);
      serial_home_service = true;
    }
  in
  let cl = Dex.cluster ?seed ~nodes ~proto () in
  let psz = Dex_mem.Page.size in
  let accesses = ref 0 and wrong = ref 0 in
  let check got want =
    incr accesses;
    if got <> want then incr wrong
  in
  let proc =
    Dex.run cl (fun proc main ->
        Coh.set_tracer (Process.coherence proc) (Spans.fault_tracer ());
        (* Slabs on separate 64-page runs, so ranged ownership spreads
           them over the homes. *)
        let slabs =
          Array.init threads (fun _ ->
              Process.memalign main ~align:(64 * psz) ~bytes:(pages * psz)
                ~tag:"homes.slab")
        in
        let barrier = Sync.Barrier.create proc ~parties:threads () in
        let worker thread th =
          Process.migrate th (1 + (thread mod (nodes - 1)));
          for round = 0 to rounds - 1 do
            let slab = (thread + round + 1) mod threads in
            for page = 0 to pages - 1 do
              check
                (Process.load th ~site:"homes.read" (slabs.(slab) + (page * psz)))
                (expected ~slab ~round:(round - 1) ~page)
            done;
            Sync.Barrier.await th barrier;
            let slab = (thread + round) mod threads in
            for page = 0 to pages - 1 do
              incr accesses;
              Process.store th ~site:"homes.write"
                (slabs.(slab) + (page * psz))
                (value ~round ~thread ~page)
            done;
            Sync.Barrier.await th barrier
          done
        in
        List.iter Process.join
          (List.init threads (fun i -> Process.spawn proc (worker i)));
        (* Read everything back at the origin. *)
        Array.iteri
          (fun slab addr ->
            for page = 0 to pages - 1 do
              check
                (Process.load main ~site:"homes.readback" (addr + (page * psz)))
                (expected ~slab ~round:(rounds - 1) ~page)
            done)
          slabs;
        probe_live ())
  in
  let coh = Process.coherence proc in
  let stats = Coh.stats coh in
  let pstat = Stats.get (Process.stats proc) in
  {
    accesses = !accesses;
    wrong = !wrong;
    consistent = invariants_hold coh;
    faults = Stats.get stats "fault.read" + Stats.get stats "fault.write";
    sim_ms = Time_ns.to_ms_f (Dex.elapsed cl);
    stats;
    latencies = Coh.fault_latencies coh;
    traffic = net_traffic (Cluster.fabric cl);
    shard_load = Coh.shard_load coh;
    migrations = List.length (Process.migration_log proc);
    delegations = pstat "delegation";
    delegation_batches = pstat "delegation.batches";
  }

let homes size seed =
  let shape = homes_shape size in
  let salt =
    Dex_sim.Rng.next_int64 (Dex_sim.Rng.create ~seed:(Option.value seed ~default:42))
  in
  let rep () =
    let single, ranged =
      let run shards =
        Spans.host (Printf.sprintf "homes, %d home(s)" shards)
          ~args:(fun r -> [ ("sim_ms", Json.num r.sim_ms); ("faults", Json.int r.faults) ])
          (fun () -> homes_run shape seed ~salt ~shards)
      in
      let single = run 1 in
      (single, run 8)
    in
    let runs = [ single; ranged ] in
    let sum f = List.fold_left (fun n r -> n + f r) 0 runs in
    let faults = sum (fun r -> r.faults) in
    let pg_per_ms r = fl r.faults /. r.sim_ms in
    let load = ranged.shard_load in
    let mean_load = fl (Array.fold_left ( + ) 0 load) /. fl (Array.length load) in
    {
      ops = sum (fun r -> r.accesses);
      failed = sum (fun r -> if r.consistent then r.wrong else r.accesses);
      layers =
        proto_counts (sum_stats (List.map (fun r -> r.stats) runs))
        @ fault_latencies (H.merge single.latencies ranged.latencies)
        @ net_counts (List.map (fun r -> r.traffic) runs) ~faults
        @ [
            ("proto.pg_per_ms", fl faults /. (single.sim_ms +. ranged.sim_ms));
            ("proto.pg_per_ms_1shard", pg_per_ms single);
            ("proto.pg_per_ms_8shard", pg_per_ms ranged);
            ( "proto.shard_load_imbalance",
              if mean_load = 0.0 then 0.0
              else fl (Array.fold_left max 0 load) /. mean_load );
            ("core.migrations", fl (sum (fun r -> r.migrations)));
            ("core.delegations", fl (sum (fun r -> r.delegations)));
            ("core.delegation_batches", fl (sum (fun r -> r.delegation_batches)));
          ];
    }
  in
  rep

(* ------------------------------------------------------------------ *)
(* serve: open loop. Four Poisson tenants, each request a tiny EP run on
   2 nodes x 2 threads, climb a ladder of fixed arrival rates below
   saturation, so nothing should be rejected or shed. Each rate runs
   under two master seeds, which doubles the requests a rep averages
   over without raising the heap a single run needs. The rates are
   absolute, not calibrated at run time, so a change cannot move the
   ladder. Arrivals are drawn on the simulated clock, so the generator
   is never late. This is the workload that creates and tears down
   thousands of processes.                                             *)

let serve_rates = [ 2.0; 2.5; 3.0; 3.5 ]
let serve_tenants = 4

(* p99 sojourn limit of serve.slo_rate. *)
let slo_p99_us = 3000.0

let rate_key r =
  Printf.sprintf "r%d_%d" (int_of_float r)
    (int_of_float (Float.round (r *. 10.0)) mod 10)

(* One serve run, reduced to numbers so its cluster can be freed. *)
type serve_run = {
  offered : int;
  completed : int;
  rejected : int;
  shed : int;
  corrupted : int;
  queue_peak : int;
  sojourn : H.t;  (** fleet-wide, ns *)
  run_traffic : traffic;
  retained_words : int;  (** live heap growth over the arrival window *)
}

let serve_run ~seed ~window rate =
  let tenants =
    List.init serve_tenants (fun i ->
        {
          SC.default_tenant with
          SC.t_name = Printf.sprintf "t%d" i;
          t_arrival = SC.Poisson rate;
        })
  in
  let cfg = { SC.default with SC.tenants; duration = window; shed = false; seed } in
  let fabric = ref None and live = ref [] in
  (* Passive events: they read state and schedule nothing, so the memory
     pass simulates the same thing as the timed reps. *)
  let events =
    (0, fun cl -> fabric := Some (Cluster.fabric cl))
    ::
    (if !probing then
       List.map (fun t -> (t, fun _ -> live := live_words () :: !live)) [ 0; window ]
     else [])
  in
  let r =
    Spans.host (Printf.sprintf "serve at %.1f req/ms/tenant, seed %d" rate seed)
      ~args:(fun (r : S.result) ->
        [
          ("sim_ms", Json.num (Time_ns.to_ms_f r.r_sim_time));
          ("requests", Json.int (List.fold_left (fun n tr -> n + tr.S.tr_offered) 0 r.r_tenants));
        ])
      (fun () -> S.run ~events cfg)
  in
  let total f = List.fold_left (fun n tr -> n + f tr) 0 r.r_tenants in
  {
    offered = total (fun tr -> tr.S.tr_offered);
    completed = total (fun tr -> tr.S.tr_completed);
    rejected = total (fun tr -> tr.S.tr_rejected);
    shed = total (fun tr -> tr.S.tr_shed);
    corrupted = total (fun tr -> tr.S.tr_corrupted);
    queue_peak = List.fold_left (fun m tr -> max m tr.S.tr_queue_peak) 0 r.r_tenants;
    sojourn =
      List.fold_left (fun h tr -> H.merge h tr.S.tr_sojourn) (H.create ()) r.r_tenants;
    run_traffic = net_traffic (Option.get !fabric);
    retained_words = (match !live with [ w1; w0 ] -> w1 - w0 | _ -> 0);
  }

let serve size seed =
  let window = Time_ns.ms (match size with Tiny -> 4 | Bench -> 50) in
  let first = Option.value seed ~default:SC.default.SC.seed in
  let seeds =
    [ first; Dex_sim.Rng.int (Dex_sim.Rng.create ~seed:first) (1 lsl 30) ]
  in
  let rep () =
    let ladder =
      List.map
        (fun rate -> (rate, List.map (fun seed -> serve_run ~seed ~window rate) seeds))
        serve_rates
    in
    let runs = List.concat_map snd ladder in
    let total f = List.fold_left (fun n r -> n + f r) 0 runs in
    let offered = total (fun r -> r.offered) in
    let fleet runs =
      List.fold_left (fun h r -> H.merge h r.sojourn) (H.create ()) runs
    in
    let slo_rate =
      List.fold_left
        (fun best (rate, runs) ->
          if
            List.for_all (fun r -> r.rejected = 0 && r.shed = 0) runs
            && pct (fleet runs) 99.0 <= slo_p99_us
          then Float.max best (rate *. fl serve_tenants)
          else best)
        0.0 ladder
    in
    {
      ops = offered;
      failed = total (fun r -> r.rejected + r.shed + r.corrupted);
      layers =
        List.concat_map
          (fun (rate, runs) ->
            let h = fleet runs in
            [
              ("serve.p50_sim_us." ^ rate_key rate, pct h 50.0);
              ("serve.p99_sim_us." ^ rate_key rate, pct h 99.0);
            ])
          ladder
        @ [
            ("serve.completed", fl (total (fun r -> r.completed)));
            ("serve.rejected", fl (total (fun r -> r.rejected)));
            ("serve.shed", fl (total (fun r -> r.shed)));
            ("serve.corrupted", fl (total (fun r -> r.corrupted)));
            ( "serve.queue_peak",
              fl (List.fold_left (fun m r -> max m r.queue_peak) 0 runs) );
            ("serve.slo_rate", slo_rate);
          ]
        @ (if !probing then
             [
               ( "serve.heap_kb_per_req",
                 fl (total (fun r -> r.retained_words))
                 *. fl (Sys.word_size / 8)
                 /. 1024.0 /. fl (max 1 offered) );
             ]
           else [])
        @ net_counts (List.map (fun r -> r.run_traffic) runs) ~faults:0;
    }
  in
  rep

let all =
  [
    { name = "fig2"; prepare = fig2 };
    { name = "pingpong"; prepare = pingpong };
    { name = "homes"; prepare = homes };
    { name = "serve"; prepare = serve };
  ]
