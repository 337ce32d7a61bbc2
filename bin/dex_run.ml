(* dex_run — command-line driver for the DeX simulation.

   Subcommands:
     list               show the eight benchmark applications
     run                run one application (app x variant x nodes)
     sweep              run one application across node counts
     profile            run with the page-fault profiler attached
     chaos              run the demo workload on a lossy (chaos) fabric
     crash              fail-stop a worker node mid-run and report recovery
     failover           fail-stop the origin mid-run (standby promotion)
     serve              host multi-tenant open-loop traffic on one cluster *)

open Cmdliner
module A = Dex_apps.App_common

let variant_conv =
  let parse = function
    | "baseline" -> Ok A.Baseline
    | "initial" -> Ok A.Initial
    | "optimized" -> Ok A.Optimized
    | s -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (A.variant_name v))

let app_arg =
  let doc = "Application name (GRP, KMN, BT, EP, FT, BLK, BFS or BP)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let nodes_arg =
  let doc = "Number of nodes in the simulated rack." in
  Arg.(value & opt int 4 & info [ "n"; "nodes" ] ~docv:"NODES" ~doc)

let variant_arg =
  let doc = "Variant: baseline, initial or optimized." in
  Arg.(
    value
    & opt variant_conv A.Optimized
    & info [ "v"; "variant" ] ~docv:"VARIANT" ~doc)

let shards_arg =
  let doc =
    "Partition page ownership across $(docv) home nodes (range-sharded: \
     64-page runs round-robin over the homes, keeping sequential streams \
     on one home). 0 (the default) keeps every page homed at the single \
     origin, the same as 1."
  in
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"SHARDS" ~doc)

(* None for 0: the apps then run with their own default configuration,
   whose one shard is homed at the origin. *)
let proto_of_shards shards =
  if shards < 0 then begin
    Format.eprintf "--shards must be >= 0@.";
    exit 2
  end
  else if shards = 0 then None
  else
    Some
      {
        Dex_proto.Proto_config.default with
        Dex_proto.Proto_config.sharding = `Range shards;
      }

(* A config built from user input is validated before it runs: a value
   its [validate] refuses is a usage error (exit 2), not an internal one. *)
let check cmd validate cfg =
  match validate cfg with
  | () -> ()
  | exception Invalid_argument msg ->
      Format.eprintf "dex_run %s: %s@." cmd msg;
      exit 2

(* The rack a command without its own fabric config runs on. *)
let check_nodes cmd nodes =
  check cmd Dex_net.Net_config.validate (Dex_net.Net_config.default ~nodes ())

let lookup name =
  match Dex_apps.Apps.find name with
  | entry -> entry
  | exception Not_found ->
      Format.eprintf "unknown application %S; try `dex_run list'@." name;
      exit 2

let list_cmd =
  let run () =
    Format.printf "%-5s %-12s %s@." "APP" "THREADS" "DESCRIPTION";
    List.iter
      (fun e ->
        Format.printf "%-5s %-12s %s@." e.Dex_apps.Apps.name
          e.Dex_apps.Apps.conversion.A.multithread e.Dex_apps.Apps.descr)
      Dex_apps.Apps.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark applications")
    Term.(const run $ const ())

let autopilot_arg =
  let doc =
    "Attach the placement autopilot (Core_config.autopilot): fault traces \
     are profiled periodically and threads/pages are re-placed online — \
     co-location, page re-homing, replicate-don't-invalidate — with no \
     application changes."
  in
  Arg.(value & flag & info [ "autopilot" ] ~doc)

let run_cmd =
  let run app nodes variant shards autopilot =
    let entry = lookup app in
    check_nodes "run" nodes;
    let proto = proto_of_shards shards in
    let config =
      if autopilot then
        Some { Dex_core.Core_config.default with autopilot = true }
      else None
    in
    let r = entry.Dex_apps.Apps.run ~nodes ~variant ?config ?proto () in
    Format.printf "%a@." A.pp_result r;
    if autopilot then
      Dex_profile.Report.pp_autopilot Format.std_formatter r.A.stats;
    0
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one application on the simulated rack")
    Term.(
      const run $ app_arg $ nodes_arg $ variant_arg $ shards_arg
      $ autopilot_arg)

let sweep_cmd =
  let run app shards =
    let entry = lookup app in
    let proto = proto_of_shards shards in
    let base = entry.Dex_apps.Apps.run ~nodes:1 ~variant:A.Baseline () in
    Format.printf "%-10s %-10s %10s %10s %8s@." "NODES" "VARIANT" "TIME(ms)"
      "SPEEDUP" "FAULTS";
    Format.printf "%-10d %-10s %10.2f %10.2f %8d@." 1 "baseline"
      (Dex_sim.Time_ns.to_ms_f base.A.sim_time)
      1.0 base.A.faults;
    List.iter
      (fun nodes ->
        List.iter
          (fun variant ->
            let r = entry.Dex_apps.Apps.run ~nodes ~variant ?proto () in
            Format.printf "%-10d %-10s %10.2f %10.2f %8d@." nodes
              (A.variant_name variant)
              (Dex_sim.Time_ns.to_ms_f r.A.sim_time)
              (float_of_int base.A.sim_time /. float_of_int r.A.sim_time)
              r.A.faults)
          [ A.Initial; A.Optimized ])
      [ 1; 2; 4; 8 ];
    0
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run one application at 1..8 nodes, initial and optimized")
    Term.(const run $ app_arg $ shards_arg)

(* The focused contended workload behind `profile` and `chaos`: a cold
   table scan plus a write-hot flag ping-ponging between all nodes. *)
let demo_workload ?net ~nodes () =
  let cl = Dex_core.Dex.cluster ~nodes ?net () in
  let events = ref [] in
  let alloc = ref None in
  let module P = Dex_core.Process in
  let (_ : P.t) =
    Dex_core.Dex.run cl (fun proc main ->
         alloc := Some (P.allocator proc);
         let trace = Dex_profile.Trace.attach (P.coherence proc) in
         let hot = P.malloc main ~bytes:8 ~tag:"hot_flag" in
         let cold = P.memalign main ~align:4096 ~bytes:65536 ~tag:"table" in
         let barrier = Dex_core.Sync.Barrier.create proc ~parties:nodes () in
         let threads =
           List.init nodes (fun node ->
               P.spawn proc (fun th ->
                   P.migrate th node;
                   Dex_core.Sync.Barrier.await th barrier;
                   P.read th ~site:"table_scan" cold ~len:65536;
                   for i = 1 to 40 do
                     P.store th ~site:"flag_update" hot (Int64.of_int i);
                     P.compute th ~ns:(Dex_sim.Time_ns.us 15)
                   done))
         in
         List.iter P.join threads;
         events := Dex_profile.Trace.events trace)
  in
  (cl, !events, !alloc)

let profile_cmd =
  let run nodes =
    check_nodes "profile" nodes;
    let _cl, events, alloc = demo_workload ~nodes () in
    Dex_profile.Report.pp_summary ?alloc Format.std_formatter events;
    0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a contended demo workload under the page-fault profiler")
    Term.(const run $ nodes_arg)

let chaos_cmd =
  let drop_arg =
    let doc = "Per-message drop probability, in [0,1)." in
    Arg.(value & opt float 0.05 & info [ "drop" ] ~docv:"P" ~doc)
  in
  let dup_arg =
    let doc = "Per-message duplication probability, in [0,1)." in
    Arg.(value & opt float 0.02 & info [ "dup" ] ~docv:"P" ~doc)
  in
  let reorder_arg =
    let doc = "Per-message reordering probability, in [0,1)." in
    Arg.(value & opt float 0.02 & info [ "reorder" ] ~docv:"P" ~doc)
  in
  let jitter_arg =
    let doc = "Extra uniform delivery jitter in nanoseconds." in
    Arg.(value & opt int 1_000 & info [ "jitter-ns" ] ~docv:"NS" ~doc)
  in
  let seed_arg =
    let doc = "Fault-injection RNG seed (same seed, same faults)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let sweep_arg =
    let doc =
      "Sweep drop rates 0/1/5/10/20% (duplication at half the drop rate) \
       and print one summary row per rate instead of a full report."
    in
    Arg.(value & flag & info [ "sweep" ] ~doc)
  in
  let net_of ~nodes ~seed ~reorder ~jitter ~drop ~dup =
    let chaos =
      {
        Dex_net.Net_config.chaos_default with
        Dex_net.Net_config.chaos_seed = seed;
        drop_prob = drop;
        dup_prob = dup;
        reorder_prob = reorder;
        delay_jitter_ns = jitter;
      }
    in
    let net =
      {
        (Dex_net.Net_config.default ~nodes ()) with
        Dex_net.Net_config.chaos = Some chaos;
      }
    in
    check "chaos" Dex_net.Net_config.validate net;
    net
  in
  let run nodes drop dup reorder jitter seed sweep =
    if sweep then begin
      let nets =
        List.map
          (fun drop ->
            let dup = drop /. 2.0 in
            (drop, net_of ~nodes ~seed ~reorder ~jitter ~drop ~dup))
          [ 0.0; 0.01; 0.05; 0.10; 0.20 ]
      in
      Format.printf "%-8s %10s %8s %8s %12s %9s@." "DROP" "TIME(ms)" "FAULTS"
        "DROPS" "RETRANSMITS" "TIMEOUTS";
      List.iter
        (fun (drop, net) ->
          let cl, events, _ = demo_workload ~net ~nodes () in
          let get =
            Dex_sim.Stats.get (Dex_net.Fabric.stats (Dex_core.Cluster.fabric cl))
          in
          Format.printf "%-8s %10.2f %8d %8d %12d %9d@."
            (Printf.sprintf "%.1f%%" (100.0 *. drop))
            (Dex_sim.Time_ns.to_ms_f (Dex_core.Dex.elapsed cl))
            (List.length events) (get "chaos.drops") (get "chaos.retransmits")
            (get "chaos.timeouts"))
        nets
    end
    else begin
      let net = net_of ~nodes ~seed ~reorder ~jitter ~drop ~dup in
      let cl, events, alloc = demo_workload ~net ~nodes () in
      let fstats = Dex_net.Fabric.stats (Dex_core.Cluster.fabric cl) in
      Dex_profile.Report.pp_summary ?alloc ~net:fstats Format.std_formatter
        events;
      Format.printf "sim time: %.2fms@."
        (Dex_sim.Time_ns.to_ms_f (Dex_core.Dex.elapsed cl))
    end;
    0
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the demo workload on a lossy fabric (drop/duplicate/reorder + \
          jitter) and report the chaos counters")
    Term.(
      const run $ nodes_arg $ drop_arg $ dup_arg $ reorder_arg $ jitter_arg
      $ seed_arg $ sweep_arg)

let crash_cmd =
  let crash_node_arg =
    let doc = "Node to fail-stop (default: the last node). Must not be 0." in
    Arg.(value & opt int (-1) & info [ "crash-node" ] ~docv:"NODE" ~doc)
  in
  let crash_at_arg =
    let doc = "Simulated time of the crash, in microseconds." in
    Arg.(value & opt int 2000 & info [ "crash-at-us" ] ~docv:"US" ~doc)
  in
  let policy_arg =
    let doc =
      "What happens to threads caught on the dead node: $(b,abort) or \
       $(b,rehome)."
    in
    Arg.(value & opt string "abort" & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let run nodes crash_node crash_at_us policy =
    let crash_node = if crash_node < 0 then nodes - 1 else crash_node in
    if nodes < 2 then begin
      Format.eprintf "crash: need at least 2 nodes@.";
      exit 2
    end;
    if crash_node <= 0 || crash_node >= nodes then begin
      Format.eprintf
        "crash: --crash-node must be a non-origin node in [1, %d]@."
        (nodes - 1);
      exit 2
    end;
    let on_crash =
      match policy with
      | "abort" -> `Abort
      | "rehome" -> `Rehome
      | s ->
          Format.eprintf "crash: unknown policy %S (abort or rehome)@." s;
          exit 2
    in
    let crash_at = Dex_sim.Time_ns.us crash_at_us in
    let chaos =
      {
        Dex_net.Net_config.chaos_default with
        Dex_net.Net_config.chaos_seed = 23;
        rto = Dex_sim.Time_ns.us 100;
        rto_cap = Dex_sim.Time_ns.us 500;
        max_retransmits = 8;
        crashes = [ { Dex_net.Net_config.crash_node; crash_at } ];
      }
    in
    let net =
      {
        (Dex_net.Net_config.default ~nodes ()) with
        Dex_net.Net_config.chaos = Some chaos;
      }
    in
    check "crash" Dex_net.Net_config.validate net;
    let proto =
      { Dex_proto.Proto_config.default with Dex_proto.Proto_config.on_crash }
    in
    let cl = Dex_core.Dex.cluster ~nodes ~net ~proto () in
    let module P = Dex_core.Process in
    let rounds = 12 in
    let progress = Array.make nodes 0 in
    let crashed = Array.make nodes false in
    (* One thread per remote node: each walks a private 4-page window and
       hammers one shared flag, so the dead node leaves both exclusive
       pages and reader-set entries behind for the reclaim pass. *)
    let proc =
      Dex_core.Dex.run cl (fun proc main ->
          let flag = P.malloc main ~bytes:8 ~tag:"crash_flag" in
          let windows =
            Array.init nodes (fun node ->
                P.memalign main ~align:4096 ~bytes:(4 * 4096)
                  ~tag:(Printf.sprintf "window%d" node))
          in
          let threads =
            List.init (nodes - 1) (fun i ->
                let node = i + 1 in
                let th =
                  P.spawn proc ~name:(Printf.sprintf "n%d" node) (fun th ->
                      P.migrate th node;
                      for r = 1 to rounds do
                        P.write th ~site:"window" windows.(node)
                          ~len:(4 * 4096);
                        P.store th ~site:"flag" flag (Int64.of_int r);
                        P.compute th ~ns:(Dex_sim.Time_ns.us 100);
                        progress.(node) <- r
                      done;
                      P.migrate th (P.origin proc))
                in
                (node, th))
          in
          List.iter
            (fun (node, th) ->
              P.join th;
              crashed.(node) <- P.crashed th)
            threads)
    in
    Format.printf "crash: node %d dies @%.1fms (policy=%s)@." crash_node
      (Dex_sim.Time_ns.to_ms_f crash_at)
      policy;
    for node = 1 to nodes - 1 do
      Format.printf "  thread n%d: %d/%d rounds%s@." node progress.(node)
        rounds
        (if crashed.(node) then "  (aborted)" else "")
    done;
    let coh = P.coherence proc in
    Dex_profile.Report.pp_crash Format.std_formatter
      (Dex_proto.Coherence.stats coh);
    Dex_profile.Report.pp_recovery Format.std_formatter (P.stats proc);
    Dex_proto.Coherence.check_invariants coh;
    Format.printf "post-reclaim invariants: ok (ghost directory entries: %d)@."
      (Dex_proto.Authority.entries_naming
         (Dex_proto.Coherence.authority coh)
         ~node:crash_node);
    Format.printf "sim time: %.2fms@."
      (Dex_sim.Time_ns.to_ms_f (Dex_core.Dex.elapsed cl));
    0
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Fail-stop one node mid-run and report what crash recovery \
          reclaimed")
    Term.(const run $ nodes_arg $ crash_node_arg $ crash_at_arg $ policy_arg)

let failover_cmd =
  let mode_arg =
    let doc = "Replication mode: $(b,sync) or $(b,async)." in
    Arg.(value & opt string "sync" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let lag_arg =
    let doc = "Maximum unacked log entries in async mode." in
    Arg.(value & opt int 8 & info [ "lag" ] ~docv:"N" ~doc)
  in
  let crash_at_arg =
    let doc = "Simulated time at which the origin fail-stops, microseconds." in
    Arg.(value & opt int 1500 & info [ "crash-at-us" ] ~docv:"US" ~doc)
  in
  let rounds_arg =
    let doc = "Increments each writer performs on the shared counter." in
    Arg.(value & opt int 40 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let standbys_arg =
    let doc =
      "Replica-set size k: how many standbys receive the replication log. \
       Sync fences wait for a majority of the origin+k set, so k >= 2 \
       survives an origin and a standby dying together."
    in
    Arg.(value & opt int 1 & info [ "standbys" ] ~docv:"K" ~doc)
  in
  let double_crash_arg =
    let doc =
      "Fail-stop standby 1 at the same instant as the origin (requires \
       $(b,--standbys) >= 2 so the survivors still hold a majority)."
    in
    Arg.(value & flag & info [ "double-crash" ] ~doc)
  in
  let run nodes mode lag crash_at_us rounds standbys double_crash =
    if nodes < 2 then begin
      Format.eprintf "failover: replication needs at least 2 nodes@.";
      exit 2
    end;
    if standbys < 1 || standbys >= nodes then begin
      Format.eprintf
        "failover: --standbys must be between 1 and nodes-1 (%d)@."
        (nodes - 1);
      exit 2
    end;
    if double_crash && standbys < 2 then begin
      Format.eprintf
        "failover: --double-crash loses the whole replica set with \
         --standbys 1; use --standbys 2 or more@.";
      exit 2
    end;
    let replication =
      match mode with
      | "sync" -> `Sync
      | "async" -> `Async lag
      | s ->
          Format.eprintf "failover: unknown mode %S (sync or async)@." s;
          exit 2
    in
    let chaos =
      {
        Dex_net.Net_config.chaos_default with
        Dex_net.Net_config.chaos_seed = 11;
        rto = Dex_sim.Time_ns.us 20;
        rto_cap = Dex_sim.Time_ns.us 100;
        max_retransmits = 4;
      }
    in
    let net =
      {
        (Dex_net.Net_config.default ~nodes ()) with
        Dex_net.Net_config.chaos = Some chaos;
      }
    in
    let proto =
      {
        Dex_proto.Proto_config.default with
        Dex_proto.Proto_config.replication;
        (* Nodes 1..k: the origin is node 0. *)
        standbys = List.init standbys (fun i -> i + 1);
        on_crash = `Rehome;
      }
    in
    let cl = Dex_core.Dex.cluster ~nodes ~net ~proto () in
    let module P = Dex_core.Process in
    let writers = nodes - 1 in
    let final = ref (-1L) in
    (* Writers on every non-origin node hammer one shared counter; the
       origin fail-stops mid-run. Main rides out the crash off-origin —
       anything left on the origin dies with it. *)
    let proc =
      Dex_core.Dex.run cl (fun proc main ->
          let counter = P.memalign main ~align:4096 ~bytes:8 ~tag:"counter" in
          P.store main counter 0L;
          let threads =
            List.init writers (fun i ->
                P.spawn proc ~name:(Printf.sprintf "w%d" (i + 1)) (fun th ->
                    (* With --double-crash, keep writers off the doomed
                       standby: increments parked on a crashed worker node
                       die with it (fail-stop), which is node-local state
                       loss, not a replication gap. *)
                    let home =
                      if double_crash then 2 + (i mod (nodes - 2)) else i + 1
                    in
                    P.migrate th home;
                    for _ = 1 to rounds do
                      ignore (P.fetch_add th counter 1L);
                      P.compute th ~ns:(Dex_sim.Time_ns.us 30)
                    done))
          in
          P.migrate main (if nodes > 2 then 2 else 1);
          P.compute main ~ns:(Dex_sim.Time_ns.us crash_at_us);
          Dex_core.Cluster.crash_node cl ~node:0;
          if double_crash then Dex_core.Cluster.crash_node cl ~node:1;
          List.iter P.join threads;
          final := P.load main counter)
    in
    let expect = writers * rounds in
    Format.printf "failover: %s @%.1fms (%s replication%s, %d writers x %d rounds)@."
      (if double_crash then "origin 0 and standby 1 die" else "origin 0 dies")
      (Dex_sim.Time_ns.to_ms_f (Dex_sim.Time_ns.us crash_at_us))
      mode
      (if standbys > 1 then Printf.sprintf ", k=%d" standbys else "")
      writers rounds;
    Format.printf "  counter: %Ld/%d %s@." !final expect
      (if !final = Int64.of_int expect then "(no lost writes)"
       else
         Printf.sprintf "(%Ld lost - %s)"
           (Int64.sub (Int64.of_int expect) !final)
           (match replication with
           | `Sync -> "UNEXPECTED under sync"
           | `Async _ -> "bounded by the async lag"));
    Format.printf "  origin now: node %d@." (P.origin proc);
    if standbys > 1 then
      Format.printf "  replica set now: %s@."
        (String.concat " "
           (List.map string_of_int (Dex_ha.Ha.standbys (P.ha proc))));
    let coh = P.coherence proc in
    Dex_profile.Report.pp_ha Format.std_formatter (P.stats proc);
    let pget = Dex_sim.Stats.get (P.stats proc) in
    Format.printf "recovery: threads_aborted=%d threads_rehomed=%d \
                   delegations_retried=%d@."
      (pget "crash.threads_aborted")
      (pget "crash.threads_rehomed")
      (pget "ha.delegations_retried");
    Dex_proto.Coherence.check_invariants coh;
    Format.printf "post-failover invariants: ok@.";
    Format.printf "sim time: %.2fms@."
      (Dex_sim.Time_ns.to_ms_f (Dex_core.Dex.elapsed cl));
    if replication = `Sync && !final <> Int64.of_int expect then 1 else 0
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:
         "Fail-stop the origin mid-run and report the standby promotion \
          (origin replication)")
    Term.(
      const run $ nodes_arg $ mode_arg $ lag_arg $ crash_at_arg $ rounds_arg
      $ standbys_arg $ double_crash_arg)

let serve_cmd =
  let module SC = Dex_serve.Serve_config in
  let module S = Dex_serve.Serve in
  let tenants_arg =
    let doc = "Number of tenants sharing the cluster." in
    Arg.(value & opt int 4 & info [ "t"; "tenants" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Per-tenant mean arrival rate, requests per millisecond." in
    Arg.(value & opt float 2.0 & info [ "r"; "rate" ] ~docv:"R" ~doc)
  in
  let duration_arg =
    let doc = "Arrival window, milliseconds (admitted work then drains)." in
    Arg.(value & opt float 6.0 & info [ "d"; "duration" ] ~docv:"MS" ~doc)
  in
  let seed_arg =
    let doc =
      "Master seed: every tenant's arrival and workload stream is split \
       from it (same seed, same request streams)."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let shed_arg =
    let doc =
      "Shed queued requests that waited past $(b,--shed-after-us) instead \
       of serving them (bounds the admitted sojourn tail under overload)."
    in
    Arg.(value & flag & info [ "shed" ] ~doc)
  in
  let shed_after_arg =
    let doc = "Maximum queue wait before a request is shed, microseconds." in
    Arg.(value & opt int 2000 & info [ "shed-after-us" ] ~docv:"US" ~doc)
  in
  let fifo_arg =
    let doc =
      "Use one FIFO ingress gate instead of equal per-tenant fair \
       sharing (exposes noisy neighbours)."
    in
    Arg.(value & flag & info [ "fifo" ] ~doc)
  in
  let mmpp_arg =
    let doc =
      "Bursty arrivals: a two-state MMPP dwelling between the calm rate \
       $(b,--rate) and a 4x burst, instead of a plain Poisson stream."
    in
    Arg.(value & flag & info [ "mmpp" ] ~doc)
  in
  let ha_arg =
    let doc =
      "High-availability placement: per-tenant thread-free service origins \
       with synchronous replication onto a reserved standby, so a \
       mid-serve origin crash is lossless."
    in
    Arg.(value & flag & info [ "ha" ] ~doc)
  in
  let chaos_arg =
    let doc =
      "Serve over a lossy fabric (drops, duplicates, reordering, jitter) \
       riding on the reliable transport."
    in
    Arg.(value & flag & info [ "chaos" ] ~doc)
  in
  let crash_at_arg =
    let doc =
      "Fail-stop one of tenant 0's nodes at $(docv) (its service origin \
       with $(b,--ha), a worker node otherwise) to demonstrate cross-tenant \
       fault isolation. 0 disables the crash."
    in
    Arg.(value & opt int 0 & info [ "crash-at-us" ] ~docv:"US" ~doc)
  in
  let run tenants rate duration seed shed shed_after_us fifo mmpp ha chaos
      crash_at_us =
    if tenants < 1 || rate <= 0.0 || duration <= 0.0 then begin
      Format.eprintf "serve: need --tenants >= 1, --rate > 0, --duration > 0@.";
      exit 2
    end;
    let arrival =
      if mmpp then
        SC.Mmpp
          {
            calm = rate;
            burst = 4.0 *. rate;
            dwell_calm_ms = 1.0;
            dwell_burst_ms = 0.5;
          }
      else SC.Poisson rate
    in
    let cfg =
      {
        SC.default with
        SC.tenants =
          List.init tenants (fun i ->
              {
                SC.default_tenant with
                SC.t_name = Printf.sprintf "t%02d" i;
                t_arrival = arrival;
              });
        seed;
        duration = Dex_sim.Time_ns.us (int_of_float (1000.0 *. duration));
        shed;
        shed_after = Dex_sim.Time_ns.us shed_after_us;
        fair = not fifo;
        ha;
      }
    in
    check "serve" SC.validate cfg;
    let nodes = S.required_nodes cfg in
    (* Crashes need the reliable (chaos) transport for failure detection;
       --chaos additionally injects faults on the wire. *)
    let net =
      if chaos || crash_at_us > 0 then
        let c =
          {
            Dex_net.Net_config.chaos_default with
            Dex_net.Net_config.chaos_seed = seed;
            rto = Dex_sim.Time_ns.us 20;
            rto_cap = Dex_sim.Time_ns.us 100;
            max_retransmits = 4;
          }
        in
        let c =
          if chaos then
            {
              c with
              Dex_net.Net_config.drop_prob = 0.02;
              dup_prob = 0.01;
              reorder_prob = 0.01;
              delay_jitter_ns = 500;
            }
          else c
        in
        Some
          {
            (Dex_net.Net_config.default ~nodes ()) with
            Dex_net.Net_config.chaos = Some c;
          }
      else None
    in
    Option.iter (check "serve" Dex_net.Net_config.validate) net;
    let events =
      if crash_at_us = 0 then None
      else
        let victim = if ha then 0 else 1 in
        Some
          [
            ( Dex_sim.Time_ns.us crash_at_us,
              fun cl -> Dex_core.Cluster.crash_node cl ~node:victim );
          ]
    in
    let r = S.run ?net ?events cfg in
    Format.printf
      "serve: %d tenants x %.1f req/ms (%s arrivals) on %d nodes, %.1fms \
       window%s%s%s@."
      tenants rate
      (if mmpp then "bursty MMPP" else "Poisson")
      r.S.r_nodes duration
      (if ha then ", ha" else "")
      (if chaos then ", lossy fabric" else "")
      (match events with
      | Some _ ->
          Printf.sprintf ", node %d dies @%dus"
            (if ha then 0 else 1)
            crash_at_us
      | None -> "");
    Dex_profile.Report.pp_serve
      ~tenants:
        (List.map
           (fun (tr : S.tenant_result) -> (tr.S.tr_name, tr.S.tr_sojourn))
           r.S.r_tenants)
      Format.std_formatter r.S.r_stats;
    Format.printf "sim time: %.2fms@."
      (Dex_sim.Time_ns.to_ms_f r.S.r_sim_time);
    let corrupted =
      List.fold_left
        (fun acc (tr : S.tenant_result) -> acc + tr.S.tr_corrupted)
        0 r.S.r_tenants
    in
    if corrupted > 0 then begin
      Format.printf "CORRUPTED: %d completed requests failed their checksum@."
        corrupted;
      1
    end
    else 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host many tenants' open-loop traffic on one shared cluster and \
          report per-tenant admission counters and sojourn-latency tails")
    Term.(
      const run $ tenants_arg $ rate_arg $ duration_arg $ seed_arg $ shed_arg
      $ shed_after_arg $ fifo_arg $ mmpp_arg $ ha_arg $ chaos_arg
      $ crash_at_arg)

let main =
  let doc = "DeX: scaling applications beyond machine boundaries (simulated)" in
  Cmd.group
    (Cmd.info "dex_run" ~version:"1.0.0" ~doc)
    [
      list_cmd; run_cmd; sweep_cmd; profile_cmd; chaos_cmd; crash_cmd;
      failover_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval' main)
