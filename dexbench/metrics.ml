(* The metric catalogue. BENCHMARK.json lists the same names and units;
   the cram test pins them. [Host] values are measured on the host and
   vary run to run; [Sim] values are simulated observables and counts,
   fixed by the seed. *)

type kind = Host | Sim

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("alloc_kb_per_op", "KB");
    ("live_peak_mb", "MB");
  ]

let per_layer =
  List.map (fun n -> (n, "ns", Host)) Micro.names
  @ [
      ("host.minor_gcs", "count", Host);
      ("host.promoted_mb", "MB", Host);
      ("trace.overhead_pct", "%", Host);
      ("net.msgs", "count", Sim);
      ("net.bytes", "B", Sim);
      ("net.msgs_per_fault", "ratio", Sim);
      ("net.bytes_per_fault", "B", Sim);
      ("net.send_pool_waits", "count", Sim);
      ("net.recv_pool_waits", "count", Sim);
      ("net.sink_waits", "count", Sim);
      ("proto.faults", "count", Sim);
      ("proto.read_faults", "count", Sim);
      ("proto.write_faults", "count", Sim);
      ("proto.retries", "count", Sim);
      ("proto.retries_per_fault", "ratio", Sim);
      ("proto.coalesced", "count", Sim);
      ("proto.grant_nodata", "count", Sim);
      ("proto.invalidations", "count", Sim);
      ("proto.fault_p50_sim_us", "sim_us", Sim);
      ("proto.fault_p99_sim_us", "sim_us", Sim);
      ("proto.fast_mean_sim_us", "sim_us", Sim);
      ("proto.contended_mean_sim_us", "sim_us", Sim);
      ("proto.contended_share", "ratio", Sim);
      ("proto.pg_per_ms", "pg/sim_ms", Sim);
      ("proto.pg_per_ms_1shard", "pg/sim_ms", Sim);
      ("proto.pg_per_ms_8shard", "pg/sim_ms", Sim);
      ("proto.shard_load_imbalance", "ratio", Sim);
      ("core.migrations", "count", Sim);
      ("core.delegations", "count", Sim);
      ("core.delegation_batches", "count", Sim);
    ]
  @ List.concat_map
      (fun r ->
        let k = Work.rate_key r in
        [
          ("serve.p50_sim_us." ^ k, "sim_us", Sim);
          ("serve.p99_sim_us." ^ k, "sim_us", Sim);
        ])
      Work.serve_rates
  @ [
      ("serve.completed", "count", Sim);
      ("serve.rejected", "count", Sim);
      ("serve.shed", "count", Sim);
      ("serve.corrupted", "count", Sim);
      ("serve.queue_peak", "count", Sim);
      ("serve.slo_rate", "req/sim_ms", Sim);
      ("serve.heap_kb_per_req", "KB", Host);
    ]
  @ List.concat_map
      (fun app ->
        let k s = Printf.sprintf "apps.%s.%s" app s in
        [
          (k "best_speedup", "x", Sim);
          (k "host_ms", "ms", Host);
          (k "faults", "count", Sim);
          (k "retries", "count", Sim);
        ])
      (List.map fst (Work.fig2_apps ~div:1 None))
  @ [ ("apps.speedup_geomean", "x", Sim); ("apps.scaled", "count", Sim) ]
