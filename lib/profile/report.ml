let pp_compact fmt (s : Analysis.summary) =
  Format.fprintf fmt
    "faults=%d (R=%d W=%d inval=%d) retried=%d mean=%.1fus"
    s.Analysis.total_faults s.Analysis.reads s.Analysis.writes
    s.Analysis.invalidations s.Analysis.retried
    (s.Analysis.mean_latency_ns /. 1000.0)

let pp_ranked fmt title rows pp_key =
  if rows <> [] then begin
    Format.fprintf fmt "%s:@." title;
    List.iter
      (fun (k, n) -> Format.fprintf fmt "  %6d  %a@." n pp_key k)
      rows
  end

(* Chaos digest from the fabric's counters: faults injected on the wire
   vs the reliable layer's recovery work. Silent on healthy runs. *)
let pp_chaos fmt stats =
  let get = Dex_sim.Stats.get stats in
  let injected =
    get "chaos.drops" + get "chaos.dups" + get "chaos.reorders"
    + get "chaos.partition_drops"
  in
  let recovery = get "chaos.timeouts" + get "chaos.retransmits" in
  if injected > 0 || recovery > 0 then
    Format.fprintf fmt
      "chaos: drops=%d dups=%d reorders=%d partition_drops=%d | timeouts=%d \
       retransmits=%d dup_requests=%d replayed_replies=%d@."
      (get "chaos.drops") (get "chaos.dups") (get "chaos.reorders")
      (get "chaos.partition_drops") (get "chaos.timeouts")
      (get "chaos.retransmits")
      (get "chaos.dup_requests")
      (get "chaos.replayed_replies")

(* Crash-recovery digest from the protocol's counters: what the reclaim
   pass salvaged after fail-stop node crashes. Silent on crash-free
   runs. *)
let pp_crash fmt stats =
  let get = Dex_sim.Stats.get stats in
  if get "crash.nodes" > 0 then
    Format.fprintf fmt
      "crash: nodes=%d pages_reclaimed=%d readers_scrubbed=%d \
       revokes_skipped=%d escalations=%d grants_refused=%d@."
      (get "crash.nodes")
      (get "crash.pages_reclaimed")
      (get "crash.readers_scrubbed")
      (get "crash.revokes_skipped")
      (get "crash.escalations")
      (get "crash.grants_refused")

(* What a crash did to the process's threads: the thread crash policy's
   verdicts, the futex waits it cancelled and the migrations it refused. *)
let pp_recovery fmt stats =
  let get = Dex_sim.Stats.get stats in
  Format.fprintf fmt
    "recovery: threads_aborted=%d threads_rehomed=%d futex_cancelled=%d \
     migrations_refused=%d@."
    (get "crash.threads_aborted")
    (get "crash.threads_rehomed")
    (get "crash.futex_cancelled")
    (get "crash.migrations_refused")

(* Placement-autopilot digest from the protocol's counters: what the
   profiling loop observed and did. Silent unless an autopilot ticked. *)
let pp_autopilot fmt stats =
  let get = Dex_sim.Stats.get stats in
  if get "autopilot.ticks" > 0 then
    Format.fprintf fmt
      "autopilot: ticks=%d colocations=%d rehomes=%d busy=%d redirects=%d \
       resteers=%d mirrors=%d fallbacks=%d | replicate: marked=%d pushes=%d \
       declined=%d@."
      (get "autopilot.ticks")
      (get "autopilot.colocations")
      (get "autopilot.rehomes")
      (get "autopilot.rehome_busy")
      (get "autopilot.redirects")
      (get "autopilot.resteers")
      (get "autopilot.mirrors")
      (get "autopilot.fallbacks")
      (get "autopilot.replicate_marked")
      (get "autopilot.replica_pushes")
      (get "autopilot.push_declined")

(* Origin-replication digest: log volume and fence cost, plus — when a
   failover actually ran — what the promotion did. Silent when
   replication was off. *)
let pp_ha fmt stats =
  let get = Dex_sim.Stats.get stats in
  if get "ha.entries" > 0 || get "ha.failovers" > 0 then begin
    Format.fprintf fmt
      "ha: entries=%d shipped=%d acked=%d compacted=%d batches=%d \
       fence_waits=%d@."
      (get "ha.entries") (get "ha.entries_shipped") (get "ha.entries_acked")
      (get "ha.compacted") (get "ha.ship_batches") (get "ha.fence_waits");
    if get "ha.failovers" > 0 then
      Format.fprintf fmt
        "ha failover: count=%d replayed=%d detect_to_serve=%.1fus \
         stalled_faults=%d stale_nacks=%d fence_zapped=%d fence_demoted=%d \
         wakes_redelivered=%d@."
        (get "ha.failovers") (get "ha.replay_entries")
        (float_of_int (get "ha.failover_ns") /. 1000.0)
        (get "ha.stalled_faults")
        (get "ha.stale_epoch_nacks")
        (get "ha.fence_zapped") (get "ha.fence_demoted")
        (get "ha.wakes_redelivered");
    if
      get "ha.standby_lost" > 0
      || get "ha.quorum_stalls" > 0
      || get "ha.zombie_nacks" > 0
      || get "ha.recruits" > 0
      || get "ha.reelections" > 0
      || get "ha.rearm_aborted" > 0
    then
      Format.fprintf fmt
        "ha quorum: standby_lost=%d degraded=%d stalls=%d zombie_nacks=%d \
         recruits=%d reelections=%d rearm_aborted=%d@."
        (get "ha.standby_lost")
        (get "ha.quorum_degraded")
        (get "ha.quorum_stalls")
        (get "ha.zombie_nacks")
        (get "ha.recruits")
        (get "ha.reelections")
        (get "ha.rearm_aborted");
    if get "ha.disabled" > 0 then
      Format.fprintf fmt "ha: replica set lost - replication disabled@."
  end

(* Serving digest: fleet admission counters plus per-tenant sojourn
   latency tails. Tenants are plain (name, histogram) pairs so the
   profiler stays independent of the serving layer (which sits above
   it); the fleet row is the merge of every tenant's samples. Silent
   when no traffic was offered. *)
let pp_serve ?(tenants = []) fmt stats =
  let get = Dex_sim.Stats.get stats in
  if get "serve.offered" > 0 then begin
    Format.fprintf fmt
      "serve: offered=%d admitted=%d rejected=%d shed=%d completed=%d \
       corrupted=%d retried=%d no_capacity=%d@."
      (get "serve.offered") (get "serve.admitted") (get "serve.rejected")
      (get "serve.shed") (get "serve.completed")
      (get "serve.corrupted")
      (get "serve.retried")
      (get "serve.no_capacity");
    let row name h =
      if Dex_sim.Histogram.count h > 0 then
        let p q = float_of_int (Dex_sim.Histogram.percentile h q) /. 1000.0 in
        Format.fprintf fmt
          "  %-8s n=%-5d sojourn_us: p50=%.1f p99=%.1f p999=%.1f max=%.1f@."
          name
          (Dex_sim.Histogram.count h)
          (p 50.0) (p 99.0) (p 99.9)
          (float_of_int (Dex_sim.Histogram.max_value h) /. 1000.0)
    in
    List.iter (fun (name, h) -> row name h) tenants;
    match tenants with
    | [] | [ _ ] -> ()
    | (_, h0) :: rest ->
        row "fleet"
          (List.fold_left
             (fun acc (_, h) -> Dex_sim.Histogram.merge acc h)
             h0 rest)
  end

let pp_summary ?alloc ?net fmt events =
  let s = Analysis.summarize ?alloc events in
  Format.fprintf fmt "== DeX page-fault profile ==@.";
  Format.fprintf fmt "%a@." pp_compact s;
  Option.iter (pp_chaos fmt) net;
  pp_ranked fmt "hottest fault sites" s.Analysis.hottest_sites
    (fun fmt k -> Format.pp_print_string fmt k);
  pp_ranked fmt "hottest objects" s.Analysis.hottest_objects (fun fmt k ->
      Format.pp_print_string fmt k);
  let contended = Analysis.contended_pages events in
  if contended <> [] then begin
    Format.fprintf fmt "contended pages (NACK retries):@.";
    List.iteri
      (fun i (page, n, lat) ->
        if i < 5 then
          Format.fprintf fmt "  %#x: %d retried faults, mean %.1fus@." page n
            (lat /. 1000.0))
      contended
  end;
  match Analysis.timeline events ~bucket:(Dex_sim.Time_ns.ms 10) with
  | [] -> ()
  | buckets ->
      Format.fprintf fmt "fault frequency (10ms buckets):@.";
      List.iter
        (fun (t0, n) ->
          Format.fprintf fmt "  %8.1fms %s@."
            (Dex_sim.Time_ns.to_ms_f t0)
            (String.make (min 60 n) '#'))
        buckets
