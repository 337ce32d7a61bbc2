open Dex_core
module Coherence = Dex_proto.Coherence
module Trace = Dex_profile.Trace
module Analysis = Dex_profile.Analysis
module Page = Dex_mem.Page
module Stats = Dex_sim.Stats

(* Controller constants, explained in the interface. [cooldown_ticks]
   must stay >= [window_ticks], or stale window contents re-trigger the
   same action. *)
let window_ticks = 8
let trace_capacity = 4096
let colocate_min_faults = 32
let max_actions_per_tick = 4
let cooldown_ticks = 8

type t = {
  proc : Process.t;
  coh : Coherence.t;
  trace : Trace.t;
  balancer : Balancer.t;
  interval : Dex_sim.Time_ns.t;
  mutable tick_no : int;
  mutable stopped : bool;
  page_acted : (Page.vpn, int) Hashtbl.t;  (* vpn -> tick of last action *)
  tid_acted : (int, int) Hashtbl.t;  (* tid -> tick of last co-location *)
}

let ticks t = t.tick_no

let cooling t table key =
  match Hashtbl.find_opt table key with
  | Some last -> t.tick_no - last < cooldown_ticks
  | None -> false

(* Where every live thread will be once pending migration requests are
   honoured — occupancy must count decisions already made, or successive
   ticks herd threads onto whichever node looked emptiest. *)
let projected_occupancy t =
  let cluster = Process.cluster t.proc in
  let occ = Array.make (Cluster.nodes cluster) 0 in
  let dest = Hashtbl.create 16 in
  List.iter
    (fun (tid, loc) ->
      let node =
        match Balancer.requested t.balancer ~tid with
        | Some node -> node
        | None -> loc
      in
      occ.(node) <- occ.(node) + 1;
      Hashtbl.replace dest tid node)
    (Process.live_threads t.proc);
  (occ, dest)

(* All-or-nothing: co-location only pays when it takes EVERY minority
   faulter to the dominant node — the page stops crossing the boundary.
   Moving some of a crowd leaves the ping-pong intact and spends
   migrations (plus cold re-faults) for nothing, which is how an early
   version of this controller made saturated runs slower. *)
let colocate_tids t ~occ ~dest ~target tids =
  let capacity =
    (Cluster.config (Process.cluster t.proc)).Core_config.cores_per_node
  in
  (* Stale-window guard: act only on faulters still placed where the
     trace observed them — a thread that migrated since (worker pools
     bounce through the origin between regions) would be steered on
     evidence about a location it already left. *)
  let current =
    List.for_all
      (fun (obs_node, tid) -> Hashtbl.find_opt dest tid = Some obs_node)
      tids
  in
  let needed =
    List.filter_map
      (fun (obs_node, tid) -> if obs_node <> target then Some tid else None)
      tids
  in
  let movable =
    current
    && needed <> []
    && List.for_all (fun tid -> not (cooling t t.tid_acted tid)) needed
    && occ.(target) + List.length needed <= capacity
  in
  if movable then begin
    let stats = Coherence.stats t.coh in
    List.iter
      (fun tid ->
        let cur = Hashtbl.find dest tid in
        Balancer.request t.balancer ~tid ~node:target;
        occ.(cur) <- occ.(cur) - 1;
        occ.(target) <- occ.(target) + 1;
        Hashtbl.replace dest tid target;
        Hashtbl.replace t.tid_acted tid t.tick_no;
        Stats.incr stats "autopilot.colocations")
      needed
  end;
  movable

(* One profiling window: drain the trace, classify the hottest pages and
   act — co-locate the minority faulters of a contended page onto its
   dominant node, re-home the page's directory authority there, and mark
   read-mostly pages replicate-don't-invalidate. *)
let tick t =
  if not t.stopped then begin
    t.tick_no <- t.tick_no + 1;
    Stats.incr (Coherence.stats t.coh) "autopilot.ticks";
    (* Analyze a sliding window of the last few ticks — one interval
       rarely accumulates enough per-page faults to clear the
       classification floor. The trace ring stays attached (bounded by
       its capacity); cooldowns keep stale window contents from
       re-triggering the same action. *)
    let events =
      let eng = Cluster.engine (Process.cluster t.proc) in
      Analysis.window ~now:(Dex_sim.Engine.now eng)
        ~width:(window_ticks * t.interval)
        (Trace.events t.trace)
    in
    if events <> [] then begin
      let traffic = Analysis.page_traffic events in
      let occ, dest = projected_occupancy t in
      let actions = ref 0 in
      List.iter
        (fun pt ->
          if !actions < max_actions_per_tick then begin
            let vpn = Page.page_of_addr pt.Analysis.pt_addr in
            if not (cooling t t.page_acted vpn) then begin
              let faults = pt.Analysis.pt_reads + pt.Analysis.pt_writes in
              let dominant_share dominant =
                List.fold_left
                  (fun acc ((node, _), n) ->
                    if node = dominant then acc + n else acc)
                  0 pt.Analysis.pt_threads
              in
              let contended dominant =
                (* Migration hauls the thread's whole working set over as
                   cold re-faults, so co-location demands more evidence
                   than the cheap levers do. *)
                let acted_colocate =
                  faults >= colocate_min_faults
                  && colocate_tids t ~occ ~dest ~target:dominant
                       (List.sort_uniq compare
                          (List.filter_map
                             (fun ((node, tid), _) ->
                               if tid >= 0 then Some (node, tid) else None)
                             pt.Analysis.pt_threads))
                in
                (* Re-homing only pays when the new home's faulters carry
                   most of the traffic; on a 50/50 ping-pong it changes
                   nothing except the mirror writes it buys. *)
                let acted_rehome =
                  2 * dominant_share dominant > faults
                  && Coherence.page_home t.coh vpn <> dominant
                  && Coherence.rehome_page t.coh ~vpn ~node:dominant
                     = `Rehomed
                in
                acted_colocate || acted_rehome
              in
              let acted =
                match Analysis.classify pt with
                | Analysis.Ping_pong { dominant } -> contended dominant
                | Analysis.False_shared _ -> (
                    (* No alternating owner stream to trust; chase the
                       heaviest writer instead. *)
                    match pt.Analysis.pt_writers with
                    | (heaviest, _) :: _ -> contended heaviest
                    | [] -> false)
                | Analysis.Read_mostly _ ->
                    (* Pinned (futex-word) pages look read-mostly — their
                       "reads" are the home's delegated wait checks — but
                       pushed copies would be pure churn. *)
                    (not (Coherence.pinned_page t.coh vpn))
                    && not (Coherence.replicate_marked t.coh vpn)
                    && begin
                         Coherence.mark_replicate t.coh ~first:vpn ~last:vpn;
                         true
                       end
                | Analysis.Quiet -> false
              in
              if acted then begin
                Hashtbl.replace t.page_acted vpn t.tick_no;
                incr actions
              end
            end
          end)
        traffic
    end
  end

let attach proc =
  let coh = Process.coherence proc in
  let t =
    {
      proc;
      coh;
      trace = Trace.attach ~capacity:trace_capacity coh;
      balancer = Balancer.create proc;
      interval =
        (Cluster.config (Process.cluster proc)).Core_config.autopilot_interval;
      tick_no = 0;
      stopped = false;
      page_acted = Hashtbl.create 16;
      tid_acted = Hashtbl.create 16;
    }
  in
  Process.set_safepoint_hook proc
    (Some (fun th -> ignore (Balancer.checkpoint t.balancer th)));
  Process.set_periodic proc ~interval:t.interval (fun () -> tick t);
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Trace.detach t.trace;
    Process.set_safepoint_hook t.proc None
  end
