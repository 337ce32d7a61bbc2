open Dex_sim
open Dex_core
module A = Dex_apps.App_common

type request = {
  rq_arrival : Time_ns.t;
  rq_seed : int;
  rq_oracle : Dex_apps.Ep.oracle;  (* built once, at admission *)
  mutable rq_got : int64 option;
}

type tenant_state = {
  rank : int;
  tcfg : Serve_config.tenant;
  arrivals : Arrivals.t;
  seed_rng : Rng.t;
  base : int;  (* first node of the tenant's static placement block *)
  pending : request Queue.t;
  sojourn : Histogram.t;
  mutable inflight : int;
  mutable offered : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable shed : int;
  mutable completed : int;
  mutable corrupted : int;
  mutable queue_peak : int;
  mutable digest : int64;
}

type gate = Fair of Fairshare.t | Fifo of Resource.Server.t

type t = {
  cl : Cluster.t;
  eng : Engine.t;
  cfg : Serve_config.t;
  stats : Stats.t;
  gate : gate;
  tenants : tenant_state array;
}

type tenant_result = {
  tr_name : string;
  tr_offered : int;
  tr_admitted : int;
  tr_rejected : int;
  tr_shed : int;
  tr_completed : int;
  tr_corrupted : int;
  tr_queue_peak : int;
  tr_digest : int64;
  tr_sojourn : Histogram.t;
}

type result = {
  r_nodes : int;
  r_tenants : tenant_result list;
  r_stats : Stats.t;
  r_sim_time : Time_ns.t;
}

(* Every request is a [Serve_config.tiny_ep] run on [request_nodes] nodes
   x [threads_per_node] threads; no tenant is rated above [nn_cap] of a
   fair gate. *)
let request_nodes = 2
let threads_per_node = 2
let nn_cap = 0.5

(* A tenant's placement block: its request nodes, plus its thread-free
   service origin with [ha]. *)
let tenant_width cfg = request_nodes + if cfg.Serve_config.ha then 1 else 0

let required_nodes cfg =
  (List.length cfg.Serve_config.tenants * tenant_width cfg)
  + if cfg.Serve_config.ha then 1 else 0

(* Map the tenant's preferred block onto live nodes: healthy preferences
   stay put, dead ones are substituted by the cyclically-next live node not
   already used by this request (duplicates only when fewer live nodes than
   the block is wide). [None] when every node is dead. *)
let place t ten =
  let n = Cluster.nodes t.cl in
  let alive node = not (Cluster.node_crashed t.cl ~node) in
  let offset = if t.cfg.ha then 1 else 0 in
  (* Without [ha], worker 0's preference is the origin's. *)
  let preferred v = (ten.base + offset + v) mod n in
  let rec all_alive v =
    v = request_nodes || (alive (preferred v) && all_alive (v + 1))
  in
  if alive (ten.base mod n) && all_alive 0 then Some (ten.base mod n, preferred)
  else
    match Dex_net.Fabric.live_nodes (Cluster.fabric t.cl) with
    | [] -> None
    | live ->
        let live_arr = Array.of_list live in
        let nlive = Array.length live_arr in
        let used = Hashtbl.create 8 in
        let pick preferred =
          if alive preferred then begin
            Hashtbl.replace used preferred ();
            preferred
          end
          else begin
            let start = ref 0 in
            Array.iteri
              (fun i x -> if x < preferred then start := i + 1)
              live_arr;
            let rec go k =
              if k = nlive then live_arr.(!start mod nlive)
              else
                let cand = live_arr.((!start + k) mod nlive) in
                if Hashtbl.mem used cand then go (k + 1)
                else begin
                  Hashtbl.replace used cand ();
                  cand
                end
            in
            go 0
          end
        in
        let origin = pick (ten.base mod n) in
        let workers =
          Array.init request_nodes (fun v ->
              if (not t.cfg.ha) && v = 0 then origin else pick (preferred v))
        in
        Some (origin, fun v -> workers.(v))

let complete t ten req =
  ten.completed <- ten.completed + 1;
  Stats.incr t.stats "serve.completed";
  Histogram.add ten.sojourn (Engine.now t.eng - req.rq_arrival);
  match req.rq_got with
  | Some cs ->
      (* Order-insensitive digest: comparable across runs that admitted
         the same requests, whatever the interleaving. *)
      ten.digest <- Int64.add ten.digest cs;
      if not (Int64.equal cs req.rq_oracle.reference_checksum) then begin
        ten.corrupted <- ten.corrupted + 1;
        Stats.incr t.stats "serve.corrupted"
      end
  | None ->
      (* The main thread never returned a checksum — it was lost to a
         crash under the [`Abort] policy. *)
      ten.corrupted <- ten.corrupted + 1;
      Stats.incr t.stats "serve.corrupted"

let rec dispatch t ten =
  if
    ten.inflight < ten.tcfg.t_max_inflight
    && not (Queue.is_empty ten.pending)
  then begin
    let req = Queue.pop ten.pending in
    if
      t.cfg.shed
      && Engine.now t.eng - req.rq_arrival > t.cfg.shed_after
    then begin
      ten.shed <- ten.shed + 1;
      Stats.incr t.stats "serve.shed"
    end
    else start_run t ten req;
    dispatch t ten
  end

and start_run t ten req =
  ten.inflight <- ten.inflight + 1;
  Stats.incr t.stats "serve.dispatched";
  Engine.spawn t.eng ~label:("serve:" ^ ten.tcfg.t_name) (fun () ->
      (if ten.tcfg.t_req_bytes > 0 then
         match t.gate with
         | Fair f ->
             Fairshare.transfer f ~key:ten.rank ~bytes:ten.tcfg.t_req_bytes
         | Fifo s -> Resource.Server.transfer s ~bytes:ten.tcfg.t_req_bytes);
      match place t ten with
      | None ->
          (* Nowhere to run: the whole rack is dead. *)
          Stats.incr t.stats "serve.no_capacity";
          ten.shed <- ten.shed + 1;
          ten.inflight <- ten.inflight - 1;
          dispatch t ten
      | Some (origin, nodemap) ->
          let (_ : Process.t) =
            Dex.attach t.cl ~origin
              ~on_exit:(fun _ ->
                ten.inflight <- ten.inflight - 1;
                match req.rq_got with
                | None when t.cfg.ha ->
                    (* The main thread died before producing an answer —
                       caught standing on its origin when the node
                       fail-stopped, the one window ha placement cannot
                       cover. Requests are deterministic (the answer is a
                       function of the request seed), so re-issuing is
                       safe: at-least-once execution, exactly-once
                       completion. *)
                    Stats.incr t.stats "serve.retried";
                    start_run t ten req
                | _ ->
                    complete t ten req;
                    dispatch t ten)
              (fun proc th ->
                (* In ha mode the origin is a thread-free service node:
                   hop the main thread to the first worker node so an
                   origin crash is pure service failover. *)
                if t.cfg.ha then Process.migrate th (nodemap 0);
                let ctx =
                  {
                    A.proc;
                    cl = t.cl;
                    variant = A.Optimized;
                    nodes = request_nodes;
                    threads = request_nodes * threads_per_node;
                    seed = req.rq_seed;
                    nodemap;
                  }
                in
                req.rq_got <-
                  Some
                    (Dex_apps.Ep.body Serve_config.tiny_ep req.rq_oracle ctx
                       th))
          in
          ())

let on_arrival t ten =
  ten.offered <- ten.offered + 1;
  Stats.incr t.stats "serve.offered";
  (* The draw happens for every arrival, admitted or not, so a tenant's
     request stream is a pure function of the master seed. *)
  let seed = Rng.int ten.seed_rng (1 lsl 30) in
  let admit () =
    ten.admitted <- ten.admitted + 1;
    Stats.incr t.stats "serve.admitted";
    {
      rq_arrival = Engine.now t.eng;
      rq_seed = seed;
      rq_oracle = Dex_apps.Ep.oracle Serve_config.tiny_ep ~seed;
      rq_got = None;
    }
  in
  if ten.inflight < ten.tcfg.t_max_inflight then start_run t ten (admit ())
  else if
    ten.tcfg.t_max_pending > 0
    && Queue.length ten.pending >= ten.tcfg.t_max_pending
  then begin
    ten.rejected <- ten.rejected + 1;
    Stats.incr t.stats "serve.rejected"
  end
  else begin
    Queue.push (admit ()) ten.pending;
    ten.queue_peak <- max ten.queue_peak (Queue.length ten.pending)
  end

let generator t ten =
  Engine.spawn t.eng ~label:("arrivals:" ^ ten.tcfg.t_name) (fun () ->
      let rec loop () =
        Engine.delay t.eng (Arrivals.next_gap ten.arrivals);
        if Engine.now t.eng < t.cfg.duration then begin
          on_arrival t ten;
          loop ()
        end
      in
      loop ())

let default_proto ~nodes cfg =
  if cfg.Serve_config.ha then
    {
      Dex_proto.Proto_config.default with
      replication = `Sync;
      standbys = [ nodes - 1 ];
      on_crash = `Rehome;
    }
  else Dex_proto.Proto_config.default

let run ?net ?proto ?(events = []) cfg =
  Serve_config.validate cfg;
  let nodes = required_nodes cfg in
  let proto = match proto with Some p -> p | None -> default_proto ~nodes cfg in
  let cl = Dex.cluster ?net ~proto ~nodes ~seed:cfg.seed () in
  let eng = Cluster.engine cl in
  let stats = Stats.create () in
  let gate =
    if cfg.fair then begin
      let f =
        Fairshare.create eng ~bytes_per_us:cfg.gate_bytes_per_us ~cap:nn_cap
      in
      List.iteri (fun i _ -> Fairshare.register f ~key:i) cfg.tenants;
      Fair f
    end
    else Fifo (Resource.Server.create eng ~bytes_per_us:cfg.gate_bytes_per_us)
  in
  (* Per-tenant streams split off in configuration order: tenant [i]'s
     arrivals and request seeds are fixed by (master seed, i) alone. *)
  let master = Rng.create ~seed:cfg.seed in
  let tenants =
    Array.of_list
      (List.mapi
         (fun i ten ->
           let arr_rng = Rng.split master in
           let seed_rng = Rng.split master in
           {
             rank = i;
             tcfg = ten;
             arrivals = Arrivals.create ~rng:arr_rng ten.Serve_config.t_arrival;
             seed_rng;
             base = i * tenant_width cfg;
             pending = Queue.create ();
             sojourn = Histogram.create ();
             inflight = 0;
             offered = 0;
             admitted = 0;
             rejected = 0;
             shed = 0;
             completed = 0;
             corrupted = 0;
             queue_peak = 0;
             digest = 0L;
           })
         cfg.tenants)
  in
  let t = { cl; eng; cfg; stats; gate; tenants } in
  Array.iter (fun ten -> generator t ten) tenants;
  List.iter (fun (time, f) -> Engine.at eng ~time (fun () -> f cl)) events;
  Cluster.run cl;
  (match gate with
  | Fair f -> Stats.add stats "serve.gate_recomputes" (Fairshare.recomputes f)
  | Fifo _ -> ());
  {
    r_nodes = nodes;
    r_tenants =
      Array.to_list
        (Array.map
           (fun ten ->
             {
               tr_name = ten.tcfg.t_name;
               tr_offered = ten.offered;
               tr_admitted = ten.admitted;
               tr_rejected = ten.rejected;
               tr_shed = ten.shed;
               tr_completed = ten.completed;
               tr_corrupted = ten.corrupted;
               tr_queue_peak = ten.queue_peak;
               tr_digest = ten.digest;
               tr_sojourn = ten.sojourn;
             })
           tenants);
    r_stats = stats;
    r_sim_time = Dex.elapsed cl;
  }
