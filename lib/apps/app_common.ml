open Dex_sim
open Dex_core

type variant = Baseline | Initial | Optimized

let variant_name = function
  | Baseline -> "baseline"
  | Initial -> "initial"
  | Optimized -> "optimized"

type result = {
  app : string;
  variant : variant;
  nodes : int;
  threads : int;
  sim_time : Time_ns.t;
  checksum : int64;
  faults : int;
  retries : int;
  coalesced : int;
  migrations : int;
  stats : Stats.t;
}

let pp_result fmt r =
  Format.fprintf fmt
    "%s/%s nodes=%d threads=%d time=%a faults=%d retries=%d checksum=%Ld"
    r.app (variant_name r.variant) r.nodes r.threads Time_ns.pp r.sim_time
    r.faults r.retries r.checksum

type conversion = {
  multithread : string;
  initial_added : int;
  initial_removed : int;
  optimized_added : int;
  optimized_removed : int;
}

type ctx = {
  proc : Process.t;
  cl : Cluster.t;
  variant : variant;
  nodes : int;
  threads : int;
  seed : int;
  nodemap : int -> int;
}

let run_app ~name ~nodes ~variant ?config ?proto ?(threads_per_node = 8)
    ?(seed = 7) body =
  if nodes <= 0 then invalid_arg "run_app: nodes";
  let cl = Dex.cluster ?config ?proto ~nodes ~seed () in
  let checksum = ref 0L in
  let proc =
    Dex.run cl (fun proc main ->
        let core = Cluster.config cl in
        (* Attach before any worker spawns so no safe point is missed;
           with the flag off (the default) nothing is installed and the
           run is bit-identical. *)
        if core.Core_config.autopilot then
          ignore (Dex_sched.Autopilot.attach proc);
        let ctx =
          {
            proc;
            cl;
            variant;
            nodes;
            threads = threads_per_node * nodes;
            seed;
            nodemap = Fun.id;
          }
        in
        checksum := body ctx main)
  in
  let stats = Process.stats proc in
  {
    app = name;
    variant;
    nodes;
    threads = threads_per_node * nodes;
    sim_time = Dex.elapsed cl;
    checksum = !checksum;
    faults = Stats.get stats "fault.read" + Stats.get stats "fault.write";
    retries = Stats.get stats "fault.retry";
    coalesced = Stats.get stats "fault.coalesced";
    migrations = Stats.get stats "migration.forward";
    stats;
  }

let node_of ctx i = ctx.nodemap (i * ctx.nodes / ctx.threads)

let worker_pool ctx f =
  List.init ctx.threads (fun i ->
      Process.spawn ctx.proc ~name:(Printf.sprintf "worker%d" i) (fun th ->
          (match ctx.variant with
          | Baseline -> ()
          | Initial | Optimized -> Process.migrate th (node_of ctx i));
          f i th;
          match ctx.variant with
          | Baseline -> ()
          | Initial | Optimized ->
              Process.migrate th (Process.origin ctx.proc)))

let join_all threads = List.iter Process.join threads

let parallel_region ctx f = join_all (worker_pool ctx f)

let alloc ctx th ~bytes ~tag =
  match ctx.variant with
  | Optimized -> Process.memalign th ~align:Dex_mem.Page.size ~bytes ~tag
  | Baseline | Initial -> Process.malloc th ~bytes ~tag

let slabs ctx th ~bytes ~tag =
  let offsets = Array.make (ctx.threads + 1) 0 in
  for i = 0 to ctx.threads - 1 do
    let stride =
      match ctx.variant with
      | Optimized -> Dex_mem.Page.align_up (bytes i)
      | Baseline | Initial -> bytes i
    in
    offsets.(i + 1) <- offsets.(i) + stride
  done;
  let base = alloc ctx th ~bytes:offsets.(ctx.threads) ~tag in
  fun i -> base + offsets.(i)

let partition ~total ~parts ~index =
  if parts <= 0 || index < 0 || index >= parts then invalid_arg "partition";
  let base = total / parts and rem = total mod parts in
  let off = (index * base) + min index rem in
  let len = base + if index < rem then 1 else 0 in
  (off, len)

let nfs_read ctx ~bytes =
  if bytes > 0 then begin
    (* Request latency to the NAS plus shared service time on the
       cluster's storage appliance. *)
    Engine.delay (Cluster.engine ctx.cl) (Time_ns.us 30);
    Resource.Server.transfer (Cluster.storage ctx.cl) ~bytes
  end

let memo f =
  let slot = ref None in
  fun key ->
    match !slot with
    | Some (k, v) when k = key -> v
    | _ ->
        let v = f key in
        slot := Some (key, v);
        v

let checksum_of_float x = Int64.of_float (Float.round (x *. 1000.0))
