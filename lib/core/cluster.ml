open Dex_sim
module Pids = Map.Make (Int)

type registration = {
  route : Dex_net.Fabric.env -> bool;
  on_crash : int -> unit;
}

(* A node's memory channels. The controller delivers its nominal
   bandwidth to a single stream; each additional concurrent stream
   degrades aggregate throughput (bank conflicts, row-buffer misses), so
   [k] concurrent streamers share [B / (1 + c·(k-1))]. This is the
   resource behind the paper's super-linear BP result: on one node, 8
   threads strangle the memory channels; spreading them over nodes
   multiplies bandwidth and reduces per-node contention. *)
type channels = { server : Resource.Server.t; mutable streams : int }

type t = {
  engine : Engine.t;
  fabric : Dex_net.Fabric.t;
  config : Core_config.t;
  proto_config : Dex_proto.Proto_config.t;
  cores : Resource.Pool.t array;
  mem : channels array;
  storage : Resource.Server.t;
  rng : Rng.t;
  mutable procs : registration Pids.t;
      (* by pid; pid order is registration order, since pids are handed
         out in increasing order and registered before the next is *)
  mutable next_pid : int;
}

let create ?(config = Core_config.default) ?net
    ?(proto = Dex_proto.Proto_config.default) ?(seed = 42) ~nodes () =
  if nodes <= 0 then invalid_arg "Cluster.create: need at least one node";
  let net =
    match net with Some n -> n | None -> Dex_net.Net_config.default ~nodes ()
  in
  if net.Dex_net.Net_config.nodes <> nodes then
    invalid_arg "Cluster.create: node count mismatch with net config";
  if config.Core_config.mem_contention < 0.0 then
    invalid_arg "Cluster.create: negative memory contention";
  let engine = Engine.create () in
  let fabric = Dex_net.Fabric.create engine net in
  let t =
    {
      engine;
      fabric;
      config;
      proto_config = proto;
      cores =
        Array.init nodes (fun _ ->
            Resource.Pool.create engine ~capacity:config.Core_config.cores_per_node);
      mem =
        Array.init nodes (fun _ ->
            {
              server =
                Resource.Server.create engine
                  ~bytes_per_us:config.Core_config.mem_bw_bytes_per_us;
              streams = 0;
            });
      storage =
        Resource.Server.create engine
          ~bytes_per_us:config.Core_config.storage_bytes_per_us;
      rng = Rng.create ~seed;
      procs = Pids.empty;
      next_pid = 1;
    }
  in
  for node = 0 to nodes - 1 do
    Dex_net.Fabric.set_handler fabric ~node (fun _ env ->
        let msg = env.Dex_net.Fabric.msg in
        match Pids.find_opt msg.Dex_net.Msg.pid t.procs with
        | Some p when p.route env -> ()
        | Some _ | None ->
            failwith
              (Format.asprintf "Cluster: unrouted message %a" Dex_net.Msg.pp
                 msg))
  done;
  Dex_net.Fabric.set_crash_handler fabric (fun node ->
      Pids.iter (fun _ p -> p.on_crash node) t.procs);
  t

let engine t = t.engine
let fabric t = t.fabric
let config t = t.config
let proto_config t = t.proto_config
let nodes t = Dex_net.Fabric.node_count t.fabric
let cores t ~node = t.cores.(node)

let stream_memory t ~node ~bytes =
  let ch = t.mem.(node) in
  ch.streams <- ch.streams + 1;
  let contention = t.config.Core_config.mem_contention in
  let factor = 1.0 +. (contention *. float_of_int (ch.streams - 1)) in
  let inflated = int_of_float (Float.round (float_of_int bytes *. factor)) in
  Fun.protect
    ~finally:(fun () -> ch.streams <- ch.streams - 1)
    (fun () -> Resource.Server.transfer ch.server ~bytes:inflated)

let storage t = t.storage
let rng t = t.rng

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

let add_process t ~pid ~route ~on_crash =
  if Pids.mem pid t.procs then
    invalid_arg
      (Printf.sprintf "Cluster.add_process: pid %d is registered" pid);
  t.procs <- Pids.add pid { route; on_crash } t.procs;
  fun () -> t.procs <- Pids.remove pid t.procs

let crash_node t ~node =
  if node < 0 || node >= nodes t then
    invalid_arg (Printf.sprintf "Cluster.crash_node: bad node %d" node);
  Dex_net.Fabric.crash t.fabric ~node

let node_crashed t ~node = Dex_net.Fabric.crashed t.fabric ~node

let run t = Engine.run_until_quiescent t.engine
let now t = Engine.now t.engine
