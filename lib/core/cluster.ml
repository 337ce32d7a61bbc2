open Dex_sim
module Pids = Map.Make (Int)

type registration = {
  route : Dex_net.Fabric.env -> bool;
  on_crash : int -> unit;
}

type t = {
  engine : Engine.t;
  fabric : Dex_net.Fabric.t;
  config : Core_config.t;
  proto_config : Dex_proto.Proto_config.t;
  cores : Resource.Pool.t array;
  membw : Membw.t array;
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
      membw =
        Array.init nodes (fun _ ->
            Membw.create engine
              ~bytes_per_us:config.Core_config.mem_bw_bytes_per_us
              ~contention:config.Core_config.mem_contention);
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
let membw t ~node = t.membw.(node)
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
