open Dex_sim

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
  mutable procs : registration list;  (* in registration order *)
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
      procs = [];
      next_pid = 1;
    }
  in
  for node = 0 to nodes - 1 do
    Dex_net.Fabric.set_handler fabric ~node (fun _ env ->
        let rec route = function
          | [] ->
              failwith
                (Format.asprintf "Cluster: unrouted message %a" Dex_net.Msg.pp
                   env.Dex_net.Fabric.msg)
          | p :: rest -> if p.route env then () else route rest
        in
        route t.procs)
  done;
  Dex_net.Fabric.set_crash_handler fabric (fun node ->
      List.iter (fun p -> p.on_crash node) t.procs);
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

let add_process t ~route ~on_crash =
  let reg = { route; on_crash } in
  t.procs <- t.procs @ [ reg ];
  fun () -> t.procs <- List.filter (fun p -> p != reg) t.procs

let crash_node t ~node =
  if node < 0 || node >= nodes t then
    invalid_arg (Printf.sprintf "Cluster.crash_node: bad node %d" node);
  Dex_net.Fabric.crash t.fabric ~node

let node_crashed t ~node = Dex_net.Fabric.crashed t.fabric ~node

let run t = Engine.run_until_quiescent t.engine
let now t = Engine.now t.engine
