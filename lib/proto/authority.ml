open Dex_mem

type route = { node : int; dir : Directory.t; shard : int option }
type view = { mutable home : int; mutable epoch : int }

(* [target] is the node the autopilot re-homed the page to, never its
   static home; [pinned] holds the page at that home. A page with neither
   has no record. *)
type override = { target : int option; pinned : bool }

type t = {
  sharding : [ `Hash of int | `Range of int ];
  shards : route array;  (* shard -> its home and directory *)
  mutable epoch : int;  (* shard 0's generation; bumped by promote *)
  views : view array;  (* node -> that node's view of shard 0's home *)
  overlays : route array;  (* node -> directory of the pages re-homed to it *)
  overrides : (Page.vpn, override) Hashtbl.t;
}

let route_to node shard = { node; dir = Directory.create ~origin:node; shard }

let create ~sharding ~origin ~nodes =
  let n = match sharding with `Hash n | `Range n -> n in
  if n < 1 then invalid_arg "Authority.create: shard count must be >= 1";
  let home s = (origin + s) mod nodes in
  {
    sharding;
    shards = Array.init n (fun s -> route_to (home s) (Some s));
    epoch = 0;
    views = Array.init nodes (fun _ -> { home = origin; epoch = 0 });
    overlays = Array.init nodes (fun node -> route_to node None);
    overrides = Hashtbl.create 16;
  }

let shard_count a = Array.length a.shards

let shard_of a vpn =
  match a.sharding with `Hash n -> vpn mod n | `Range n -> vpn / 64 mod n

let home a ~shard = a.shards.(shard).node
let home_of a vpn = a.shards.(shard_of a vpn).node
let epoch a = a.epoch
let directory a ~shard = a.shards.(shard).dir
let view a ~node = a.views.(node)

let homed_at a node =
  List.filter
    (fun shard -> home a ~shard = node)
    (List.init (shard_count a) Fun.id)

let iter_dirs a f =
  Array.iter f a.shards;
  Array.iter f a.overlays

let no_override = { target = None; pinned = false }

(* No run of the paper's workloads re-homes or pins a page: while none is,
   every lookup answers without hashing. *)
let override a vpn =
  if Hashtbl.length a.overrides = 0 then no_override
  else try Hashtbl.find a.overrides vpn with Not_found -> no_override

let set_override a vpn o =
  if o.target = None && not o.pinned then Hashtbl.remove a.overrides vpn
  else Hashtbl.replace a.overrides vpn o

let route a vpn =
  match (override a vpn).target with
  | Some node -> a.overlays.(node)
  | None -> a.shards.(shard_of a vpn)

let pinned a vpn = (override a vpn).pinned
let pin a vpn = set_override a vpn { (override a vpn) with pinned = true }

let move a vpn ~from ~node state =
  ignore (Directory.apply from vpn (Restore None));
  let target = if node = home_of a vpn then None else Some node in
  set_override a vpn { (override a vpn) with target };
  ignore (Directory.apply (route a vpn).dir vpn (Restore (Some state)))

let forget a vpn =
  ignore (Directory.apply (route a vpn).dir vpn (Restore None));
  Hashtbl.remove a.overrides vpn

let rehomed_pages a =
  Hashtbl.fold
    (fun vpn o acc ->
      match o.target with Some n -> (vpn, n) :: acc | None -> acc)
    a.overrides []
  |> List.sort compare

let fall_back a ~node =
  let victims =
    List.filter_map
      (fun (vpn, n) -> if n = node then Some vpn else None)
      (rehomed_pages a)
  in
  (* The dead target's overlay is unreachable hardware now, busy flags
     included: zombie grant fibers unwind against the discarded object. *)
  a.overlays.(node) <- route_to node None;
  List.iter
    (fun vpn -> set_override a vpn { (override a vpn) with target = None })
    victims;
  victims

let promote a ~home dir =
  a.shards.(0) <- { node = home; dir; shard = Some 0 };
  a.epoch <- a.epoch + 1;
  let v = a.views.(home) in
  v.home <- home;
  v.epoch <- a.epoch

let entries_naming a ~node =
  let n = ref 0 in
  iter_dirs a (fun { dir; _ } ->
      Directory.iter dir (fun vpn _ ->
          if Directory.has_valid_copy dir vpn node then incr n));
  !n
