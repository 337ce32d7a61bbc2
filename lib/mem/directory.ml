type state = Exclusive of int | Shared of Node_set.t

type entry = { mutable state : state; mutable busy : bool }

type t = {
  origin : int;
  pages : entry Radix_tree.t;
  mutable observer : (Page.vpn -> state option -> unit) option;
}

let create ~origin = { origin; pages = Radix_tree.create (); observer = None }

let set_observer t obs = t.observer <- obs

let observer t = t.observer

let notify t p st =
  match t.observer with None -> () | Some f -> f p st

let entry t p =
  match Radix_tree.find t.pages p with
  | Some e -> e
  | None ->
      let e = { state = Exclusive t.origin; busy = false } in
      Radix_tree.set t.pages p e;
      e

let state t p =
  match Radix_tree.find t.pages p with
  | Some e -> e.state
  | None -> Exclusive t.origin

let is_tracked t p = Radix_tree.mem t.pages p

let set_exclusive t p node =
  (entry t p).state <- Exclusive node;
  notify t p (Some (Exclusive node))

let set_shared t p readers =
  if Node_set.is_empty readers then
    invalid_arg "Directory.set_shared: empty reader set";
  (entry t p).state <- Shared readers;
  notify t p (Some (Shared readers))

let add_reader t p node =
  let e = entry t p in
  match e.state with
  | Shared readers ->
      let readers = Node_set.add readers node in
      e.state <- Shared readers;
      notify t p (Some (Shared readers))
  | Exclusive owner when owner = node -> ()
  | Exclusive _ ->
      invalid_arg "Directory.add_reader: page exclusively owned elsewhere"

let drop_node t p node =
  match state t p with
  | Exclusive owner when owner = node ->
      set_exclusive t p t.origin;
      `Owner
  | Shared readers when Node_set.mem readers node ->
      let rest = Node_set.remove readers node in
      if Node_set.is_empty rest then set_exclusive t p t.origin
      else set_shared t p rest;
      `Reader
  | Exclusive _ | Shared _ -> `Absent

let has_valid_copy t p node =
  match state t p with
  | Exclusive owner -> owner = node
  | Shared readers -> Node_set.mem readers node

let try_lock t p =
  let e = entry t p in
  if e.busy then false
  else begin
    e.busy <- true;
    true
  end

let unlock t p =
  let e = entry t p in
  if not e.busy then invalid_arg "Directory.unlock: page not locked";
  e.busy <- false

let locked t p =
  match Radix_tree.find t.pages p with Some e -> e.busy | None -> false

let forget t p =
  Radix_tree.remove t.pages p;
  notify t p None

let tracked_pages t = Radix_tree.length t.pages

let iter t f = Radix_tree.iter t.pages (fun p e -> f p e.state)

let snapshot t =
  let acc = ref [] in
  iter t (fun p st -> acc := (p, st) :: !acc);
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let check_invariants t =
  iter t (fun p -> function
    | Exclusive node ->
        if node < 0 then
          failwith (Printf.sprintf "Directory: bad exclusive owner on %d" p)
    | Shared readers ->
        if Node_set.is_empty readers then
          failwith (Printf.sprintf "Directory: empty reader set on page %d" p))
