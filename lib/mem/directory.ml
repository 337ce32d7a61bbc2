type state = Exclusive of int | Shared of Node_set.t

type event =
  | Grant of {
      requester : int;
      access : Perm.access;
      home : int;
      nodata : bool;
    }
  | Drop of { node : int; dead : bool }
  | Join of int list
  | Restore of state option

type lock = Free | Mine | Theirs
type reclaim = Nobody | Downgrade of int | Invalidate of int
type role = Owner | Reader

type outcome =
  | Refused
  | Deferred
  | Keep
  | Set of state option
  | Dropped of role * state option
  | Plan of {
      reclaim : reclaim;
      revoke : Node_set.t;
      invalidate_home : bool;
      displaced : Node_set.t;
      ships_data : bool;
      next : state option;
    }

let one node = Node_set.add Node_set.empty node

let access st node =
  match st with
  | Exclusive owner when owner = node -> Some Perm.Write
  | Shared readers when Node_set.mem readers node -> Some Perm.Read
  | Exclusive _ | Shared _ -> None

(* §III-B: many readers or one writer. A reader joins the Shared set; a
   writer's grant takes every other copy back first. *)
let grant st ~requester ~access:want ~home ~nodata =
  let none = Node_set.empty in
  let reclaim, revoke, invalidate_home, next =
    match (want, st) with
    | _, Exclusive owner when owner = requester -> (Nobody, none, false, None)
    | Perm.Read, Exclusive owner ->
        (* The home mediates the transfer, so it keeps a valid copy too. *)
        let readers = Node_set.add (Node_set.add (one owner) home) requester in
        (Downgrade owner, none, false, Some (Shared readers))
    | Perm.Read, Shared readers ->
        let readers = Node_set.add readers requester in
        (Nobody, none, false, Some (Shared readers))
    | Perm.Write, Exclusive owner ->
        (Invalidate owner, none, false, Some (Exclusive requester))
    | Perm.Write, Shared readers ->
        ( Nobody,
          Node_set.remove (Node_set.remove readers requester) home,
          requester <> home && Node_set.mem readers home,
          Some (Exclusive requester) )
  in
  let displaced =
    match reclaim with
    | Invalidate owner -> one owner
    | Nobody | Downgrade _ -> revoke
  in
  let ships_data =
    requester <> home && not (nodata && Option.is_some (access st requester))
  in
  Plan { reclaim; revoke; invalidate_home; displaced; ships_data; next }

(* A dead node's page falls back to the origin's copy and stays tracked; a
   live node's demoted copy leaves the page untracked. *)
let drop ~origin st ~node ~dead =
  let fallback = if dead then Some (Exclusive origin) else None in
  match st with
  | Exclusive owner when owner = node -> Dropped (Owner, fallback)
  | Shared readers when Node_set.mem readers node ->
      let rest = Node_set.remove readers node in
      Dropped
        (Reader, if Node_set.is_empty rest then fallback else Some (Shared rest))
  | Exclusive _ | Shared _ -> Keep

(* A busy entry changes only through its holder: a grant by anyone else
   is refused, and every other change waits for the holder's unlock —
   except a dead node's drop, which every holder's install filters out
   anyway. *)
let rule ~origin ~tracked st lock event =
  match (lock, event) with
  | (Free | Theirs), Grant _ -> Refused
  | Mine, Grant { requester; access; home; nodata } ->
      grant st ~requester ~access ~home ~nodata
  | Theirs, (Drop { dead = false; _ } | Join _ | Restore _) -> Deferred
  | _, Drop { node; dead } ->
      if tracked then drop ~origin st ~node ~dead else Keep
  | _, Join nodes -> (
      match st with
      | Shared readers ->
          Set (Some (Shared (List.fold_left Node_set.add readers nodes)))
      | Exclusive _ -> Keep)
  | _, Restore (Some (Shared readers)) when Node_set.is_empty readers ->
      invalid_arg "Directory: empty reader set"
  | _, Restore next -> Set next

let step ~origin entry lock event =
  match entry with
  | Some st -> rule ~origin ~tracked:true st lock event
  | None -> rule ~origin ~tracked:false (Exclusive origin) lock event

type entry = {
  page : Page.vpn;
  mutable state : state;
  mutable busy : bool;
  mutable deferred : event list;  (* newest first *)
}

type holder = entry

type t = {
  origin : int;
  pages : entry Radix_tree.t;
  mutable observer : (Page.vpn -> state option -> unit) option;
}

let create ~origin = { origin; pages = Radix_tree.create (); observer = None }
let set_observer t obs = t.observer <- obs
let observer t = t.observer

let entry t p =
  match Radix_tree.find t.pages p with
  | Some e -> e
  | None ->
      let e =
        { page = p; state = Exclusive t.origin; busy = false; deferred = [] }
      in
      Radix_tree.set t.pages p e;
      e

let state t p =
  match Radix_tree.find t.pages p with
  | Some e -> e.state
  | None -> Exclusive t.origin

let is_tracked t p = Radix_tree.mem t.pages p
let has_valid_copy t p node = Option.is_some (access (state t p) node)

let write t p next =
  (match next with
  | Some st -> (entry t p).state <- st
  | None -> Radix_tree.remove t.pages p);
  match t.observer with None -> () | Some f -> f p next

let set_exclusive t p node = write t p (Some (Exclusive node))

let apply t ?holder p event =
  let found = Radix_tree.find t.pages p in
  let outcome =
    match (found, holder) with
    | Some e, Some h when e.busy && e == h ->
        rule ~origin:t.origin ~tracked:true e.state Mine event
    | Some e, _ ->
        let lock = if e.busy then Theirs else Free in
        rule ~origin:t.origin ~tracked:true e.state lock event
    | None, _ ->
        rule ~origin:t.origin ~tracked:false (Exclusive t.origin) Free event
  in
  (match (outcome, found) with
  | (Set next | Dropped (_, next)), _ -> write t p next
  | Deferred, Some e -> e.deferred <- event :: e.deferred
  | (Refused | Deferred | Keep | Plan _), _ -> ());
  outcome

(* The holder is the option the table stores, so locking allocates
   nothing. *)
let try_lock t p =
  let e = entry t p in
  if e.busy then None
  else begin
    e.busy <- true;
    Radix_tree.find t.pages p
  end

(* A holder that untracked its own page holds an entry no longer in the
   table; what was queued on it goes with it. *)
let unlock t e =
  if not e.busy then invalid_arg "Directory.unlock: page not locked";
  (match Radix_tree.find t.pages e.page with
  | Some tracked when tracked == e ->
      List.iter
        (fun ev -> ignore (apply t ~holder:e e.page ev))
        (List.rev e.deferred)
  | Some _ | None -> ());
  e.deferred <- [];
  e.busy <- false

let locked t p =
  match Radix_tree.find t.pages p with Some e -> e.busy | None -> false

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
