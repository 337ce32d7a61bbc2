(* Four levels of 9 bits: keys in [0, 2^36). *)

let bits = 9
let fanout = 1 lsl bits
let levels = 4
let max_key = (1 lsl (bits * levels)) - 1

type 'a node = Interior of 'a node option array | Leaf of 'a option array

type 'a t = {
  root : 'a node;
  mutable length : int;
  mutable last_prefix : int;
  mutable last_leaf : 'a option array;
      (* The leaf that holds the keys [last_prefix lsl bits ..] ([-1] and
         [[||]] before the first lookup). Leaves are never freed, so the
         cached one stays the tree's. *)
}

let new_interior () = Interior (Array.make fanout None)
let new_leaf () = Leaf (Array.make fanout None)

let create () =
  { root = new_interior (); length = 0; last_prefix = -1; last_leaf = [||] }

let check_key key name =
  if key < 0 || key > max_key then
    invalid_arg (Printf.sprintf "Radix_tree.%s: key %d out of range" name key)

let slot key level = (key lsr (bits * level)) land (fanout - 1)

(* The leaf holding [key], or [[||]] when there is none. Top-level rather
   than a closure over [key]: a lookup allocates nothing. *)
let rec leaf_in node key level =
  match node with
  | Leaf cells -> cells
  | Interior children -> (
      match children.(slot key level) with
      | None -> [||]
      | Some child -> leaf_in child key (level - 1))

(* The leaf holding [key], creating the path to it. *)
let rec leaf_create node key level =
  match node with
  | Leaf cells -> cells
  | Interior children ->
      let s = slot key level in
      let child =
        match children.(s) with
        | Some c -> c
        | None ->
            let c = if level = 1 then new_leaf () else new_interior () in
            children.(s) <- Some c;
            c
      in
      leaf_create child key (level - 1)

let cache t key cells =
  if Array.length cells > 0 then begin
    t.last_prefix <- key lsr bits;
    t.last_leaf <- cells
  end;
  cells

let leaf t key =
  if key lsr bits = t.last_prefix then t.last_leaf
  else cache t key (leaf_in t.root key (levels - 1))

let find t key =
  check_key key "find";
  let cells = leaf t key in
  if Array.length cells = 0 then None else cells.(slot key 0)

let mem t key = Option.is_some (find t key)

let set t key v =
  check_key key "set";
  let cells =
    if key lsr bits = t.last_prefix then t.last_leaf
    else cache t key (leaf_create t.root key (levels - 1))
  in
  let s = slot key 0 in
  if Option.is_none cells.(s) then t.length <- t.length + 1;
  cells.(s) <- Some v

let remove t key =
  check_key key "remove";
  let cells = leaf t key in
  if Array.length cells > 0 then begin
    let s = slot key 0 in
    if Option.is_some cells.(s) then t.length <- t.length - 1;
    cells.(s) <- None
  end

let update t key ~default f =
  let v = match find t key with Some v -> f v | None -> f (default ()) in
  set t key v;
  v

let length t = t.length

let iter t f =
  let rec go node level prefix =
    match node with
    | Leaf cells ->
        for s = 0 to fanout - 1 do
          match cells.(s) with
          | None -> ()
          | Some v -> f ((prefix lsl bits) lor s) v
        done
    | Interior children ->
        for s = 0 to fanout - 1 do
          match children.(s) with
          | None -> ()
          | Some child -> go child (level - 1) ((prefix lsl bits) lor s)
        done
  in
  go t.root (levels - 1) 0

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f k v !acc);
  !acc
