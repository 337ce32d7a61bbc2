(* Keys in [0, 2^36), split into a prefix ([key lsr bits]) and a slot in
   the prefix's 512-slot leaf. Only leaves exist: a hash table maps each
   prefix that ever held a key to its leaf. *)

let bits = 9
let fanout = 1 lsl bits
let max_key = (1 lsl 36) - 1

(* Prefixes of far-apart regions (text, heap, mmap, stacks) share
   their low bits; a multiplicative hash spreads them over the buckets.
   Prefixes are below 2^27, so the product's bits from 30 up depend on
   every bit of the prefix. *)
module Leaves = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = (p * 0x2545_F491_4F6C_DD1D) lsr 30
end)

type 'a t = {
  leaves : 'a option array Leaves.t;
  mutable length : int;
  mutable last_prefix : int;
  mutable last_leaf : 'a option array;
      (* The leaf that holds the keys [last_prefix lsl bits ..] ([-1] and
         [[||]] before the first lookup). Leaves are never freed, so the
         cached one stays the tree's. *)
}

let create () =
  { leaves = Leaves.create 1; length = 0; last_prefix = -1; last_leaf = [||] }

let check_key key name =
  if key < 0 || key > max_key then
    invalid_arg (Printf.sprintf "Radix_tree.%s: key %d out of range" name key)

let slot key = key land (fanout - 1)

(* The leaf holding [key], or [[||]] when there is none. [Leaves.find]
   raises the preallocated [Not_found], so a miss allocates nothing. *)
let leaf t key =
  let prefix = key lsr bits in
  if prefix = t.last_prefix then t.last_leaf
  else
    match Leaves.find t.leaves prefix with
    | cells ->
        t.last_prefix <- prefix;
        t.last_leaf <- cells;
        cells
    | exception Not_found -> [||]

let find t key =
  check_key key "find";
  let cells = leaf t key in
  if Array.length cells = 0 then None else cells.(slot key)

let mem t key = Option.is_some (find t key)

let set t key v =
  check_key key "set";
  let cells =
    match leaf t key with
    | [||] ->
        let prefix = key lsr bits in
        let cells = Array.make fanout None in
        Leaves.add t.leaves prefix cells;
        t.last_prefix <- prefix;
        t.last_leaf <- cells;
        cells
    | cells -> cells
  in
  let s = slot key in
  if Option.is_none cells.(s) then t.length <- t.length + 1;
  cells.(s) <- Some v

let remove t key =
  check_key key "remove";
  let cells = leaf t key in
  if Array.length cells > 0 then begin
    let s = slot key in
    if Option.is_some cells.(s) then t.length <- t.length - 1;
    cells.(s) <- None
  end

let length t = t.length

(* Sorting the prefixes per call is fine: only crash reclaim, range zaps,
   snapshots and invariant checks iterate. *)
let iter t f =
  Leaves.fold (fun prefix cells acc -> (prefix, cells) :: acc) t.leaves []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (prefix, cells) ->
         for s = 0 to fanout - 1 do
           match cells.(s) with
           | None -> ()
           | Some v -> f ((prefix lsl bits) lor s) v
         done)

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f k v !acc);
  !acc
