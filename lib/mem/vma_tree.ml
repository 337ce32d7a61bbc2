module M = Map.Make (Int)

type t = {
  mutable map : Vma.t M.t;
  mutable last : Vma.t option;
      (* The last VMA [find] returned, as the very option it returned, so a
         repeat hit allocates nothing. Every change to [map] clears it. *)
}

let create () = { map = M.empty; last = None }

let find t addr =
  match t.last with
  | Some vma as hit when Vma.contains vma addr -> hit
  | _ -> (
      match M.find_last_opt (fun start -> start <= addr) t.map with
      | Some (_, vma) when Vma.contains vma addr ->
          let hit = Some vma in
          t.last <- hit;
          hit
      | _ -> None)

let overlapping t ~start ~len =
  (* Candidates: the VMA starting at or before [start] plus every VMA
     starting inside the range. *)
  let first =
    match M.find_last_opt (fun s -> s <= start) t.map with
    | Some (_, vma) when Vma.overlaps vma ~start ~len -> [ vma ]
    | _ -> []
  in
  let rest =
    M.fold
      (fun s vma acc ->
        if s > start && s < start + len then vma :: acc else acc)
      t.map []
  in
  first @ List.rev rest

let insert t vma =
  if overlapping t ~start:vma.Vma.start ~len:vma.Vma.len <> [] then
    invalid_arg "Vma_tree.insert: overlapping VMA";
  t.last <- None;
  t.map <- M.add vma.Vma.start vma t.map

let check_aligned_range start len name =
  if not (Page.is_aligned start) || len <= 0 || not (Page.is_aligned len) then
    invalid_arg ("Vma_tree." ^ name ^ ": range must be page-aligned")

(* Split [vma] against [start, start+len): returns
   (left fragment outside, middle inside, right fragment outside). *)
let split vma ~start ~len =
  let s = max vma.Vma.start start in
  let e = min (Vma.end_ vma) (start + len) in
  let left =
    if vma.Vma.start < s then
      Some { vma with Vma.len = s - vma.Vma.start }
    else None
  in
  let middle = { vma with Vma.start = s; len = e - s } in
  let right =
    if Vma.end_ vma > e then
      Some { vma with Vma.start = e; len = Vma.end_ vma - e }
    else None
  in
  (left, middle, right)

let remove_range t ~start ~len =
  check_aligned_range start len "remove_range";
  t.last <- None;
  let victims = overlapping t ~start ~len in
  let removed =
    List.map
      (fun vma ->
        t.map <- M.remove vma.Vma.start t.map;
        let left, middle, right = split vma ~start ~len in
        Option.iter (fun v -> t.map <- M.add v.Vma.start v t.map) left;
        Option.iter (fun v -> t.map <- M.add v.Vma.start v t.map) right;
        middle)
      victims
  in
  removed

let protect_range t ~start ~len ~perm =
  check_aligned_range start len "protect_range";
  t.last <- None;
  let victims = overlapping t ~start ~len in
  List.map
    (fun vma ->
      t.map <- M.remove vma.Vma.start t.map;
      let left, middle, right = split vma ~start ~len in
      let middle = { middle with Vma.perm = perm } in
      Option.iter (fun v -> t.map <- M.add v.Vma.start v t.map) left;
      Option.iter (fun v -> t.map <- M.add v.Vma.start v t.map) right;
      t.map <- M.add middle.Vma.start middle t.map;
      middle)
    victims

let iter t f = M.iter (fun _ vma -> f vma) t.map
let to_list t = M.fold (fun _ vma acc -> vma :: acc) t.map [] |> List.rev
let count t = M.cardinal t.map

let check_invariants t =
  let prev_end = ref min_int in
  iter t (fun vma ->
      if vma.Vma.start < !prev_end then
        failwith "Vma_tree: overlapping VMAs";
      prev_end := Vma.end_ vma)
