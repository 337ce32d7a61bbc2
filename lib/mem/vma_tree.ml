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

let add t vma = t.map <- M.add vma.Vma.start vma t.map

let insert t vma =
  if overlapping t ~start:vma.Vma.start ~len:vma.Vma.len <> [] then
    invalid_arg "Vma_tree.insert: overlapping VMA";
  t.last <- None;
  add t vma

type change =
  | Map of Vma.t
  | Unmap of { start : Page.addr; len : int }
  | Protect of { start : Page.addr; len : int; perm : Perm.t }

(* Cut [start, start+len) out of every VMA it overlaps, keeping the parts
   outside; [perm] puts the cut parts back with that permission. *)
let rewrite t ~start ~len perm =
  if not (Page.is_aligned start) || len <= 0 || not (Page.is_aligned len) then
    invalid_arg "Vma_tree.apply: range must be page-aligned";
  t.last <- None;
  let stop = start + len in
  List.iter
    (fun vma ->
      let s = vma.Vma.start and e = Vma.end_ vma in
      t.map <- M.remove s t.map;
      if s < start then add t { vma with Vma.len = start - s };
      if e > stop then add t { vma with Vma.start = stop; len = e - stop };
      Option.iter
        (fun perm ->
          let s = max s start in
          add t { vma with Vma.start = s; len = min e stop - s; perm })
        perm)
    (overlapping t ~start ~len)

let apply t = function
  | Map vma ->
      rewrite t ~start:vma.Vma.start ~len:vma.Vma.len None;
      add t vma
  | Unmap { start; len } -> rewrite t ~start ~len None
  | Protect { start; len; perm } -> rewrite t ~start ~len (Some perm)

let narrows t = function
  | Map _ -> false
  | Unmap _ -> true
  | Protect { start; len; perm } ->
      List.exists
        (fun { Vma.perm = old; _ } ->
          (old.Perm.read && not perm.Perm.read)
          || (old.Perm.write && not perm.Perm.write))
        (overlapping t ~start ~len)

let iter t f = M.iter (fun _ vma -> f vma) t.map
let to_list t = M.fold (fun _ vma acc -> vma :: acc) t.map [] |> List.rev
let count t = M.cardinal t.map

let check_invariants t =
  let prev_end = ref min_int in
  iter t (fun vma ->
      if vma.Vma.start < !prev_end then
        failwith "Vma_tree: overlapping VMAs";
      prev_end := Vma.end_ vma)
