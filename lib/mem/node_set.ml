type t = int

let check n =
  if n < 0 || n > 62 then invalid_arg "Node_set: node id out of range"

let empty = 0

let add t n =
  check n;
  t lor (1 lsl n)

let remove t n =
  check n;
  t land lnot (1 lsl n)

let mem t n =
  check n;
  t land (1 lsl n) <> 0

let is_empty t = t = 0

let cardinal t =
  let rec go t acc = if t = 0 then acc else go (t lsr 1) (acc + (t land 1)) in
  go t 0

let to_list t =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (if mem t i then i :: acc else acc)
  in
  go 62 []

let of_list l = List.fold_left add empty l
