type t = { start : Page.addr; len : int; perm : Perm.t; tag : string }

let make ~start ~len ~perm ~tag =
  if not (Page.is_aligned start) then invalid_arg "Vma.make: unaligned start";
  if len <= 0 || not (Page.is_aligned len) then
    invalid_arg "Vma.make: len must be a positive page multiple";
  { start; len; perm; tag }

let end_ t = t.start + t.len
let contains t addr = addr >= t.start && addr < end_ t

let overlaps t ~start ~len =
  let e = start + len in
  start < end_ t && e > t.start
