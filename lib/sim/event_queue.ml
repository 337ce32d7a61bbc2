type entry = { time : Time_ns.t; seq : int; thunk : unit -> unit }

type t = { mutable heap : entry array; mutable size : int }

let dummy = { time = 0; seq = 0; thunk = ignore }

let create () = { heap = Array.make 64 dummy; size = 0 }

let is_empty t = t.size = 0
let length t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let heap = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let push t ~time ~seq thunk =
  if t.size = Array.length t.heap then grow t;
  let e = { time; seq; thunk } in
  (* Sift the new entry up from the last leaf. *)
  let rec up i =
    if i = 0 then t.heap.(0) <- e
    else
      let parent = (i - 1) / 2 in
      if before e t.heap.(parent) then begin
        t.heap.(i) <- t.heap.(parent);
        up parent
      end
      else t.heap.(i) <- e
  in
  up t.size;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then None
  else begin
    let root = t.heap.(0) in
    t.size <- t.size - 1;
    let last = t.heap.(t.size) in
    t.heap.(t.size) <- dummy;
    if t.size > 0 then begin
      (* Sift [last] down from the root. *)
      let rec down i =
        let l = (2 * i) + 1 and r = (2 * i) + 2 in
        let smallest =
          if l < t.size && before t.heap.(l) last then l else i
        in
        let smallest =
          if
            r < t.size
            && before t.heap.(r)
                 (if smallest = i then last else t.heap.(smallest))
          then r
          else smallest
        in
        if smallest = i then t.heap.(i) <- last
        else begin
          t.heap.(i) <- t.heap.(smallest);
          down smallest
        end
      in
      down 0
    end;
    Some (root.time, root.thunk)
  end

let min_time t = if t.size = 0 then max_int else t.heap.(0).time
