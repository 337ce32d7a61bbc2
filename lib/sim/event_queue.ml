(* A binary min-heap over three parallel arrays, so an event costs no
   allocation of its own: slot [i] holds the [i]-th heap entry's time,
   sequence number and thunk. *)
type t = {
  mutable times : Time_ns.t array;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable size : int;
}

let create () =
  {
    times = Array.make 64 0;
    seqs = Array.make 64 0;
    thunks = Array.make 64 ignore;
    size = 0;
  }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let n = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.thunks <- extend t.thunks ignore

let set t i time seq thunk =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.thunks.(i) <- thunk

let move t ~src ~dst = set t dst t.times.(src) t.seqs.(src) t.thunks.(src)

(* Whether the key (time, seq) fires before the entry in slot [i]. *)
let key_before t time seq i =
  let ti = t.times.(i) in
  time < ti || (time = ti && seq < t.seqs.(i))

(* Whether the entry in slot [i] fires before the key (time, seq). *)
let slot_before t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

(* Sift an entry up from the hole at slot [i]. Top-level rather than a
   closure over the entry, so a push allocates nothing. *)
let rec sift_up t i time seq thunk =
  if i = 0 then set t 0 time seq thunk
  else
    let parent = (i - 1) / 2 in
    if key_before t time seq parent then begin
      move t ~src:parent ~dst:i;
      sift_up t parent time seq thunk
    end
    else set t i time seq thunk

(* Sift an entry down from the hole at slot [i] within the first [n]
   slots. *)
let rec sift_down t n i time seq thunk =
  let l = (2 * i) + 1 in
  if l >= n then set t i time seq thunk
  else
    let r = l + 1 in
    let c = if r < n && slot_before t r t.times.(l) t.seqs.(l) then r else l in
    if slot_before t c time seq then begin
      move t ~src:c ~dst:i;
      sift_down t n c time seq thunk
    end
    else set t i time seq thunk

let push t ~time ~seq thunk =
  if t.size = Array.length t.times then grow t;
  sift_up t t.size time seq thunk;
  t.size <- t.size + 1

let min_time t = if t.size = 0 then max_int else t.times.(0)

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let thunk = t.thunks.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down t last 0 t.times.(last) t.seqs.(last) t.thunks.(last);
  t.thunks.(last) <- ignore;
  thunk

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, take t)

let min_seq t =
  if t.size = 0 then invalid_arg "Event_queue.min_seq: empty queue";
  t.seqs.(0)
