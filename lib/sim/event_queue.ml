(* A binary min-heap over three parallel int arrays: heap position [i]
   holds the [i]-th entry's time, sequence number and pool slot, so a sift
   moves integers only and never runs the write barrier. An entry's thunk
   is written once into [pool] at its slot by [push], and read and cleared
   by [take]. [slots] is a permutation of the pool's slots: positions
   below [size] name the entries' slots, and the free slots sit above, a
   stack whose top is position [size]. No entry costs an allocation of its
   own. *)
type t = {
  mutable times : Time_ns.t array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pool : (unit -> unit) array;
  mutable size : int;
}

let create () =
  {
    times = Array.make 64 0;
    seqs = Array.make 64 0;
    slots = Array.init 64 Fun.id;
    pool = Array.make 64 ignore;
    size = 0;
  }

let is_empty t = t.size = 0
let length t = t.size

(* Called when full: every slot is in use, so the new slots are the free
   stack. *)
let grow t =
  let cap = Array.length t.times in
  let extend a b =
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times (Array.make (2 * cap) 0);
  t.seqs <- extend t.seqs (Array.make (2 * cap) 0);
  t.slots <- extend t.slots (Array.init (2 * cap) Fun.id);
  t.pool <- extend t.pool (Array.make (2 * cap) ignore)

(* Sift an entry up from the hole at position [i]. Top-level rather than
   a closure over the entry, so a push allocates nothing. Both sifts take
   the three arrays rather than [t], which keeps them in registers across
   the levels, and store in place rather than through a helper, which the
   compiler would not inline. *)
let rec sift_up (times : Time_ns.t array) (seqs : int array)
    (slots : int array) i time seq slot =
  let parent = (i - 1) lsr 1 in
  if
    i > 0
    && (time < times.(parent)
       || (time = times.(parent) && seq < seqs.(parent)))
  then begin
    times.(i) <- times.(parent);
    seqs.(i) <- seqs.(parent);
    slots.(i) <- slots.(parent);
    sift_up times seqs slots parent time seq slot
  end
  else begin
    times.(i) <- time;
    seqs.(i) <- seq;
    slots.(i) <- slot
  end

(* Sift an entry down from the hole at position [i] within the first [n]
   positions. *)
let rec sift_down (times : Time_ns.t array) (seqs : int array)
    (slots : int array) n i time seq slot =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < n
       && (times.(l + 1) < times.(l)
          || (times.(l + 1) = times.(l) && seqs.(l + 1) < seqs.(l)))
    then l + 1
    else l
  in
  if c < n && (times.(c) < time || (times.(c) = time && seqs.(c) < seq))
  then begin
    times.(i) <- times.(c);
    seqs.(i) <- seqs.(c);
    slots.(i) <- slots.(c);
    sift_down times seqs slots n c time seq slot
  end
  else begin
    times.(i) <- time;
    seqs.(i) <- seq;
    slots.(i) <- slot
  end

let push t ~time ~seq thunk =
  if t.size = Array.length t.times then grow t;
  let slot = t.slots.(t.size) in
  t.pool.(slot) <- thunk;
  sift_up t.times t.seqs t.slots t.size time seq slot;
  t.size <- t.size + 1

let min_time t = if t.size = 0 then max_int else t.times.(0)

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let slot = t.slots.(0) in
  let thunk = t.pool.(slot) in
  t.pool.(slot) <- ignore;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down t.times t.seqs t.slots last 0 t.times.(last) t.seqs.(last)
      t.slots.(last);
  t.slots.(last) <- slot;
  thunk

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, take t)

let min_seq t =
  if t.size = 0 then invalid_arg "Event_queue.min_seq: empty queue";
  t.seqs.(0)
