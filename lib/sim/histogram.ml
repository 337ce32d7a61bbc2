type t = { mutable data : int array; mutable size : int }

let create () = { data = Array.make 16 0; size = 0 }

let add t v =
  if t.size = Array.length t.data then begin
    let data = Array.make (2 * t.size) 0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- v;
  t.size <- t.size + 1

let count t = t.size

let mean t =
  if t.size = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.size - 1 do
      sum := !sum +. float_of_int t.data.(i)
    done;
    !sum /. float_of_int t.size
  end

let check_nonempty t name =
  if t.size = 0 then invalid_arg ("Histogram." ^ name ^ ": empty")

let min_value t =
  check_nonempty t "min_value";
  let m = ref t.data.(0) in
  for i = 1 to t.size - 1 do
    if t.data.(i) < !m then m := t.data.(i)
  done;
  !m

let max_value t =
  check_nonempty t "max_value";
  let m = ref t.data.(0) in
  for i = 1 to t.size - 1 do
    if t.data.(i) > !m then m := t.data.(i)
  done;
  !m

(* Rearrange [a.(lo..hi)] around the pivot [a.(mid)] with Hoare's scheme:
   on return [a.(lo..j) <= pivot <= a.(i..hi)] with [j < i]. *)
let partition (a : int array) lo hi =
  let pivot = a.(lo + ((hi - lo) / 2)) in
  let i = ref lo and j = ref hi in
  while !i <= !j do
    while a.(!i) < pivot do incr i done;
    while a.(!j) > pivot do decr j done;
    if !i <= !j then begin
      let x = a.(!i) in
      a.(!i) <- a.(!j);
      a.(!j) <- x;
      incr i;
      decr j
    end
  done;
  (!i, !j)

(* The [rank]-th smallest element of [a] (0-based), rearranging [a]:
   quickselect, in expected linear time. After [fuel] rounds (a bad run of
   pivots) it sorts what is left. *)
let select (a : int array) rank =
  let rec go lo hi fuel =
    if lo >= hi then a.(rank)
    else if fuel = 0 then begin
      let rest = Array.sub a lo (hi - lo + 1) in
      Array.sort Int.compare rest;
      rest.(rank - lo)
    end
    else
      let i, j = partition a lo hi in
      if rank <= j then go lo j (fuel - 1)
      else if rank >= i then go i hi (fuel - 1)
      else a.(rank)
  in
  go 0 (Array.length a - 1) 64

let percentile t p =
  check_nonempty t "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: out of range";
  (* Classic nearest-rank definition: smallest value with at least p% of the
     samples at or below it. The epsilon absorbs binary-fraction noise at
     exact rank boundaries — e.g. 99.9/100*1000 evaluates to 999.0000...01,
     and a bare ceil would skip from the 999th sample to the 1000th. *)
  let rank =
    max 0
      (int_of_float (ceil ((p /. 100.0 *. float_of_int t.size) -. 1e-9)) - 1)
  in
  select (Array.sub t.data 0 t.size) rank

let merge a b =
  let t = { data = Array.make (max 16 (a.size + b.size)) 0; size = 0 } in
  Array.blit a.data 0 t.data 0 a.size;
  Array.blit b.data 0 t.data a.size b.size;
  t.size <- a.size + b.size;
  t

let to_list t = Array.to_list (Array.sub t.data 0 t.size)
