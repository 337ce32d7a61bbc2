(* A FIFO ring of parked fibers; the type parameter is always [unit]. The
   array is made at the first wait and doubles when full; a woken fiber's
   slot is cleared, so a queue holds no fiber after it leaves. *)
type 'a t = {
  mutable fibers : Engine.fiber array;  (* length 0 or a power of two *)
  mutable head : int;
  mutable len : int;
}

let create () = { fibers = [||]; head = 0; len = 0 }
let length q = q.len

let push q fb =
  let cap = Array.length q.fibers in
  if q.len = cap then begin
    let fibers = Array.make (max 4 (2 * cap)) Engine.none in
    for i = 0 to cap - 1 do
      fibers.(i) <- q.fibers.((q.head + i) land (cap - 1))
    done;
    q.fibers <- fibers;
    q.head <- 0
  end;
  q.fibers.((q.head + q.len) land (Array.length q.fibers - 1)) <- fb;
  q.len <- q.len + 1

let pop q =
  let fb = q.fibers.(q.head) in
  q.fibers.(q.head) <- Engine.none;
  q.head <- (q.head + 1) land (Array.length q.fibers - 1);
  q.len <- q.len - 1;
  fb

let wait engine q =
  push q (Engine.current engine);
  Engine.park engine

let wake_one q () =
  q.len > 0
  && begin
       Engine.wake (pop q);
       true
     end

let wake_all q () =
  let n = q.len in
  for _ = 1 to n do
    Engine.wake (pop q)
  done;
  n
