type 'a t = ('a -> unit) Queue.t

let create () = Queue.create ()
let length = Queue.length

let wait engine q = Engine.suspend engine (fun resume -> Queue.add resume q)

let wake_one q v =
  match Queue.take_opt q with
  | None -> false
  | Some resume ->
      resume v;
      true

let wake_all q v =
  let n = Queue.length q in
  for _ = 1 to n do
    (Queue.take q) v
  done;
  n
