(* A reader parks as its fiber and, once woken, finds the value in the
   cell: the fill stores it before it wakes anyone. *)
type 'a state =
  | Empty
  | Full of 'a
  | Waiting of Engine.fiber * Engine.fiber list
      (* the oldest reader, then the later ones newest first: a lone
         reader needs no list cell *)

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }
let is_full t = match t.state with Full _ -> true | Empty | Waiting _ -> false

let park engine t waiting =
  t.state <- waiting;
  Engine.park engine;
  match t.state with Full v -> v | Empty | Waiting _ -> assert false

let read engine t =
  match t.state with
  | Full v -> v
  | Empty -> park engine t (Waiting (Engine.current engine, []))
  | Waiting (first, later) ->
      park engine t (Waiting (first, Engine.current engine :: later))

(* The later readers are newest first: wake from the list's end. *)
let rec wake_later = function
  | [] -> ()
  | fb :: earlier ->
      wake_later earlier;
      Engine.wake fb

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty ->
      t.state <- Full v;
      true
  | Waiting (first, later) ->
      t.state <- Full v;
      Engine.wake first;
      wake_later later;
      true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already full"
