type 'a state =
  | Empty
  | Full of 'a
  | Waiting of ('a -> unit) * ('a -> unit) list
      (* the oldest reader, then the later ones newest first: a lone
         reader needs no list cell *)

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }
let is_full t = match t.state with Full _ -> true | Empty | Waiting _ -> false

let park t resume =
  t.state <-
    (match t.state with
    | Waiting (first, later) -> Waiting (first, resume :: later)
    | Empty | Full _ -> Waiting (resume, []))

let read engine t =
  match t.state with
  | Full v -> v
  | Empty | Waiting _ -> Engine.suspend engine (fun resume -> park t resume)

(* The later readers are newest first: wake from the list's end. *)
let rec wake_later v = function
  | [] -> ()
  | resume :: earlier ->
      wake_later v earlier;
      resume v

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty ->
      t.state <- Full v;
      true
  | Waiting (first, later) ->
      t.state <- Full v;
      first v;
      wake_later v later;
      true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already full"
