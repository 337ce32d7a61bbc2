type t = {
  queue : Event_queue.t;
  mutable now : Time_ns.t;
  mutable seq : int;
  mutable live : int;
}

exception Deadlock
exception Fiber_failure of string * exn

let create () = { queue = Event_queue.create (); now = 0; seq = 0; live = 0 }

let now t = t.now

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  t.seq <- t.seq + 1;
  Event_queue.push t.queue ~time:(t.now + delay) ~seq:t.seq f

let at t ~time f =
  let time = max time t.now in
  t.seq <- t.seq + 1;
  Event_queue.push t.queue ~time ~seq:t.seq f

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend (t : t) register =
  ignore t;
  Effect.perform (Suspend register)

let delay t d = suspend t (fun resume -> schedule t ~delay:d (fun () -> resume ()))

let spawn t ?(label = "fiber") f =
  t.live <- t.live + 1;
  let open Effect.Deep in
  let body () =
    match_with f ()
      {
        retc = (fun () -> t.live <- t.live - 1);
        exnc = (fun e -> raise (Fiber_failure (label, e)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
                Some
                  (fun (k : (a, _) continuation) ->
                    let resumed = ref false in
                    register (fun v ->
                        if !resumed then
                          invalid_arg "Engine: fiber resumed twice";
                        resumed := true;
                        schedule t ~delay:0 (fun () -> continue k v)))
            | _ -> None);
      }
  in
  schedule t ~delay:0 body

let live_fibers t = t.live

let run ?until t =
  let stop =
    match until with None -> fun _ -> false | Some u -> fun time -> time > u
  in
  let rec loop () =
    match Event_queue.peek_time t.queue with
    | None -> ()
    | Some time when stop time -> ()
    | Some _ -> (
        match Event_queue.pop t.queue with
        | None -> ()
        | Some (time, thunk) ->
            t.now <- max t.now time;
            thunk ();
            loop ())
  in
  loop ()

let run_until_quiescent t =
  run t;
  if t.live > 0 then raise Deadlock
