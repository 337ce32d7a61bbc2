type t = {
  queue : Event_queue.t;
  mutable now : Time_ns.t;
  mutable seq : int;
  mutable live : int;
  mutable horizon : Time_ns.t;
      (* The latest instant the current [run] may pop; -1 outside [run]. *)
}

exception Deadlock
exception Fiber_failure of string * exn

let create () =
  { queue = Event_queue.create (); now = 0; seq = 0; live = 0; horizon = -1 }

let now t = t.now

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  t.seq <- t.seq + 1;
  Event_queue.push t.queue ~time:(t.now + delay) ~seq:t.seq f

let at t ~time f =
  let time = max time t.now in
  t.seq <- t.seq + 1;
  Event_queue.push t.queue ~time ~seq:t.seq f

(* One timer event. A resume is always bounced through a zero-delay event,
   which runs after every event already queued for this instant; when none
   is queued, the bounce would be popped next anyway, so running [f]
   directly keeps the order. *)
let after t d f =
  schedule t ~delay:d (fun () ->
      if Event_queue.min_time t.queue <> t.now then f ()
      else schedule t ~delay:0 f)

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Delay : Time_ns.t -> unit Effect.t

let suspend (t : t) register =
  ignore t;
  Effect.perform (Suspend register)

(* A wake-up strictly before every queued event and within the current
   [run]'s horizon is the timer [after] would pop next, and it would resume
   the fiber directly: advancing the clock in place is the same
   execution. *)
let delay t d =
  if
    0 <= d
    && d < Event_queue.min_time t.queue - t.now
    && d <= t.horizon - t.now
  then t.now <- t.now + d
  else Effect.perform (Delay d)

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
            | Delay d ->
                Some
                  (fun (k : (a, _) continuation) ->
                    after t d (fun () -> continue k ()))
            | _ -> None);
      }
  in
  schedule t ~delay:0 body

let live_fibers t = t.live

let run ?until t =
  let horizon = match until with None -> max_int | Some u -> u in
  let outer = t.horizon in
  t.horizon <- horizon;
  let rec loop () =
    let q = t.queue in
    if not (Event_queue.is_empty q || Event_queue.min_time q > horizon)
    then begin
      let time = Event_queue.min_time q in
      let thunk = Event_queue.take q in
      t.now <- max t.now time;
      thunk ();
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> t.horizon <- outer) loop

let run_until_quiescent t =
  run t;
  if t.live > 0 then raise Deadlock
