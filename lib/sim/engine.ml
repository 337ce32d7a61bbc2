(* Events due at the current instant wait in [ring], a FIFO; later ones
   wait in [queue], the (time, seq) heap. The mli gives the argument that
   popping the heap's entries due now, then the ring, keeps that order.

   A heap entry's stored sequence number is [seq * 2 + 1] for a timer
   (pushed by [after]) and [seq * 2] otherwise, which keeps the order of
   the numbers and lets the run loop tell a timer from a plain event. *)
type t = {
  queue : Event_queue.t;
  mutable ring : (unit -> unit) array;  (* length a power of two *)
  mutable head : int;
  mutable len : int;
  mutable now : Time_ns.t;
  mutable seq : int;
  mutable live : int;
  mutable horizon : Time_ns.t;
      (* The latest instant the current [run] may pop; -1 outside [run]. *)
  mutable current : fiber;  (* the fiber running, [Idle] between fibers *)
  handler : (unit, unit) Effect.Deep.handler;
  mutable pending : Time_ns.t;  (* the delay of the [Delay] being handled *)
  on_delay : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_park : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

(* A fiber's one record, made by [spawn] and reused by every park; [Idle]
   is no fiber, an immediate, so a slot can be cleared without one.
   [step] is the fiber's start (while [k] is [None], before its first
   park) and its resume (continuing [k], which stays in place: continuing
   it again would raise). A spawn, a timer and a wake all enqueue [step],
   so no park allocates a closure. [parked] is set while the fiber waits
   for one more event before its step may resume it: a {!wake} clears
   it, and so does the first run of a zero-delay {!delay}'s step, which
   is that delay's bounce. *)
and fiber =
  | Idle
  | Fiber of {
      engine : t;
      mutable k : (unit, unit) Effect.Deep.continuation option;
      mutable parked : bool;
      body : unit -> unit;
      label : string;
      mutable step : unit -> unit;  (* set once, by [spawn] *)
    }

exception Deadlock
exception Fiber_failure of string * exn

(* Constant effects: the delay travels in [pending] and the fiber in
   [current], so a perform allocates no effect block. *)
type _ Effect.t += Park : unit Effect.t | Delay : unit Effect.t

let now t = t.now

let enqueue t f =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let ring = Array.make (2 * cap) ignore in
    for i = 0 to cap - 1 do
      ring.(i) <- t.ring.((t.head + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.len) land (Array.length t.ring - 1)) <- f;
  t.len <- t.len + 1

let dequeue t =
  let f = t.ring.(t.head) in
  t.ring.(t.head) <- ignore;
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  f

(* Whether another event is due at the current instant. *)
let busy t = t.len > 0 || Event_queue.min_time t.queue = t.now

let push t ~time ~timer f =
  t.seq <- t.seq + 1;
  Event_queue.push t.queue ~time ~seq:((2 * t.seq) + timer) f

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  if delay = 0 then enqueue t f else push t ~time:(t.now + delay) ~timer:0 f

let at t ~time f =
  if time <= t.now then enqueue t f else push t ~time ~timer:0 f

(* A resume is always bounced through a zero-delay event, which runs after
   every event already due at its instant; when none is due, the bounce
   would run next anyway, so the timer runs [f] itself. A later timer is
   [f] in the heap and [fire] makes its bounce; a zero-delay one makes its
   own. *)
let after t d f =
  if d < 0 then invalid_arg "Engine.schedule: negative delay";
  if d > 0 then push t ~time:(t.now + d) ~timer:1 f
  else enqueue t (fun () -> if busy t then enqueue t f else f ())

(* A wake-up strictly before every queued event and within the current
   [run]'s horizon is the timer [after] would pop next, and it would resume
   the fiber directly: advancing the clock in place is the same
   execution. *)
let delay t d =
  if
    0 <= d
    && t.len = 0
    && d < Event_queue.min_time t.queue - t.now
    && d <= t.horizon - t.now
  then t.now <- t.now + d
  else begin
    if d < 0 then invalid_arg "Engine.delay: negative delay";
    t.pending <- d;
    Effect.perform Delay
  end

let current t = t.current
let none = Idle

let park t =
  match t.current with
  | Fiber f ->
      f.parked <- true;
      Effect.perform Park
  | Idle -> invalid_arg "Engine.park: not in a fiber"

let wake = function
  | Fiber f when f.parked ->
      f.parked <- false;
      enqueue f.engine f.step
  | Fiber _ | Idle -> invalid_arg "Engine.wake: fiber not parked"

(* Run [fb] until it parks or ends, as [t]'s current fiber. The
   handler's [retc] and [exnc] drop it when it ends; a parked fiber stays
   [current] until the next step, as nothing runs between. *)
let resume t fb =
  t.current <- fb;
  match fb with
  | Fiber { k = Some k; _ } -> Effect.Deep.continue k ()
  | Fiber { body; _ } -> Effect.Deep.match_with body () t.handler
  | Idle -> ()

(* A step with [parked] set is a zero-delay bounce's first run: it moves
   to the ring's tail if another event is due now, as [after]'s bounce
   does. *)
let step fb =
  match fb with
  | Fiber ({ engine = t; _ } as f) when f.parked ->
      f.parked <- false;
      if busy t then enqueue t f.step else resume t fb
  | Fiber { engine = t; _ } -> resume t fb
  | Idle -> ()

(* The handlers run at once, in the performing fiber's event, so
   [current] and [pending] are the performer's. A delay is [after] applied
   to the fiber's step. *)
let effc t (type a) (eff : a Effect.t) :
    ((a, unit) Effect.Deep.continuation -> unit) option =
  match eff with
  | Park -> t.on_park
  | Delay -> t.on_delay
  | _ -> None

let create () =
  let queue = Event_queue.create () and ring = Array.make 64 ignore in
  let rec t =
    {
      queue;
      ring;
      head = 0;
      len = 0;
      now = 0;
      seq = 0;
      live = 0;
      horizon = -1;
      current = Idle;
      handler =
        {
          retc =
            (fun () ->
              t.live <- t.live - 1;
              t.current <- Idle);
          exnc =
            (fun e ->
              let label =
                match t.current with Fiber f -> f.label | Idle -> "idle"
              in
              t.current <- Idle;
              raise (Fiber_failure (label, e)));
          effc = (fun e -> effc t e);
        };
      pending = 0;
      on_delay =
        Some
          (fun k ->
            match t.current with
            | Fiber f ->
                f.k <- Some k;
                if t.pending > 0 then
                  push t ~time:(t.now + t.pending) ~timer:1 f.step
                else begin
                  f.parked <- true;
                  enqueue t f.step
                end
            | Idle -> ());
      on_park =
        Some
          (fun k -> match t.current with Fiber f -> f.k <- Some k | Idle -> ());
    }
  in
  t

(* Every fiber runs under its engine's one handler, which counts the
   fiber's end and labels its failure. [step] is set after the record is
   made because a [let rec] record is allocated twice. *)
let spawn t ?(label = "fiber") body =
  t.live <- t.live + 1;
  let fb =
    Fiber { engine = t; k = None; parked = false; body; label; step = ignore }
  in
  match fb with
  | Fiber f ->
      f.step <- (fun () -> step fb);
      enqueue t f.step
  | Idle -> ()

let live_fibers t = t.live

(* Fire the earliest heap entry, due at [t.now]. A timer that shares its
   instant with another event takes the bounce at the ring's tail. *)
let fire t =
  let q = t.queue in
  let timer = Event_queue.min_seq q land 1 = 1 in
  let f = Event_queue.take q in
  if timer && busy t then enqueue t f else f ()

let run ?until t =
  let horizon = match until with None -> max_int | Some u -> u in
  let outer = t.horizon in
  t.horizon <- horizon;
  let rec loop () =
    if t.now <= horizon then begin
      let next = Event_queue.min_time t.queue in
      if next = t.now then begin
        fire t;
        loop ()
      end
      else if t.len > 0 then begin
        dequeue t ();
        loop ()
      end
      else if next <= horizon && not (Event_queue.is_empty t.queue) then begin
        t.now <- next;
        fire t;
        loop ()
      end
    end
  in
  Fun.protect ~finally:(fun () -> t.horizon <- outer) loop

let run_until_quiescent t =
  run t;
  if t.live > 0 then raise Deadlock
