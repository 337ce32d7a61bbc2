(* Tests for the discrete-event substrate: event queue, engine/fibers, wait
   queues, ivars, RNG, histograms, stats and contended resources. *)

open Dex_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Event queue *)

let test_eventq_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  let push time seq tag =
    Event_queue.push q ~time ~seq (fun () -> log := tag :: !log)
  in
  push 30 1 "c";
  push 10 2 "a";
  push 20 3 "b";
  push 10 4 "a2";
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, thunk) ->
        thunk ();
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "time then seq order" [ "a"; "a2"; "b"; "c" ]
    (List.rev !log)

let test_eventq_peek () =
  let q = Event_queue.create () in
  check_int "empty" max_int (Event_queue.min_time q);
  Event_queue.push q ~time:42 ~seq:0 ignore;
  check_int "peek" 42 (Event_queue.min_time q);
  check_int "length" 1 (Event_queue.length q)

let prop_eventq_sorted =
  QCheck.Test.make ~name:"event queue pops sorted by (time, seq)" ~count:200
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun entries ->
      let q = Event_queue.create () in
      List.iteri
        (fun seq (time, _) -> Event_queue.push q ~time ~seq (fun () -> ()))
        entries;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (time, _) -> drain (time :: acc)
      in
      let popped = drain [] in
      List.sort compare popped = popped
      && List.length popped = List.length entries)

(* A random interleaving of pushes and takes against a sorted-list
   reference. Four pushes per take carry the queue past 300 pending
   entries, so it grows from 64 slots to 512 and reuses slots freed by
   takes along the way; times in [0, 30] make many ties, which the
   sequence numbers (distinct, not in push order) break. *)
type eventq_op = Push of int * int | Take

let gen_eventq_ops =
  let open QCheck.Gen in
  list_size (int_range 700 900)
    (frequency
       [
         (4, map2 (fun time key -> Push (time, key)) (int_bound 30)
               (int_bound 1_000_000));
         (1, return Take);
       ])

let pp_eventq_op = function
  | Push (time, key) -> Printf.sprintf "push %d/%d" time key
  | Take -> "take"

let prop_eventq_model =
  QCheck.Test.make ~name:"event queue matches a sorted-list reference"
    ~count:100
    (QCheck.make ~print:QCheck.Print.(list pp_eventq_op) gen_eventq_ops)
    (fun ops ->
      let q = Event_queue.create () in
      (* The reference: (time, seq, id), sorted. *)
      let model = ref [] and fired = ref (-1) and peak = ref 0 in
      let check_step i =
        let fail what = QCheck.Test.fail_reportf "step %d: %s" i what in
        if Event_queue.length q <> List.length !model then fail "length";
        match !model with
        | [] -> if Event_queue.min_time q <> max_int then fail "min_time"
        | (time, seq, _) :: _ ->
            if Event_queue.min_time q <> time then fail "min_time";
            if Event_queue.min_seq q <> seq then fail "min_seq"
      in
      List.iteri
        (fun i op ->
          (match op with
          | Push (time, key) ->
              let seq = (key * 1024) + i in
              Event_queue.push q ~time ~seq (fun () -> fired := i);
              model := List.merge compare !model [ (time, seq, i) ];
              peak := max !peak (List.length !model)
          | Take -> (
              match !model with
              | [] -> ()
              | (_, _, id) :: rest ->
                  (Event_queue.take q) ();
                  if !fired <> id then
                    QCheck.Test.fail_reportf "step %d: took %d, expected %d"
                      i !fired id;
                  model := rest));
          check_step i)
        ops;
      (* Drain: the rest come out in reference order too. *)
      List.iter
        (fun (_, _, id) ->
          (Event_queue.take q) ();
          if !fired <> id then
            QCheck.Test.fail_reportf "drain: took %d, expected %d" !fired id)
        !model;
      Event_queue.is_empty q && !peak >= 300)

(* [take] hands its thunk over: the queue keeps no reference to it, so a
   taken closure is garbage once its caller drops it. *)
let test_eventq_releases_taken () =
  let q = Event_queue.create () in
  let w = Weak.create 3 in
  let[@inline never] push_fresh k =
    let r = ref k in
    let f = Sys.opaque_identity (fun () -> incr r) in
    Weak.set w k (Some f);
    Event_queue.push q ~time:k ~seq:k f
  in
  List.iter push_fresh [ 0; 1; 2 ];
  (* One entry stays pending behind them, so each take sifts the last
     entry into the hole it leaves. *)
  Event_queue.push q ~time:10 ~seq:10 ignore;
  for _ = 1 to 3 do
    (Sys.opaque_identity (Event_queue.take q)) ()
  done;
  Gc.full_major ();
  List.iter
    (fun k ->
      check_bool (Printf.sprintf "taken thunk %d collected" k) true
        (Weak.get w k = None))
    [ 0; 1; 2 ];
  check_int "one pending" 1 (Event_queue.length q)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_delay_advances_time () =
  let e = Engine.create () in
  let final = ref (-1) in
  Engine.spawn e (fun () ->
      Engine.delay e (Time_ns.us 5);
      Engine.delay e (Time_ns.us 7);
      final := Engine.now e);
  Engine.run_until_quiescent e;
  check_int "time advanced" (Time_ns.us 12) !final

let test_engine_same_instant_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () -> log := i :: !log)
  done;
  Engine.run_until_quiescent e;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

(* A park that a callback ends with a value, built from [current], [park]
   and [wake]: the shape of a one-shot wait, for the tests below and the
   reference engine's [Park] step. *)
let suspend e register =
  let fb = Engine.current e and v = ref None in
  register (fun x ->
      if Option.is_some !v then invalid_arg "suspend: resumed twice";
      v := Some x;
      Engine.wake fb);
  Engine.park e;
  Option.get !v

let test_engine_suspend_resume () =
  let e = Engine.create () in
  let resumer = ref None in
  let got = ref 0 in
  Engine.spawn e (fun () ->
      let v = suspend e (fun resume -> resumer := Some resume) in
      got := v);
  Engine.spawn e (fun () ->
      Engine.delay e (Time_ns.us 3);
      match !resumer with Some r -> r 99 | None -> Alcotest.fail "no resumer");
  Engine.run_until_quiescent e;
  check_int "value delivered" 99 !got

let test_engine_deadlock_detection () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> Engine.park e);
  Alcotest.check_raises "deadlock" Engine.Deadlock (fun () ->
      Engine.run_until_quiescent e)

let test_engine_fiber_failure_labelled () =
  let e = Engine.create () in
  Engine.spawn e ~label:"boom" (fun () -> failwith "bad");
  match Engine.run_until_quiescent e with
  | () -> Alcotest.fail "expected failure"
  | exception Engine.Fiber_failure ("boom", Failure _) -> ()
  | exception _ -> Alcotest.fail "wrong exception"

(* The second wake of one park is refused, and so is a wake of a fiber
   that is not parked. *)
let test_engine_double_resume_rejected () =
  let e = Engine.create () in
  let parked = ref Engine.none in
  Engine.spawn e (fun () ->
      parked := Engine.current e;
      Engine.park e);
  Engine.spawn e (fun () ->
      Engine.wake !parked;
      (match Engine.wake !parked with
      | () -> Alcotest.fail "second wake should raise"
      | exception Invalid_argument _ -> ());
      match Engine.wake (Engine.current e) with
      | () -> Alcotest.fail "waking a running fiber should raise"
      | exception Invalid_argument _ -> ());
  Engine.run_until_quiescent e

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:(Time_ns.us 1) (fun () -> fired := 1 :: !fired);
  Engine.schedule e ~delay:(Time_ns.us 10) (fun () -> fired := 10 :: !fired);
  Engine.run ~until:(Time_ns.us 5) e;
  Alcotest.(check (list int)) "only early event" [ 1 ] (List.rev !fired);
  Engine.run e;
  Alcotest.(check (list int)) "rest runs" [ 1; 10 ] (List.rev !fired)

(* A delay is one timer event, but an event queued for the same instant
   after the timer must still run before the fiber resumes, as it did when
   every resume bounced through a zero-delay event. *)
let test_engine_delay_keeps_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay e 10;
      log := ("resumed", Engine.now e) :: !log);
  Engine.spawn e (fun () ->
      Engine.schedule e ~delay:10 (fun () ->
          log := ("same instant", Engine.now e) :: !log));
  Engine.run_until_quiescent e;
  Alcotest.(check (list (pair string int)))
    "queued event first"
    [ ("same instant", 10); ("resumed", 10) ]
    (List.rev !log)

(* A delay that nothing can interleave with advances the clock in place,
   but never past the bound of the enclosing [run ~until]: the second
   delay must park the fiber until the next [run]. *)
let test_engine_inline_delay_respects_until () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay e 3;
      log := Engine.now e :: !log;
      Engine.delay e 10;
      log := Engine.now e :: !log);
  Engine.run ~until:5 e;
  Alcotest.(check (list int))
    "stops after the first delay" [ 3 ] (List.rev !log);
  check_int "clock at the first wake-up" 3 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int))
    "resumes on the next run" [ 3; 13 ] (List.rev !log)

(* A fiber whose delays end before every queued event resumes before
   that event; a delay ending on the event's instant lets it go first. *)
let test_engine_short_delay_runs_first () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := (s, Engine.now e) :: !log in
  Engine.schedule e ~delay:10 (note "event");
  Engine.spawn e (fun () ->
      Engine.delay e 4;
      note "resumed" ();
      Engine.delay e 5;
      note "resumed" ();
      Engine.delay e 1;
      note "resumed" ());
  Engine.run_until_quiescent e;
  Alcotest.(check (list (pair string int)))
    "order"
    [ ("resumed", 4); ("resumed", 9); ("event", 10); ("resumed", 10) ]
    (List.rev !log)

(* [after] is the callback form of [delay]: two actors sleeping through
   the same schedule, with wake-ups that collide with each other and with
   queued events, log the same trace as fibers calling [delay], and as
   fibers that sleep the long way round, a timer resuming a [suspend]
   (every resume bounces through a zero-delay event). *)
let test_engine_after_matches_delay () =
  let trace style =
    let e = Engine.create () in
    let log = Buffer.create 256 in
    let note s =
      Buffer.add_string log (Printf.sprintf "%s@%d;" s (Engine.now e))
    in
    List.iteri
      (fun i at ->
        Engine.schedule e ~delay:at (fun () -> note (Printf.sprintf "e%d" i)))
      [ 0; 3; 5; 5; 8; 12; 15 ];
    let sleep d k =
      match style with
      | `Delay ->
          Engine.delay e d;
          k ()
      | `Suspend ->
          suspend e (fun resume -> Engine.schedule e ~delay:d resume);
          k ()
      | `After -> Engine.after e d k
    in
    let rec chain name i = function
      | [] -> ()
      | d :: ds ->
          sleep d (fun () ->
              note (Printf.sprintf "%s%d" name i);
              (* An event queued behind the actor's next wake-up. *)
              (match ds with
              | d' :: _ ->
                  Engine.schedule e ~delay:d' (fun () -> note (name ^ "!"))
              | [] -> ());
              chain name (i + 1) ds)
    in
    let start name ds =
      match style with
      | `Delay | `Suspend -> Engine.spawn e (fun () -> chain name 0 ds)
      | `After -> Engine.schedule e ~delay:0 (fun () -> chain name 0 ds)
    in
    start "a" [ 3; 0; 2; 3; 4; 1; 2 ];
    start "b" [ 5; 3; 0; 4; 3; 0 ];
    Engine.run_until_quiescent e;
    Buffer.contents log
  in
  let reference = trace `Suspend in
  Alcotest.(check string) "delay" reference (trace `Delay);
  Alcotest.(check string) "after" reference (trace `After)

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create () in
    let rng = Rng.create ~seed:7 in
    let log = Buffer.create 64 in
    for i = 1 to 10 do
      Engine.spawn e (fun () ->
          Engine.delay e (Rng.int rng 1000);
          Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e)))
    done;
    Engine.run_until_quiescent e;
    Buffer.contents log
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())

(* A run entered with the clock already past its bound pops nothing, not
   even the events due at the current instant. *)
let test_engine_until_in_the_past () =
  let e = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.schedule e ~delay:10 (note "timer");
  Engine.run e;
  Engine.schedule e ~delay:0 (note "zero delay");
  Engine.spawn e (note "fiber");
  Engine.at e ~time:3 (note "at the past");
  Engine.after e 0 (note "after 0");
  Engine.run ~until:5 e;
  Alcotest.(check (list string)) "nothing ran" [ "timer" ] (List.rev !log);
  check_int "clock unchanged" 10 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list string))
    "queued order"
    [ "timer"; "zero delay"; "fiber"; "at the past"; "after 0" ]
    (List.rev !log)

(* A reference engine that keeps every event in one (time, seq)-sorted
   list and takes no shortcut: a timer always bounces through a zero-delay
   event, a resume is a zero-delay event, and a delay is a timer resuming
   a suspended fiber. *)
module Ref_engine = struct
  type t = {
    mutable now : int;
    mutable seq : int;
    mutable events : (int * int * (unit -> unit)) list;
    mutable live : int;
  }

  type _ Effect.t += Park : (('a -> unit) -> unit) -> 'a Effect.t

  let create () = { now = 0; seq = 0; events = []; live = 0 }
  let now t = t.now
  let live_fibers t = t.live

  let at t ~time f =
    t.seq <- t.seq + 1;
    let time = max time t.now and seq = t.seq in
    let rec insert = function
      | (time', seq', _) :: _ as l when (time, seq) < (time', seq') ->
          (time, seq, f) :: l
      | ev :: l -> ev :: insert l
      | [] -> [ (time, seq, f) ]
    in
    t.events <- insert t.events

  let schedule t ~delay f = at t ~time:(t.now + delay) f
  let after t d f = schedule t ~delay:d (fun () -> schedule t ~delay:0 f)
  let suspend (_ : t) register = Effect.perform (Park register)
  let delay t d = suspend t (fun resume -> schedule t ~delay:d resume)

  let spawn t f =
    t.live <- t.live + 1;
    schedule t ~delay:0 (fun () ->
        Effect.Deep.match_with f ()
          {
            retc = (fun () -> t.live <- t.live - 1);
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Park register ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        register (fun v ->
                            schedule t ~delay:0 (fun () ->
                                Effect.Deep.continue k v)))
                | _ -> None);
          })

  let run ?(until = max_int) t =
    let rec loop () =
      match t.events with
      | (time, _, f) :: rest when time <= until ->
          t.events <- rest;
          t.now <- max t.now time;
          f ();
          loop ()
      | _ -> ()
    in
    loop ()
end

module type ENGINE = sig
  type t

  val create : unit -> t
  val now : t -> int
  val schedule : t -> delay:int -> (unit -> unit) -> unit
  val at : t -> time:int -> (unit -> unit) -> unit
  val after : t -> int -> (unit -> unit) -> unit
  val delay : t -> int -> unit
  val spawn : t -> (unit -> unit) -> unit
  val suspend : t -> ((int -> unit) -> unit) -> int
  val run : ?until:int -> t -> unit
  val live_fibers : t -> int
end

module Real_engine : ENGINE = struct
  include Engine

  let spawn t f = Engine.spawn t f
  let suspend = suspend
end

(* A random engine program. Every step logs its id and the clock when it
   runs; [Delay] and [Park] act only in a fiber. *)
type step =
  | Note of int
  | Schedule of int * int * step list  (* id, delay, callback *)
  | At of int * int * step list  (* id, offset from now (may be < 0) *)
  | After of int * int * step list
  | Spawn of int * step list
  | Delay of int * int
  | Park of int * int  (* id, slot: suspend, leaving the resume there *)
  | Wake of int * int  (* id, slot: resume the fiber parked there *)

(* Program steps run once up front; then each stage runs the engine (up to
   its bound, if any) and its steps from outside, and a last [run] ends. *)
type program = { start : step list; stages : (int option * step list) list }

let rec pp_step = function
  | Note i -> Printf.sprintf "note%d" i
  | Schedule (i, d, b) -> Printf.sprintf "schedule%d(+%d)%s" i d (pp_steps b)
  | At (i, o, b) -> Printf.sprintf "at%d(now%+d)%s" i o (pp_steps b)
  | After (i, d, b) -> Printf.sprintf "after%d(+%d)%s" i d (pp_steps b)
  | Spawn (i, b) -> Printf.sprintf "spawn%d%s" i (pp_steps b)
  | Delay (i, d) -> Printf.sprintf "delay%d(%d)" i d
  | Park (i, s) -> Printf.sprintf "park%d[%d]" i s
  | Wake (i, s) -> Printf.sprintf "wake%d[%d]" i s

and pp_steps b = "[" ^ String.concat "; " (List.map pp_step b) ^ "]"

let pp_program p =
  pp_steps p.start
  ^ String.concat ""
      (List.map
         (fun (u, b) ->
           Printf.sprintf " run%s %s"
             (match u with Some u -> Printf.sprintf "~until:%d" u | None -> "")
             (pp_steps b))
         p.stages)

let trace (module E : ENGINE) p =
  let e = E.create () in
  let log = Buffer.create 256 in
  let note id = Buffer.add_string log (Printf.sprintf "%d@%d;" id (E.now e)) in
  let slots = Array.make 3 None in
  let rec steps in_fiber b = List.iter (step in_fiber) b
  and step in_fiber = function
    | Note id -> note id
    | Schedule (id, d, b) ->
        E.schedule e ~delay:d (fun () ->
            note id;
            steps false b)
    | At (id, o, b) ->
        E.at e ~time:(E.now e + o) (fun () ->
            note id;
            steps false b)
    | After (id, d, b) ->
        E.after e d (fun () ->
            note id;
            steps false b)
    | Spawn (id, b) ->
        E.spawn e (fun () ->
            note id;
            steps true b)
    | Delay (id, d) ->
        if in_fiber then begin
          E.delay e d;
          note id
        end
    | Park (id, s) ->
        if in_fiber && slots.(s) = None then begin
          let waker = E.suspend e (fun resume -> slots.(s) <- Some resume) in
          note id;
          note waker
        end
    | Wake (id, s) -> (
        note id;
        match slots.(s) with
        | Some resume ->
            slots.(s) <- None;
            resume id
        | None -> ())
  in
  steps false p.start;
  List.iter
    (fun (until, b) ->
      E.run ?until e;
      Buffer.add_string log (Printf.sprintf "|run@%d|" (E.now e));
      steps false b)
    p.stages;
  E.run e;
  Printf.sprintf "%s end@%d live=%d" (Buffer.contents log) (E.now e)
    (E.live_fibers e)

let gen_program =
  let open QCheck.Gen in
  let d = frequency [ (3, return 0); (4, int_range 1 4) ] in
  let rec steps depth =
    list_size (int_bound (if depth = 0 then 5 else 3)) (step depth)
  and step depth =
    let leaves =
      [
        (2, return (Note 0));
        (3, map (fun d -> Delay (0, d)) d);
        (1, map (fun s -> Park (0, s)) (int_bound 2));
        (2, map (fun s -> Wake (0, s)) (int_bound 2));
      ]
    in
    if depth >= 3 then frequency leaves
    else
      let body = steps (depth + 1) in
      frequency
        (leaves
        @ [
            (2, map2 (fun d b -> Schedule (0, d, b)) d body);
            (1, map2 (fun o b -> At (0, o, b)) (int_range (-2) 4) body);
            (2, map2 (fun d b -> After (0, d, b)) d body);
            (2, map (fun b -> Spawn (0, b)) body);
          ])
  in
  let stage =
    pair (opt ~ratio:0.7 (int_bound 12)) (steps 1)
  in
  map2 (fun start stages -> { start; stages }) (steps 0)
    (list_size (int_bound 3) stage)

(* Number the steps in program order, so every step logs a distinct id. *)
let number p =
  let next = ref 0 in
  let id () =
    incr next;
    !next
  in
  let rec steps b = List.map step b
  and step = function
    | Note _ -> Note (id ())
    | Schedule (_, d, b) ->
        let i = id () in
        Schedule (i, d, steps b)
    | At (_, o, b) ->
        let i = id () in
        At (i, o, steps b)
    | After (_, d, b) ->
        let i = id () in
        After (i, d, steps b)
    | Spawn (_, b) ->
        let i = id () in
        Spawn (i, steps b)
    | Delay (_, d) -> Delay (id (), d)
    | Park (_, s) -> Park (id (), s)
    | Wake (_, s) -> Wake (id (), s)
  in
  let start = steps p.start in
  { start; stages = List.map (fun (u, b) -> (u, steps b)) p.stages }

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine order matches a sorted-list reference"
    ~count:500
    (QCheck.make ~print:pp_program QCheck.Gen.(map number gen_program))
    (fun p ->
      let expected = trace (module Ref_engine : ENGINE) p in
      let got = trace (module Real_engine) p in
      if expected <> got then
        QCheck.Test.fail_reportf "reference: %s\nengine:    %s" expected got
      else true)

(* ------------------------------------------------------------------ *)
(* Waitq *)

(* Waiters wake oldest first, each at the instant of its wake. *)
let test_waitq_fifo () =
  let e = Engine.create () in
  let q = Waitq.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        Waitq.wait e q;
        log := (i, Engine.now e) :: !log)
  done;
  Engine.spawn e (fun () ->
      Engine.delay e 10;
      check_int "queue length" 3 (Waitq.length q);
      check_bool "wake one" true (Waitq.wake_one q ());
      check_int "one left the queue" 2 (Waitq.length q);
      Engine.delay e 1;
      let n = Waitq.wake_all q () in
      check_int "woke remaining" 2 n;
      check_int "queue drained" 0 (Waitq.length q));
  Engine.run_until_quiescent e;
  Alcotest.(check (list (pair int int)))
    "FIFO order"
    [ (1, 10); (2, 11); (3, 11) ]
    (List.rev !log)

(* The ring keeps FIFO order when it wraps and when it grows: two of
   three waiters leave, then six more join (past the first array's four
   slots, with its head moved). *)
let test_waitq_ring_grows () =
  let e = Engine.create () in
  let q = Waitq.create () in
  let log = ref [] in
  let waiter i =
    Engine.spawn e (fun () ->
        Waitq.wait e q;
        log := i :: !log)
  in
  List.iter waiter [ 1; 2; 3 ];
  Engine.spawn e (fun () ->
      Engine.delay e 1;
      ignore (Waitq.wake_one q ());
      ignore (Waitq.wake_one q ());
      List.iter waiter [ 4; 5; 6; 7; 8; 9 ];
      Engine.delay e 1;
      check_int "waiters after the joins" 7 (Waitq.length q);
      check_int "woke the rest" 7 (Waitq.wake_all q ()));
  Engine.run_until_quiescent e;
  Alcotest.(check (list int))
    "FIFO order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log)

let test_waitq_wake_empty () =
  let q = Waitq.create () in
  check_bool "wake_one empty" false (Waitq.wake_one q ());
  check_int "wake_all empty" 0 (Waitq.wake_all q ())

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_read_then_fill () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Engine.spawn e (fun () ->
      let v = Ivar.read e iv in
      got := Some (v, Engine.now e));
  Engine.spawn e (fun () ->
      Engine.delay e 25;
      check_bool "empty before the fill" false (Ivar.is_full iv);
      Ivar.fill iv 42);
  Engine.run_until_quiescent e;
  Alcotest.(check (option (pair int int)))
    "resumed at the fill's instant with the value" (Some (42, 25)) !got

let test_ivar_wake_order () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        Engine.delay e i;
        let v = Ivar.read e iv in
        log := (i, v) :: !log)
  done;
  Engine.spawn e (fun () ->
      Engine.delay e 10;
      Ivar.fill iv "x");
  Engine.run_until_quiescent e;
  Alcotest.(check (list (pair int string)))
    "oldest reader first"
    [ (1, "x"); (2, "x"); (3, "x") ]
    (List.rev !log)

(* A read of a full ivar neither parks nor schedules: the reader carries
   on in its own event, ahead of a fiber spawned after it. *)
let test_ivar_read_when_full () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 7;
  let log = ref [] in
  Engine.spawn e (fun () ->
      let live = Engine.live_fibers e in
      let v = Ivar.read e iv in
      check_int "still the only live fiber" live (Engine.live_fibers e);
      log := Printf.sprintf "read %d at %d" v (Engine.now e) :: !log);
  Engine.spawn e (fun () -> log := "next fiber" :: !log);
  Engine.run_until_quiescent e;
  Alcotest.(check (list string))
    "no park, no event" [ "read 7 at 0"; "next fiber" ] (List.rev !log);
  check_int "no fiber left" 0 (Engine.live_fibers e)

let test_ivar_fill_once () =
  let e = Engine.create () in
  let iv = Ivar.create () in
  check_bool "try_fill on empty" true (Ivar.try_fill iv 1);
  Alcotest.check_raises "fill on full"
    (Invalid_argument "Ivar.fill: already full") (fun () -> Ivar.fill iv 2);
  check_bool "try_fill on full" false (Ivar.try_fill iv 3);
  let got = ref 0 in
  Engine.spawn e (fun () -> got := Ivar.read e iv);
  Engine.run_until_quiescent e;
  check_int "first value kept" 1 !got

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

(* SplitMix64 output pinned: a change to the generator's representation
   must not change a single draw. *)
let test_rng_golden () =
  let draws f =
    let rng = Rng.create ~seed:42 in
    List.init 16 (fun _ -> f rng)
  in
  Alcotest.(check (list int64))
    "next_int64"
    [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
      885919558081284366L; -353919125003956057L; 4337243929683858115L;
      5152897204343404489L; 2820384354626331986L; -4414613273027670835L;
      4497339579670313847L; -4345211542386587372L; -2098947937136382188L;
      -1845073873574444724L; 1482940387686048950L; 700186318760072552L;
      -2693559979281954569L ]
    (draws Rng.next_int64);
  Alcotest.(check (list (float 0.0)))
    "float"
    [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
      0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
      0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3; 0x1.8578493c50ec1p-1;
      0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1; 0x1.c5be13f199e4dp-1;
      0x1.ccc9f62cda7b8p-1; 0x1.494766cf71b6p-4; 0x1.36f1f7e8c90ap-5;
      0x1.b53d1af09b619p-1 ]
    (draws (fun rng -> Rng.float rng 1.0));
  Alcotest.(check (list int))
    "int"
    [ 570; 797; 285; 91; 889; 528; 122; 996; 195; 461; 61; 357; 723; 237;
      138; 261 ]
    (draws (fun rng -> Rng.int rng 1000))

let test_rng_split_independent () =
  let a = Rng.create ~seed:42 in
  let child = Rng.split a in
  check_bool "different streams"
    (Rng.next_int64 a <> Rng.next_int64 child)
    true

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_stats () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10; 20; 30; 40 ];
  check_int "count" 4 (Histogram.count h);
  Alcotest.(check (float 0.001)) "mean" 25.0 (Histogram.mean h);
  check_int "min" 10 (Histogram.min_value h);
  check_int "max" 40 (Histogram.max_value h);
  check_int "median" 20 (Histogram.percentile h 50.0);
  check_int "p100" 40 (Histogram.percentile h 100.0)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Histogram.mean h);
  Alcotest.check_raises "min empty"
    (Invalid_argument "Histogram.min_value: empty") (fun () ->
      ignore (Histogram.min_value h))

(* merge is a fresh accumulator: inputs keep their own samples, empty
   sides are absorbed, and the merged percentiles see both sets. *)
let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 10; 20 ];
  List.iter (Histogram.add b) [ 30; 40; 50 ];
  let m = Histogram.merge a b in
  check_int "merged count" 5 (Histogram.count m);
  check_int "merged min" 10 (Histogram.min_value m);
  check_int "merged max" 50 (Histogram.max_value m);
  check_int "merged median" 30 (Histogram.percentile m 50.0);
  (* The inputs are unchanged... *)
  check_int "left intact" 2 (Histogram.count a);
  check_int "right intact" 3 (Histogram.count b);
  (* ...and the result is independent of them. *)
  Histogram.add m 60;
  check_int "merge is fresh" 6 (Histogram.count m);
  check_int "left still intact" 2 (Histogram.count a);
  let e = Histogram.create () in
  check_int "empty left" 3 (Histogram.count (Histogram.merge e b));
  check_int "empty right" 3 (Histogram.count (Histogram.merge b e));
  check_int "empty both" 0 (Histogram.count (Histogram.merge e e))

(* Nearest-rank p999 on few samples: any p > (n-1)/n * 100 is the max,
   and the tail percentiles are monotone in p. *)
let test_histogram_p999 () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3 ];
  check_int "p999 of 3 samples is the max" 3 (Histogram.percentile h 99.9);
  check_int "p99 of 3 samples is the max" 3 (Histogram.percentile h 99.0);
  let one = Histogram.create () in
  Histogram.add one 7;
  check_int "p999 of a single sample" 7 (Histogram.percentile one 99.9);
  check_int "p0 of a single sample" 7 (Histogram.percentile one 0.0);
  (* 1000 samples: p99.9 is the 999th-largest, distinct from the max. *)
  let big = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add big v
  done;
  check_int "p999 of 1..1000" 999 (Histogram.percentile big 99.9);
  check_int "p100 of 1..1000" 1000 (Histogram.percentile big 100.0);
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Histogram.percentile (Histogram.create ()) 99.9))

(* [percentile] is the nearest-rank element of the sorted samples, for
   duplicates, negatives and the tail ranks of few samples. *)
let prop_histogram_percentile_sorted =
  QCheck.Test.make ~name:"percentile is the nearest-rank sorted sample"
    ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 300) (int_range (-50) 200))
        (oneof
           [
             oneofl [ 0.0; 0.1; 1.0; 50.0; 90.0; 99.0; 99.9; 99.99; 100.0 ];
             float_range 0.0 100.0;
           ]))
    (fun (l, p) ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) l;
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      let rank =
        max 0 (int_of_float (ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)) - 1)
      in
      Histogram.percentile h p = a.(rank))

let prop_histogram_mean_bounded =
  QCheck.Test.make ~name:"histogram mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 100_000))
    (fun l ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) l;
      let m = Histogram.mean h in
      m >= float_of_int (Histogram.min_value h)
      && m <= float_of_int (Histogram.max_value h))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.incr s "faults";
  Stats.incr s "faults";
  Stats.add s "bytes" 4096;
  check_int "incr" 2 (Stats.get s "faults");
  check_int "add" 4096 (Stats.get s "bytes");
  check_int "unknown" 0 (Stats.get s "nope");
  Alcotest.(check (list (pair string int)))
    "sorted listing"
    [ ("bytes", 4096); ("faults", 2) ]
    (Stats.to_list s);
  Stats.reset s;
  check_int "reset" 0 (Stats.get s "faults")

(* ------------------------------------------------------------------ *)
(* Resources *)

let test_pool_limits_concurrency () =
  let e = Engine.create () in
  let pool = Resource.Pool.create e ~capacity:2 in
  let peak = ref 0 in
  let active = ref 0 in
  for _ = 1 to 6 do
    Engine.spawn e (fun () ->
        Resource.Pool.acquire pool;
        incr active;
        peak := max !peak !active;
        Engine.delay e (Time_ns.us 10);
        decr active;
        Resource.Pool.release pool)
  done;
  Engine.run_until_quiescent e;
  check_int "peak concurrency" 2 !peak;
  (* Three waves of two: total time = 30us. *)
  check_int "makespan" (Time_ns.us 30) (Engine.now e)

let test_pool_release_unacquired () =
  let e = Engine.create () in
  let pool = Resource.Pool.create e ~capacity:1 in
  Alcotest.check_raises "release unacquired"
    (Invalid_argument "Pool.release: not acquired") (fun () ->
      Resource.Pool.release pool)

let test_server_serializes () =
  let e = Engine.create () in
  (* 1 byte per us. *)
  let srv = Resource.Server.create e ~bytes_per_us:1.0 in
  let t1 = ref 0 and t2 = ref 0 in
  Engine.spawn e (fun () ->
      Resource.Server.transfer srv ~bytes:10;
      t1 := Engine.now e);
  Engine.spawn e (fun () ->
      Resource.Server.transfer srv ~bytes:10;
      t2 := Engine.now e);
  Engine.run_until_quiescent e;
  check_int "first done at 10us" (Time_ns.us 10) !t1;
  check_int "second queued behind" (Time_ns.us 20) !t2

let test_server_idle_no_wait () =
  let e = Engine.create () in
  let srv = Resource.Server.create e ~bytes_per_us:2.0 in
  let t1 = ref 0 in
  Engine.spawn e (fun () ->
      Engine.delay e (Time_ns.us 100);
      Resource.Server.transfer srv ~bytes:10;
      t1 := Engine.now e);
  Engine.run_until_quiescent e;
  check_int "no stale backlog" (Time_ns.us 105) !t1

(* ------------------------------------------------------------------ *)
(* Allocation budgets *)

(* Words allocated so far, both heaps: [Gc.minor_words] alone misses
   blocks too large for the minor heap, such as a grown array. The call
   itself allocates a few words; an exact zero is read with
   [Gc.minor_words] once the arrays have grown. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* A timer is the caller's closure in the heap, nothing more, once the
   heap has grown to hold the timers. *)
let test_after_budget () =
  let e = Engine.create () in
  let f = Sys.opaque_identity (fun () -> ()) in
  let arm () =
    for i = 1 to 1_000 do
      Engine.after e i f
    done
  in
  arm ();
  Engine.run e;
  let w0 = Gc.minor_words () in
  arm ();
  let words = Gc.minor_words () -. w0 in
  Engine.run e;
  check_bool (Printf.sprintf "%.0f words for 1000 timers" words) true
    (words = 0.)

(* A zero-delay event goes into the runnable ring, which allocates only
   when it grows: refilled to the same depth, it allocates nothing. *)
let test_zero_delay_budget () =
  let e = Engine.create () in
  let f = Sys.opaque_identity (fun () -> ()) in
  let fill () =
    for _ = 1 to 1_000 do
      Engine.schedule e ~delay:0 f
    done
  in
  fill ();
  Engine.run e;
  let w0 = Gc.minor_words () in
  fill ();
  let words = Gc.minor_words () -. w0 in
  Engine.run e;
  check_bool (Printf.sprintf "%.0f words for 1000 zero-delay events" words)
    true (words = 0.)

(* A fiber that starts and finishes: its body closure, its start event and
   the runtime's fiber stack and continuation, under the engine's one
   handler. *)
let test_spawn_budget () =
  let e = Engine.create () in
  let f = Sys.opaque_identity (fun () -> ()) in
  let round () =
    for _ = 1 to 1_000 do
      Engine.spawn e f
    done;
    Engine.run e
  in
  round ();
  let w0 = allocated_words () in
  round ();
  let words = (allocated_words () -. w0) /. 1_000. in
  check_bool
    (Printf.sprintf "%.2f words per spawn + run (at most 17)" words)
    true (words <= 17.)

(* Mean words per round of [round], run [rounds] times in a fiber after
   100 rounds of warm-up, with [companion] spawned beside it. *)
let words_per_round ?(companion = ignore) ~per_round round =
  let e = Engine.create () and rounds = 1_000 and words = ref 0. in
  Engine.spawn e (fun () ->
      for _ = 1 to 100 do
        round e
      done;
      let w0 = allocated_words () in
      for _ = 1 to rounds do
        round e
      done;
      words := (allocated_words () -. w0) /. float_of_int (per_round * rounds));
  Engine.spawn e (fun () -> companion e);
  Engine.run e;
  !words

let check_words name words bound =
  check_bool
    (Printf.sprintf "%.2f words per %s (at most %.2f)" words name bound)
    true (words <= bound)

(* A delay that cannot run inline parks the fiber: its continuation and
   the option holding it; the timer is the fiber's own step. Two sleepers
   a nanosecond apart find each other's wake-up queued first, so every
   delay of both parks. *)
let test_delay_budget () =
  let sleep e = Engine.delay e 2 in
  check_words "parked delay"
    (words_per_round ~per_round:2 sleep ~companion:(fun e ->
         Engine.delay e 1;
         for _ = 1 to 1_200 do
           sleep e
         done))
    4.05

(* Two fibers take turns on two queues: each wakes the other and parks.
   A round is two waits and two wakes. *)
let test_waitq_budget () =
  let ping = Waitq.create () and pong = Waitq.create () in
  let turn e wake park =
    ignore (Waitq.wake_one wake ());
    Waitq.wait e park
  in
  check_words "Waitq park + wake"
    (words_per_round ~per_round:2
       (fun e -> turn e pong ping)
       ~companion:(fun e ->
         while true do
           turn e ping pong
         done))
    4.05

(* A fresh ivar read before a zero-delay event fills it: the ivar, its
   [Waiting] and [Full] states, and the park. *)
let test_ivar_budget () =
  let cell = ref (Ivar.create ()) in
  let fill () = Ivar.fill !cell () in
  check_words "Ivar park + fill"
    (words_per_round ~per_round:1 (fun e ->
         cell := Ivar.create ();
         Engine.schedule e ~delay:0 fill;
         Ivar.read e !cell))
    11.05

(* A push and a take move integers and one pool entry: on a queue that
   has grown to hold them, they allocate nothing. *)
let test_eventq_budget () =
  let q = Event_queue.create () in
  let f = Sys.opaque_identity (fun () -> ()) in
  for i = 1 to 200 do
    Event_queue.push q ~time:(i * 7 mod 101) ~seq:i f
  done;
  let pairs base =
    for i = 1 to 1_000 do
      Event_queue.push q ~time:((base + i) * 13 mod 101) ~seq:(base + i) f;
      let (_ : unit -> unit) = Sys.opaque_identity (Event_queue.take q) in
      ()
    done
  in
  pairs 1_000;
  let w0 = Gc.minor_words () in
  pairs 2_000;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "%.0f words for 1000 push + take pairs" words)
    true (words = 0.)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dex_sim"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eventq_order;
          Alcotest.test_case "peek/length" `Quick test_eventq_peek;
          Alcotest.test_case "taken thunk released" `Quick
            test_eventq_releases_taken;
        ]
        @ qsuite [ prop_eventq_sorted; prop_eventq_model ] );
      ( "engine",
        [
          Alcotest.test_case "delay advances time" `Quick
            test_engine_delay_advances_time;
          Alcotest.test_case "same-instant FIFO" `Quick
            test_engine_same_instant_fifo;
          Alcotest.test_case "suspend/resume" `Quick test_engine_suspend_resume;
          Alcotest.test_case "deadlock detection" `Quick
            test_engine_deadlock_detection;
          Alcotest.test_case "fiber failure labelled" `Quick
            test_engine_fiber_failure_labelled;
          Alcotest.test_case "double resume rejected" `Quick
            test_engine_double_resume_rejected;
          Alcotest.test_case "run ~until" `Quick test_engine_run_until;
          Alcotest.test_case "delay keeps same-instant order" `Quick
            test_engine_delay_keeps_order;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "inline delay respects run ~until" `Quick
            test_engine_inline_delay_respects_until;
          Alcotest.test_case "short delay runs before queued event" `Quick
            test_engine_short_delay_runs_first;
          Alcotest.test_case "after matches delay" `Quick
            test_engine_after_matches_delay;
          Alcotest.test_case "run ~until in the past runs nothing" `Quick
            test_engine_until_in_the_past;
        ]
        @ qsuite [ prop_engine_matches_reference ] );
      ( "waitq",
        [
          Alcotest.test_case "FIFO wake order" `Quick test_waitq_fifo;
          Alcotest.test_case "wake empty" `Quick test_waitq_wake_empty;
          Alcotest.test_case "ring wraps and grows in order" `Quick
            test_waitq_ring_grows;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "read before fill" `Quick test_ivar_read_then_fill;
          Alcotest.test_case "readers wake oldest first" `Quick
            test_ivar_wake_order;
          Alcotest.test_case "read of a full ivar" `Quick
            test_ivar_read_when_full;
          Alcotest.test_case "filled once" `Quick test_ivar_fill_once;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "golden draws" `Quick test_rng_golden;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independent;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        ]
        @ qsuite [ prop_rng_int_bounds ] );
      ( "histogram",
        [
          Alcotest.test_case "summary stats" `Quick test_histogram_stats;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "p999 edge cases" `Quick test_histogram_p999;
        ]
        @ qsuite
            [ prop_histogram_mean_bounded; prop_histogram_percentile_sorted ]
      );
      ("stats", [ Alcotest.test_case "counters" `Quick test_stats_counters ]);
      ( "resource",
        [
          Alcotest.test_case "pool limits concurrency" `Quick
            test_pool_limits_concurrency;
          Alcotest.test_case "pool release unacquired" `Quick
            test_pool_release_unacquired;
          Alcotest.test_case "server serializes" `Quick test_server_serializes;
          Alcotest.test_case "server idle no wait" `Quick
            test_server_idle_no_wait;
        ] );
      ( "budget",
        [
          Alcotest.test_case "after allocation" `Quick test_after_budget;
          Alcotest.test_case "zero-delay schedule allocation" `Quick
            test_zero_delay_budget;
          Alcotest.test_case "spawn allocation" `Quick test_spawn_budget;
          Alcotest.test_case "parked delay" `Quick test_delay_budget;
          Alcotest.test_case "Waitq park + wake" `Quick test_waitq_budget;
          Alcotest.test_case "Ivar park + fill" `Quick test_ivar_budget;
          Alcotest.test_case "event queue push + take allocation" `Quick
            test_eventq_budget;
        ] );
    ]
