module Pool = struct
  type t = {
    engine : Engine.t;
    capacity : int;
    mutable in_use : int;
    mutable waits : int;
    mutable busy_integral : int;  (* unit-ns accumulated *)
    mutable last_change : Time_ns.t;
    waiters : unit Waitq.t;
  }

  let create engine ~capacity =
    if capacity <= 0 then invalid_arg "Pool.create: capacity must be positive";
    {
      engine;
      capacity;
      in_use = 0;
      waits = 0;
      busy_integral = 0;
      last_change = Engine.now engine;
      waiters = Waitq.create ();
    }

  let account t =
    let now = Engine.now t.engine in
    t.busy_integral <- t.busy_integral + (t.in_use * (now - t.last_change));
    t.last_change <- now

  let capacity t = t.capacity
  let in_use t = t.in_use
  let waits t = t.waits

  let acquire t =
    if t.in_use < t.capacity then begin
      account t;
      t.in_use <- t.in_use + 1
    end
    else begin
      t.waits <- t.waits + 1;
      Waitq.wait t.engine t.waiters;
      (* The releaser transferred its unit to us: [in_use] is unchanged. *)
    end

  let release t =
    if t.in_use <= 0 then invalid_arg "Pool.release: not acquired";
    (* Handing the unit to a waiter keeps in_use constant. *)
    if not (Waitq.wake_one t.waiters ()) then begin
      account t;
      t.in_use <- t.in_use - 1
    end

  let busy_core_ns t =
    t.busy_integral
    + (t.in_use * (Engine.now t.engine - t.last_change))

  let use t d =
    acquire t;
    Engine.delay t.engine d;
    release t
end

module Server = struct
  type t = {
    engine : Engine.t;
    mutable ns_per_byte : float;
    mutable busy_until : Time_ns.t;
  }

  let create engine ~bytes_per_us =
    if bytes_per_us <= 0.0 then
      invalid_arg "Server.create: rate must be positive";
    { engine; ns_per_byte = 1_000.0 /. bytes_per_us; busy_until = 0 }

  (* Rate changes only affect work accepted afterwards: already-queued
     transfers computed their service time at admission, which matches a
     store-and-forward switch draining its committed frames. *)
  let set_rate t ~bytes_per_us =
    if bytes_per_us <= 0.0 then
      invalid_arg "Server.set_rate: rate must be positive";
    t.ns_per_byte <- 1_000.0 /. bytes_per_us

  let rate t = 1_000.0 /. t.ns_per_byte

  let reserve t ~bytes =
    if bytes < 0 then invalid_arg "Server.reserve: negative size";
    let now = Engine.now t.engine in
    let start = max now t.busy_until in
    let service = int_of_float (Float.round (float_of_int bytes *. t.ns_per_byte)) in
    t.busy_until <- start + service;
    t.busy_until - now

  let transfer t ~bytes = Engine.delay t.engine (reserve t ~bytes)
end
