module Mutex = struct
  (* Two-state futex mutex (Drepper, "Futexes Are Tricky"): 0 = free,
     1 = locked, 2 = locked with possible waiters. Only a holder that
     observed contention pays the delegated FUTEX_WAKE; the uncontended
     unlock is a single CAS, which matters here far more than on real
     hardware — every futex syscall of a remote thread is an origin
     round-trip. *)
  type t = { addr : Dex_mem.Page.addr }

  let create proc ?(tag = "mutex") () =
    (* A real pthread_mutex_t is 40 bytes; the futex word leads it. *)
    { addr = Process.alloc_static proc ~align:8 ~bytes:40 ~tag () }

  let try_lock th t =
    Process.cas th ~site:"mutex.lock" t.addr ~expected:0L ~desired:1L

  let rec lock_contended th t =
    (* Acquire as 2 — we cannot know whether other waiters remain, so
       our eventual unlock must wake (at worst one spurious wake) — or
       advertise waiters on the current holder and sleep while the word
       stays 2. *)
    if
      not (Process.cas th ~site:"mutex.lock" t.addr ~expected:0L ~desired:2L)
    then begin
      ignore
        (Process.cas th ~site:"mutex.lock" t.addr ~expected:1L ~desired:2L);
      ignore (Process.futex_wait th ~addr:t.addr ~expected:2L);
      lock_contended th t
    end

  let lock th t = if not (try_lock th t) then lock_contended th t

  let unlock th t =
    if Process.cas th ~site:"mutex.unlock" t.addr ~expected:1L ~desired:0L
    then
      (* No waiter ever announced itself: skip the wake syscall. *)
      Dex_sim.Stats.incr
        (Process.stats (Process.self_process th))
        "sync.wake_elided"
    else begin
      Process.store th ~site:"mutex.unlock" t.addr 0L;
      ignore (Process.futex_wake th ~addr:t.addr ~count:1)
    end

  let with_lock th t f =
    lock th t;
    Fun.protect ~finally:(fun () -> unlock th t) f
end

module Barrier = struct
  type t = {
    parties : int;
    count_addr : Dex_mem.Page.addr;
    gen_addr : Dex_mem.Page.addr;
  }

  let create proc ~parties ?(tag = "barrier") () =
    if parties <= 0 then invalid_arg "Barrier.create: parties must be positive";
    let base = Process.alloc_static proc ~align:8 ~bytes:16 ~tag () in
    { parties; count_addr = base; gen_addr = base + 8 }

  let await th t =
    let gen = Process.load th ~site:"barrier.gen" t.gen_addr in
    let arrived =
      Int64.to_int (Process.fetch_add th ~site:"barrier.arrive" t.count_addr 1L)
    in
    if arrived = t.parties - 1 then begin
      (* Last arrival: reset and release the generation. *)
      Process.store th ~site:"barrier.reset" t.count_addr 0L;
      Process.store th ~site:"barrier.release" t.gen_addr (Int64.add gen 1L);
      ignore (Process.futex_wake th ~addr:t.gen_addr ~count:max_int)
    end
    else begin
      let rec sleep () =
        if Process.load th ~site:"barrier.check" t.gen_addr = gen then begin
          ignore (Process.futex_wait th ~addr:t.gen_addr ~expected:gen);
          sleep ()
        end
      in
      sleep ()
    end
end
