open Dex_sim

(* One parked thread, waiting for its verdict. A cancelled waiter (its
   home node crashed) gets [`Crashed] and lingers in the queue as a
   tombstone, an entry whose verdict is in, that [wake_tids]/[waiters] skip: a
   ghost that silently swallowed wakes or inflated the waiter count would
   wedge every surviving thread parked behind it. *)
type waiter = {
  w_owner : int;
  w_tid : int;
  verdict : [ `Woken | `Crashed ] Ivar.t;
}

type t = { engine : Engine.t; queues : (int, waiter Queue.t) Hashtbl.t }

let create engine = { engine; queues = Hashtbl.create 32 }

let queue t addr =
  match Hashtbl.find_opt t.queues addr with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add t.queues addr q;
      q

let wait ?(owner = -1) ?(tid = -1) t ~addr =
  let verdict = Ivar.create () in
  Queue.push { w_owner = owner; w_tid = tid; verdict } (queue t addr);
  Ivar.read t.engine verdict

let wake_tids t ~addr ~count =
  let q = queue t addr in
  let rec go woken tids =
    if woken >= count then List.rev tids
    else
      match Queue.take_opt q with
      | None -> List.rev tids
      | Some w when Ivar.is_full w.verdict ->
          go woken tids (* tombstone, costs nothing *)
      | Some w ->
          Ivar.fill w.verdict `Woken;
          go (woken + 1) (w.w_tid :: tids)
  in
  go 0 []

let waiters t ~addr =
  match Hashtbl.find_opt t.queues addr with
  | None -> 0
  | Some q ->
      Queue.fold (fun n w -> if Ivar.is_full w.verdict then n else n + 1) 0 q

let cancel t ~owned_by =
  let cancelled = ref 0 in
  Hashtbl.iter
    (fun _addr q ->
      Queue.iter
        (fun w ->
          if (not (Ivar.is_full w.verdict)) && owned_by w.w_owner then begin
            (* Tombstone in place; the queue entry drains on a later wake
               or stays inert — either way it is invisible from now on. *)
            incr cancelled;
            Ivar.fill w.verdict `Crashed
          end)
        q)
    t.queues;
  !cancelled
