type t = {
  coh : Dex_proto.Coherence.t;
  capacity : int option;
  q : Dex_proto.Fault_event.t Queue.t;  (* oldest first *)
  mutable dropped : int;
}

let attach ?capacity coh =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.attach: capacity must be positive"
  | _ -> ());
  let t = { coh; capacity; q = Queue.create (); dropped = 0 } in
  Dex_proto.Coherence.set_tracer coh
    (Some
       (fun e ->
         (match t.capacity with
         | Some cap when Queue.length t.q >= cap ->
             (* Ring semantics: evict the oldest event to admit the new
                one, so an always-on tracer holds at most [cap] events. *)
             ignore (Queue.pop t.q);
             t.dropped <- t.dropped + 1;
             Dex_sim.Stats.incr (Dex_proto.Coherence.stats coh) "trace.dropped"
         | _ -> ());
         Queue.push e t.q));
  t

let detach t = Dex_proto.Coherence.set_tracer t.coh None

let events t = List.of_seq (Queue.to_seq t.q)

let count t = Queue.length t.q

let dropped t = t.dropped
