(* Span recorder for traced runs. Spans stay in memory and are written
   once, at the end, as Chrome trace-event JSON, which Perfetto
   (ui.perfetto.dev) and chrome://tracing open.

   The trace has three timelines, shown as processes in the viewer:
   - host: the host wall clock, one span per rep and per sub-run inside
     it, each carrying the bytes it allocated;
   - sim faults: simulated time, one span per protocol fault over
     [time, time + latency], one track per simulated thread;
   - sim migrations: the migration log laid end to end (the log holds
     durations, not start times), each migration split into its sending
     and receiving sides and the receiving side into its Figure 3
     phases.
   Sim spans are recorded only while [sim_on] is set, which the runner
   does for the first traced rep alone, and at most [sim_cap] of them. *)

type event = {
  name : string;
  pid : int;
  tid : int;
  ts : float;  (** µs *)
  dur : float;  (** µs *)
  args : (string * string) list;  (** values already JSON-encoded *)
}

let host_pid = 1
let fault_pid = 2
let migration_pid = 3
let sim_cap = 50_000
let events = ref []
let host_on = ref false
let sim_on = ref false
let sim_spans = ref 0
let migration_cursor = ref 0.0
let epoch = Unix.gettimeofday ()
let us ns = float_of_int ns /. 1000.0
let push e = events := e :: !events

let sim_room () =
  let room = !sim_on && !sim_spans < sim_cap in
  if room then incr sim_spans;
  room

let host name ?(args = fun _ -> []) f =
  if not !host_on then f ()
  else begin
    let t0 = Unix.gettimeofday () and a0 = Gc.allocated_bytes () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    let alloc = ("alloc_mb", Json.num ((Gc.allocated_bytes () -. a0) /. 1e6)) in
    push
      {
        name;
        pid = host_pid;
        tid = 0;
        ts = (t0 -. epoch) *. 1e6;
        dur = (t1 -. t0) *. 1e6;
        args = alloc :: args r;
      };
    r
  end

(* The hook to install with [Coherence.set_tracer]: [None] outside the
   first traced rep, so untraced reps run without a tracer. *)
let fault_tracer () =
  if not !sim_on then None
  else
    Some
      (fun (e : Dex_proto.Fault_event.t) ->
        match e.kind with
        | Dex_proto.Fault_event.Invalidation -> ()
        | (Read | Write) as kind ->
            if sim_room () then
              push
                {
                  name = (if kind = Read then "read fault" else "write fault");
                  pid = fault_pid;
                  tid = e.tid;
                  ts = us e.time;
                  dur = us e.latency;
                  args =
                    [
                      ("node", Json.int e.node);
                      ("retries", Json.int e.retries);
                      ("site", Json.str e.site);
                      ("addr", Json.int e.addr);
                    ];
                })

let migrations (log : Dex_core.Process.migration_record list) =
  List.iter
    (fun (r : Dex_core.Process.migration_record) ->
      if sim_room () then begin
        let span ?(args = []) name ts dur =
          push { name; pid = migration_pid; tid = r.m_tid; ts; dur; args }
        in
        let start = !migration_cursor in
        let origin = us r.m_origin_ns and remote = us r.m_remote_ns in
        (* Forward: the origin sends, the remote receives; backward the
           other way round. The breakdown is the receiving side's. *)
        let (send_name, send), (recv_name, recv) =
          match r.m_direction with
          | `Forward -> (("origin side", origin), ("remote side", remote))
          | `Backward -> (("remote side", remote), ("origin side", origin))
        in
        span
          (Printf.sprintf "%s migration to node %d"
             (match r.m_direction with
             | `Forward -> "forward"
             | `Backward -> "backward")
             r.m_target)
          start (send +. recv)
          ~args:[ ("first_to_node", Json.bool r.m_first_to_node) ];
        span send_name start send;
        span recv_name (start +. send) recv;
        ignore
          (List.fold_left
             (fun at (phase, ns) ->
               span phase at (us ns);
               at +. us ns)
             (start +. send) r.m_breakdown);
        migration_cursor := start +. send +. recv
      end)
    log

let write file =
  let meta pid name =
    Json.obj
      [
        ("name", Json.str "process_name");
        ("ph", Json.str "M");
        ("pid", Json.int pid);
        ("args", Json.obj [ ("name", Json.str name) ]);
      ]
  in
  let event e =
    Json.obj
      [
        ("name", Json.str e.name);
        ("ph", Json.str "X");
        ("pid", Json.int e.pid);
        ("tid", Json.int e.tid);
        ("ts", Printf.sprintf "%.3f" e.ts);
        ("dur", Printf.sprintf "%.3f" e.dur);
        ("args", Json.obj e.args);
      ]
  in
  let oc = open_out file in
  output_string oc
    (Json.obj
       [
         ("displayTimeUnit", Json.str "ns");
         ( "traceEvents",
           Json.arr
             (meta host_pid "host (wall clock)"
             :: meta fault_pid "sim: protocol faults (simulated time)"
             :: meta migration_pid "sim: migrations (laid end to end)"
             :: List.rev_map event !events) );
       ]);
  output_char oc '\n';
  close_out oc
