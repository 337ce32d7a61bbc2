(* dexbench: the repository benchmark. One invocation runs one workload.

   dexbench --workload fig2|pingpong|homes|serve [--seed N] [--seconds S]
            [--trace 0|1] [--trace-out FILE] [--tiny]

   It sets the workload up, reads the live heap in one untimed memory
   pass, then repeats the workload's rep until [--seconds] of wall clock
   are spent, checks every result, prints one line per metric, and ends
   with one JSON line:
   {"correct": _, "attempted": _, "failed": _, "metrics": {...}}.
   Untraced runs report the end-to-end metrics, traced runs the
   per-layer ones (Metrics). Without --seed every generator keeps its
   default; --seed N replaces all of them.

   Host time is the process's CPU time (getrusage), which other load on
   the machine disturbs less than the wall clock. Set-up time is the CPU
   time of process start-up (loading and module initialisation) plus
   the workload's set-up. An untraced run sets up three times and
   reports the median. *)

let workload = ref ""
let seed = ref None
let seconds = ref 10.0
let trace = ref false
let trace_out = ref ""
let size = ref Work.Bench

let parse_args () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME fig2, pingpong, homes or serve");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N seed for every generator");
      ("--seconds", Arg.Set_float seconds, "S wall-clock seconds to measure (10)");
      ( "--trace",
        Arg.Int (fun n -> trace := n <> 0),
        "0|1 1: traced run, per-layer metrics and a trace file" );
      ( "--trace-out",
        Arg.Set_string trace_out,
        "FILE trace file (.bench_out/<workload>.trace.json)" );
      ( "--tiny",
        Arg.Unit (fun () -> size := Work.Tiny),
        " shrink the workload to a fraction of a second" );
    ]
  in
  let usage = "dexbench --workload NAME [options]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> w.Work.name = !workload) Work.all with
  | Some w -> w
  | None ->
      Arg.usage specs usage;
      exit 2

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type sample = {
  cpu : float;
  alloc : float;
  minor : int;
  promoted : float;  (** words *)
  rep : Work.rep;
}

(* CPU seconds of process start-up: loading and the initialisation of
   every module before this one. *)
let startup = Sys.time ()

(* Each rep starts from a collected heap, so no rep pays for collecting
   the garbage of the one before. *)
let run_rep label rep =
  Gc.full_major ();
  let g0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let c0 = Sys.time () in
  let rep = Spans.host label rep in
  let cpu = Sys.time () -. c0 in
  let g1 = Gc.quick_stat () in
  {
    cpu;
    alloc = Gc.allocated_bytes () -. a0;
    minor = g1.minor_collections - g0.minor_collections;
    promoted = g1.promoted_words -. g0.promoted_words;
    rep;
  }

(* One untimed rep that reads the live heap at the workload's fixed
   points (Work.probing). *)
let memory_pass p =
  let sim_on = !Spans.sim_on in
  Spans.sim_on := false;
  Work.probing := true;
  let s = run_rep "memory pass" p in
  Work.probing := false;
  Spans.sim_on := sim_on;
  s

let timed p =
  let deadline = Unix.gettimeofday () +. !seconds in
  let min_reps = if !trace then 2 else 1 in
  let rec go acc n =
    let w0 = Unix.gettimeofday () in
    let s = run_rep (Printf.sprintf "rep %d" (n + 1)) p in
    (* Sim spans cover the first timed rep only. *)
    Spans.sim_on := false;
    let now = Unix.gettimeofday () in
    (* Start another rep only if it should end before the deadline. *)
    if n + 1 >= min_reps && (!size = Work.Tiny || now +. (now -. w0) > deadline)
    then List.rev (s :: acc)
    else go (s :: acc) (n + 1)
  in
  go [] 0

(* Set up [n] times: the CPU seconds of each set-up, and one rep. *)
let set_up (w : Work.t) n =
  let once _ =
    let c0 = Sys.time () in
    let rep = w.prepare !size !seed in
    (Sys.time () -. c0, rep)
  in
  let runs = List.init n once in
  (List.map fst runs, snd (List.hd runs))

let () =
  let w = parse_args () in
  (* Microbenchmarks first, on a fresh heap, so the workload's heap does
     not add GC work to their per-call cost. They run only in traced
     runs, which do not report setup_s. *)
  let micro =
    if !trace then Micro.run ~quota:(if !size = Work.Tiny then 0.01 else 0.25)
    else []
  in
  Spans.host_on := !trace;
  Spans.sim_on := !trace;
  let setup_times, prepared = set_up w (if !trace then 1 else 3) in
  let setup_s = startup +. median setup_times in
  let memory = memory_pass prepared in
  let samples = timed prepared in
  let attempted = List.fold_left (fun n s -> n + s.rep.ops) 0 (memory :: samples) in
  let failed = List.fold_left (fun n s -> n + s.rep.failed) 0 (memory :: samples) in
  let values =
    if not !trace then
      [
        (* Reps repeat identical work, so what differs between them is
           interference from other load on the machine, which only ever
           slows them down: the fastest is the least disturbed reading. *)
        ( "ops_per_s",
          List.fold_left
            (fun best s -> Float.max best (float_of_int s.rep.ops /. s.cpu))
            0.0 samples );
        ("setup_s", setup_s);
        ( "alloc_kb_per_op",
          median
            (List.map
               (fun s -> s.alloc /. 1024.0 /. float_of_int (max 1 s.rep.ops))
               samples) );
        ( "live_peak_mb",
          float_of_int (!Work.live_peak_words * (Sys.word_size / 8)) /. 1e6 );
      ]
    else begin
      let overhead =
        match samples with
        | first :: (_ :: _ as rest) ->
            100.0 *. ((first.cpu /. median (List.map (fun s -> s.cpu) rest)) -. 1.0)
        | _ -> 0.0
      in
      (* Median over the timed reps; values only the memory pass reads
         (the heap probes) come from it. *)
      let layer name =
        match List.filter_map (fun s -> List.assoc_opt name s.rep.layers) samples with
        | [] -> Option.value ~default:0.0 (List.assoc_opt name memory.rep.layers)
        | vs -> median vs
      in
      List.map
        (fun (name, _, _) ->
          let v =
            match name with
            | "host.minor_gcs" ->
                median (List.map (fun s -> float_of_int s.minor) samples)
            | "host.promoted_mb" ->
                median
                  (List.map
                     (fun s -> s.promoted *. float_of_int (Sys.word_size / 8) /. 1e6)
                     samples)
            | "trace.overhead_pct" -> overhead
            | _ -> (
                match List.assoc_opt name micro with Some v -> v | None -> layer name)
          in
          (name, v))
        Metrics.per_layer
    end
  in
  let units =
    if !trace then List.map (fun (n, u, k) -> (n, (u, k))) Metrics.per_layer
    else List.map (fun (n, u) -> (n, (u, Metrics.Host))) Metrics.end_to_end
  in
  Printf.printf "dexbench %s: %s, seed %s, %d timed reps, %d ops, %d failed\n"
    w.name
    (match !size with Work.Tiny -> "tiny" | Work.Bench -> "bench")
    (match !seed with Some n -> string_of_int n | None -> "default")
    (List.length samples) attempted failed;
  Printf.printf "rep cpu s:%s\n"
    (String.concat "" (List.map (fun s -> Printf.sprintf " %.3f" s.cpu) samples));
  List.iter
    (fun (name, v) ->
      let u, kind = List.assoc name units in
      Printf.printf "  %-4s %-32s %16.4f %s\n"
        (match kind with Metrics.Host -> "host" | Metrics.Sim -> "sim")
        name v u)
    values;
  if !trace then begin
    let file =
      if !trace_out <> "" then !trace_out
      else begin
        if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
        Filename.concat ".bench_out" (w.name ^ ".trace.json")
      end
    in
    Spans.write file;
    Printf.printf "trace: %s (%d spans)\n" file (List.length !Spans.events)
  end;
  print_endline
    (Json.obj
       [
         ("correct", Json.bool (failed = 0));
         ("attempted", Json.int attempted);
         ("failed", Json.int failed);
         ( "metrics",
           Json.obj
             (List.map
                (fun (name, v) ->
                  let unit = fst (List.assoc name units) in
                  (name, Json.obj [ ("value", Json.num v); ("unit", Json.str unit) ]))
                values) );
       ])
