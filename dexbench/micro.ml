(* Host cost of the hot operations of the sim and mem layers, in ns per
   call, measured with bechamel. Each is a per-layer metric; the README
   names the end-to-end metric each should move. *)

open Bechamel

(* A queue held at 1024 pending events, as in a running simulation: each
   call fires the earliest event and schedules a later one. *)
let event_queue () =
  let q = Dex_sim.Event_queue.create () in
  let seq = ref 0 in
  let push time =
    incr seq;
    Dex_sim.Event_queue.push q ~time ~seq:!seq ignore
  in
  for i = 1 to 1024 do
    push (i * 13 mod 10_000)
  done;
  Staged.stage (fun () ->
      match Dex_sim.Event_queue.pop q with
      | Some (time, _) -> push (time + (!seq * 13 mod 10_000))
      | None -> assert false)

(* A counter table the size of a coherence instance's. *)
let stats_incr () =
  let s = Dex_sim.Stats.create () in
  List.iter
    (fun k -> Dex_sim.Stats.incr s (Printf.sprintf "layer.counter_%02d" k))
    (List.init 40 Fun.id);
  Staged.stage (fun () -> Dex_sim.Stats.incr s "layer.counter_17")

(* Histograms keep every sample; start a fresh one now and then so the
   measurement does not grow the heap without bound. *)
let histogram_add () =
  let h = ref (Dex_sim.Histogram.create ()) in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      if !i land 0xFFFF = 0 then h := Dex_sim.Histogram.create ();
      Dex_sim.Histogram.add !h !i)

let page_table_get () =
  let t = Dex_mem.Page_table.create () in
  for i = 0 to 4095 do
    Dex_mem.Page_table.set t (i * 3) Dex_mem.Perm.Read
  done;
  Staged.stage (fun () ->
      ignore (Dex_mem.Page_table.get t 3003 : Dex_mem.Perm.access option))

let radix_find () =
  let t = Dex_mem.Radix_tree.create () in
  for i = 0 to 4095 do
    Dex_mem.Radix_tree.set t (i * 7) i
  done;
  Staged.stage (fun () -> ignore (Dex_mem.Radix_tree.find t 777 : int option))

let vma_find () =
  let t = Dex_mem.Vma_tree.create () in
  for i = 0 to 255 do
    Dex_mem.Vma_tree.insert t
      (Dex_mem.Vma.make ~start:(i * 65536) ~len:4096 ~perm:Dex_mem.Perm.rw
         ~tag:"x")
  done;
  Staged.stage (fun () ->
      ignore (Dex_mem.Vma_tree.find t (128 * 65536) : Dex_mem.Vma.t option))

let directory_transition () =
  let d = Dex_mem.Directory.create ~origin:0 in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      let p = !i land 0xFFF in
      Dex_mem.Directory.set_exclusive d p (!i land 7);
      ignore (Dex_mem.Directory.state d p))

let tests =
  [
    ("sim.event_queue_ns", event_queue);
    ("sim.stats_incr_ns", stats_incr);
    ("sim.histogram_add_ns", histogram_add);
    ("mem.page_table_get_ns", page_table_get);
    ("mem.radix_find_ns", radix_find);
    ("mem.vma_find_ns", vma_find);
    ("mem.directory_transition_ns", directory_transition);
  ]

let names = List.map fst tests

(* [(metric, ns per call)], [quota] seconds of sampling per operation. *)
let run ~quota =
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |] in
  List.map
    (fun (name, make) ->
      let raw = Benchmark.all cfg [ clock ] (Test.make ~name (make ())) in
      let est =
        Hashtbl.fold
          (fun _ r acc ->
            match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> acc)
          (Analyze.all ols clock raw)
          Float.nan
      in
      if Float.is_nan est then failwith ("bechamel: no estimate for " ^ name);
      (name, est))
    tests
