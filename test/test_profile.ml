(* Tests for the page-fault profiling toolchain. *)

open Dex_sim
open Dex_core
module FE = Dex_proto.Fault_event
module Trace = Dex_profile.Trace
module Analysis = Dex_profile.Analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A little application that writes to a shared flag from two nodes (hot
   site) and streams over a private buffer (cold site). *)
let run_traced () =
  let cl = Dex.cluster ~nodes:2 () in
  let trace = ref None in
  let proc_ref = ref None in
  let proc =
    Dex.run cl (fun proc main ->
        proc_ref := Some proc;
        trace := Some (Trace.attach (Process.coherence proc));
        let flag = Process.malloc main ~bytes:8 ~tag:"shared_flag" in
        let buf = Process.memalign main ~align:4096 ~bytes:8192 ~tag:"buf" in
        Process.store main flag 0L;
        let th =
          Process.spawn proc (fun th ->
              Process.migrate th 1;
              Process.read th ~site:"scan_buf" buf ~len:8192;
              for i = 1 to 40 do
                Process.store th ~site:"flag_update" flag (Int64.of_int i);
                Process.compute th ~ns:(Time_ns.us 25)
              done;
              Process.migrate th 0)
        in
        for i = 1 to 40 do
          Process.store main ~site:"flag_update" flag (Int64.of_int (100 + i));
          Process.compute main ~ns:(Time_ns.us 25)
        done;
        Process.join th)
  in
  (Option.get !trace, proc)

let test_trace_collects () =
  let trace, _proc = run_traced () in
  check_bool "events collected" true (Trace.count trace > 10);
  let events = Trace.events trace in
  check_int "events list matches count" (Trace.count trace)
    (List.length events);
  (* oldest first *)
  match events with
  | a :: b :: _ -> check_bool "sorted by time" true (a.FE.time <= b.FE.time)
  | _ -> Alcotest.fail "expected events"

let test_by_site_ranks_hot_flag () =
  let trace, _ = run_traced () in
  let faults =
    List.filter (fun e -> e.FE.kind <> FE.Invalidation) (Trace.events trace)
  in
  match Analysis.by_site faults with
  | (site, n) :: _ ->
      Alcotest.(check string) "hottest site is the shared flag" "flag_update"
        site;
      check_bool "many flag faults" true (n >= 5)
  | [] -> Alcotest.fail "no sites"

let test_by_object_attribution () =
  let trace, proc = run_traced () in
  let faults =
    List.filter (fun e -> e.FE.kind <> FE.Invalidation) (Trace.events trace)
  in
  let objs = Analysis.by_object (Process.allocator proc) faults in
  check_bool "shared_flag attributed" true
    (List.exists (fun (tag, _) -> tag = "shared_flag") objs);
  check_bool "buf attributed" true
    (List.exists (fun (tag, _) -> tag = "buf") objs)

let test_by_thread_and_kind () =
  let trace, _ = run_traced () in
  let events = Trace.events trace in
  let threads = Analysis.by_thread events in
  check_bool "several (node,tid) buckets" true (List.length threads >= 2);
  let kinds = Analysis.by_kind events in
  check_bool "write faults present" true
    (List.exists (fun (k, _) -> k = FE.Write) kinds);
  check_bool "invalidations present" true
    (List.exists (fun (k, _) -> k = FE.Invalidation) kinds)

let test_timeline_buckets () =
  let trace, _ = run_traced () in
  let tl = Analysis.timeline (Trace.events trace) ~bucket:(Time_ns.us 50) in
  check_bool "timeline non-empty" true (tl <> []);
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) tl in
  check_bool "ascending buckets" true (sorted = tl);
  Alcotest.check_raises "bad bucket"
    (Invalid_argument "Analysis.timeline: bucket must be positive") (fun () ->
      ignore (Analysis.timeline [] ~bucket:0))

let test_contended_pages_found () =
  let trace, _ = run_traced () in
  (* The flag page ping-pongs; whether NACK retries occur depends on
     interleaving, so only check consistency of the report. *)
  List.iter
    (fun (_, n, lat) ->
      check_bool "positive counts" true (n > 0);
      check_bool "positive latency" true (lat > 0.0))
    (Analysis.contended_pages (Trace.events trace))

let test_summary_and_report () =
  let trace, proc = run_traced () in
  let events = Trace.events trace in
  let s = Analysis.summarize ~alloc:(Process.allocator proc) events in
  check_int "reads+writes = total" s.Analysis.total_faults
    (s.Analysis.reads + s.Analysis.writes);
  check_bool "mean latency plausible" true (s.Analysis.mean_latency_ns > 0.0);
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Dex_profile.Report.pp_summary ~alloc:(Process.allocator proc) fmt events;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  check_bool "report mentions profile" true
    (String.length out > 0 && contains out "DeX page-fault profile")

let test_detach_stops_collection () =
  let cl = Dex.cluster ~nodes:2 () in
  ignore
    (Dex.run cl (fun proc main ->
         let trace = Trace.attach (Process.coherence proc) in
         let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               ignore (Process.load th cell))
         in
         Process.join th;
         let n = Trace.count trace in
         Trace.detach trace;
         let th2 =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               Process.store th cell 3L)
         in
         Process.join th2;
         check_int "no growth after detach" n (Trace.count trace);
         Trace.clear trace;
         check_int "cleared" 0 (Trace.count trace)))

let test_sharing_matrix () =
  let trace, _ = run_traced () in
  let matrix = Analysis.sharing_matrix (Trace.events trace) in
  (match matrix with
  | (_, sharers) :: _ ->
      (* the flag page is faulted on by both nodes *)
      check_bool "hottest page shared by 2+ nodes" true
        (List.length sharers >= 2)
  | [] -> Alcotest.fail "empty matrix");
  (* descending by sharer count *)
  let counts = List.map (fun (_, s) -> List.length s) matrix in
  check_bool "sorted descending" true
    (List.sort (fun a b -> compare b a) counts = counts)

let test_csv_export () =
  let trace, _ = run_traced () in
  let csv = Trace.to_csv trace in
  let lines = String.split_on_char '\n' csv in
  (match lines with
  | header :: _ ->
      Alcotest.(check string) "header"
        "time_ns,node,tid,kind,site,addr,latency_ns,retries" header
  | [] -> Alcotest.fail "empty csv");
  (* header + one row per event + trailing newline *)
  check_int "one row per event"
    (Trace.count trace + 2)
    (List.length lines);
  let path = Filename.temp_file "dex_trace" ".csv" in
  Trace.save_csv trace path;
  let size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  check_int "file written" (String.length csv) size

(* --- bounded trace ring ------------------------------------------------- *)

(* An always-on tracer must hold at most [capacity] events, evicting the
   oldest and accounting every eviction — both on the trace itself and as
   a [trace.dropped] counter the autopilot digest can surface. *)
let test_trace_ring_bounded () =
  let cl = Dex.cluster ~nodes:2 () in
  let seen = ref 0 in
  let dropped_stat = ref 0 in
  let trace = ref None in
  ignore
    (Dex.run cl (fun proc main ->
         Alcotest.check_raises "zero capacity refused"
           (Invalid_argument "Trace.attach: capacity must be positive")
           (fun () ->
             ignore (Trace.attach ~capacity:0 (Process.coherence proc)));
         let t = Trace.attach ~capacity:8 (Process.coherence proc) in
         trace := Some t;
         let cell = Process.malloc main ~bytes:8 ~tag:"cell" in
         Process.store main cell 0L;
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               for i = 1 to 60 do
                 Process.store th ~site:"pingpong" cell (Int64.of_int i);
                 Process.compute th ~ns:(Time_ns.us 25)
               done)
         in
         for i = 1 to 60 do
           Process.store main ~site:"pingpong" cell (Int64.of_int (100 + i));
           Process.compute main ~ns:(Time_ns.us 25)
         done;
         Process.join th;
         seen := Trace.count t + Trace.dropped t;
         dropped_stat :=
           Dex_sim.Stats.get
             (Dex_proto.Coherence.stats (Process.coherence proc))
             "trace.dropped"));
  let t = Option.get !trace in
  check_bool "workload overflowed the ring" true (!seen > 8);
  check_int "ring holds exactly its capacity" 8 (Trace.count t);
  check_int "every eviction accounted" (!seen - 8) (Trace.dropped t);
  check_int "trace.dropped stat matches" (Trace.dropped t) !dropped_stat;
  (* Eviction keeps the newest events: the survivors span one tight
     late-run window, not the whole ping-pong. *)
  let times = List.map (fun e -> e.FE.time) (Trace.events t) in
  let min_t = List.fold_left min max_int times
  and max_t = List.fold_left max 0 times in
  check_bool "retained events are the newest window" true
    (max_t - min_t < Time_ns.us 500)

(* --- RFC-4180 CSV escaping ---------------------------------------------- *)

(* Site tags are user strings: a comma, quote or newline in one must not
   shear the CSV row. *)
let test_csv_escapes_sites () =
  let cl = Dex.cluster ~nodes:2 () in
  let trace = ref None in
  ignore
    (Dex.run cl (fun proc main ->
         trace := Some (Trace.attach (Process.coherence proc));
         (* One page per site: each access is that page's first from the
            remote node, so each site tag lands in exactly one record. *)
         let page tag = Process.memalign main ~align:4096 ~bytes:8 ~tag in
         let a = page "a" and b = page "b" and c = page "c" and d = page "d" in
         Process.store main a 1L;
         let th =
           Process.spawn proc (fun th ->
               Process.migrate th 1;
               ignore (Process.load th ~site:"f(a, b)" a);
               Process.store th ~site:"say \"hi\"" b 2L;
               Process.store th ~site:"line\nbreak" c 3L;
               Process.store th ~site:"plain_site" d 4L)
         in
         Process.join th));
  let csv = Trace.to_csv (Option.get !trace) in
  check_bool "comma field quoted" true (contains csv ",\"f(a, b)\",");
  check_bool "embedded quotes doubled" true
    (contains csv ",\"say \"\"hi\"\"\",");
  check_bool "newline field quoted" true (contains csv ",\"line\nbreak\",");
  check_bool "plain field left bare" true (contains csv ",plain_site,");
  (* Un-shearing check: parsing quote-aware yields one record per event,
     while a naive line count would now overcount. *)
  let rows = ref 0 and in_quotes = ref false in
  String.iter
    (fun c ->
      if c = '"' then in_quotes := not !in_quotes
      else if c = '\n' && not !in_quotes then incr rows)
    csv;
  check_int "quote-aware row count = header + events"
    (Trace.count (Option.get !trace) + 1)
    !rows

(* --- deterministic analysis orderings ----------------------------------- *)

let ev ?(kind = FE.Write) ?(node = 0) ?(tid = 0) ?(site = "s") ~time addr =
  { FE.time; node; tid; kind; site; addr; latency = 100; retries = 0 }

(* Equal counts must order by key, not by Hashtbl fold order — the
   autopilot acts on "the hottest page first", so ties must be stable
   run-to-run. *)
let test_analysis_tie_determinism () =
  let events =
    [
      ev ~time:1 0x2000; ev ~time:2 0x1000; ev ~time:3 0x3000;
      ev ~time:4 0x3000; ev ~time:5 0x1000; ev ~time:6 0x2000;
    ]
  in
  Alcotest.(check (list (pair int int)))
    "by_page ties break on ascending page"
    [ (0x1000, 2); (0x2000, 2); (0x3000, 2) ]
    (Analysis.by_page events);
  let traffic = Analysis.page_traffic events in
  Alcotest.(check (list int))
    "page_traffic ties break on ascending page"
    [ 0x1000; 0x2000; 0x3000 ]
    (List.map (fun pt -> pt.Analysis.pt_addr) traffic);
  let sites =
    Analysis.by_site
      [ ev ~site:"b" ~time:1 0x1000; ev ~site:"a" ~time:2 0x1000 ]
  in
  Alcotest.(check (list (pair string int)))
    "by_site ties break on ascending site"
    [ ("a", 1); ("b", 1) ] sites

(* Directed classification table: the four classes from synthetic windows. *)
let test_classify_directed () =
  let mk events = List.hd (Analysis.page_traffic events) in
  let classify = Analysis.classify in
  (* Single writer node, two reader nodes, reads >= 2x writes. *)
  let read_mostly =
    mk
      [
        ev ~time:1 0x1000 ~kind:FE.Write ~node:0;
        ev ~time:2 0x1000 ~kind:FE.Read ~node:1;
        ev ~time:3 0x1000 ~kind:FE.Read ~node:2;
        ev ~time:4 0x1000 ~kind:FE.Read ~node:1;
        ev ~time:5 0x1000 ~kind:FE.Read ~node:2;
      ]
  in
  (match classify read_mostly with
  | Analysis.Read_mostly { readers } ->
      Alcotest.(check (list int)) "reader nodes listed" [ 1; 2 ] readers
  | _ -> Alcotest.fail "expected Read_mostly");
  (* Same shape but write-heavy: ratio filter keeps it quiet. *)
  let write_heavy =
    mk
      [
        ev ~time:1 0x1000 ~kind:FE.Write ~node:0;
        ev ~time:2 0x1000 ~kind:FE.Write ~node:0;
        ev ~time:3 0x1000 ~kind:FE.Read ~node:1;
        ev ~time:4 0x1000 ~kind:FE.Read ~node:2;
        ev ~time:5 0x1000 ~kind:FE.Read ~node:1;
      ]
  in
  (match classify write_heavy with
  | Analysis.Quiet -> ()
  | _ -> Alcotest.fail "2 writes x 3 reads must stay Quiet (needs 2x)");
  (* Two writer nodes alternating every write: ping-pong, dominant =
     heaviest writer (lowest node on a tie). *)
  let ping_pong =
    mk
      [
        ev ~time:1 0x1000 ~kind:FE.Write ~node:0;
        ev ~time:2 0x1000 ~kind:FE.Write ~node:1;
        ev ~time:3 0x1000 ~kind:FE.Write ~node:0;
        ev ~time:4 0x1000 ~kind:FE.Write ~node:1;
      ]
  in
  (match classify ping_pong with
  | Analysis.Ping_pong { dominant } -> check_int "dominant writer" 0 dominant
  | _ -> Alcotest.fail "expected Ping_pong");
  (* Two writers, but one long run each (1 flip over 6 writes): false
     sharing, not ping-pong. *)
  let false_shared =
    mk
      [
        ev ~time:1 0x1000 ~kind:FE.Write ~node:1;
        ev ~time:2 0x1000 ~kind:FE.Write ~node:1;
        ev ~time:3 0x1000 ~kind:FE.Write ~node:1;
        ev ~time:4 0x1000 ~kind:FE.Write ~node:0;
        ev ~time:5 0x1000 ~kind:FE.Write ~node:0;
        ev ~time:6 0x1000 ~kind:FE.Write ~node:0;
      ]
  in
  (match classify false_shared with
  | Analysis.False_shared { nodes } ->
      Alcotest.(check (list int)) "both writer nodes" [ 0; 1 ] nodes
  | _ -> Alcotest.fail "expected False_shared");
  (* Below the fault floor: quiet regardless of shape. *)
  (match
     classify
       (mk [ ev ~time:1 0x1000 ~kind:FE.Write ~node:0;
             ev ~time:2 0x1000 ~kind:FE.Write ~node:1 ])
   with
  | Analysis.Quiet -> ()
  | _ -> Alcotest.fail "below the fault floor must be Quiet")

let test_window_filters_old_events () =
  let events = [ ev ~time:100 0x1000; ev ~time:200 0x2000; ev ~time:300 0x3000 ] in
  Alcotest.(check (list int))
    "only events newer than now - width survive" [ 0x2000; 0x3000 ]
    (List.map
       (fun e -> e.FE.addr)
       (Analysis.window ~now:300 ~width:150 events))

let () =
  Alcotest.run "dex_profile"
    [
      ( "profile",
        [
          Alcotest.test_case "trace collects" `Quick test_trace_collects;
          Alcotest.test_case "by_site ranking" `Quick test_by_site_ranks_hot_flag;
          Alcotest.test_case "object attribution" `Quick
            test_by_object_attribution;
          Alcotest.test_case "by thread/kind" `Quick test_by_thread_and_kind;
          Alcotest.test_case "timeline" `Quick test_timeline_buckets;
          Alcotest.test_case "contended pages" `Quick
            test_contended_pages_found;
          Alcotest.test_case "summary + report" `Quick test_summary_and_report;
          Alcotest.test_case "detach" `Quick test_detach_stops_collection;
          Alcotest.test_case "CSV export" `Quick test_csv_export;
          Alcotest.test_case "sharing matrix" `Quick test_sharing_matrix;
          Alcotest.test_case "bounded trace ring" `Quick test_trace_ring_bounded;
          Alcotest.test_case "CSV escaping (RFC 4180)" `Quick
            test_csv_escapes_sites;
          Alcotest.test_case "deterministic tie ordering" `Quick
            test_analysis_tie_determinism;
          Alcotest.test_case "directed page classification" `Quick
            test_classify_directed;
          Alcotest.test_case "window filter" `Quick
            test_window_filters_old_events;
        ] );
    ]
