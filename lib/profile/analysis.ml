module FE = Dex_proto.Fault_event

type event = FE.t

let count_by key events =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let k = key e in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let descending l =
  List.sort (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb)) l

let by_site events =
  descending (count_by (fun e -> e.FE.site) events)

let by_object alloc events =
  let name e =
    match Dex_mem.Allocator.object_at alloc e.FE.addr with
    | Some (tag, _, _) -> tag
    | None -> "<unknown>"
  in
  descending (count_by name events)

let by_page events = descending (count_by (fun e -> e.FE.addr) events)

let by_thread events =
  descending (count_by (fun e -> (e.FE.node, e.FE.tid)) events)

let by_kind events = descending (count_by (fun e -> e.FE.kind) events)

let timeline events ~bucket =
  if bucket <= 0 then invalid_arg "Analysis.timeline: bucket must be positive";
  count_by (fun e -> e.FE.time / bucket * bucket) events
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let is_fault e = e.FE.kind <> FE.Invalidation

let contended_pages events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      if is_fault e && e.FE.retries > 0 then begin
        let n, lat_sum = Option.value (Hashtbl.find_opt tbl e.FE.addr) ~default:(0, 0) in
        Hashtbl.replace tbl e.FE.addr (n + 1, lat_sum + e.FE.latency)
      end)
    events;
  Hashtbl.fold
    (fun page (n, lat_sum) acc ->
      (page, n, float_of_int lat_sum /. float_of_int n) :: acc)
    tbl []
  (* Count descending, page address as the tie-break: ties must not come
     out in Hashtbl.fold order on a deterministic simulator. *)
  |> List.sort (fun (pa, a, _) (pb, b, _) -> compare (b, pa) (a, pb))

let sharing_matrix events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      if is_fault e then begin
        let nodes = Option.value (Hashtbl.find_opt tbl e.FE.addr) ~default:[] in
        if not (List.mem e.FE.node nodes) then
          Hashtbl.replace tbl e.FE.addr (e.FE.node :: nodes)
      end)
    events;
  Hashtbl.fold
    (fun page nodes acc -> (page, List.sort compare nodes) :: acc)
    tbl []
  |> List.sort (fun (pa, a) (pb, b) ->
         compare (List.length b, pa) (List.length a, pb))

(* ------------------------------------------------------------------ *)
(* Windowed per-page traffic for the placement autopilot: who reads,
   who writes, and how often exclusive ownership flips between nodes. *)

let window ~now ~width events =
  List.filter (fun e -> e.FE.time > now - width) events

type page_traffic = {
  pt_addr : Dex_mem.Page.addr;
  pt_reads : int;
  pt_writes : int;
  pt_readers : (int * int) list;
  pt_writers : (int * int) list;
  pt_threads : ((int * int) * int) list;
  pt_flips : int;
}

type page_class =
  | Ping_pong of { dominant : int }
  | False_shared of { nodes : int list }
  | Read_mostly of { readers : int list }
  | Quiet

let page_traffic events =
  let module Tbl = Hashtbl in
  let tbl = Tbl.create 32 in
  let bump t k =
    Tbl.replace t k (1 + Option.value (Tbl.find_opt t k) ~default:0)
  in
  let state addr =
    match Tbl.find_opt tbl addr with
    | Some s -> s
    | None ->
        let s =
          ( ref 0, ref 0, Tbl.create 4, Tbl.create 4, Tbl.create 8,
            ref 0, ref (-1) )
        in
        Tbl.replace tbl addr s;
        s
  in
  (* Oldest-first order matters: flips count transitions of the faulting
     writer node over time. *)
  List.iter
    (fun e ->
      if is_fault e then begin
        let reads, writes, rtbl, wtbl, ttbl, flips, last_writer =
          state e.FE.addr
        in
        bump ttbl (e.FE.node, e.FE.tid);
        match e.FE.kind with
        | FE.Write ->
            incr writes;
            bump wtbl e.FE.node;
            if !last_writer >= 0 && !last_writer <> e.FE.node then incr flips;
            last_writer := e.FE.node
        | FE.Read ->
            incr reads;
            bump rtbl e.FE.node
        | FE.Invalidation -> ()
      end)
    events;
  Tbl.fold
    (fun addr (reads, writes, rtbl, wtbl, ttbl, flips, _) acc ->
      {
        pt_addr = addr;
        pt_reads = !reads;
        pt_writes = !writes;
        pt_readers =
          descending (Tbl.fold (fun k v l -> (k, v) :: l) rtbl []);
        pt_writers =
          descending (Tbl.fold (fun k v l -> (k, v) :: l) wtbl []);
        pt_threads =
          descending (Tbl.fold (fun k v l -> (k, v) :: l) ttbl []);
        pt_flips = !flips;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         compare
           (b.pt_reads + b.pt_writes, a.pt_addr)
           (a.pt_reads + a.pt_writes, b.pt_addr))

let classify pt =
  let faults = pt.pt_reads + pt.pt_writes in
  if faults < 4 then Quiet
  else
    match pt.pt_writers with
    | [] | [ _ ] ->
        (* Only fault leaders emit events: after each write grant, at
           most one read re-fault per invalidated node shows up (the
           followers it stalls coalesce silently). So even maximal
           re-read pressure caps the observable read:write ratio at
           [reader nodes]:1, and a 4x floor could never fire on small
           clusters — 2x is the strongest ratio a 3-reader cluster can
           exhibit while still filtering write-heavy pages out. *)
        let readers = List.map fst pt.pt_readers in
        if
          List.length readers >= 2
          && pt.pt_writes * 2 <= pt.pt_reads
        then Read_mostly { readers = List.sort compare readers }
        else Quiet
    | (dominant, _) :: _ :: _ as writers ->
        (* ≥2 writer nodes: a page whose write stream mostly alternates
           between nodes is ping-ponging its exclusive owner; otherwise
           it is plain RW false sharing. [pt_writers] is already sorted
           count-descending with node tie-break, so [dominant] is the
           heaviest (lowest-numbered on ties) faulting writer. *)
        if pt.pt_flips * 2 >= pt.pt_writes then Ping_pong { dominant }
        else False_shared { nodes = List.sort compare (List.map fst writers) }

let mean_latency events =
  let n = ref 0 and sum = ref 0 in
  List.iter
    (fun e ->
      if is_fault e then begin
        incr n;
        sum := !sum + e.FE.latency
      end)
    events;
  if !n = 0 then 0.0 else float_of_int !sum /. float_of_int !n

type summary = {
  total_faults : int;
  reads : int;
  writes : int;
  invalidations : int;
  retried : int;
  mean_latency_ns : float;
  hottest_sites : (string * int) list;
  hottest_objects : (string * int) list;
}

let take n l = List.filteri (fun i _ -> i < n) l

let summarize ?alloc events =
  let kind k = List.length (List.filter (fun e -> e.FE.kind = k) events) in
  {
    total_faults = List.length (List.filter is_fault events);
    reads = kind FE.Read;
    writes = kind FE.Write;
    invalidations = kind FE.Invalidation;
    retried =
      List.length (List.filter (fun e -> is_fault e && e.FE.retries > 0) events);
    mean_latency_ns = mean_latency events;
    hottest_sites = take 5 (by_site (List.filter is_fault events));
    hottest_objects =
      (match alloc with
      | None -> []
      | Some a -> take 5 (by_object a (List.filter is_fault events)));
  }
