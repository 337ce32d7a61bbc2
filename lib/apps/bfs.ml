open Dex_core
module A = App_common

type params = {
  scale : int;
  edge_factor : int;
  ns_per_edge : float;
  max_iters : int;
  sample_pages : int;
}

let default_params =
  { scale = 18; edge_factor = 16; ns_per_edge = 12.0; max_iters = 64;
    sample_pages = 64 }

let conversion =
  {
    A.multithread = "Pthread";
    initial_added = 12;
    initial_removed = 8;
    optimized_added = 44;
    optimized_removed = 13;
  }

(* Host level-synchronous BFS from vertex 0; returns levels and the
   per-level frontiers, each in discovery order. *)
let host_bfs (g : Workloads.graph) max_iters =
  let levels = Array.make g.Workloads.vertices (-1) in
  levels.(0) <- 0;
  let rec expand frontier depth acc =
    if frontier = [] || depth >= max_iters then List.rev acc
    else begin
      let next = ref [] in
      List.iter
        (fun v ->
          for e = g.Workloads.offsets.(v) to g.Workloads.offsets.(v + 1) - 1 do
            let u = g.Workloads.targets.(e) in
            if levels.(u) < 0 then begin
              levels.(u) <- depth + 1;
              next := u :: !next
            end
          done)
        frontier;
      expand (List.rev !next) (depth + 1) (Array.of_list frontier :: acc)
    end
  in
  let frontiers = expand [ 0 ] 0 [] in
  (levels, frontiers)

type oracle = {
  graph : Workloads.graph;
  levels : int array;
  frontiers : int array list;
  level_sum : int;
}

let oracle =
  let build (p, seed) =
    let vertices = 1 lsl p.scale in
    let graph =
      Workloads.rmat ~seed ~vertices ~edges:(vertices * p.edge_factor)
    in
    let levels, frontiers = host_bfs graph p.max_iters in
    let level_sum =
      Array.fold_left (fun acc l -> if l > 0 then acc + l else acc) 0 levels
    in
    { graph; levels; frontiers; level_sum }
  in
  let memo = A.memo build in
  fun p ~seed -> memo (p, seed)

let reference_level_sum p ~seed = (oracle p ~seed).level_sum

(* One thread's share of one BFS level. *)
type step = {
  active : bool;  (* some frontier vertex is the thread's own *)
  edges : int;  (* edges it scans *)
  found : int;  (* distinct vertices it discovers *)
  checked : int list;  (* level pages it reads (Initial), ascending *)
  written : int list;  (* level pages it stores, ascending *)
  inboxes : (int * int) list;
      (* (node, discoveries) per inbox it fills, in visiting order
         (Optimized); its own node's entry stands for [written] *)
}

let body p ctx main =
  let { graph = g; levels; frontiers; level_sum } = oracle p ~seed:ctx.A.seed in
  let vertices = g.Workloads.vertices in
  let threads = ctx.A.threads in
  let proc = ctx.A.proc in
  (* Simulated layout: CSR arrays (read-mostly), the level array, the
     frontier counter, and per-node inboxes for the Optimized variant. *)
  let offsets_addr =
    Process.malloc main ~bytes:((vertices + 1) * 8) ~tag:"bfs.offsets"
  in
  let targets_addr =
    Process.malloc main
      ~bytes:(Array.length g.Workloads.targets * 8)
      ~tag:"bfs.targets"
  in
  let levels_addr, counter_addr =
    match ctx.A.variant with
    | A.Baseline | A.Initial ->
        ( Process.malloc main ~bytes:(vertices * 8) ~tag:"bfs.levels",
          Process.malloc main ~bytes:8 ~tag:"bfs.frontier_count" )
    | A.Optimized ->
        ( Process.memalign main ~align:4096 ~bytes:(vertices * 8)
            ~tag:"bfs.levels",
          Process.memalign main ~align:4096 ~bytes:8 ~tag:"bfs.frontier_count"
        )
  in
  let inbox_addr =
    (* One page-aligned inbox per node (Polymer's per-node structures). *)
    Process.memalign main ~align:4096 ~bytes:(ctx.A.nodes * 16 * 4096)
      ~tag:"bfs.inboxes"
  in
  let barrier = Sync.Barrier.create proc ~parties:threads () in
  let vert_part i = A.partition ~total:vertices ~parts:threads ~index:i in
  let owner_of v = A.node_of ctx (v * threads / vertices) in
  (* The thread whose [vert_part] holds [v]. *)
  let thread_of =
    let base = vertices / threads and rem = vertices mod threads in
    let big = rem * (base + 1) in
    fun v -> if v < big then v / (base + 1) else rem + ((v - big) / base)
  in
  (* Each frontier split by owning thread, keeping frontier order. *)
  let buckets =
    List.map
      (fun frontier ->
        let per_thread = Array.make threads [] in
        for k = Array.length frontier - 1 downto 0 do
          let v = frontier.(k) in
          let t = thread_of v in
          per_thread.(t) <- v :: per_thread.(t)
        done;
        per_thread)
      frontiers
  in
  (* Scratch shared by every thread's planning, which never yields: two
     bitmaps of level-array pages, cleared as they are read, and a stamp
     per vertex, so a vertex counts once per (thread, level) with no
     sort. *)
  let checked_pages = Bytes.make ((vertices + 511) / 512) '\000' in
  let written_pages = Bytes.make ((vertices + 511) / 512) '\000' in
  (* The first [limit] pages marked in [bitmap], ascending; clears every
     mark. *)
  let take_pages bitmap limit =
    let pages = ref [] and taken = ref 0 in
    for page = 0 to Bytes.length bitmap - 1 do
      if Bytes.unsafe_get bitmap page <> '\000' then begin
        if !taken < limit then begin
          pages := page :: !pages;
          incr taken
        end;
        Bytes.unsafe_set bitmap page '\000'
      end
    done;
    List.rev !pages
  in
  let stamp = Array.make vertices (-1) and stamp_now = ref (-1) in
  let per_node = Array.make ctx.A.nodes 0 in
  let checks =
    match ctx.A.variant with
    | A.Baseline | A.Initial -> true
    | A.Optimized -> false
  in
  (* Per-level, per-thread work description, derived from the real BFS:
     whether any frontier vertex is mine, how many edges I scan, how many
     vertices I discover, which level pages I check (Initial: those my
     neighbours live on) and which I write. *)
  let plan_for i =
    let me = A.node_of ctx i in
    List.map
      (fun per_thread ->
        let mine = per_thread.(i) in
        incr stamp_now;
        let now = !stamp_now in
        let edges = ref 0 and found = ref 0 in
        List.iter
          (fun v ->
            let first = g.Workloads.offsets.(v) in
            let last = g.Workloads.offsets.(v + 1) - 1 in
            let next = levels.(v) + 1 in
            edges := !edges + (last - first + 1);
            for e = first to last do
              let u = g.Workloads.targets.(e) in
              if checks then Bytes.unsafe_set checked_pages (u / 512) '\001';
              if levels.(u) = next && stamp.(u) <> now then begin
                stamp.(u) <- now;
                incr found;
                if checks then Bytes.unsafe_set written_pages (u / 512) '\001'
                else
                  let o = owner_of u in
                  per_node.(o) <- per_node.(o) + 1;
                  if o = me then Bytes.unsafe_set written_pages (u / 512) '\001'
              end
            done)
          mine;
        let active = mine <> [] and edges = !edges and found = !found in
        match ctx.A.variant with
        | A.Baseline | A.Initial ->
            let checked = take_pages checked_pages p.sample_pages in
            let written = take_pages written_pages p.sample_pages in
            { active; edges; found; checked; written; inboxes = [] }
        | A.Optimized ->
            (* The inboxes in the order the per-level table always visited
               them: a [Hashtbl] keyed by node, filled in ascending node
               order. *)
            let by_node = Hashtbl.create 8 in
            Array.iteri
              (fun o n ->
                if n > 0 then begin
                  Hashtbl.replace by_node o n;
                  per_node.(o) <- 0
                end)
              per_node;
            let inboxes = Hashtbl.fold (fun o n l -> (o, n) :: l) by_node [] in
            let written = take_pages written_pages max_int in
            { active; edges; found; checked = []; written;
              inboxes = List.rev inboxes })
      buckets
  in
  A.parallel_region ctx (fun i th ->
      let first, count = vert_part i in
      let plan = plan_for i in
      (* Fault in our share of the graph once. *)
      if count > 0 then begin
        Process.read th ~site:"bfs.offsets" (offsets_addr + (first * 8))
          ~len:((count + 1) * 8);
        let efirst = g.Workloads.offsets.(first) in
        let elast = g.Workloads.offsets.(first + count) in
        if elast > efirst then
          Process.read th ~site:"bfs.targets" (targets_addr + (efirst * 8))
            ~len:((elast - efirst) * 8)
      end;
      List.iter
        (fun step ->
          if step.active then begin
            Process.compute th
              ~ns:(int_of_float (float_of_int step.edges *. p.ns_per_edge))
          end;
          (match ctx.A.variant with
          | A.Baseline | A.Initial ->
              (* Checking every neighbour's level means scattered reads
                 across the whole level array, then scattered writes for
                 the discoveries (both modelled by up to [sample_pages]
                 distinct pages), plus a global frontier counter update
                 per burst. *)
              List.iter
                (fun page ->
                  Process.read th ~site:"bfs.level_check"
                    (levels_addr + (page * 4096))
                    ~len:8)
                step.checked;
              List.iteri
                (fun k page ->
                  Process.store th ~site:"bfs.level_write"
                    (levels_addr + (page * 4096))
                    (Int64.of_int k))
                step.written
          | A.Optimized ->
              (* Polymer-style: stage remote discoveries into per-node
                 inboxes; update only our own partition's level pages. *)
              let me = A.node_of ctx i in
              List.iter
                (fun (o, n) ->
                  if o = me then
                    (* Our own vertices: write the level pages directly. *)
                    List.iter
                      (fun page ->
                        Process.store th ~site:"bfs.level_write"
                          (levels_addr + (page * 4096))
                          1L)
                      step.written
                  else
                    Process.write th ~site:"bfs.inbox_write"
                      (inbox_addr + (o * 16 * 4096))
                      ~len:(max 8 (n * 8)))
                step.inboxes);
          if step.found > 0 then
            ignore
              (Process.fetch_add th ~site:"bfs.frontier_count" counter_addr
                 (Int64.of_int step.found));
          Sync.Barrier.await th barrier;
          (match ctx.A.variant with
          | A.Optimized ->
              (* Drain our node's inbox (written by everyone last level). *)
              let me = A.node_of ctx i in
              Process.read th ~site:"bfs.inbox_drain"
                (inbox_addr + (me * 16 * 4096))
                ~len:(16 * 4096)
          | A.Baseline | A.Initial -> ());
          Sync.Barrier.await th barrier)
        plan);
  Int64.of_int level_sum

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 31) () =
  A.run_app ~name:"BFS" ~nodes ~variant ?config ?proto ~seed (body params)
