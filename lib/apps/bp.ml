open Dex_core
module A = App_common

type params = {
  vertices : int;
  bytes_per_vertex : int;
  iterations : int;
  ns_per_vertex : float;
  llc_bytes : int;
  miss_floor : float;
  flag_chunk : int;
  globals_bytes : int;
}

let default_params =
  {
    vertices = 1 lsl 17;
    bytes_per_vertex = 256;
    iterations = 10;
    ns_per_vertex = 90.0;
    llc_bytes = 11 * 1024 * 1024;
    miss_floor = 0.42;
    flag_chunk = 1024;
    globals_bytes = 0;
  }

let conversion =
  {
    A.multithread = "Pthread";
    initial_added = 12;
    initial_removed = 9;
    optimized_added = 41;
    optimized_removed = 12;
  }

type oracle = { beliefs : float array }

let oracle =
  let build (p, seed) =
    let rng = Dex_sim.Rng.create ~seed in
    { beliefs = Array.init p.vertices (fun _ -> Dex_sim.Rng.float rng 1.0) }
  in
  let memo = A.memo build in
  fun p ~seed -> memo (p, seed)

(* One damped propagation sweep over a ring-structured factor graph. *)
let relax beliefs ~first ~count =
  let n = Array.length beliefs in
  for i = first to first + count - 1 do
    let l = beliefs.((i + n - 1) mod n) and r = beliefs.((i + 1) mod n) in
    beliefs.(i) <- (0.7 *. beliefs.(i)) +. (0.15 *. (l +. r))
  done

let reference_sum p ~seed =
  let b = Array.copy (oracle p ~seed).beliefs in
  for _ = 1 to p.iterations do
    relax b ~first:0 ~count:p.vertices
  done;
  Array.fold_left ( +. ) 0.0 b

let body p ctx main =
  let threads = ctx.A.threads in
  let proc = ctx.A.proc in
  (* Vertex slabs, one per thread: Initial packs them, so neighbouring
     slabs share their boundary pages. *)
  let slab_addr =
    A.slabs ctx main ~tag:"bp.vertex_data" ~bytes:(fun i ->
        let _, count = A.partition ~total:p.vertices ~parts:threads ~index:i in
        count * p.bytes_per_vertex)
  in
  (* Master-published globals (scheduling state, the running convergence
     aggregate) plus the read-only model parameters every worker checks
     each chunk. The Initial layout packs both into one block — so the
     master's per-chunk publish invalidates every node's copy of the
     parameters and the whole cluster re-faults them — while Optimized
     gives the published word and the parameters their own pages (the
     paper's "read-only parameters on their own pages" fix) and stages
     the publish at iteration granularity. *)
  let globals_addr, globals_len, delta_addr =
    if p.globals_bytes = 0 then (0, 0, 0)
    else if p.globals_bytes < 16 then
      invalid_arg "bp: globals_bytes must be 0 or >= 16"
    else
      match ctx.A.variant with
      | A.Optimized ->
          let d = A.alloc ctx main ~bytes:8 ~tag:"bp.delta" in
          let prm =
            A.alloc ctx main ~bytes:(p.globals_bytes - 8) ~tag:"bp.params"
          in
          (prm, p.globals_bytes - 8, d)
      | A.Baseline | A.Initial ->
          let g = A.alloc ctx main ~bytes:p.globals_bytes ~tag:"bp.globals" in
          (g, p.globals_bytes, g)
  in
  let flag_addr = A.alloc ctx main ~bytes:8 ~tag:"bp.flag" in
  let barrier = Sync.Barrier.create proc ~parties:threads () in
  (* DRAM traffic per sweep: the share of the per-node working set that
     does not fit the cache hierarchy. *)
  let miss_fraction =
    let workset =
      p.vertices * p.bytes_per_vertex / max 1 ctx.A.nodes
    in
    Float.max p.miss_floor
      (1.0 -. (float_of_int p.llc_bytes /. float_of_int workset))
  in
  A.parallel_region ctx (fun i th ->
      let _, count = A.partition ~total:p.vertices ~parts:threads ~index:i in
      if count > 0 then begin
        let my_slab = slab_addr i in
        let slab_bytes = count * p.bytes_per_vertex in
        for _iter = 1 to p.iterations do
          (* Halo from the neighbouring slabs. *)
          if i > 0 then
            Process.read th ~site:"bp.halo" (slab_addr i - 8) ~len:8;
          if i < threads - 1 then
            Process.read th ~site:"bp.halo" (slab_addr (i + 1)) ~len:8;
          Process.read th ~site:"bp.sweep_read" my_slab ~len:slab_bytes;
          (* Message updates: compute plus DRAM streaming through the
             node's contended memory channels. *)
          let pos = ref 0 in
          while !pos < count do
            let n = min p.flag_chunk (count - !pos) in
            Process.compute_membound th
              ~ns:(int_of_float (float_of_int n *. p.ns_per_vertex))
              ~bytes:
                (int_of_float
                   (float_of_int (n * p.bytes_per_vertex * 2) *. miss_fraction));
            if p.globals_bytes > 0 then begin
              (* Check the model parameters and the master's running
                 aggregate before the next chunk; the master republishes
                 as it goes. *)
              Process.read th ~site:"bp.globals_check" globals_addr
                ~len:globals_len;
              match ctx.A.variant with
              | A.Baseline | A.Initial ->
                  if i = 0 then
                    Process.store th ~site:"bp.delta_publish" delta_addr 1L
              | A.Optimized -> ()
            end;
            (match ctx.A.variant with
            | A.Baseline | A.Initial ->
                (* The sweep checks and sets the shared convergence flag
                   as it goes; with the globals protocol configured,
                   convergence flows through the master's aggregate and
                   the flag is only set at iteration end. *)
                if p.globals_bytes = 0 then
                  Process.store th ~site:"bp.flag_update" flag_addr 1L
            | A.Optimized -> ());
            pos := !pos + n
          done;
          Process.write th ~site:"bp.sweep_write" my_slab ~len:slab_bytes;
          (* With the globals protocol, worker convergence flows through
             the master's aggregate and only the master touches the
             legacy flag — in every variant. *)
          (match ctx.A.variant with
          | A.Optimized ->
              if p.globals_bytes = 0 then
                ignore
                  (Process.fetch_add th ~site:"bp.flag_update" flag_addr 1L)
              else if i = 0 then begin
                ignore
                  (Process.fetch_add th ~site:"bp.flag_update" flag_addr 1L);
                (* Iteration-staged publish onto its own page. *)
                Process.store th ~site:"bp.delta_publish" delta_addr 1L
              end
          | A.Baseline | A.Initial ->
              if p.globals_bytes > 0 && i = 0 then
                Process.store th ~site:"bp.flag_update" flag_addr 1L);
          Sync.Barrier.await th barrier
        done
      end
      else
        for _iter = 1 to p.iterations do
          Sync.Barrier.await th barrier
        done);
  A.checksum_of_float (reference_sum p ~seed:ctx.A.seed)

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 37) () =
  A.run_app ~name:"BP" ~nodes ~variant ?config ?proto ~seed (body params)
