open Dex_core
open Dex_mem
module A = App_common

type params = {
  timesteps : int;
  regions_per_step : int;
  cells : int;
  ns_per_cell : float;
  update_chunk : int;
}

let default_params =
  {
    timesteps = 6;
    regions_per_step = 3;
    cells = (1 lsl 21) + 17_000;
    ns_per_cell = 10.0;
    update_chunk = 1 lsl 11;
  }

let conversion =
  {
    A.multithread = "OpenMP (15)";
    initial_added = 53;
    initial_removed = 14;
    optimized_added = 61;
    optimized_removed = 18;
  }

(* Host-side "solve": one damped Jacobi-like sweep per region over a 1-D
   wrap-around stencil; keeps a real numerical result to cross-check. *)
let sweep grid =
  let n = Array.length grid in
  let residual = ref 0.0 in
  for i = 0 to n - 1 do
    let left = grid.((i + n - 1) mod n) and right = grid.((i + 1) mod n) in
    let v = (0.5 *. grid.(i)) +. (0.25 *. (left +. right)) in
    residual := !residual +. Float.abs (v -. grid.(i));
    grid.(i) <- v
  done;
  !residual

type oracle = { reference_checksum : int64 }

let oracle =
  let build (p, seed) =
    let rng = Dex_sim.Rng.create ~seed in
    let grid = Array.init p.cells (fun _ -> Dex_sim.Rng.float rng 1.0) in
    (* The true residual of the last sweep. *)
    let residual = ref 0.0 in
    for _ = 1 to p.timesteps * p.regions_per_step do
      residual := sweep grid
    done;
    { reference_checksum = A.checksum_of_float !residual }
  in
  let memo = A.memo build in
  fun p ~seed -> memo (p, seed)

let body p ctx main =
  let threads = ctx.A.threads in
  let proc = ctx.A.proc in
  let cell_bytes = 8 in
  let aligned = ctx.A.variant = A.Optimized in
  (* Grid slabs: page-aligned per thread in Optimized, packed otherwise. *)
  let slab_stride i =
    let _, count = A.partition ~total:p.cells ~parts:threads ~index:i in
    let bytes = count * cell_bytes in
    if aligned then (bytes + 4095) / 4096 * 4096 else bytes
  in
  let grid_bytes =
    let sum = ref 0 in
    for i = 0 to threads - 1 do
      sum := !sum + slab_stride i
    done;
    max !sum 4096
  in
  let grid_addr =
    if aligned then
      Process.memalign main ~align:4096 ~bytes:grid_bytes ~tag:"bt.grid"
    else Process.malloc main ~bytes:grid_bytes ~tag:"bt.grid"
  in
  let slab_addr i =
    let off = ref 0 in
    for j = 0 to i - 1 do
      off := !off + slab_stride j
    done;
    grid_addr + !off
  in
  (* Loop-range parameters; in Initial they share a page with the
     frequently-updated residual norm. *)
  let params_addr, norm_addr =
    if aligned then
      ( Process.memalign main ~align:4096 ~bytes:256 ~tag:"bt.params",
        Process.memalign main ~align:4096 ~bytes:8 ~tag:"bt.norm" )
    else
      ( Process.malloc main ~bytes:256 ~tag:"bt.params",
        Process.malloc main ~bytes:8 ~tag:"bt.norm" )
  in
  (* The parent passes per-region values on its own stack in Initial. *)
  let parent_stack = Layout.stack_top ~tid:(Process.tid main) - 4096 in
  let barrier = Sync.Barrier.create proc ~parties:(threads + 1) () in
  let region_of_step = ref 0 in
  let workers =
    A.worker_pool ctx (fun i th ->
        let _, count = A.partition ~total:p.cells ~parts:threads ~index:i in
        for step = 1 to p.timesteps do
          (* One migration round-trip per timestep: the OpenMP-region
             conversion pattern (cheap after the first visit). *)
          if ctx.A.variant <> A.Baseline && step > 1 then
            Process.migrate th (A.node_of ctx i);
          for _region = 1 to p.regions_per_step do
            (* Wait for the parent to set the region up. *)
            Sync.Barrier.await th barrier;
            (match ctx.A.variant with
            | A.Baseline | A.Initial ->
                (* OpenMP shared variables on the parent's stack. *)
                Process.read th ~site:"bt.parent_stack" parent_stack ~len:64
            | A.Optimized -> ());
            Process.read th ~site:"bt.params_read" params_addr ~len:256;
            if count > 0 then begin
              let my_slab = slab_addr i in
              (* Boundary exchange with the neighbouring slabs. *)
              if i > 0 then
                Process.read th ~site:"bt.halo" (slab_addr (i - 1)
                  + ((slab_stride (i - 1)) - cell_bytes)) ~len:cell_bytes;
              if i < threads - 1 then
                Process.read th ~site:"bt.halo" (slab_addr (i + 1))
                  ~len:cell_bytes;
              Process.read th ~site:"bt.slab_read" my_slab
                ~len:(count * cell_bytes);
              let pos = ref 0 in
              while !pos < count do
                let n = min p.update_chunk (count - !pos) in
                Process.compute th
                  ~ns:(int_of_float (float_of_int n *. p.ns_per_cell));
                Process.write th ~site:"bt.slab_write"
                  (my_slab + (!pos * cell_bytes))
                  ~len:(n * cell_bytes);
                (match ctx.A.variant with
                | A.Baseline | A.Initial ->
                    (* Residual accumulated in the shared norm cell. *)
                    ignore
                      (Process.fetch_add th ~site:"bt.norm_update" norm_addr 1L)
                | A.Optimized -> ());
                pos := !pos + n
              done;
              match ctx.A.variant with
              | A.Optimized ->
                  ignore
                    (Process.fetch_add th ~site:"bt.norm_update" norm_addr 1L)
              | A.Baseline | A.Initial -> ()
            end;
            Sync.Barrier.await th barrier
          done;
          if ctx.A.variant <> A.Baseline && step < p.timesteps then
            Process.migrate th (Process.origin proc)
        done)
  in
  for _step = 1 to p.timesteps do
    for _region = 1 to p.regions_per_step do
      incr region_of_step;
      (* Parent sets up the region: stack values and a written global. *)
      Process.write main ~site:"bt.parent_setup" parent_stack ~len:64;
      Process.store main ~site:"bt.step_count" norm_addr
        (Int64.of_int !region_of_step);
      Sync.Barrier.await main barrier;
      (* Workers execute the region. *)
      Sync.Barrier.await main barrier
    done
  done;
  A.join_all workers;
  (oracle p ~seed:ctx.A.seed).reference_checksum

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 23) () =
  A.run_app ~name:"BT" ~nodes ~variant ?config ?proto ~seed (body params)
