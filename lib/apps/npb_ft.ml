open Dex_core
module A = App_common

type params = { grid_bytes : int; iterations : int; ns_per_byte : float }

let default_params =
  { grid_bytes = 4 * 1024 * 1024; iterations = 4; ns_per_byte = 1.6 }

let conversion =
  {
    A.multithread = "OpenMP (7)";
    initial_added = 25;
    initial_removed = 6;
    optimized_added = 31;
    optimized_removed = 9;
  }

(* Host model of the data flow: a butterfly-style mix pass per FFT phase
   and an index permutation for the transpose, over a float grid. *)
let cells p = p.grid_bytes / 8

let host_grid p ~seed =
  let rng = Dex_sim.Rng.create ~seed in
  Array.init (cells p) (fun _ -> Dex_sim.Rng.float rng 2.0 -. 1.0)

let fft_pass grid =
  let n = Array.length grid in
  let half = n / 2 in
  for i = 0 to half - 1 do
    let a = grid.(i) and b = grid.(i + half) in
    grid.(i) <- 0.5 *. (a +. b);
    grid.(i + half) <- 0.5 *. (a -. b) *. 0.99
  done

let transpose grid =
  let n = Array.length grid in
  let tmp = Array.copy grid in
  for i = 0 to n - 1 do
    (* bit-reversal-flavoured permutation *)
    grid.(i) <- tmp.((i * 7919) mod n)
  done

type oracle = { reference_checksum : float }

let oracle =
  let build (p, seed) =
    let grid = host_grid p ~seed in
    for _ = 1 to p.iterations do
      fft_pass grid;
      transpose grid;
      fft_pass grid
    done;
    { reference_checksum = Array.fold_left ( +. ) 0.0 grid }
  in
  let memo = A.memo build in
  fun p ~seed -> memo (p, seed)

let reference_checksum p ~seed = (oracle p ~seed).reference_checksum

let body p ctx main =
  let threads = ctx.A.threads in
  let proc = ctx.A.proc in
  (* Grid slabs, one per thread: Initial packs them, so neighbouring
     slabs share their boundary pages. *)
  let slab_addr =
    A.slabs ctx main ~tag:"ft.grid" ~bytes:(fun i ->
        snd (A.partition ~total:p.grid_bytes ~parts:threads ~index:i))
  in
  let grid_addr = slab_addr 0 and grid_end = slab_addr threads in
  (* Read-only parameters; in Initial they share a page with the progress
     counter every pass bumps. *)
  let params_addr = A.alloc ctx main ~bytes:256 ~tag:"ft.params" in
  let counter_addr = A.alloc ctx main ~bytes:8 ~tag:"ft.counter" in
  let barrier = Sync.Barrier.create proc ~parties:threads () in
  let workers =
    A.worker_pool ctx (fun i th ->
        let _, count = A.partition ~total:p.grid_bytes ~parts:threads ~index:i in
        let my_slab = slab_addr i in
        let pass site =
          Process.read th ~site:"ft.params_read" params_addr ~len:256;
          if count > 0 then begin
            Process.read th ~site my_slab ~len:count;
            Process.compute th
              ~ns:(int_of_float (float_of_int count *. p.ns_per_byte));
            Process.write th ~site my_slab ~len:count
          end
        in
        for _iter = 1 to p.iterations do
          (* Local FFT pass over the slab. *)
          pass "ft.fft1";
          (match ctx.A.variant with
          | A.Baseline | A.Initial ->
              ignore
                (Process.fetch_add th ~site:"ft.progress" counter_addr 1L)
          | A.Optimized -> ());
          Sync.Barrier.await th barrier;
          (* Transpose: read everybody's slab, rewrite our own. *)
          if count > 0 then begin
            Process.read th ~site:"ft.transpose_read" grid_addr
              ~len:(grid_end - grid_addr);
            Process.compute th
              ~ns:(int_of_float (float_of_int count *. p.ns_per_byte *. 0.5));
            Process.write th ~site:"ft.transpose_write" my_slab ~len:count
          end;
          Sync.Barrier.await th barrier;
          (* Second FFT pass. *)
          pass "ft.fft2";
          Sync.Barrier.await th barrier
        done)
  in
  A.join_all workers;
  A.checksum_of_float (reference_checksum p ~seed:ctx.A.seed)

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 29) () =
  A.run_app ~name:"FT" ~nodes ~variant ?config ?proto ~seed (body params)
