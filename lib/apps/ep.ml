open Dex_sim
open Dex_core
module A = App_common

type params = { pairs : int; batch : int; ns_per_pair : float }

let default_params =
  { pairs = 1 lsl 24; batch = 1 lsl 17; ns_per_pair = 25.0 }

let conversion =
  {
    A.multithread = "OpenMP (1)";
    initial_added = 2;
    initial_removed = 0;
    optimized_added = 9;
    optimized_removed = 2;
  }

let annuli = 10

(* Tally one batch of pairs; deterministic per (seed, batch index) so the
   result is independent of the thread/node layout. *)
let tally_batch ~seed ~index ~batch tallies =
  let rng = Rng.create ~seed:((seed * 1_000_003) + index) in
  for _ = 1 to batch do
    let x = (2.0 *. Rng.float rng 1.0) -. 1.0 in
    let y = (2.0 *. Rng.float rng 1.0) -. 1.0 in
    let t = (x *. x) +. (y *. y) in
    if t <= 1.0 && t > 0.0 then begin
      let f = sqrt (-2.0 *. log t /. t) in
      let gx = Float.abs (x *. f) and gy = Float.abs (y *. f) in
      let m = int_of_float (Float.max gx gy) in
      if m < annuli then tallies.(m) <- tallies.(m) + 1
    end
  done

let batches p = (p.pairs + p.batch - 1) / p.batch

let checksum tallies =
  let acc = ref 0L in
  Array.iteri
    (fun i n -> acc := Int64.add !acc (Int64.of_int ((i + 1) * n)))
    tallies;
  !acc

type oracle = {
  batch_tallies : int array array;
  reference : int array;
  reference_checksum : int64;
}

let oracle =
  let build (p, seed) =
    let batch_tallies =
      Array.init (batches p) (fun index ->
          let tallies = Array.make annuli 0 in
          tally_batch ~seed ~index ~batch:p.batch tallies;
          tallies)
    in
    let reference = Array.make annuli 0 in
    Array.iter
      (Array.iteri (fun a n -> reference.(a) <- reference.(a) + n))
      batch_tallies;
    { batch_tallies; reference; reference_checksum = checksum reference }
  in
  let memo = A.memo build in
  fun p ~seed -> memo (p, seed)

let reference_tallies p ~seed = Array.copy (oracle p ~seed).reference

let reference_checksum p ~seed = (oracle p ~seed).reference_checksum

let body p o ctx main =
  let threads = ctx.A.threads in
  let nbatches = batches p in
  (* Read-only solver parameters and the shared work-claim counter: packed
     on one page in Initial, separated in Optimized. *)
  let params_addr, claim_addr =
    match ctx.A.variant with
    | A.Baseline | A.Initial ->
        let pa = Process.malloc main ~bytes:128 ~tag:"ep.params" in
        let ca = Process.malloc main ~bytes:8 ~tag:"ep.claim" in
        (pa, ca)
    | A.Optimized ->
        let pa = Process.memalign main ~align:4096 ~bytes:128 ~tag:"ep.params" in
        let ca = Process.memalign main ~align:4096 ~bytes:8 ~tag:"ep.claim" in
        (pa, ca)
  in
  let tallies_addr =
    Process.malloc main ~bytes:(annuli * 8) ~tag:"ep.tallies"
  in
  Process.store main claim_addr 0L;
  let host_tallies =
    Array.init threads (fun _ -> Array.make annuli 0)
  in
  let batch_ns = int_of_float (float_of_int p.batch *. p.ns_per_pair) in
  A.parallel_region ctx (fun i th ->
      let mine = host_tallies.(i) in
      let process index =
        (* Loop ranges and constants are consulted for every batch. *)
        Process.read th ~site:"ep.params_read" params_addr ~len:128;
        Process.compute th ~ns:batch_ns;
        Array.iteri
          (fun a n -> mine.(a) <- mine.(a) + n)
          o.batch_tallies.(index)
      in
      (match ctx.A.variant with
      | A.Baseline | A.Initial ->
          (* Dynamic batch claims from the shared counter. *)
          let rec claim () =
            let b =
              Int64.to_int
                (Process.fetch_add th ~site:"ep.claim" claim_addr 1L)
            in
            if b < nbatches then begin
              process b;
              claim ()
            end
          in
          claim ()
      | A.Optimized ->
          (* Static assignment: no shared state in the hot loop. *)
          let first, count =
            A.partition ~total:nbatches ~parts:threads ~index:i
          in
          for b = first to first + count - 1 do
            process b
          done);
      (* Final reduction into the shared tallies. *)
      for a = 0 to annuli - 1 do
        ignore
          (Process.fetch_add th ~site:"ep.reduce"
             (tallies_addr + (a * 8))
             (Int64.of_int mine.(a)))
      done);
  let final = Array.make annuli 0 in
  for a = 0 to annuli - 1 do
    final.(a) <- Int64.to_int (Process.load main (tallies_addr + (a * 8)))
  done;
  checksum final

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 17) () =
  A.run_app ~name:"EP" ~nodes ~variant ?config ?proto ~seed (fun ctx main ->
      body params (oracle params ~seed:ctx.A.seed) ctx main)
