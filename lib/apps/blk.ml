open Dex_core
module A = App_common

type params = {
  options : int;
  rounds : int;
  ns_per_option : float;
  chunk : int;
}

let default_params =
  { options = (1 lsl 18) + 1000; rounds = 10; ns_per_option = 150.0; chunk = 2048 }

let conversion =
  {
    A.multithread = "Pthread";
    initial_added = 2;
    initial_removed = 0;
    optimized_added = 7;
    optimized_removed = 3;
  }

type oracle = { reference_sum : float }

let oracle =
  let build (p, seed) =
    let opts = Workloads.options ~seed ~n:p.options in
    {
      reference_sum =
        Array.fold_left
          (fun acc o -> acc +. Workloads.black_scholes_call o)
          0.0 opts;
    }
  in
  let memo = A.memo build in
  fun p ~seed -> memo (p, seed)

let reference_sum p ~seed = (oracle p ~seed).reference_sum

let body p ctx main =
  let threads = ctx.A.threads in
  let price_sum = reference_sum p ~seed:ctx.A.seed in
  (* 5 floats of input per option, one float of output. *)
  let options_addr =
    Process.malloc main ~bytes:(p.options * 40) ~tag:"blk.options"
  in
  (* One output array of per-thread slices: Initial packs them, so
     adjacent slices share pages. *)
  let price_addr =
    A.slabs ctx main ~tag:"blk.prices" ~bytes:(fun i ->
        let _, count = A.partition ~total:p.options ~parts:threads ~index:i in
        count * 8)
  in
  A.parallel_region ctx (fun i th ->
      let first, count = A.partition ~total:p.options ~parts:threads ~index:i in
      if count > 0 then
        for _round = 1 to p.rounds do
          let pos = ref 0 in
          while !pos < count do
            let n = min p.chunk (count - !pos) in
            Process.read th ~site:"blk.options_read"
              (options_addr + ((first + !pos) * 40))
              ~len:(n * 40);
            Process.compute th
              ~ns:(int_of_float (float_of_int n *. p.ns_per_option));
            Process.write th ~site:"blk.price_write"
              (price_addr i + (!pos * 8))
              ~len:(n * 8);
            pos := !pos + n
          done
        done);
  A.checksum_of_float price_sum

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 19) () =
  A.run_app ~name:"BLK" ~nodes ~variant ?config ?proto ~seed (body params)
