open Dex_core
module A = App_common

type params = {
  points : int;
  clusters : int;
  iterations : int;
  ns_per_point : float;
  chunk_points : int;
}

let default_params =
  {
    points = 120_000;
    clusters = 25;
    iterations = 8;
    (* Cost of comparing one point against every center, calibrated to the
       paper's k = 100 configuration. *)
    ns_per_point = 1_200.0;
    chunk_points = 32;
  }

let conversion =
  {
    A.multithread = "Pthread";
    initial_added = 2;
    initial_removed = 0;
    optimized_added = 38;
    optimized_removed = 11;
  }

type oracle = { cloud : float array }

let oracle =
  let build (p, seed) =
    { cloud = Workloads.points_3d ~seed ~n:p.points ~clusters:p.clusters }
  in
  let memo = A.memo build in
  fun p ~seed -> memo (p, seed)

(* One assignment sweep over [first, first+count) against [centers]:
   accumulates into [sums]/[counts], returns how many points changed
   cluster. *)
let assign_chunk pts membership centers sums counts ~first ~count =
  let k = Array.length centers / 3 in
  let changed = ref 0 in
  for i = first to first + count - 1 do
    let x = pts.(3 * i) and y = pts.((3 * i) + 1) and z = pts.((3 * i) + 2) in
    let best = ref 0 and best_d = ref infinity in
    for c = 0 to k - 1 do
      let dx = x -. centers.(3 * c)
      and dy = y -. centers.((3 * c) + 1)
      and dz = z -. centers.((3 * c) + 2) in
      let d = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      if d < !best_d then begin
        best_d := d;
        best := c
      end
    done;
    if membership.(i) <> !best then begin
      membership.(i) <- !best;
      incr changed
    end;
    let b = !best in
    sums.(3 * b) <- sums.(3 * b) +. x;
    sums.((3 * b) + 1) <- sums.((3 * b) + 1) +. y;
    sums.((3 * b) + 2) <- sums.((3 * b) + 2) +. z;
    counts.(b) <- counts.(b) + 1
  done;
  !changed

let new_centers p sums counts old =
  Array.init (p.clusters * 3) (fun j ->
      let c = j / 3 in
      if counts.(c) = 0 then old.(j)
      else sums.(j) /. float_of_int counts.(c))

let initial_centers p pts =
  Array.init (p.clusters * 3) (fun j ->
      (* Spread the seeds across the cloud. *)
      let c = j / 3 in
      pts.((c * (p.points / p.clusters) * 3) + (j mod 3)))

let reference_centers p ~seed =
  let pts = (oracle p ~seed).cloud in
  let membership = Array.make p.points (-1) in
  let centers = ref (initial_centers p pts) in
  for _ = 1 to p.iterations do
    let sums = Array.make (p.clusters * 3) 0.0 in
    let counts = Array.make p.clusters 0 in
    ignore
      (assign_chunk pts membership !centers sums counts ~first:0
         ~count:p.points);
    centers := new_centers p sums counts !centers
  done;
  !centers

let checksum_centers centers =
  Array.fold_left
    (fun acc c -> Int64.add acc (A.checksum_of_float c))
    0L centers

let body p ctx main =
  let pts = (oracle p ~seed:ctx.A.seed).cloud in
  let threads = ctx.A.threads in
  let proc = ctx.A.proc in
  (* Simulated layout. *)
  let points_addr =
    Process.malloc main ~bytes:(p.points * 24) ~tag:"kmn.points"
  in
  let centers_bytes = p.clusters * 24 in
  let centers_addr, flag_addr, gsums_addr =
    match ctx.A.variant with
    | A.Baseline | A.Initial ->
        (* Centers, convergence flag and global accumulators packed
           together by successive mallocs: heavy page sharing. *)
        let c = Process.malloc main ~bytes:centers_bytes ~tag:"kmn.centers" in
        let f = Process.malloc main ~bytes:8 ~tag:"kmn.flag" in
        let s =
          Process.malloc main ~bytes:(centers_bytes + (p.clusters * 8))
            ~tag:"kmn.sums"
        in
        (c, f, s)
    | A.Optimized ->
        let c =
          Process.memalign main ~align:4096 ~bytes:centers_bytes
            ~tag:"kmn.centers"
        in
        let f = Process.memalign main ~align:4096 ~bytes:8 ~tag:"kmn.flag" in
        let s =
          Process.memalign main ~align:4096
            ~bytes:(centers_bytes + (p.clusters * 8))
            ~tag:"kmn.sums"
        in
        (c, f, s)
  in
  let membership_addr =
    Process.malloc main ~bytes:(p.points * 4) ~tag:"kmn.membership"
  in
  (* Host-side state shared through the barrier protocol. *)
  let membership = Array.make p.points (-1) in
  let centers = ref (initial_centers p pts) in
  let thread_sums = Array.init threads (fun _ -> Array.make (p.clusters * 3) 0.0) in
  let thread_counts = Array.init threads (fun _ -> Array.make p.clusters 0) in
  let barrier = Sync.Barrier.create proc ~parties:threads () in
  let chunk_ns =
    int_of_float (float_of_int p.chunk_points *. p.ns_per_point)
  in
  A.parallel_region ctx (fun i th ->
      let first, count = A.partition ~total:p.points ~parts:threads ~index:i in
      for _iter = 1 to p.iterations do
        let sums = thread_sums.(i) and counts = thread_counts.(i) in
        Array.fill sums 0 (Array.length sums) 0.0;
        Array.fill counts 0 (Array.length counts) 0;
        (* Fault in our point partition (resident after iteration 1). *)
        if count > 0 then
          Process.read th ~site:"kmn.points" (points_addr + (first * 24))
            ~len:(count * 24);
        let pos = ref first in
        while !pos < first + count do
          let n = min p.chunk_points (first + count - !pos) in
          (* Distance computation against every center. *)
          Process.read th ~site:"kmn.centers_read" centers_addr
            ~len:centers_bytes;
          Process.compute th ~ns:(chunk_ns * n / p.chunk_points);
          let changed =
            assign_chunk pts membership !centers sums counts ~first:!pos
              ~count:n
          in
          (* Record assignments for our own points. *)
          Process.write th ~site:"kmn.membership"
            (membership_addr + (!pos * 4))
            ~len:(n * 4);
          (match ctx.A.variant with
          | A.Baseline | A.Initial ->
              (* The original implementation folds into the global
                 accumulators and flips the shared flag as it goes. *)
              Process.write th ~site:"kmn.sums_update" gsums_addr
                ~len:(centers_bytes + (p.clusters * 8));
              if changed > 0 then
                Process.store th ~site:"kmn.flag_update" flag_addr 1L
          | A.Optimized -> ());
          pos := !pos + n
        done;
        (match ctx.A.variant with
        | A.Optimized ->
            (* Locally staged: publish once per iteration. *)
            Process.write th ~site:"kmn.sums_update" gsums_addr
              ~len:(centers_bytes + (p.clusters * 8))
        | A.Baseline | A.Initial -> ());
        Sync.Barrier.await th barrier;
        (* Thread 0 reduces and publishes the new centers. *)
        if i = 0 then begin
          let sums = Array.make (p.clusters * 3) 0.0 in
          let counts = Array.make p.clusters 0 in
          for t = 0 to threads - 1 do
            Array.iteri (fun j v -> sums.(j) <- sums.(j) +. v) thread_sums.(t);
            Array.iteri
              (fun j v -> counts.(j) <- counts.(j) + v)
              thread_counts.(t)
          done;
          centers := new_centers p sums counts !centers;
          Process.compute th ~ns:(p.clusters * 3 * threads * 2);
          Process.write th ~site:"kmn.centers_write" centers_addr
            ~len:centers_bytes;
          Process.store th ~site:"kmn.flag_reset" flag_addr 0L
        end;
        Sync.Barrier.await th barrier
      done);
  checksum_centers !centers

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 13) () =
  A.run_app ~name:"KMN" ~nodes ~variant ?config ?proto ~seed (body params)
