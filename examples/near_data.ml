(* Scheduling extensions: computation-to-data affinity, offloading and
   energy.

   The paper's conclusion sketches three uses of DeX's relocation
   capability; this example demonstrates all three. A dataset is produced
   on node 2; a worker thread then asks the affinity scheduler where the
   data lives and migrates itself there before processing it — turning
   every would-be remote fault into a local hit. Next a hot computation is
   offloaded to the least-loaded node and comes back with the result,
   reading its input through the delegated file API. Finally the run's
   energy is totted up over heterogeneous node power profiles.

   Run with: dune exec examples/near_data.exe *)

open Dex_core
open Dex_sched

(* Node power profiles: (idle watts, extra watts per busy core). *)
let xeon = (60.0, 10.5)
let efficient = (8.0, 2.5)

let () =
  let cl = Dex.cluster ~nodes:4 () in
  ignore
    (Dex.run cl (fun proc main ->
         let coh = Process.coherence proc in
         let data = Process.memalign main ~align:4096 ~bytes:(64 * 4096)
             ~tag:"dataset" in
         (* Produce the dataset on node 2. *)
         let producer =
           Process.spawn proc (fun th ->
               Process.migrate th 2;
               Process.write th ~site:"produce" data ~len:(64 * 4096))
         in
         Process.join producer;
         let ranges = [ (data, 64 * 4096) ] in
         let counts = Affinity.owned_pages coh ~ranges in
         Format.printf "pages per node after production: %s@."
           (String.concat " "
              (Array.to_list (Array.map string_of_int counts)));
         (* A consumer follows the data instead of pulling it. *)
         let consumer =
           Process.spawn proc (fun th ->
               let t0 = Dex_sim.Engine.now (Cluster.engine cl) in
               let node = Affinity.migrate_to_data th ~ranges in
               Process.read th ~site:"consume" data ~len:(64 * 4096);
               Format.printf
                 "consumer migrated to node %d and scanned locally in %a@."
                 node Dex_sim.Time_ns.pp
                 (Dex_sim.Engine.now (Cluster.engine cl) - t0))
         in
         Process.join consumer;
         (* Offload a computation to whichever node is idle: migrate there,
            run, and migrate back even if the work raises. *)
         let fd = Process.file_open main "weights.bin" in
         Process.file_write main ~fd ~bytes:65536;
         Process.file_close main ~fd;
         let worker =
           Process.spawn proc (fun th ->
               let node =
                 Placement.choose Placement.Least_loaded cl
                   ~rng:(Cluster.rng cl) ~index:0 ~total:1
               in
               let home = Process.location th in
               Process.migrate th node;
               let result =
                 Fun.protect
                   ~finally:(fun () -> Process.migrate th home)
                   (fun () ->
                     let fd = Process.file_open th "weights.bin" in
                     let got = Process.file_read th ~fd ~bytes:65536 in
                     Process.file_close th ~fd;
                     Process.compute th ~ns:(Dex_sim.Time_ns.us 250);
                     got)
               in
               Format.printf
                 "offloaded computation ran on node %d over %d bytes of \
                  delegated file input@."
                 node result)
         in
         Process.join worker));
  Format.printf "total simulated time: %a@.@." Dex_sim.Time_ns.pp
    (Dex.elapsed cl);
  (* Energy: idle power over the elapsed time plus per-core power over the
     busy core-seconds, on two Xeons and two efficiency nodes. *)
  let profiles = [| xeon; xeon; efficient; efficient |] in
  let elapsed_s = Dex_sim.Time_ns.to_s_f (Cluster.now cl) in
  let total = ref 0.0 in
  Format.printf "node  busy core-s  utilization  energy (J)@.";
  Array.iteri
    (fun node (idle_w, core_w) ->
      let pool = Cluster.cores cl ~node in
      let busy = float_of_int (Dex_sim.Resource.Pool.busy_core_ns pool) /. 1e9 in
      let cores = float_of_int (Dex_sim.Resource.Pool.capacity pool) in
      let util =
        if elapsed_s > 0.0 then 100.0 *. busy /. (cores *. elapsed_s) else 0.0
      in
      total := !total +. (idle_w *. elapsed_s) +. (core_w *. busy);
      Format.printf "%4d  %11.6f  %10.1f%%  %10.4f@." node busy util
        ((idle_w *. elapsed_s) +. (core_w *. busy)))
    profiles;
  (* The next thread belongs where one more busy core costs least. *)
  let cheapest = ref 0 in
  Array.iteri
    (fun node (_, core_w) ->
      if core_w < snd profiles.(!cheapest) then cheapest := node)
    profiles;
  Format.printf "run energy: %.4f J; an energy-aware scheduler would place \
                 the next thread on node %d@."
    !total !cheapest
