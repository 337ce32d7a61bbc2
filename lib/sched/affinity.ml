open Dex_mem
module Coherence = Dex_proto.Coherence
module Authority = Dex_proto.Authority

let owned_pages coh ~ranges =
  let nodes = Coherence.node_count coh in
  let counts = Array.make nodes 0 in
  List.iter
    (fun (addr, len) ->
      if len > 0 then begin
        let first, last = Page.pages_of_range addr ~len in
        for vpn = first to last do
          (* The entry lives wherever the page is served right now. *)
          let dir = (Authority.route (Coherence.authority coh) vpn).dir in
          match Directory.state dir vpn with
          | Directory.Exclusive owner -> counts.(owner) <- counts.(owner) + 1
          | Directory.Shared readers ->
              List.iter
                (fun n -> counts.(n) <- counts.(n) + 1)
                (Node_set.to_list readers)
        done
      end)
    ranges;
  counts

let best_node coh ~ranges =
  let counts = owned_pages coh ~ranges in
  let best = ref 0 in
  Array.iteri (fun n c -> if c > counts.(!best) then best := n) counts;
  !best

let migrate_to_data th ~ranges =
  let coh = Dex_core.Process.coherence (Dex_core.Process.self_process th) in
  let node = best_node coh ~ranges in
  Dex_core.Process.migrate th node;
  node
