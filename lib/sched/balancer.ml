open Dex_core

type t = {
  proc : Process.t;
  requests : (int, int) Hashtbl.t;  (* tid -> target node *)
}

let create proc = { proc; requests = Hashtbl.create 16 }

let request t ~tid ~node =
  let cluster = Process.cluster t.proc in
  if node < 0 || node >= Cluster.nodes cluster then
    invalid_arg "Balancer.request: bad node";
  Hashtbl.replace t.requests tid node

let requested t ~tid = Hashtbl.find_opt t.requests tid

let checkpoint t th =
  let tid = Process.tid th in
  match Hashtbl.find_opt t.requests tid with
  | None -> false
  | Some node ->
      Hashtbl.remove t.requests tid;
      if node = Process.location th then false
      else begin
        Process.migrate th node;
        true
      end

let pending t = Hashtbl.length t.requests
