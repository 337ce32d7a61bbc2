type arrival =
  | Poisson of float
  | Mmpp of {
      calm : float;
      burst : float;
      dwell_calm_ms : float;
      dwell_burst_ms : float;
    }

type tenant = {
  t_name : string;
  t_arrival : arrival;
  t_max_inflight : int;
  t_max_pending : int;
  t_req_bytes : int;
}

type t = {
  tenants : tenant list;
  seed : int;
  duration : Dex_sim.Time_ns.t;
  shed : bool;
  shed_after : Dex_sim.Time_ns.t;
  fair : bool;
  gate_bytes_per_us : float;
  ha : bool;
}

(* Request-scale preset: a request must cost hundreds of microseconds of
   simulated time, not the seconds of the paper's full workloads, or an
   open-loop tenant could never be served faster than it arrives. *)
let tiny_ep = { Dex_apps.Ep.pairs = 1024; batch = 256; ns_per_pair = 25.0 }

let default_tenant =
  {
    t_name = "tenant";
    t_arrival = Poisson 2.0;
    t_max_inflight = 4;
    t_max_pending = 64;
    t_req_bytes = 8192;
  }

let default =
  {
    tenants =
      List.init 8 (fun i ->
          { default_tenant with t_name = Printf.sprintf "t%02d" i });
    seed = 42;
    duration = Dex_sim.Time_ns.ms 6;
    shed = true;
    shed_after = Dex_sim.Time_ns.ms 2;
    fair = true;
    gate_bytes_per_us = 2048.0;
    ha = false;
  }

let validate_arrival = function
  | Poisson r ->
      if r <= 0.0 then invalid_arg "Serve_config: Poisson rate must be > 0"
  | Mmpp { calm; burst; dwell_calm_ms; dwell_burst_ms } ->
      if calm <= 0.0 || burst <= 0.0 then
        invalid_arg "Serve_config: MMPP rates must be > 0";
      if dwell_calm_ms <= 0.0 || dwell_burst_ms <= 0.0 then
        invalid_arg "Serve_config: MMPP dwell times must be > 0"

let validate t =
  if t.tenants = [] then invalid_arg "Serve_config: no tenants";
  List.iter
    (fun ten ->
      validate_arrival ten.t_arrival;
      if ten.t_max_inflight < 1 then
        invalid_arg "Serve_config: t_max_inflight must be >= 1";
      if ten.t_max_pending < 0 then
        invalid_arg "Serve_config: t_max_pending must be >= 0";
      if ten.t_req_bytes < 0 then
        invalid_arg "Serve_config: t_req_bytes must be >= 0")
    t.tenants;
  let names = List.map (fun ten -> ten.t_name) t.tenants in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Serve_config: duplicate tenant name";
  if t.duration <= 0 then invalid_arg "Serve_config: duration must be > 0";
  if t.shed_after <= 0 then
    invalid_arg "Serve_config: shed_after must be > 0";
  if t.gate_bytes_per_us <= 0.0 then
    invalid_arg "Serve_config: gate_bytes_per_us must be > 0"
