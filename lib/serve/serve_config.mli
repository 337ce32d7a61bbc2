(** Configuration of the multi-tenant serving layer.

    A serve run hosts many concurrent DeX processes as {e tenants} on one
    shared cluster: each tenant is an open-loop arrival process (requests
    keep coming whether or not earlier ones finished) whose requests are
    small application runs. The knobs below cover the four serving
    concerns: traffic shape (arrival processes), overload behaviour
    (admission control and shedding), fair sharing (equal shares of the
    per-node ingress service capacity, with a noisy-neighbour cap) and
    blast-radius isolation (per-tenant node placements). Every request is
    the same small EP run ({!tiny_ep}) on 2 nodes x 2 threads. *)

type arrival =
  | Poisson of float  (** arrival rate, requests per simulated millisecond *)
  | Mmpp of {
      calm : float;  (** arrival rate in the calm state, requests/ms *)
      burst : float;  (** arrival rate in the burst state, requests/ms *)
      dwell_calm_ms : float;  (** mean dwell time in the calm state *)
      dwell_burst_ms : float;  (** mean dwell time in the burst state *)
    }
      (** Two-state Markov-modulated Poisson process: bursty tenants
          alternate between a calm and a burst rate, with exponentially
          distributed dwell times. *)

type tenant = {
  t_name : string;
  t_arrival : arrival;
  t_max_inflight : int;  (** per-tenant concurrency cap (>= 1) *)
  t_max_pending : int;  (** pending-queue bound; [0] = unbounded *)
  t_req_bytes : int;
      (** ingress bytes each request charges through its origin node's
          service gate before the application body runs *)
}

type t = {
  tenants : tenant list;
  seed : int;
      (** master seed; each tenant derives an independent stream via
          {!Dex_sim.Rng.split}, so adding a tenant never perturbs the
          others' arrivals *)
  duration : Dex_sim.Time_ns.t;
      (** length of the arrival window; admitted requests run to
          completion past it *)
  shed : bool;
      (** load-shedding on: arrivals beyond [t_max_pending] are rejected,
          and queued requests that waited longer than [shed_after] are
          dropped at dispatch instead of served *)
  shed_after : Dex_sim.Time_ns.t;
      (** queueing-delay bound enforced by the shedder *)
  fair : bool;
      (** equal fair sharing at the ingress gates, no tenant rated above
          half a gate; off = one FIFO gate per node, first come first
          served *)
  gate_bytes_per_us : float;
      (** ingress service capacity of each node's gate *)
  ha : bool;
      (** place each request's service origin on a node carrying no
          threads, so an origin crash exercises failover (requires
          replication armed in the cluster's proto config) *)
}

val default_tenant : tenant
(** 2 req/ms Poisson, inflight cap 4, pending bound 64, 8 KB ingress. *)

val tiny_ep : Dex_apps.Ep.params
(** The request-scale EP parameters every request runs: a request
    completes in a few hundred microseconds of simulated time on two
    nodes. *)

val default : t
(** 8 uniform tenants at moderate load on seed 42: 6 ms window, shedding
    on (2 ms bound), fair sharing on. *)

val validate : t -> unit
(** Raises [Invalid_argument] on nonsense (no tenants, non-positive
    rates, caps or durations, duplicate tenant names, ...). *)
