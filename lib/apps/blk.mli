(** BLK — PARSEC blackscholes (§V).

    Prices a portfolio of European options with the Black-Scholes
    closed-form solution, repeating the sweep for several rounds as the
    PARSEC benchmark does. The option array is read-only (replicated once
    across nodes); each thread writes prices into its own output slice.

    [Initial] keeps the original slice boundaries, so adjacent threads on
    different nodes share the boundary pages of the price array and
    exchange them every round. [Optimized] pads each slice to a page
    boundary. Both scale — BLK is one of the paper's scale-ready
    applications. *)

type params = {
  options : int;
  rounds : int;
  ns_per_option : float;
  chunk : int;
}

val default_params : params

val conversion : App_common.conversion

type oracle = {
  reference_sum : float;  (** sum of all option prices, priced on the host *)
}

val oracle : params -> seed:int -> oracle
(** The run-independent host work of one [(params, seed)], memoized in
    one slot ({!App_common.memo}). *)

val reference_sum : params -> seed:int -> float
(** Sum of all option prices from the host reference implementation. A
    run returns it (rounded by {!App_common.checksum_of_float}): it is a
    host reference, so runs that agree on it show determinism, not that
    the simulated price slices hold the right values. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
