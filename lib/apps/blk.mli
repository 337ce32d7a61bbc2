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

val reference_sum : params -> seed:int -> float
(** Sum of all option prices from the host reference implementation. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
