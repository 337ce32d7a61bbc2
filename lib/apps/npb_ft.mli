(** FT — NPB 3-D fast Fourier transform (§V, scientific).

    Spectral solver: each iteration performs per-slab FFT passes followed
    by a global transpose in which every thread reads data most recently
    written by every other thread. On DeX the transpose turns into a full
    shuffle of the grid through the consistency protocol each iteration —
    the communication pattern that keeps FT below single-machine
    performance at every node count, optimized or not (one of the paper's
    two non-scaling applications). *)

type params = {
  grid_bytes : int;
  iterations : int;
  ns_per_byte : float;  (** FFT compute per byte per pass *)
}

val default_params : params

val conversion : App_common.conversion
(** Table I: OpenMP, 7 parallel regions. *)

type oracle = {
  reference_checksum : float;  (** grid sum after the host transform *)
}

val oracle : params -> seed:int -> oracle
(** The run-independent host work of one [(params, seed)], memoized in
    one slot ({!App_common.memo}). *)

val reference_checksum : params -> seed:int -> float
(** Grid checksum after the host reference transform. A run returns it
    (rounded by {!App_common.checksum_of_float}): it is a host reference,
    so runs that agree on it show determinism, not that the simulated
    transpose moved the right values. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
