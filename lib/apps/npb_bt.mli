(** BT — NPB block-tridiagonal solver (§V, scientific).

    Time-stepped stencil solver. The paper converts 15 OpenMP parallel
    regions; we model each timestep as a sequence of region executions in
    which persistent workers migrate out, solve their grid slab, and
    migrate back — exercising DeX's cheap repeated migrations.

    [Initial] carries the three sharing patterns the paper's profiler found
    in NPB: children read the parent's stack variables each region, the
    read-only loop-range parameters share a page with a frequently written
    residual norm, and slab boundaries share pages with neighbouring
    threads. [Optimized] passes stack values as arguments, page-separates
    the parameters, and page-aligns the slabs. *)

type params = {
  timesteps : int;
  regions_per_step : int;  (** distinct region executions per timestep *)
  cells : int;
  ns_per_cell : float;
  update_chunk : int;
      (** cells between residual-norm updates in the Initial variant *)
}

val default_params : params

val conversion : App_common.conversion
(** Table I: OpenMP, 15 parallel regions. *)

type oracle = {
  reference_checksum : int64;
      (** residual of the last of [timesteps * regions_per_step] host
          sweeps over the whole grid *)
}

val oracle : params -> seed:int -> oracle
(** The run-independent host work of one [(params, seed)], memoized in
    one slot ({!App_common.memo}). Only the checksum is kept, not the
    grid. A run returns {!oracle}'s checksum: it is a host reference, so
    runs that agree on it show determinism, not that the simulated slabs
    carried the right values. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
