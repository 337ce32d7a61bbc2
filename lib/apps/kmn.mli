(** KMN — k-means clustering (§V, "simple data processing").

    Finds cluster centers of a 3-D point cloud by iterating assignment and
    center-update steps, threads processing contiguous point partitions and
    meeting at a barrier each iteration (real k-means runs on the host; the
    cluster only pays simulation costs).

    [Initial] reproduces the original sharing behaviour: threads update the
    globally shared center accumulators and a global "changed" flag as they
    sweep their points, so the accumulator and flag pages ricochet between
    nodes throughout every iteration. [Optimized] stages updates in
    thread-local buffers and publishes them once per iteration, with the
    shared structures page-aligned (§V-C). *)

type params = {
  points : int;
  clusters : int;
  iterations : int;  (** fixed iteration count for determinism *)
  ns_per_point : float;
      (** assignment cost per point per iteration (distance to every
          center) *)
  chunk_points : int;  (** granularity of the Initial variant's updates *)
}

val default_params : params

val conversion : App_common.conversion

type oracle = {
  cloud : float array;
      (** the input points, {!Workloads.points_3d} of [points] and
          [clusters] *)
}

val oracle : params -> seed:int -> oracle
(** The run-independent host work of one [(params, seed)], memoized in
    one slot ({!App_common.memo}) keyed on the whole [params]. *)

val reference_centers : params -> seed:int -> float array
(** Ground truth: the centers a sequential host implementation computes.
    A run's checksum folds the centers its threads compute on the host,
    not values read back from simulated memory, so runs that agree on it
    show determinism only. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
