(** BP — belief propagation on the Polymer graph engine (§V, NUMA-aware).

    Iterative message passing: every iteration streams the whole vertex
    state (beliefs + edge messages) through the memory system with little
    locality, making BP memory-bandwidth-bound on a single machine — the
    paper's CPUs sat underutilized, and spreading the working set across
    nodes yielded super-linear speedup (3.84× on two nodes) as each node's
    share starts fitting its cache hierarchy.

    [Initial]'s vertex arrays are packed (slab boundaries shared between
    neighbouring threads) and a global convergence flag is checked and set
    throughout the sweep. [Optimized] packs per-node data page-aligned and
    stages flag updates locally (§V-C). *)

type params = {
  vertices : int;
  bytes_per_vertex : int;  (** beliefs + incoming message storage *)
  iterations : int;
  ns_per_vertex : float;  (** per-vertex message update compute *)
  llc_bytes : int;  (** per-node last-level cache *)
  miss_floor : float;  (** minimum DRAM traffic fraction *)
  flag_chunk : int;  (** Initial: vertices between flag updates *)
  globals_bytes : int;
      (** size of the master-published globals + read-only model
          parameters block, checked by every worker each chunk (0 =
          disabled, the default). [Initial] packs the published word and
          the parameters into one malloc'd block, so each publish
          invalidates every node's parameter copy; [Optimized] gives
          each its own page and stages the publish per iteration, and
          the per-chunk flag hammering moves to iteration end in both
          (convergence flows through the aggregate). Must be 0 or
          >= 16. *)
}

val default_params : params

val conversion : App_common.conversion

type oracle = { beliefs : float array  (** initial beliefs *) }

val oracle : params -> seed:int -> oracle
(** The run-independent host work of one [(params, seed)], memoized in
    one slot ({!App_common.memo}). *)

val reference_sum : params -> seed:int -> float
(** Belief sum after the host reference relaxation. A run returns it
    (rounded by {!App_common.checksum_of_float}): it is a host reference,
    so runs that agree on it show determinism, not that the simulated
    vertex slabs hold the right values. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
