(** BFS — breadth-first search on the Polymer graph engine (§V,
    NUMA-aware).

    Level-synchronous top-down BFS over an R-MAT graph (Graph500
    parameters). Vertices are partitioned across threads; each level the
    threads expand their share of the frontier and publish newly
    discovered vertices.

    [Initial] writes discovery results straight into the globally shared
    level array — scattered single-word writes across the whole vertex
    range that ping-pong level pages between all nodes — and counts the
    frontier through one global counter. [Optimized] applies Polymer's
    per-node packing: discoveries are staged into per-node inboxes and
    each owner updates only its own partition's pages, with one counter
    update per thread per level. BFS still does not beat single-machine
    performance (frontier exchange is inherent), matching the paper. *)

type params = {
  scale : int;  (** vertices = 2^scale *)
  edge_factor : int;  (** edges = vertices * edge_factor *)
  ns_per_edge : float;
  max_iters : int;  (** paper: applications iterate up to 64 *)
  sample_pages : int;
      (** cap on modelled scattered page writes per thread per level in
          the Initial variant *)
}

val default_params : params

val conversion : App_common.conversion
(** Table I: pthread; includes replacing libNUMA allocation calls. *)

type oracle = {
  graph : Workloads.graph;
  levels : int array;  (** BFS level of each vertex from vertex 0; -1 if unreached *)
  frontiers : int array list;  (** each level's vertices in discovery order *)
  level_sum : int;  (** see {!reference_level_sum} *)
}

val oracle : params -> seed:int -> oracle
(** The run-independent host work of one [(params, seed)]: the graph and
    its BFS, memoized in one slot ({!App_common.memo}). *)

val reference_level_sum : params -> seed:int -> int
(** Sum of BFS levels of reachable vertices (host reference). A run
    returns it: runs that agree on it show determinism, not that the
    simulated level array holds the right values. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
