(** GRP — string match (§V, "simple data processing").

    Counts occurrences of four 7–10 byte key strings in a text file served
    from the NFS share. The file is divided into per-thread partitions;
    each worker reads its partition, scans it, and accumulates match
    counts.

    [Initial] keeps the original sharing bugs the paper's profiling
    uncovered: every thread's argument block lives on one shared page, and
    every match increments a global counter — each increment ping-pongs
    the counter's page across all nodes. [Optimized] page-aligns the
    argument blocks ([posix_memalign]) and stages counts locally, updating
    the global counter once per thread (§V-C). *)

type params = {
  text_bytes : int;
  key_interval : int;  (** average bytes between key occurrences *)
  cpu_ns_per_byte : float;  (** scanning speed *)
  chunk_bytes : int;  (** I/O + scan granularity *)
}

val default_params : params
(** 32 MB of text, one match per ~16 KB — scaled from the paper's 8 GB of
    Wikipedia so the full sweep runs on a laptop; normalized results
    depend on ratios, not absolute size. *)

val conversion : App_common.conversion
(** Table I row: pthread; 2 lines added to convert (one forward + one
    backward migration call). *)

type oracle = {
  positions : int array;  (** ascending offsets of every key occurrence *)
}

val oracle : params -> seed:int -> oracle
(** The run-independent host work of one [(params, seed)]: the corpus is
    built and scanned once, memoized in one slot ({!App_common.memo}). *)

val expected_matches : params -> seed:int -> int
(** Ground truth from the reference scanner. A run's checksum passes
    through simulated memory: workers [fetch_add] their counts into a
    shared word that the main thread loads, so a lost update changes
    it. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
