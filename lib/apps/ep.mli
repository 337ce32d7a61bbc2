(** EP — NPB "embarrassingly parallel" kernel (§V, scientific).

    Generates pairs of uniform deviates, accepts those inside the unit
    circle (Marsaglia polar method), and tallies the resulting Gaussian
    pairs into ten concentric annuli. One OpenMP parallel region.

    [Initial] keeps NPB's shared bookkeeping: work batches are claimed from
    a shared counter and the loop-range parameters live on the same page,
    so every claim invalidates every node's cached parameters.
    [Optimized] assigns batches statically and moves the read-only
    parameters to their own page, which is why the paper's EP improves
    further even though it already scaled. *)

type params = {
  pairs : int;
  batch : int;  (** work-claim granularity *)
  ns_per_pair : float;
}

val default_params : params

val conversion : App_common.conversion
(** OpenMP, one parallel region: 2 lines for the initial port. *)

type oracle = {
  batch_tallies : int array array;
      (** annulus counts of each work batch; a batch's pairs depend only
          on (seed, batch index), never on which thread draws them *)
  reference : int array;  (** their sum: the sequential ground truth *)
  reference_checksum : int64;  (** {!reference} folded as a run folds *)
}
(** The run-independent host work of one [(params, seed)]. Shared between
    runs: read it, never mutate it. *)

val oracle : params -> seed:int -> oracle
(** Memoized in one slot ({!App_common.memo}). *)

val reference_tallies : params -> seed:int -> int array
(** Ground truth annulus counts from a sequential host run. *)

val reference_checksum : params -> seed:int -> int64
(** The checksum a correct run returns — {!reference_tallies} folded the
    same way {!body} folds its final tallies. The checksum passes through
    simulated memory: each worker adds its batches' tallies into shared
    words with [fetch_add] and the main thread loads the totals, so a lost
    or doubled batch changes it. *)

val body :
  params -> oracle -> App_common.ctx -> Dex_core.Process.thread -> int64
(** [body p o ctx main] is the application body, for callers that build
    their own process on a shared cluster (the serving layer); [o] must be
    [oracle p ~seed:ctx.seed]. Returns the run's checksum. Taking the
    oracle lets such a caller build it once per request and keep it,
    instead of looking it up in the one-slot memo, which another request's
    lookup may have evicted. {!run} wraps the body in a fresh
    single-process rack and takes the oracle from the memo. *)

val run :
  nodes:int ->
  variant:App_common.variant ->
  ?config:Dex_core.Core_config.t ->
  ?proto:Dex_proto.Proto_config.t ->
  ?params:params ->
  ?seed:int ->
  unit ->
  App_common.result
