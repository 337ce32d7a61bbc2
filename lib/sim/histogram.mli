(** Value accumulator with summary statistics.

    Used to record latency samples (in nanoseconds) and report means,
    percentiles and extrema for the evaluation harness. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** [add t v] records one sample. *)

val count : t -> int

val mean : t -> float
(** [mean t] is 0.0 when empty. *)

val min_value : t -> int
(** Raises [Invalid_argument] when empty. *)

val max_value : t -> int
(** Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> int
(** [percentile t p] with [p] in [\[0,100\]] (nearest-rank). Raises
    [Invalid_argument] when empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram holding both sample sets ([a]'s
    samples, then [b]'s); the inputs are unchanged and may be empty.
    Used to aggregate per-tenant latency digests into a fleet-wide one. *)

val to_list : t -> int list
(** Samples in insertion order. *)

