(** Deterministic SplitMix64 pseudo-random number generator.

    Every source of randomness in the simulator flows from explicitly seeded
    instances of this generator, so runs are reproducible bit-for-bit. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] derives an independent generator and advances [t]; use it to
    hand child components their own streams. *)

val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)


