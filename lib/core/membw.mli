(** Per-node memory-channel bandwidth with contention degradation.

    A node's memory controller delivers its nominal bandwidth to a single
    stream; each additional concurrent stream degrades aggregate throughput
    (bank conflicts, row-buffer misses), so [k] concurrent streamers share
    [B / (1 + c·(k-1))]. This is the resource behind the paper's
    super-linear BP result: on one node, 8 threads strangle the memory
    channels; spreading them over nodes multiplies both bandwidth and
    reduces per-node contention. *)

type t

val create : Dex_sim.Engine.t -> bytes_per_us:float -> contention:float -> t

val stream : t -> bytes:int -> unit
(** Block the calling fiber while [bytes] of memory traffic drain through
    the node's memory channels. *)

