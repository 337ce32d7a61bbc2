(** Contended hardware resources.

    {!Pool} models a set of identical servers (CPU cores of a node): a fiber
    acquires one unit, holds it for some simulated time, and releases it;
    excess demand queues FIFO. {!Server} models a shared FIFO channel with a
    service rate (a node's aggregate memory bandwidth): transferring [b]
    bytes occupies the channel for [b / rate], so concurrent heavy users see
    proportionally less bandwidth each — the effect behind DeX's super-linear
    BP result. *)

module Pool : sig
  type t

  val create : Engine.t -> capacity:int -> t

  val capacity : t -> int

  val in_use : t -> int

  val acquire : t -> unit
  (** Blocks the calling fiber until a unit is free. *)

  val waits : t -> int
  (** Number of [acquire] calls that had to block (pool exhausted). *)

  val busy_core_ns : t -> int
  (** Integral of units-in-use over time (core-nanoseconds consumed so
      far) — the basis for utilization and energy accounting. *)

  val release : t -> unit

  val use : t -> Time_ns.t -> unit
  (** [use t d] acquires a unit, holds it for [d], then releases it. *)
end

module Server : sig
  type t

  val create : Engine.t -> bytes_per_us:float -> t
  (** [create engine ~bytes_per_us] is a FIFO server draining
      [bytes_per_us] bytes per simulated microsecond. *)

  val set_rate : t -> bytes_per_us:float -> unit
  (** Change the service rate from now on. Transfers already admitted keep
      the service time computed at admission (store-and-forward: committed
      frames drain at the old rate). Used by the serving layer's fair
      gates to re-rate a tenant's share. *)

  val rate : t -> float
  (** Current service rate in bytes per simulated microsecond. *)

  val reserve : t -> bytes:int -> Time_ns.t
  (** [reserve t ~bytes] admits a request behind all earlier ones and
      returns how long from now until the server has serviced it, without
      blocking: the callback form of {!transfer}. *)

  val transfer : t -> bytes:int -> unit
  (** [transfer t ~bytes] blocks the calling fiber until the server has
      serviced this request behind all earlier ones. *)
end
