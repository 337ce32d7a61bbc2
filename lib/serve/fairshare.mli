(** Equal fair sharing of a service capacity, with a noisy-neighbour
    cap — built on {!Dex_sim.Resource.Server} rate control.

    One gate models one node's ingress/home service capacity, shared by
    every tenant homed there. Each registered tenant owns a private FIFO
    {!Dex_sim.Resource.Server}; whenever the set of backlogged tenants
    changes, every backlogged tenant's server is re-rated
    ({!Dex_sim.Resource.Server.set_rate}) to an equal share of the gate's
    total capacity:

    {v rate = total * min(cap, 1 / number of backlogged tenants) v}

    Idle tenants' shares are redistributed to the backlogged ones, but
    never beyond the cap: even a tenant alone at the gate gets at most
    [cap * total], so a hog saturating its own share cannot absorb the
    whole gate the instant its neighbours go briefly idle — the
    noisy-neighbour cap keeps headroom for their return. Transfers
    already admitted when a re-rate happens drain at their admission rate
    (store-and-forward), so shares converge within one service time. *)

type t

val create : Dex_sim.Engine.t -> bytes_per_us:float -> cap:float -> t
(** [cap] in (0, 1]: maximum fraction of the capacity any single tenant
    can be rated at. Raises [Invalid_argument] out of range. *)

val register : t -> key:int -> unit
(** Add tenant [key]. Raises [Invalid_argument] on duplicates. *)

val transfer : t -> key:int -> bytes:int -> unit
(** Charge [bytes] of service to tenant [key]'s share, blocking the
    calling fiber until served behind the tenant's earlier requests.
    Raises [Not_found] for unregistered keys. *)

val rate : t -> key:int -> float
(** The tenant's current rated share, bytes per simulated µs. *)

val backlogged : t -> int
(** Number of tenants with at least one transfer in flight. *)

val recomputes : t -> int
(** How many times the backlogged set changed and shares were re-rated. *)
