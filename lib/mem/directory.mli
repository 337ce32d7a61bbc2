(** Origin-side page ownership directory (§III-B).

    The origin tracks, per page, which nodes currently own it and in which
    mode — multiple readers or a single writer. Pages never touched by the
    protocol have no entry and are implicitly owned exclusively by the
    origin. A per-page [busy] flag serializes in-flight protocol operations:
    a request hitting a busy page is NACKed and retried by the requester,
    which is the paper's slow contended-fault path. *)

type state =
  | Exclusive of int  (** single writer node *)
  | Shared of Node_set.t  (** read-only copies on these nodes *)

type t

val create : origin:int -> t

val set_observer : t -> (Page.vpn -> state option -> unit) option -> unit
(** Install (or clear) a mutation observer, called after every state
    change: [Some state] for {!set_exclusive}/{!set_shared}/{!add_reader},
    [None] for {!forget}. Implicit entry creation (an untracked page read
    back as [Exclusive origin]) is not a mutation and is never reported.
    Used by the HA layer to feed the replication log. *)

val observer : t -> (Page.vpn -> state option -> unit) option
(** The currently installed observer, so a rebuilt directory (standby
    promotion) can inherit it. *)

val state : t -> Page.vpn -> state
(** Current ownership; untracked pages are [Exclusive origin]. *)

val is_tracked : t -> Page.vpn -> bool
(** Whether the protocol has ever touched this page. Untracked pages can be
    mapped at the origin with a plain minor fault, no protocol needed. *)

val set_exclusive : t -> Page.vpn -> int -> unit

val set_shared : t -> Page.vpn -> Node_set.t -> unit
(** Raises [Invalid_argument] on an empty reader set. *)

val add_reader : t -> Page.vpn -> int -> unit
(** Raises [Invalid_argument] if the page is exclusively owned by another
    node; callers must downgrade first. *)

val drop_node : t -> Page.vpn -> int -> [ `Owner | `Reader | `Absent ]
(** Take [node] out of the page's entry, for a node that can no longer
    hold it: an exclusive owner falls back to the [~origin] given to
    {!create}, a reader leaves the reader set, and a set left empty falls
    back to that origin too.
    Returns which role [node] held ([`Absent]: none, entry untouched).
    The observer sees the one resulting {!set_exclusive} or
    {!set_shared}. *)

val has_valid_copy : t -> Page.vpn -> int -> bool
(** Whether [node] holds an up-to-date copy — used for the
    grant-ownership-without-data optimization. *)

val try_lock : t -> Page.vpn -> bool
(** Acquire the per-page busy flag; [false] means an operation is already
    in flight (caller should NACK). *)

val unlock : t -> Page.vpn -> unit
(** Raises [Invalid_argument] if the page is not locked. *)

val locked : t -> Page.vpn -> bool

val forget : t -> Page.vpn -> unit
(** Drop the tracking entry entirely (page unmapped); the page reverts to
    implicit exclusive-at-origin. *)

val tracked_pages : t -> int

val iter : t -> (Page.vpn -> state -> unit) -> unit

val snapshot : t -> (Page.vpn * state) list
(** Canonical image of every tracked entry, sorted by vpn — two
    directories with the same ownership state produce structurally equal
    snapshots regardless of mutation order. Busy flags are transient
    protocol state and are not captured. *)

val check_invariants : t -> unit
(** Test hook: exclusive entries carry a valid node; shared entries are
    non-empty. *)
