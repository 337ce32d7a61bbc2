(** Origin-side page ownership directory (§III-B).

    The origin tracks, per page, which nodes currently own it and in which
    mode — multiple readers or a single writer. Pages never touched by the
    protocol have no entry and are implicitly owned exclusively by the
    origin. A per-page [busy] flag serializes in-flight protocol operations:
    a request hitting a busy page is NACKed and retried by the requester,
    which is the paper's slow contended-fault path.

    The ownership rule is the pure {!step}; {!apply} is the only way the
    protocol changes an entry. A locked entry changes only through its
    holder, save for a dead node's drop: a grant without the lock is
    [Refused], any other change is [Deferred] to the holder's {!unlock}. *)

type state =
  | Exclusive of int  (** single writer node *)
  | Shared of Node_set.t  (** read-only copies on these nodes *)

type event =
  | Grant of {
      requester : int;
      access : Perm.access;
      home : int;
      nodata : bool;
    }
      (** [nodata]: a requester holding a valid copy gets no bytes *)
  | Drop of { node : int; dead : bool }
      (** [node] loses its copy. A dead node's page falls back to the
          origin's copy, tracked; a live node's (a fence demotion: the
          bytes never arrived) is untracked once no one holds it *)
  | Join of int list  (** readers join a [Shared] entry *)
  | Restore of state option  (** a whole state; [None] untracks the page *)

val access : state -> int -> Perm.access option
(** What [state] lets [node] map: [Write] for the owner, [Read] for a
    reader, [None] for anyone else. *)

type lock = Free | Mine | Theirs  (** as the caller sees the busy flag *)

(** How a grant takes the page back from its exclusive owner. *)
type reclaim = Nobody | Downgrade of int | Invalidate of int

type role = Owner | Reader

type outcome =
  | Refused
  | Deferred
  | Keep
  | Set of state option  (** the entry becomes this; [None]: untracked *)
  | Dropped of role * state option  (** the role the node held *)
  | Plan of {
      reclaim : reclaim;
      revoke : Node_set.t;  (** readers to invalidate *)
      invalidate_home : bool;  (** the home drops its own copy *)
      displaced : Node_set.t;  (** nodes a write grant takes the page from *)
      ships_data : bool;
      next : state option;  (** installed by the holder after the actions *)
    }  (** a grant: the entry changes only when the holder installs [next] *)

val step : origin:int -> state option -> lock -> event -> outcome
(** [None] is an untracked page, implicitly [Exclusive origin]. Raises
    [Invalid_argument] on a [Restore] of an empty reader set. *)

type t

val create : origin:int -> t

val set_observer : t -> (Page.vpn -> state option -> unit) option -> unit
(** Install (or clear) a mutation observer, called after every write:
    [None] when the page is untracked. Implicit entry creation (an
    untracked page read back as [Exclusive origin]) is not a mutation and
    is never reported. Used by the HA layer to feed the replication log. *)

val observer : t -> (Page.vpn -> state option -> unit) option
(** The currently installed observer, so a rebuilt directory (standby
    promotion) can inherit it. *)

val state : t -> Page.vpn -> state
(** Current ownership; untracked pages are [Exclusive origin]. *)

val is_tracked : t -> Page.vpn -> bool
(** Whether the protocol has ever touched this page. Untracked pages can be
    mapped at the origin with a plain minor fault, no protocol needed. *)

val has_valid_copy : t -> Page.vpn -> int -> bool
(** Whether the entry names [node] as its owner or a reader. *)

type holder
(** Proof of holding one page's lock. *)

val try_lock : t -> Page.vpn -> holder option
(** [None]: an operation is already in flight (caller should NACK). *)

val unlock : t -> holder -> unit
(** Apply what was deferred, in arrival order, then release. Raises
    [Invalid_argument] if the page is not locked. *)

val locked : t -> Page.vpn -> bool

val apply : t -> ?holder:holder -> Page.vpn -> event -> outcome
(** {!step} on the page's entry ([Mine] when [holder] holds its lock),
    then write what it sets, reporting it to the observer, or queue what
    it defers. *)

val set_exclusive : t -> Page.vpn -> int -> unit
(** Raw write past the rule, for the transition microbenchmark. *)

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
