(** Per-node physical page contents.

    Pages that applications access through the typed DSM interface carry
    real bytes, so tests can verify that the consistency protocol actually
    delivers the values written elsewhere. Pages are materialized lazily as
    zero-filled 4 KB buffers (like anonymous-mapping zero pages).

    Page images are shared until written. Only this module's writer
    ({!write_i64}) mutates a page buffer; every other holder
    of one (a message, the HA log, a replica, a {!fold} callback) treats its
    bytes as read-only. Each resident page records whether its buffer may
    be shared: {!snapshot}, {!install} and {!fold} mark it so, and the
    first write to a shared buffer copies it, after which the page is
    private again. Reads never copy. So a page transfer makes at most one
    copy, made by the first write after it. A transfer that hands a
    buffer over as the receiver's alone ({!adopt}, {!own}) makes none:
    the caller vouches that no other holder reads the buffer as page
    bytes again. *)

type t

val create : unit -> t

val read_i64 : t -> Page.vpn -> offset:int -> int64
(** [offset] is the byte offset within the page; must be 8-aligned and
    within bounds. *)

val write_i64 : t -> Page.vpn -> offset:int -> int64 -> unit

val snapshot : t -> Page.vpn -> bytes
(** The page's image, for shipping over the network: the store's own
    buffer, not a copy, now marked shared, so the store's next write to the
    page copies first. The caller must not write to it. *)

val install : t -> Page.vpn -> bytes -> unit
(** Make [bytes] the page's contents, shared: the store keeps the buffer
    without copying it and copies before its first write, so one image may
    be installed in any number of stores and still be held elsewhere. *)

val adopt : t -> Page.vpn -> bytes -> unit
(** {!install} a buffer no other holder can see (one {!take} handed over
    as private): the page is private, so its next write needs no copy. The
    caller must not keep the buffer nor hand it anywhere else. *)

val own : t -> Page.vpn -> unit
(** Mark the resident page private, so its next write needs no copy: the
    caller vouches that every other holder of its buffer is gone or never
    reads it again (a write grant revoked every other copy). No-op if the
    page is not resident. *)

val take : t -> Page.vpn -> (bytes * bool) option
(** [take t p] removes page [p], as {!drop} does, but hands its buffer over
    instead of discarding it: [Some (b, owned)], where [owned] says [b] was
    private, so a receiver may {!adopt} it (otherwise it must {!install}
    it). [None] if [p] is not resident. *)

val drop : t -> Page.vpn -> unit
(** Discard the local copy (invalidation). *)

val materialized : t -> int
(** Number of resident pages. *)

val mem : t -> Page.vpn -> bool
(** Whether the page is resident (has ever been written or installed). *)

val fold : t -> init:'a -> f:(Page.vpn -> bytes -> 'a -> 'a) -> 'a
(** Fold over resident pages, in increasing page order. Each page's buffer
    is handed out as by {!snapshot} (marked shared, not copied), so [f] may
    keep it, read-only (standby bootstrap snapshots do). *)
