(** Per-node physical page contents.

    Pages that applications access through the typed DSM interface carry
    real bytes, so tests can verify that the consistency protocol actually
    delivers the values written elsewhere. Pages are materialized lazily as
    zero-filled 4 KB buffers (like anonymous-mapping zero pages). *)

type t

val create : unit -> t

val read_i64 : t -> Page.vpn -> offset:int -> int64
(** [offset] is the byte offset within the page; must be 8-aligned and
    within bounds. *)

val write_i64 : t -> Page.vpn -> offset:int -> int64 -> unit

val read_byte : t -> Page.vpn -> offset:int -> int

val write_byte : t -> Page.vpn -> offset:int -> int -> unit

val snapshot : t -> Page.vpn -> bytes
(** A copy of the page contents (for shipping over the network). It is the
    one copy a page transfer makes, like the copy out of the RDMA sink
    into the destination page. *)

val install : t -> Page.vpn -> bytes -> unit
(** Make [bytes] the page's contents. The store adopts the buffer rather
    than copying it, so the caller must not keep it, nor hand it to
    another store: install a {!snapshot} (or a [Bytes.copy]) per
    destination. *)

val drop : t -> Page.vpn -> unit
(** Discard the local copy (invalidation). *)

val materialized : t -> int
(** Number of resident pages. *)

val mem : t -> Page.vpn -> bool
(** Whether the page is resident (has ever been written or installed). *)

val fold : t -> init:'a -> f:(Page.vpn -> bytes -> 'a -> 'a) -> 'a
(** Fold over resident pages. The bytes are the live buffers — copy before
    stashing them anywhere (standby bootstrap snapshots do). *)
