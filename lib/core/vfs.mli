(** Simulated file system state, owned by the origin node.

    File descriptors, cursors and file contents metadata live at the
    origin; remote threads reach them through work delegation exactly like
    futexes (§III-A: "stateful OS features such as futexes and file I/O").
    Data transfer is charged against the cluster's shared storage
    appliance. Only sizes are tracked — file *contents* are not simulated
    (applications keep real data host-side). *)

type t

type fd = int

val create : unit -> t

val open_file : t -> string -> fd
(** Open (creating if absent) and return a fresh descriptor with the
    cursor at 0. *)

val read : t -> fd -> bytes:int -> int
(** Advance the cursor by up to [bytes]; returns how many bytes were
    actually read (0 at EOF). Raises [Invalid_argument] on a bad fd. *)

val write : t -> fd -> bytes:int -> unit
(** Append-or-overwrite at the cursor, growing the file as needed. *)

val close : t -> fd -> unit
