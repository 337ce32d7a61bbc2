(** User-space-style memory allocator over the simulated address space.

    Bump allocation inside the {!Layout} segments, with an object registry
    mapping addresses back to named program objects — that registry is what
    lets the page-fault profiler attribute faults to source-level objects
    (§IV-A). [malloc] packs objects contiguously (the false-sharing-prone
    default); [memalign] page-aligns them, which is exactly the
    [posix_memalign] fix the paper applies to contended per-node data. *)

type t

val create : unit -> t

val alloc_static : t -> ?align:int -> bytes:int -> tag:string -> unit -> Page.addr
(** Allocate in the global-data segment (statically allocated program
    data). [align] defaults to 8. *)

val malloc : t -> bytes:int -> tag:string -> Page.addr
(** Heap allocation, 16-byte aligned — adjacent allocations share pages. *)

val memalign : t -> align:int -> bytes:int -> tag:string -> Page.addr
(** Heap allocation at the given power-of-two alignment
    ([posix_memalign]). *)

val object_at : t -> Page.addr -> (string * Page.addr * int) option
(** [(tag, base, len)] of the object containing the address, if any. *)
