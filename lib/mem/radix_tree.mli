(** Page-number table: the per-process radix tree DeX keeps in the kernel
    to index page ownership by virtual page number (§III-B).

    The kernel tree is what the model describes; no simulated cost depends
    on how the host stores it. On the host, a table holds only leaves: a
    hash table maps each 512-page prefix ([key lsr 9], one 2 MB region)
    that ever held a key to its 512-slot leaf. An empty table holds no
    leaf, a table whose keys lie in one 2 MB region holds exactly one, and
    so a table costs in proportion to the regions it maps, as a kernel
    radix tree grows nodes only as keys arrive. Keys span a 36-bit
    page-number space (48-bit addresses / 4 KB pages). {!find} and {!mem}
    allocate nothing, on a hit or a miss; the last leaf looked up is
    remembered, so runs of nearby keys skip the hash. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> int -> 'a option

val mem : 'a t -> int -> bool

val set : 'a t -> int -> 'a -> unit

val remove : 'a t -> int -> unit

val length : 'a t -> int

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** In increasing key order. *)

val fold : 'a t -> init:'b -> f:(int -> 'a -> 'b -> 'b) -> 'b
(** In increasing key order. *)
