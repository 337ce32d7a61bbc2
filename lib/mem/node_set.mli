(** Compact sets of node identifiers (bitmask over node ids 0..62). *)

type t = private int

val empty : t
val add : t -> int -> t
val remove : t -> int -> t
val mem : t -> int -> bool
val is_empty : t -> bool
val cardinal : t -> int
val to_list : t -> int list
val of_list : int list -> t
