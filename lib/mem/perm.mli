(** Access kinds and VMA permissions. *)

type access = Read | Write

type t = { read : bool; write : bool }

val rw : t
val ro : t
val none : t

val allows : t -> access -> bool

val is_downgrade : old_perm:t -> new_perm:t -> bool
(** [is_downgrade ~old_perm ~new_perm] is true when [new_perm] removes a
    right that [old_perm] granted — such changes must be broadcast eagerly
    by the VMA synchronization protocol. *)
