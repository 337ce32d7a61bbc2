(** Access kinds and VMA permissions. *)

type access = Read | Write

type t = { read : bool; write : bool }

val rw : t
val ro : t
val none : t

val allows : t -> access -> bool
