(** Named counters for instrumenting simulator components. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** [incr t name] adds 1 to counter [name], creating it at 0 first. *)

val add : t -> string -> int -> unit

type counter
(** A handle on one named counter, for a hot path that bumps it often: it
    skips the name lookup and stays valid across {!reset}. *)

val counter : t -> string -> counter
(** [counter t name] is [name]'s handle. The counter is created on its
    first {!bump}, as by {!add}: until then {!to_list} does not list it. *)

val bump : counter -> int -> unit
(** [bump c n] adds [n] to the counter, like {!add}. *)

val get : t -> string -> int
(** [get t name] is 0 for unknown counters. *)

val to_list : t -> (string * int) list
(** Counters sorted by name. *)

val reset : t -> unit
(** Zero and unlist every counter. *)

