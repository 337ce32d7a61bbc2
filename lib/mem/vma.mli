(** Virtual memory areas.

    A VMA describes a page-aligned address range with uniform permissions,
    the unit of the on-demand VMA synchronization protocol (§III-D). [tag]
    names the region for diagnostics and profiling ("heap", "stack:3",
    "global:centers", …). *)

type t = {
  start : Page.addr;  (** inclusive, page-aligned *)
  len : int;  (** bytes, page multiple *)
  perm : Perm.t;
  tag : string;
}

val make : start:Page.addr -> len:int -> perm:Perm.t -> tag:string -> t
(** Raises [Invalid_argument] if [start] or [len] is not page-aligned or
    [len] is not positive. *)

val end_ : t -> Page.addr
(** Exclusive end address. *)

val contains : t -> Page.addr -> bool

val overlaps : t -> start:Page.addr -> len:int -> bool

