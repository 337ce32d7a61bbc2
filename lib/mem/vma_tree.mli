(** Ordered set of non-overlapping VMAs — the per-node view of an address
    space's layout.

    The origin holds the authoritative tree; remote nodes hold lazily
    populated copies refreshed by on-demand VMA synchronization. Every
    change to a tree after its VMAs are laid out is one {!change}: the
    origin, its remote workers and its standbys all {!apply} the same
    value. *)

type t

val create : unit -> t

val insert : t -> Vma.t -> unit
(** Add a new mapping. Raises [Invalid_argument] if it overlaps an
    existing one. *)

val find : t -> Page.addr -> Vma.t option
(** The VMA containing the address, if any. *)

(** A change to an address range, as [mmap], [munmap] and [mprotect] make
    it. *)
type change =
  | Map of Vma.t  (** the VMA replaces whatever the range held *)
  | Unmap of { start : Page.addr; len : int }
  | Protect of { start : Page.addr; len : int; perm : Perm.t }

val apply : t -> change -> unit
(** Apply a change, splitting VMAs at the range's ends. Raises
    [Invalid_argument] if the range is not page-aligned or is empty. *)

val narrows : t -> change -> bool
(** Whether applying the change to [t] takes access away: an unmap, or a
    protect that removes a right from a VMA it covers. §III-D broadcasts
    exactly these eagerly; the rest reach other nodes through on-demand
    synchronization. *)

val iter : t -> (Vma.t -> unit) -> unit
(** In increasing address order. *)

val to_list : t -> Vma.t list

val count : t -> int

val check_invariants : t -> unit
(** Raises [Failure] if VMAs overlap or are unsorted (test hook). *)
