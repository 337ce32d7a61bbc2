(** Page and virtual-address arithmetic.

    Virtual addresses are plain [int]s (63 bits cover the canonical 48-bit
    user address space). The page size is fixed at 4 KB, the granularity of
    DeX's memory consistency protocol. *)

val size : int
(** 4096. *)

val shift : int
(** 12. *)

type addr = int
(** A virtual byte address. *)

type vpn = int
(** A virtual page number ([addr lsr shift]). *)

val page_of_addr : addr -> vpn

val base_of_page : vpn -> addr

val offset_in_page : addr -> int

val align_up : addr -> addr
(** Round up to the next page boundary. *)

val is_aligned : addr -> bool

val pages_of_range : addr -> len:int -> vpn * vpn
(** [pages_of_range addr ~len] is the inclusive [(first, last)] page-number
    span touched by the byte range; [len] must be positive. *)
