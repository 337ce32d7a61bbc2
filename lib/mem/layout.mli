(** Canonical address-space layout for simulated processes.

    Mirrors a classic x86-64 layout: text low, then a global-data segment,
    a large heap reservation, and per-thread stacks high in the address
    space. Sizes are reservations, not resident memory. *)

val text_base : Page.addr
val text_size : int

val globals_base : Page.addr
val globals_size : int

val heap_base : Page.addr
val heap_size : int

val mmap_base : Page.addr
val mmap_zone_size : int
(** Region from which anonymous [mmap] carves fresh VMAs. *)

val stack_base : Page.addr
val stack_slot_size : int
(** Reservation stride between thread stacks. *)

val stack_size : int
(** Usable stack bytes per thread (top of each slot). *)

val max_threads : int

val stack_for : tid:int -> Page.addr
(** Lowest address of thread [tid]'s stack area. *)

val stack_top : tid:int -> Page.addr
(** Initial stack pointer of thread [tid] (grows down). *)
