(** Pthread-style synchronization primitives, unmodified on DeX.

    Exactly as on Linux, these are built from an atomic word in shared
    memory plus futex system calls. The words live in the DSM — so lock
    acquisition by a remote thread really acquires exclusive ownership of
    the lock word's page, and futex waits/wakes are delegated to the
    origin (§III-A). Nothing here knows where a thread runs: the paper's
    claim that synchronization primitives work as-is. *)

module Mutex : sig
  type t

  val create : Process.t -> ?tag:string -> unit -> t
  (** Allocates the lock word on the heap ([tag] defaults to "mutex"). *)

  val lock : Process.thread -> t -> unit

  val unlock : Process.thread -> t -> unit

  val with_lock : Process.thread -> t -> (unit -> 'a) -> 'a
end

module Barrier : sig
  type t

  val create : Process.t -> parties:int -> ?tag:string -> unit -> t

  val await : Process.thread -> t -> unit
  (** Block until [parties] threads have arrived; the barrier then resets
      for the next round (generation-counted, safe for reuse). *)
end
