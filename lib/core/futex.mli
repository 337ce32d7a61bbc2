(** Origin-side futex queues (§III-A).

    Linux's fast user-space mutex underpins every pthread synchronization
    primitive. In DeX, remote threads' futex system calls are delegated to
    the origin and executed against these queues in the context of their
    paired original threads, so synchronization works unmodified regardless
    of thread location.

    Waiters are tagged with the node their thread was executing on, so
    that a fail-stop crash can {!cancel} them: a cancelled waiter resumes
    with the [`Crashed] verdict and becomes invisible to {!wake_tids} and
    {!waiters} — ghost waiters must neither swallow wakes destined for
    survivors nor inflate the waiter count. *)

type t

val create : Dex_sim.Engine.t -> t

val wait :
  ?owner:int -> ?tid:int -> t -> addr:Dex_mem.Page.addr ->
  [ `Woken | `Crashed ]
(** Enqueue the calling fiber on the futex at [addr] and block until a
    wake ([`Woken]) or until [owner]'s node is cancelled by a crash
    ([`Crashed]). [owner] defaults to [-1]: never cancelled. [tid]
    (default [-1]) tags the waiter for {!wake_tids} reporting — the HA
    replication log records exactly which thread consumed each wake. The
    atomic value check against the futex word is the caller's
    responsibility (it must run in the same engine event). *)

val wake_tids : t -> addr:Dex_mem.Page.addr -> count:int -> int list
(** Wake up to [count] live waiters in FIFO order; returns the woken
    waiters' [tid] tags in wake order (untagged waiters report [-1]).
    Cancelled waiters are skipped and never reported — waking an address
    whose waiters all died returns [[]]. *)

val waiters : t -> addr:Dex_mem.Page.addr -> int
(** Number of live (non-cancelled) waiters parked on [addr]. *)

val cancel : t -> owned_by:(int -> bool) -> int
(** Resume every live waiter whose owner node satisfies [owned_by] with
    the [`Crashed] verdict; returns how many were cancelled. Used by the
    crash hook — call it {e before} re-homing changes thread locations. *)
