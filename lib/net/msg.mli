(** Messages carried by the fabric.

    Payloads are an extensible variant so that higher layers (coherence
    protocol, migration, delegation) declare their own constructors without
    the fabric depending on them. *)

type payload = ..
(** Open sum of message bodies; each layer adds its own constructors. *)

(** One message on the fabric: routing header plus opaque payload. *)
type t = {
  src : int;  (** sending node *)
  dst : int;  (** destination node *)
  pid : int;
      (** the process the message belongs to: the cluster hands it to that
          process's router, so no payload repeats it. Layers used without a
          cluster (tests, the LRC baseline) send on pid 0. The fabric's own
          acks, busy notices and replies copy the request's pid. *)
  size : int;  (** wire size in bytes *)
  kind : string;  (** statistics class, e.g. ["page_req"] *)
  payload : payload;
}

val pp : Format.formatter -> t -> unit
(** Prints the routing header (kind, pid, src, dst, size); payloads are
    opaque. *)
