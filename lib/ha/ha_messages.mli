(** Wire messages of the origin replication log. *)

type Dex_net.Msg.payload +=
  | Repl_append of { epoch : int; first_seq : int; entries : Log_entry.t list }
      (** origin → standby: the log suffix starting at [first_seq], stamped
          with the sender's origin generation [epoch]. Sized as the sum of
          the entries' {!Log_entry.wire_size}, so bulk page shipping rides
          the RDMA path automatically. *)
  | Repl_ack of { watermark : int }
      (** standby → origin: every entry below [watermark] is applied. *)
  | Repl_nack of { epoch : int }
      (** standby → origin: the batch was refused because its epoch is
          older than the receiver's ([epoch] is the receiver's current
          generation) — a deposed origin must not advance any standby's
          watermark. *)

val kind_repl : string
(** Statistics class of replication-log messages. *)
