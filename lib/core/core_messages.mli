(** Wire messages of the migration / delegation / VMA-sync machinery.

    The envelope's {!Dex_net.Msg.t.pid} names the process; the payloads
    carry only what their receiver reads. *)

type node_op =
  | Vma_shrink of { start : Dex_mem.Page.addr; len : int }
      (** unmap a range everywhere *)
  | Vma_protect of {
      start : Dex_mem.Page.addr;
      len : int;
      perm : Dex_mem.Perm.t;
    }  (** permission downgrade, broadcast eagerly *)
  | Process_exit  (** tear down the remote worker *)

type Dex_net.Msg.payload +=
  | Migrate of {
      tid : int;
      origin_ns : int;
          (** origin-side cost already incurred, for the migration log *)
      resume : unit -> unit;
          (** continuation restarting the thread at the destination *)
    }
      (** → destination: rebuild thread [tid] there (building the remote
          worker first if the node has none) *)
  | Migrate_back of {
      tid : int;
      remote_ns : int;  (** remote-side capture cost, for the log *)
      resume : unit -> unit;
    }  (** remote → origin: refresh the original thread [tid] *)
  | Delegate of { resp_size : int; run : unit -> unit }
      (** remote → home: run a stateful kernel operation in the context of
          the paired original thread, then reply [Delegate_done] with
          [resp_size] wire bytes. [run] stores the operation's result in
          the caller's own cell, so the result is an OCaml value and never
          a wire type. *)
  | Delegate_done
  | Vma_query of { addr : Dex_mem.Page.addr }
      (** remote → origin: on-demand VMA lookup *)
  | Vma_info of Dex_mem.Vma.t option
  | Node_op of node_op  (** origin → remote worker: node-wide operation *)
  | Node_op_ack

val kind_migrate : string
val kind_delegate : string
val kind_vma : string
val kind_node_op : string
