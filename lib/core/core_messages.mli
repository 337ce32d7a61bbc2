(** Wire messages of the migration / delegation / VMA-sync machinery. *)

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
      pid : int;
      tid : int;
      first_to_node : bool;
          (** whether the sender believes this is the process's first
              migration to the destination (remote worker must be built) *)
      origin_ns : int;
          (** origin-side cost already incurred, for the migration log *)
      resume : unit -> unit;
          (** continuation restarting the thread at the destination *)
    }
  | Migrate_back of {
      pid : int;
      tid : int;
      remote_ns : int;
      resume : unit -> unit;
    }
  | Delegate of {
      pid : int;
      tid : int;
      resp_size : int;
      run : unit -> Dex_net.Msg.payload;
    }
      (** remote → origin: run a stateful kernel operation in the context
          of the paired original thread and reply with its result *)
  | Ret_unit
  | Ret_bool of bool
  | Ret_int of int
  | Vma_query of { pid : int; addr : Dex_mem.Page.addr }
      (** remote → origin: on-demand VMA lookup *)
  | Vma_info of Dex_mem.Vma.t option
  | Node_op of { pid : int; op : node_op }
      (** origin → remote worker: node-wide operation *)
  | Node_op_ack

val kind_migrate : string
val kind_delegate : string
val kind_vma : string
val kind_node_op : string
