type node_op =
  | Vma_shrink of { start : Dex_mem.Page.addr; len : int }
  | Vma_protect of {
      start : Dex_mem.Page.addr;
      len : int;
      perm : Dex_mem.Perm.t;
    }
  | Process_exit

type Dex_net.Msg.payload +=
  | Migrate of {
      pid : int;
      tid : int;
      first_to_node : bool;
      origin_ns : int;
      resume : unit -> unit;
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
  | Ret_unit
  | Ret_bool of bool
  | Ret_int of int
  | Vma_query of { pid : int; addr : Dex_mem.Page.addr }
  | Vma_info of Dex_mem.Vma.t option
  | Node_op of { pid : int; op : node_op }
  | Node_op_ack

let kind_migrate = "migrate"
let kind_delegate = "delegate"
let kind_vma = "vma"
let kind_node_op = "node_op"
