type node_op =
  | Vma_shrink of { start : Dex_mem.Page.addr; len : int }
  | Vma_protect of {
      start : Dex_mem.Page.addr;
      len : int;
      perm : Dex_mem.Perm.t;
    }
  | Process_exit

type Dex_net.Msg.payload +=
  | Migrate of { tid : int; origin_ns : int; resume : unit -> unit }
  | Migrate_back of { tid : int; remote_ns : int; resume : unit -> unit }
  | Delegate of { resp_size : int; run : unit -> unit }
  | Delegate_done
  | Vma_query of { addr : Dex_mem.Page.addr }
  | Vma_info of Dex_mem.Vma.t option
  | Node_op of node_op
  | Node_op_ack

let kind_migrate = "migrate"
let kind_delegate = "delegate"
let kind_vma = "vma"
let kind_node_op = "node_op"
