open Dex_mem

type t =
  | Reset of { origin : int }
  | Dir_set of { vpn : Page.vpn; state : Directory.state }
  | Dir_forget of { vpn : Page.vpn }
  | Page_data of { vpn : Page.vpn; data : bytes }
  | Vma of Vma_tree.change
  | Futex_wait of { addr : Page.addr; tid : int; owner : int }
  | Futex_unpark of { addr : Page.addr; tid : int; woken : bool }

(* Control entries ride in one 64-byte record each; page data adds the
   real payload on top (big appends cross the fabric's RDMA threshold
   automatically). *)
let wire_size = function
  | Page_data { data; _ } -> 64 + Bytes.length data
  | Reset _ | Dir_set _ | Dir_forget _ | Vma _ | Futex_wait _
  | Futex_unpark _ ->
      64
