open Dex_mem

type t = {
  mutable dir : Directory.t;
  data : (Page.vpn, bytes) Hashtbl.t;
  mutable vmas : Vma_tree.t;
  waiters : (Page.addr * int, int) Hashtbl.t;  (* (addr, tid) -> owner *)
  wakes : (Page.addr * int, unit) Hashtbl.t;  (* consumed, undelivered *)
}

let create ~origin =
  {
    dir = Directory.create ~origin;
    data = Hashtbl.create 64;
    vmas = Vma_tree.create ();
    waiters = Hashtbl.create 16;
    wakes = Hashtbl.create 16;
  }

let apply t (e : Log_entry.t) =
  match e with
  | Reset { origin } ->
      t.dir <- Directory.create ~origin;
      t.vmas <- Vma_tree.create ();
      Hashtbl.reset t.data;
      Hashtbl.reset t.waiters;
      Hashtbl.reset t.wakes
  | Dir_set { vpn; state } ->
      ignore (Directory.apply t.dir vpn (Restore (Some state)))
  | Dir_forget { vpn } -> ignore (Directory.apply t.dir vpn (Restore None))
  | Page_data { vpn; data } -> Hashtbl.replace t.data vpn data
  | Vma change -> Vma_tree.apply t.vmas change
  | Futex_wait { addr; tid; owner } ->
      Hashtbl.replace t.waiters (addr, tid) owner;
      (* A fresh park supersedes any stale pending-wake record: the thread
         demonstrably saw the previous verdict, or never needed it. *)
      Hashtbl.remove t.wakes (addr, tid)
  | Futex_unpark { addr; tid; woken } ->
      Hashtbl.remove t.waiters (addr, tid);
      if woken then Hashtbl.replace t.wakes (addr, tid) ()
      else Hashtbl.remove t.wakes (addr, tid)

let dir_snapshot t = Directory.snapshot t.dir
let vma_tree t = t.vmas
let vma_list t = Vma_tree.to_list t.vmas

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let page_data t = sorted_bindings t.data
let futex_waiters t = sorted_bindings t.waiters
let pending_wakes t = List.map fst (sorted_bindings t.wakes)
let take_wake t ~addr ~tid =
  let hit = Hashtbl.mem t.wakes (addr, tid) in
  if hit then Hashtbl.remove t.wakes (addr, tid);
  hit

(* Canonical image used by the replay-determinism check: two replicas that
   went through equivalent mutation histories compare equal. *)
let image t =
  (dir_snapshot t, page_data t, vma_list t, futex_waiters t, pending_wakes t)

let equal a b = image a = image b
