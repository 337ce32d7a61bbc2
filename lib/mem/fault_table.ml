open Dex_sim

type entry = {
  access : Perm.access;
  followers : unit Waitq.t;
  conflicters : unit Waitq.t;
}

(* Most nodes of a process never fault: the table is made at the first
   fault. *)
type table = Idle | Table of (Page.vpn, entry) Hashtbl.t

type t = { engine : Engine.t; mutable table : table }

type role = Leader | Follower | Conflict

let create engine = { engine; table = Idle }

let find t vpn =
  match t.table with Idle -> None | Table tbl -> Hashtbl.find_opt tbl vpn

let table t =
  match t.table with
  | Table tbl -> tbl
  | Idle ->
      let tbl = Hashtbl.create 16 in
      t.table <- Table tbl;
      tbl

let enter t ~vpn ~access =
  match find t vpn with
  | None ->
      Hashtbl.add (table t) vpn
        { access; followers = Waitq.create (); conflicters = Waitq.create () };
      Leader
  | Some entry when entry.access = access ->
      Waitq.wait t.engine entry.followers;
      Follower
  | Some entry ->
      Waitq.wait t.engine entry.conflicters;
      Conflict

let finish t ~vpn =
  match find t vpn with
  | None -> invalid_arg "Fault_table.finish: no ongoing fault"
  | Some entry ->
      Hashtbl.remove (table t) vpn;
      let n = Waitq.wake_all entry.followers () in
      ignore (Waitq.wake_all entry.conflicters ());
      n

let rec await_idle t ~vpn =
  match find t vpn with
  | None -> ()
  | Some entry ->
      Waitq.wait t.engine entry.conflicters;
      await_idle t ~vpn

let ongoing t = match t.table with Idle -> 0 | Table tbl -> Hashtbl.length tbl
