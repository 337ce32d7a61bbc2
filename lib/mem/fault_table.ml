open Dex_sim

type entry = {
  access : Perm.access;
  followers : unit Waitq.t;
  conflicters : unit Waitq.t;
}

type t = {
  engine : Engine.t;
  table : (Page.vpn, entry) Hashtbl.t;
}

type role = Leader | Follower | Conflict

let create engine = { engine; table = Hashtbl.create 16 }

let enter t ~vpn ~access =
  match Hashtbl.find_opt t.table vpn with
  | None ->
      Hashtbl.add t.table vpn
        { access; followers = Waitq.create (); conflicters = Waitq.create () };
      Leader
  | Some entry when entry.access = access ->
      Waitq.wait t.engine entry.followers;
      Follower
  | Some entry ->
      Waitq.wait t.engine entry.conflicters;
      Conflict

let finish t ~vpn =
  match Hashtbl.find_opt t.table vpn with
  | None -> invalid_arg "Fault_table.finish: no ongoing fault"
  | Some entry ->
      Hashtbl.remove t.table vpn;
      let n = Waitq.wake_all entry.followers () in
      ignore (Waitq.wake_all entry.conflicters ());
      n

let rec await_idle t ~vpn =
  match Hashtbl.find_opt t.table vpn with
  | None -> ()
  | Some entry ->
      Waitq.wait t.engine entry.conflicters;
      await_idle t ~vpn

let ongoing t = Hashtbl.length t.table
