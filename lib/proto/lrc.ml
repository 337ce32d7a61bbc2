open Dex_sim
open Dex_mem
module Fabric = Dex_net.Fabric
module Msg = Dex_net.Msg

type Msg.payload +=
  | Lrc_fetch of { vpn : Page.vpn }
  | Lrc_page of { data : bytes option }
  | Lrc_diff of { vpn : Page.vpn; words : (int * int64) array }
  | Lrc_diff_ack
  | Lrc_acquire of { lock : int }
  | Lrc_grant of { notices : Page.vpn list }
  | Lrc_release of { lock : int }

(* The baseline runs without a cluster: its messages go to pid 0. *)
let pid = 0

type lock_state = {
  mutable held_by : int option;
  waiters : unit Waitq.t;
}

type t = {
  fabric : Fabric.t;
  engine : Engine.t;
  origin : int;  (* lock manager *)
  cfg : Proto_config.t;
  nodes : int;
  caches : Page_store.t array;  (* per-node cached pages *)
  cached : (Page.vpn, int) Hashtbl.t array;  (* vpn -> interval at fetch *)
  dirty : (Page.vpn, (int, int64) Hashtbl.t) Hashtbl.t array;
  (* Home state: one logical store (homes are per-page, data is data). *)
  home_store : Page_store.t;
  page_interval : (Page.vpn, int) Hashtbl.t;  (* last modifying interval *)
  locks : (int, lock_state) Hashtbl.t;
  mutable interval : int;  (* global interval counter at the manager *)
  last_sync : int array;  (* per node: interval at last acquire *)
  stats : Stats.t;
}

let create ?(cfg = Proto_config.default) fabric ~origin =
  let nodes = Fabric.node_count fabric in
  {
    fabric;
    engine = Fabric.engine fabric;
    origin;
    cfg;
    nodes;
    caches = Array.init nodes (fun _ -> Page_store.create ());
    cached = Array.init nodes (fun _ -> Hashtbl.create 64);
    dirty = Array.init nodes (fun _ -> Hashtbl.create 64);
    home_store = Page_store.create ();
    page_interval = Hashtbl.create 64;
    locks = Hashtbl.create 8;
    interval = 0;
    last_sync = Array.make nodes 0;
    stats = Stats.create ();
  }

let home_of t vpn = vpn mod t.nodes

let stats t = t.stats

let lock_state t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some l -> l
  | None ->
      let l = { held_by = None; waiters = Waitq.create () } in
      Hashtbl.add t.locks lock l;
      l

(* ------------------------------------------------------------------ *)
(* Node-side operations.                                               *)

let fetch_page t ~node vpn =
  Stats.incr t.stats "lrc.fetch";
  match
    Fabric.call t.fabric ~src:node ~dst:(home_of t vpn) ~pid ~kind:"lrc_fetch"
      ~size:t.cfg.Proto_config.ctl_msg_size (Lrc_fetch { vpn })
  with
  | Lrc_page { data } ->
      Option.iter (Page_store.install t.caches.(node) vpn) data;
      Hashtbl.replace t.cached.(node) vpn t.last_sync.(node)
  | _ -> failwith "Lrc: unexpected fetch reply"

let ensure_cached t ~node vpn =
  if not (Hashtbl.mem t.cached.(node) vpn) then begin
    Engine.delay t.engine t.cfg.Proto_config.fault_entry;
    fetch_page t ~node vpn;
    (* Re-apply our pending local writes over the fresh copy. *)
    match Hashtbl.find_opt t.dirty.(node) vpn with
    | None -> ()
    | Some words ->
        Hashtbl.iter
          (fun offset v -> Page_store.write_i64 t.caches.(node) vpn ~offset v)
          words
  end

let read_i64 t ~node ~tid:_ addr =
  let vpn = Page.page_of_addr addr in
  ensure_cached t ~node vpn;
  Page_store.read_i64 t.caches.(node) vpn
    ~offset:(Page.offset_in_page addr)

let write_i64 t ~node ~tid:_ addr v =
  let vpn = Page.page_of_addr addr in
  ensure_cached t ~node vpn;
  let offset = Page.offset_in_page addr in
  Page_store.write_i64 t.caches.(node) vpn ~offset v;
  let words =
    match Hashtbl.find_opt t.dirty.(node) vpn with
    | Some w -> w
    | None ->
        let w = Hashtbl.create 8 in
        Hashtbl.add t.dirty.(node) vpn w;
        w
  in
  Hashtbl.replace words offset v

let flush_diffs t ~node =
  let pages =
    Hashtbl.fold (fun vpn words acc -> (vpn, words) :: acc) t.dirty.(node) []
  in
  Hashtbl.reset t.dirty.(node);
  List.iter
    (fun (vpn, words) ->
      let arr =
        Hashtbl.fold (fun offset v acc -> (offset, v) :: acc) words []
        |> Array.of_list
      in
      Stats.incr t.stats "lrc.diff";
      (* 12 bytes per modified word on the wire — the LRC bandwidth win. *)
      Stats.add t.stats "lrc.diff_bytes" (Array.length arr * 12);
      match
        Fabric.call t.fabric ~src:node ~dst:(home_of t vpn) ~pid
          ~kind:"lrc_diff"
          ~size:(t.cfg.Proto_config.ctl_msg_size + (Array.length arr * 12))
          (Lrc_diff { vpn; words = arr })
      with
      | Lrc_diff_ack -> ()
      | _ -> failwith "Lrc: unexpected diff reply")
    pages

let acquire t ~node ~tid:_ ~lock =
  Engine.delay t.engine t.cfg.Proto_config.local_op;
  match
    Fabric.call t.fabric ~src:node ~dst:t.origin ~pid ~kind:"lrc_acquire"
      ~size:t.cfg.Proto_config.ctl_msg_size (Lrc_acquire { lock })
  with
  | Lrc_grant { notices } ->
      (* Invalidate every cached page written elsewhere since our last
         synchronization. *)
      List.iter
        (fun vpn ->
          if Hashtbl.mem t.cached.(node) vpn then begin
            Stats.incr t.stats "lrc.invalidate";
            Hashtbl.remove t.cached.(node) vpn;
            Page_store.drop t.caches.(node) vpn
          end)
        notices
  | _ -> failwith "Lrc: unexpected acquire reply"

let release t ~node ~tid:_ ~lock =
  Engine.delay t.engine t.cfg.Proto_config.local_op;
  flush_diffs t ~node;
  Fabric.send t.fabric ~src:node ~dst:t.origin ~pid ~kind:"lrc_release"
    ~size:t.cfg.Proto_config.ctl_msg_size (Lrc_release { lock })

(* ------------------------------------------------------------------ *)
(* Home / manager handlers.                                            *)

let handler t (env : Fabric.env) =
  let msg = env.Fabric.msg in
  match msg.Msg.payload with
  | Lrc_fetch { vpn } ->
      Engine.delay t.engine t.cfg.Proto_config.origin_handler;
      let data =
        if Page_store.mem t.home_store vpn then
          Some (Page_store.snapshot t.home_store vpn)
        else None
      in
      env.Fabric.respond ~size:t.cfg.Proto_config.page_msg_size
        (Lrc_page { data });
      true
  | Lrc_diff { vpn; words } ->
      Engine.delay t.engine t.cfg.Proto_config.origin_handler;
      Array.iter
        (fun (offset, v) -> Page_store.write_i64 t.home_store vpn ~offset v)
        words;
      (* Record the modification interval for write notices. The manager
         owns the counter; homes forward through it conceptually — in this
         single-structure implementation we update it directly. *)
      t.interval <- t.interval + 1;
      Hashtbl.replace t.page_interval vpn t.interval;
      env.Fabric.respond Lrc_diff_ack;
      true
  | Lrc_acquire { lock } ->
      Engine.delay t.engine t.cfg.Proto_config.origin_handler;
      let l = lock_state t lock in
      let requester = msg.Msg.src in
      (* Direct handoff: a releaser wakes exactly one waiter without ever
         marking the lock free, so a fresh request cannot steal it in
         between. *)
      (if l.held_by <> None then Waitq.wait t.engine l.waiters);
      l.held_by <- Some requester;
      let since = t.last_sync.(requester) in
      let notices =
        Hashtbl.fold
          (fun vpn interval acc -> if interval > since then vpn :: acc else acc)
          t.page_interval []
      in
      t.last_sync.(requester) <- t.interval;
      env.Fabric.respond
        ~size:(t.cfg.Proto_config.ctl_msg_size + (8 * List.length notices))
        (Lrc_grant { notices });
      true
  | Lrc_release { lock } ->
      Engine.delay t.engine t.cfg.Proto_config.origin_handler;
      let l = lock_state t lock in
      if not (Waitq.wake_one l.waiters ()) then l.held_by <- None;
      true
  | _ -> false
