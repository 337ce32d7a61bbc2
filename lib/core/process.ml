open Dex_sim
open Dex_mem
module Fabric = Dex_net.Fabric
module Msg = Dex_net.Msg
module Coherence = Dex_proto.Coherence
module M = Core_messages
module Ha = Dex_ha.Ha
module Log_entry = Dex_ha.Log_entry
module Replica = Dex_ha.Replica

exception Segfault of { node : int; addr : Page.addr }
exception Thread_crashed of { pid : int; tid : int }

type worker_queue = {
  ops : (M.node_op * (unit -> unit)) Queue.t;
  signal : unit Waitq.t;
  mutable dead : bool;  (* the worker's node fail-stopped *)
}

type worker_state = Absent | Creating of unit Waitq.t | Ready of worker_queue

type migration_record = {
  m_tid : int;
  m_target : int;
  m_direction : [ `Forward | `Backward ];
  m_first_to_node : bool;
  m_origin_ns : int;
  m_remote_ns : int;
  m_breakdown : (string * int) list;
}

type t = {
  cluster : Cluster.t;
  pid : int;
  mutable origin : int;  (* changes when a standby is promoted *)
  has : Ha.t option array;
      (* per-shard replication, per Proto_config.replication: shard s's
         log roots at its home node; one-element array with one
         shard *)
  coh : Coherence.t;
  alloc : Allocator.t;
  vmas : Vma_tree.t array;
  futexes : Futex.t array;  (* per shard: the futex word's home serves it *)
  vfss : Vfs.t array;  (* per shard: files are homed by name hash *)
  stats : Stats.t;
  mutable next_tid : int;
  mutable threads : thread list;  (* newest first *)
  workers : worker_state array;
  mutable mig_log : migration_record list;  (* newest first *)
  mutable mmap_next : Page.addr;
  mutable safepoint_hook : (thread -> unit) option;
      (* run by threads at compute boundaries (cooperative preemption);
         the placement autopilot's balancer checkpoint hangs here *)
  mutable stopping : bool;  (* shutdown has drained the threads *)
  mutable detach : unit -> unit;
      (* unregisters the coherence router and the crash subscribers
         (Coherence's reclaim pass and this process's recovery) at
         shutdown, so a long-lived cluster serving many short-lived
         processes neither scans nor retains every dead process on each
         message and each crash *)
}

and thread = {
  proc : t;
  tid : int;
  thread_name : string;
  mutable location : int;
  mutable finished : bool;
  mutable crashed : bool;  (* lost to a fail-stop node crash (`Abort) *)
  (* In-flight migration park: [(src, dst, resume)] while the thread is
     suspended waiting for the destination to rebuild it. Crash recovery
     resumes the park when either endpoint dies — the context message may
     have been black-holed, in which case nobody else ever would. *)
  mutable mig_park : (int * int * (unit -> unit)) option;
  done_q : unit Waitq.t;
}

let cluster t = t.cluster
let pid t = t.pid
let origin t = t.origin
let ha t = t.has.(0)
let coherence t = t.coh
let allocator t = t.alloc
let vma_tree t ~node = t.vmas.(node)
let stats t = t.stats
let tid th = th.tid
let name th = th.thread_name
let location th = th.location
let crashed th = th.crashed
let self_process th = th.proc
let migration_log t = List.rev t.mig_log

let engine t = Cluster.engine t.cluster
let cfg t = Cluster.config t.cluster
let fabric t = Cluster.fabric t.cluster

let find_thread t tid =
  match List.find_opt (fun th -> th.tid = tid) t.threads with
  | Some th -> th
  | None -> failwith (Printf.sprintf "Process %d: unknown thread %d" t.pid tid)

(* Replace any stale local view with [vma] (on-demand synchronization). *)
let install_vma tree vma =
  ignore (Vma_tree.remove_range tree ~start:vma.Vma.start ~len:vma.Vma.len);
  Vma_tree.insert tree vma

(* ------------------------------------------------------------------ *)
(* Home replication plumbing — one log per shard. All of these are
   single pointer tests when replication is off, so the default
   configuration pays nothing.                                          *)

(* Route a log entry to the shard whose home's state it describes:
   page-granular entries by the page's shard, futex transitions by the
   futex word's shard, VMA/layout entries to shard 0 (the allocator and
   VMA services stay at the process origin). With one shard everything is
   shard 0. *)
let ha_shard_of_entry t (e : Log_entry.t) =
  match e with
  | Log_entry.Dir_set { vpn; _ }
  | Log_entry.Dir_forget { vpn }
  | Log_entry.Page_data { vpn; _ } ->
      Coherence.shard_of t.coh vpn
  | Log_entry.Futex_wait { addr; _ } | Log_entry.Futex_unpark { addr; _ } ->
      Coherence.shard_of t.coh (Page.page_of_addr addr)
  | Log_entry.Reset _ | Log_entry.Vma_set _ | Log_entry.Vma_remove _
  | Log_entry.Vma_protect _ ->
      0

let ha_log t e =
  match t.has.(ha_shard_of_entry t e) with
  | Some ha -> Ha.append ha e
  | None -> ()

let ha_fence_shard t shard =
  match t.has.(shard) with Some ha -> Ha.fence ha | None -> ()

(* Fence every armed shard homed at [node] — the delegation handlers'
   replicate-before-externalize barrier. With one shard the only
   delegation target is the origin, which homes the one shard. *)
let ha_fence_node t ~node =
  Array.iteri
    (fun shard ha ->
      match ha with
      | Some ha when Coherence.shard_home t.coh ~shard = node -> Ha.fence ha
      | _ -> ())
    t.has

let ha_fence_all t =
  Array.iter (function Some ha -> Ha.fence ha | None -> ()) t.has

let ha_resolve t ~shard =
  match t.has.(shard) with Some ha -> Ha.resolve ha | None -> None

(* Run [f ~dst] against [shard]'s current home; when the {e home}
   fail-stops under the call, stall until the HA layer promotes a standby
   for the shard, then retry against the new home. Crashes of the calling
   node itself are not handled here — they keep unwinding to {!guard},
   which applies the thread crash policy. Without replication the
   resolver answers [None] and the exception propagates exactly as
   before. *)
let rec home_rpc t ~shard ~src ~stat f =
  let dst = Coherence.shard_home t.coh ~shard in
  try f ~dst
  with
  | Fabric.Unreachable _ as e
    when dst <> src
         && Fabric.crashed (fabric t) ~node:dst
         && not (Fabric.crashed (fabric t) ~node:src) -> (
      if not (Fabric.crash_detected (fabric t) ~node:dst) then
        Fabric.declare_dead (fabric t) ~node:dst;
      match ha_resolve t ~shard with
      | Some o when o <> dst ->
          Stats.incr t.stats stat;
          home_rpc t ~shard ~src ~stat f
      | Some _ | None -> raise e)

let origin_rpc t ~src ~stat f = home_rpc t ~shard:0 ~src ~stat f

(* ------------------------------------------------------------------ *)
(* Fail-stop crash handling for the thread API.                        *)

let on_crash_policy t = (Coherence.cfg t.coh).Dex_proto.Proto_config.on_crash

(* Run [f] — an operation performed from the thread's current location —
   with fail-stop handling. If the node the thread was executing on
   crashed mid-operation (the reliable transport unwinds its fiber with
   [Unreachable]), the thread either aborts ({!Thread_crashed}) or
   re-homes to the origin and retries [f] there, per
   {!Dex_proto.Proto_config.on_crash}. [f] must therefore re-read
   [th.location] on every attempt — every caller in this file does,
   because the location is read inside the closure. Re-homed delegates
   re-execute their body from scratch (the simulator cannot checkpoint
   register state mid-syscall); [`Rehome] is only sound for workloads
   that tolerate that, which is why [`Abort] is the default. *)
let rec guard th f =
  let t = th.proc in
  if th.crashed then raise (Thread_crashed { pid = t.pid; tid = th.tid });
  let node = th.location in
  try f ()
  with Fabric.Unreachable _ when Fabric.crashed (fabric t) ~node -> (
    (* Exhausting the retry budget IS failure detection: make sure the
       recovery (reclaim, thread policy, worker teardown) has run before
       deciding this thread's fate. *)
    if not (Fabric.crash_detected (fabric t) ~node) then
      Fabric.declare_dead (fabric t) ~node;
    match on_crash_policy t with
    | `Abort ->
        th.crashed <- true;
        raise (Thread_crashed { pid = t.pid; tid = th.tid })
    | `Rehome ->
        (* The crash hook normally re-homed us already (it is
           location-based); cover the window where it has not. *)
        if th.location = node then begin
          th.location <- t.origin;
          Stats.incr t.stats "crash.threads_rehomed"
        end;
        guard th f)

(* ------------------------------------------------------------------ *)
(* VMA checking with on-demand synchronization (§III-D).               *)

let rec vma_check th ~addr ~len ~access ~queried =
  let t = th.proc in
  let node = th.location in
  let fail () = raise (Segfault { node; addr }) in
  let local = Vma_tree.find t.vmas.(node) addr in
  match local with
  | Some vma when Perm.allows vma.Vma.perm access ->
      let e = Vma.end_ vma in
      if addr + len > e then
        vma_check th ~addr:e ~len:(addr + len - e) ~access ~queried:false
  | _ ->
      if node = t.origin then fail ()
      else if queried then fail ()
      else begin
        (* The local view may be missing or stale: ask the origin. *)
        Stats.incr t.stats "vma.sync";
        match
          origin_rpc t ~src:node ~stat:"ha.vma_syncs_retried" (fun ~dst ->
              Fabric.call (fabric t) ~src:node ~dst ~kind:M.kind_vma ~size:64
                (M.Vma_query { pid = t.pid; addr }))
        with
        | M.Vma_info (Some vma) ->
            install_vma t.vmas.(node) vma;
            vma_check th ~addr ~len ~access ~queried:true
        | M.Vma_info None -> fail ()
        | _ -> failwith "Process: unexpected VMA reply"
      end

(* ------------------------------------------------------------------ *)
(* Work delegation (§III-A).                                           *)

(* Run [run] in the context of the paired original thread at [shard]'s
   home node and return its result — shard 0 (the default) is the origin,
   where the allocator/VMA/default services live; futex and file
   delegations route to the owning shard. Threads local to the home call
   straight into the kernel. [req_size] is the
   request-leg wire size — operations that carry a payload to the home
   (file writes) must charge for it. *)
let delegate ?(shard = 0) ?(req_size = 64) ?(resp_size = 64) th run =
  let t = th.proc in
  guard th (fun () ->
      Engine.delay (engine t) (cfg t).Core_config.syscall;
      let target = Coherence.shard_home t.coh ~shard in
      if th.location = target then run ()
      else begin
        Stats.incr t.stats "delegation";
        (* A delegation that pays a remote hop to a non-origin home is a
           cross-shard operation — the traffic sharding moved off the
           origin. Counted in the coherence table so the whole shard.*
           family reads from one place. *)
        if shard <> 0 then Stats.incr (Coherence.stats t.coh) "shard.cross_ops";
        (* A failover mid-call re-executes [run] at the promoted home
           (like [`Rehome], the simulator cannot checkpoint a syscall
           mid-flight); the futex wake ledger makes the stock sync
           primitives safe against the replay. *)
        home_rpc t ~shard ~src:th.location ~stat:"ha.delegations_retried"
          (fun ~dst ->
            Fabric.call (fabric t) ~src:th.location ~dst ~kind:M.kind_delegate
              ~size:req_size
              (M.Delegate { pid = t.pid; tid = th.tid; resp_size; run }))
      end)

(* ------------------------------------------------------------------ *)
(* Memory API.                                                         *)

let alloc_static t ?align ~bytes ~tag () =
  Allocator.alloc_static t.alloc ?align ~bytes ~tag ()

let malloc th ~bytes ~tag =
  let t = th.proc in
  match delegate th (fun () -> M.Ret_int (Allocator.malloc t.alloc ~bytes ~tag))
  with
  | M.Ret_int addr -> addr
  | _ -> assert false

let memalign th ~align ~bytes ~tag =
  let t = th.proc in
  match
    delegate th (fun () ->
        M.Ret_int (Allocator.memalign t.alloc ~align ~bytes ~tag))
  with
  | M.Ret_int addr -> addr
  | _ -> assert false

let read_range th ?(site = "?") addr ~len =
  if len <= 0 then invalid_arg "Process.read_range: len must be positive";
  guard th (fun () ->
      vma_check th ~addr ~len ~access:Perm.Read ~queried:false;
      Coherence.access_range th.proc.coh ~node:th.location ~tid:th.tid ~site
        ~addr ~len ~access:Perm.Read ())

let write_range th ?(site = "?") addr ~len =
  if len <= 0 then invalid_arg "Process.write_range: len must be positive";
  guard th (fun () ->
      vma_check th ~addr ~len ~access:Perm.Write ~queried:false;
      Coherence.access_range th.proc.coh ~node:th.location ~tid:th.tid ~site
        ~addr ~len ~access:Perm.Write ())

let read = read_range
let write = write_range

let load th ?(site = "?") addr =
  guard th (fun () ->
      vma_check th ~addr ~len:8 ~access:Perm.Read ~queried:false;
      Coherence.load_i64 th.proc.coh ~node:th.location ~tid:th.tid ~site addr)

let store th ?(site = "?") addr v =
  guard th (fun () ->
      vma_check th ~addr ~len:8 ~access:Perm.Write ~queried:false;
      Coherence.store_i64 th.proc.coh ~node:th.location ~tid:th.tid ~site addr
        v)

let load32 th ?(site = "?") addr =
  guard th (fun () ->
      vma_check th ~addr ~len:4 ~access:Perm.Read ~queried:false;
      Coherence.load_i32 th.proc.coh ~node:th.location ~tid:th.tid ~site addr)

let store32 th ?(site = "?") addr v =
  guard th (fun () ->
      vma_check th ~addr ~len:4 ~access:Perm.Write ~queried:false;
      Coherence.store_i32 th.proc.coh ~node:th.location ~tid:th.tid ~site addr
        v)

let load_byte th ?(site = "?") addr =
  guard th (fun () ->
      vma_check th ~addr ~len:1 ~access:Perm.Read ~queried:false;
      Coherence.load_byte th.proc.coh ~node:th.location ~tid:th.tid ~site addr)

let store_byte th ?(site = "?") addr v =
  guard th (fun () ->
      vma_check th ~addr ~len:1 ~access:Perm.Write ~queried:false;
      Coherence.store_byte th.proc.coh ~node:th.location ~tid:th.tid ~site
        addr v)

let cas th ?(site = "?") addr ~expected ~desired =
  guard th (fun () ->
      vma_check th ~addr ~len:8 ~access:Perm.Write ~queried:false;
      Coherence.cas_i64 th.proc.coh ~node:th.location ~tid:th.tid ~site addr
        ~expected ~desired)

let fetch_add th ?(site = "?") addr delta =
  guard th (fun () ->
      vma_check th ~addr ~len:8 ~access:Perm.Write ~queried:false;
      Coherence.fetch_add_i64 th.proc.coh ~node:th.location ~tid:th.tid ~site
        addr delta)

(* ------------------------------------------------------------------ *)
(* Compute.                                                            *)

(* Compute boundaries are the natural safe points: the thread holds no
   page lock and no delegated call is in flight, so a hook here may
   migrate it. *)
let safepoint th =
  match th.proc.safepoint_hook with
  | Some f when not (th.finished || th.crashed) -> f th
  | _ -> ()

let compute th ~ns =
  if ns < 0 then invalid_arg "Process.compute: negative duration";
  Resource.Pool.use (Cluster.cores th.proc.cluster ~node:th.location) ns;
  safepoint th

let compute_membound th ~ns ~bytes =
  let pool = Cluster.cores th.proc.cluster ~node:th.location in
  Resource.Pool.acquire pool;
  Fun.protect
    ~finally:(fun () -> Resource.Pool.release pool)
    (fun () ->
      if ns > 0 then Engine.delay (engine th.proc) ns;
      if bytes > 0 then
        Membw.stream (Cluster.membw th.proc.cluster ~node:th.location) ~bytes);
  safepoint th

(* ------------------------------------------------------------------ *)
(* Futex (delegated).                                                  *)

let futex_wait th ~addr ~expected =
  let t = th.proc in
  (* The futex word's shard serves the wait: its home holds the queue
     (and, with replication, its log holds the wake ledger). *)
  let shard = Coherence.shard_of t.coh (Page.page_of_addr addr) in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.futex_op;
    let redelivered =
      match t.has.(shard) with
      | Some ha -> Ha.take_wake ha ~addr ~tid:th.tid
      | None -> false
    in
    if redelivered then
      (* The old home consumed a wake for this thread but died before
         the verdict reached it; the replicated ledger re-delivers. *)
      M.Ret_bool true
    else begin
      (* Atomic check-and-sleep: the value read below and the enqueue
         happen in the same engine event, so no wakeup can slip in
         between. The home reads the word locally — its own shard — so
         the word's page must never be re-homed by the autopilot: pin it
         (pulls authority back first if a re-home won the race). *)
      Coherence.pin_page t.coh ~vpn:(Page.page_of_addr addr);
      let v =
        Coherence.load_i64 t.coh
          ~node:(Coherence.shard_home t.coh ~shard)
          ~tid:th.tid ~site:"futex" addr
      in
      if v <> expected then M.Ret_bool false
      else begin
        ha_log t
          (Log_entry.Futex_wait { addr; tid = th.tid; owner = th.location });
        match
          Futex.wait ~owner:th.location ~tid:th.tid t.futexes.(shard) ~addr
        with
        | `Woken -> M.Ret_bool true
        | `Crashed ->
            (* The waiter's node died while it was parked: report a
               spurious wake. Sync primitives re-check their state in a
               loop, and the caller's own fiber unwinds through {!guard}
               anyway. *)
            ha_log t
              (Log_entry.Futex_unpark { addr; tid = th.tid; woken = false });
            M.Ret_bool false
      end
    end
  in
  match delegate ~shard th run with
  | M.Ret_bool b -> b
  | _ -> assert false

let futex_wake th ~addr ~count =
  let t = th.proc in
  let shard = Coherence.shard_of t.coh (Page.page_of_addr addr) in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.futex_op;
    let tids = Futex.wake_tids t.futexes.(shard) ~addr ~count in
    (* Each consumed wake is logged before the woken waiter's (or this
       waker's) reply leaves the home — the fence in the router makes
       the ledger entry durable first under [`Sync]. *)
    List.iter
      (fun tid -> ha_log t (Log_entry.Futex_unpark { addr; tid; woken = true }))
      tids;
    M.Ret_int (List.length tids)
  in
  match delegate ~shard th run with M.Ret_int n -> n | _ -> assert false

(* ------------------------------------------------------------------ *)
(* File I/O (delegated to the home node like any stateful service).     *)

(* Files are partitioned by name hash: each shard's home runs its own
   VFS instance. Descriptors encode the shard so later operations route
   to the right table: [fd = raw * nshards + shard]. With one shard the
   encoding is the identity, preserving historical fd values. *)
let file_shard t name =
  match Coherence.shard_count t.coh with
  | 1 -> 0
  | n -> Hashtbl.hash name mod n

let fd_shard t fd = fd mod Coherence.shard_count t.coh
let fd_raw t fd = fd / Coherence.shard_count t.coh

let file_open th name =
  let t = th.proc in
  let shard = file_shard t name in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    let raw = Vfs.open_file t.vfss.(shard) name in
    M.Ret_int ((raw * Coherence.shard_count t.coh) + shard)
  in
  match delegate ~shard th run with M.Ret_int fd -> fd | _ -> assert false

let file_read th ~fd ~bytes =
  let t = th.proc in
  let shard = fd_shard t fd in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    let n = Vfs.read t.vfss.(shard) (fd_raw t fd) ~bytes in
    (* The home pulls the data from the shared storage appliance. *)
    if n > 0 then Resource.Server.transfer (Cluster.storage t.cluster) ~bytes:n;
    M.Ret_int n
  in
  (* The payload travels back to the caller as the syscall result: big
     reads ride the RDMA path of the fabric automatically. *)
  match delegate ~shard ~resp_size:(64 + bytes) th run with
  | M.Ret_int n -> n
  | _ -> assert false

let file_write th ~fd ~bytes =
  let t = th.proc in
  let shard = fd_shard t fd in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    Vfs.write t.vfss.(shard) (fd_raw t fd) ~bytes;
    Resource.Server.transfer (Cluster.storage t.cluster) ~bytes;
    M.Ret_unit
  in
  (* The payload travels WITH the request: charge the forward leg, the
     mirror image of [file_read]'s response accounting. *)
  match delegate ~shard ~req_size:(64 + bytes) th run with
  | M.Ret_unit -> ()
  | _ -> assert false

let file_seek th ~fd ~pos =
  let t = th.proc in
  let shard = fd_shard t fd in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    Vfs.seek t.vfss.(shard) (fd_raw t fd) ~pos;
    M.Ret_unit
  in
  match delegate ~shard th run with M.Ret_unit -> () | _ -> assert false

let file_close th ~fd =
  let t = th.proc in
  let shard = fd_shard t fd in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    Vfs.close t.vfss.(shard) (fd_raw t fd);
    M.Ret_unit
  in
  match delegate ~shard th run with M.Ret_unit -> () | _ -> assert false

let file_size t name = Vfs.size t.vfss.(file_shard t name) name

(* ------------------------------------------------------------------ *)
(* Node-wide operations through remote workers.                        *)

let worker_loop t node queue () =
  let rec go () =
    if queue.dead then () (* node fail-stopped: the worker dies with it *)
    else
      match Queue.take_opt queue.ops with
      | None ->
          Waitq.wait (engine t) queue.signal;
          go ()
      | Some (op, ack) -> (
        match op with
        | M.Process_exit ->
            t.workers.(node) <- Absent;
            ack ()
        | M.Vma_shrink { start; len } ->
            Engine.delay (engine t) (cfg t).Core_config.vma_op;
            ignore (Vma_tree.remove_range t.vmas.(node) ~start ~len);
            let first, last = Page.pages_of_range start ~len in
            ignore (Coherence.zap_range t.coh ~first ~last ~node);
            ack ();
            go ()
        | M.Vma_protect { start; len; perm } ->
            Engine.delay (engine t) (cfg t).Core_config.vma_op;
            ignore (Vma_tree.protect_range t.vmas.(node) ~start ~len ~perm);
            let first, last = Page.pages_of_range start ~len in
            ignore (Coherence.zap_range t.coh ~first ~last ~node);
            ack ();
            go ())
  in
  go ()

(* Broadcast a node-wide operation to every live remote worker and join
   all acknowledgements. Must run at the origin. If the origin fail-stops
   under the broadcast, re-resolve it (blocking through a promotion) and
   rebroadcast from the survivor — the per-node operations are idempotent,
   so the partial first round is harmless. *)
let rec broadcast_node_op t op =
  let src = t.origin in
  let targets = ref [] in
  Array.iteri
    (fun node state ->
      (* A worker ON the origin exists only after a standby promotion
         (the promoted node keeps the worker it had as a remote); it gets
         the op over loopback like any other. *)
      match state with
      | Ready _ -> targets := node :: !targets
      | Creating _ | Absent -> ())
    t.workers;
  match !targets with
  | [] -> ()
  | targets ->
      let pending = ref (List.length targets) in
      let join = Waitq.create () in
      let src_died = ref false in
      List.iter
        (fun node ->
          Engine.spawn (engine t) ~label:"node-op" (fun () ->
              (match
                 Fabric.call (fabric t) ~src ~dst:node ~kind:M.kind_node_op
                   ~size:96
                   (M.Node_op { pid = t.pid; op })
               with
              | M.Node_op_ack -> ()
              | exception Fabric.Unreachable _
                when Fabric.crashed (fabric t) ~node ->
                  (* A dead node holds no state worth shrinking: count the
                     broadcast as acknowledged (the crash hook reclaims
                     everything it had anyway). *)
                  if not (Fabric.crash_detected (fabric t) ~node) then
                    Fabric.declare_dead (fabric t) ~node
              | exception Fabric.Unreachable _
                when Fabric.crashed (fabric t) ~node:src ->
                  src_died := true;
                  if not (Fabric.crash_detected (fabric t) ~node:src) then
                    Fabric.declare_dead (fabric t) ~node:src
              | _ -> failwith "Process: unexpected node-op reply");
              decr pending;
              if !pending = 0 then ignore (Waitq.wake_one join ())))
        targets;
      Waitq.wait (engine t) join;
      if !src_died then
        match ha_resolve t ~shard:0 with
        | Some o when o <> src -> broadcast_node_op t op
        | Some _ | None ->
            (* No promotion path: the origin crash is fatal anyway (the
               crash handler refuses it); just unwind this fiber. *)
            raise (Fabric.Unreachable { src; dst = src; kind = M.kind_node_op })

(* ------------------------------------------------------------------ *)
(* VMA-manipulating system calls (origin-side, possibly delegated).     *)

let mmap th ?(perm = Perm.rw) ~len ~tag () =
  if len <= 0 then invalid_arg "Process.mmap: len must be positive";
  let t = th.proc in
  let len = Page.align_up len in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.vma_op;
    let addr = t.mmap_next in
    if addr + len > Layout.mmap_base + Layout.mmap_zone_size then
      failwith "Process.mmap: zone exhausted";
    (* Guard page between mappings. *)
    t.mmap_next <- addr + len + Page.size;
    let vma = Vma.make ~start:addr ~len ~perm ~tag in
    Vma_tree.insert t.vmas.(t.origin) vma;
    ha_log t (Log_entry.Vma_set vma);
    M.Ret_int addr
  in
  match delegate th run with M.Ret_int a -> a | _ -> assert false

let munmap th ~addr ~len =
  let t = th.proc in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.vma_op;
    ignore (Vma_tree.remove_range t.vmas.(t.origin) ~start:addr ~len);
    ha_log t (Log_entry.Vma_remove { start = addr; len });
    let first, last = Page.pages_of_range addr ~len in
    ignore (Coherence.zap_range t.coh ~first ~last ~node:t.origin);
    (* Shrinks are broadcast eagerly (§III-D); the shrink must be durable
       on the standbys before any remote node observes it. The range may
       span pages of every shard, so every shard's log is fenced. *)
    ha_fence_all t;
    broadcast_node_op t (M.Vma_shrink { start = addr; len });
    Coherence.forget_range t.coh ~first ~last;
    M.Ret_unit
  in
  match delegate th run with M.Ret_unit -> () | _ -> assert false

let mprotect th ~addr ~len ~perm =
  let t = th.proc in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.vma_op;
    ignore (Vma_tree.protect_range t.vmas.(t.origin) ~start:addr ~len ~perm);
    ha_log t (Log_entry.Vma_protect { start = addr; len; perm });
    (* Downgrades must reach every node before the call returns;
       permissive changes propagate lazily via on-demand sync. *)
    if not (perm.Perm.read && perm.Perm.write) then begin
      let first, last = Page.pages_of_range addr ~len in
      ignore (Coherence.zap_range t.coh ~first ~last ~node:t.origin);
      ha_fence_all t;
      broadcast_node_op t (M.Vma_protect { start = addr; len; perm })
    end;
    M.Ret_unit
  in
  match delegate th run with M.Ret_unit -> () | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Migration (§III-A).                                                 *)

(* Send a migration message and block until the destination handler
   reconstructs the thread there and resumes us. The park is registered
   on the thread so crash recovery can wake it when either endpoint dies
   while the context is in flight; [resume] is idempotent because both
   the handler and the crash hook may fire. *)
let send_and_park th ~src ~dst build =
  let t = th.proc in
  let eng = engine t in
  let arrived = ref false in
  let waiter = ref None in
  let resume () =
    if not !arrived then begin
      arrived := true;
      th.mig_park <- None;
      match !waiter with Some r -> r () | None -> ()
    end
  in
  th.mig_park <- Some (src, dst, resume);
  Fabric.send (fabric t) ~src ~dst ~kind:M.kind_migrate
    ~size:(cfg t).Core_config.context_size (build resume);
  if not !arrived then Engine.suspend eng (fun r -> waiter := Some r)

let rec migrate th target =
  let t = th.proc in
  if target < 0 || target >= Cluster.nodes t.cluster then
    invalid_arg (Printf.sprintf "Process.migrate: bad node %d" target);
  if target = th.location then ()
  else if Fabric.crash_detected (fabric t) ~node:target then
    (* Known-dead destination: refuse, the thread stays where it is. *)
    Stats.incr t.stats "crash.migrations_refused"
  else
    guard th (fun () ->
        try migrate_send th target
        with Fabric.Unreachable _ when Fabric.crashed (fabric t) ~node:target ->
          (* The destination died under the migration message; stay put.
             (Source-side crashes propagate to [guard] instead.) *)
          if not (Fabric.crash_detected (fabric t) ~node:target) then
            Fabric.declare_dead (fabric t) ~node:target;
          Stats.incr t.stats "crash.migrations_refused")

and migrate_send th target =
  let t = th.proc in
  let eng = engine t in
  let c = cfg t in
  (* A re-homed retry may find the thread already where it was going. *)
  if th.location = target then ()
  else begin
    Engine.delay eng c.Core_config.syscall;
    let src = th.location in
    if target = t.origin then begin
      (* Backward migration: collect the remote context and refresh the
         original thread with it. *)
      Stats.incr t.stats "migration.backward";
      let t0 = Engine.now eng in
      Engine.delay eng c.Core_config.backward_capture;
      let remote_ns = Engine.now eng - t0 in
      send_and_park th ~src ~dst:target (fun resume ->
          M.Migrate_back { pid = t.pid; tid = th.tid; remote_ns; resume });
      (* Woken by crash recovery rather than the origin handler: the
         source node (and the context captured on it) died mid-flight.
         Surface it as the fabric would so {!guard} applies the policy. *)
      if th.location = src && Fabric.crashed (fabric t) ~node:src then
        raise (Fabric.Unreachable { src; dst = target; kind = M.kind_migrate })
    end
    else begin
      (* Forward migration. *)
      Stats.incr t.stats "migration.forward";
      let first = t.workers.(target) = Absent in
      let t0 = Engine.now eng in
      Engine.delay eng
        (c.Core_config.context_capture
        + if first then c.Core_config.first_session_setup else 0);
      let origin_ns = Engine.now eng - t0 in
      send_and_park th ~src ~dst:target (fun resume ->
          M.Migrate
            { pid = t.pid; tid = th.tid; first_to_node = first; origin_ns;
              resume });
      (* The destination died while the context was in flight (or while
         it was rebuilding the thread): the migration failed, the thread
         never left. *)
      if th.location <> target && Fabric.crashed (fabric t) ~node:target then
        Stats.incr t.stats "crash.migrations_refused"
    end
  end

(* The thread this migration is shipping is still parked waiting for the
   destination [node] to rebuild it. False for a context that outlived its
   sender's fail-stop: crash recovery already woke the thread and applied
   the crash policy, so a late-arriving copy must be dropped — acting on
   it would clobber the thread's recovered location and build a remote
   worker that no teardown broadcast will ever reach. *)
let migration_current th ~node =
  match th.mig_park with
  | Some (_, dst, _) -> dst = node
  | None -> false

(* Destination-side reconstruction of a migrated thread. Runs in the
   fabric handler fiber at the destination node. *)
let handle_migrate t ~node ~tid ~origin_ns resume =
  let eng = engine t in
  let c = cfg t in
  let th = find_thread t tid in
  if not (migration_current th ~node) then resume ()
  else
  let t0 = Engine.now eng in
  let breakdown = ref [] in
  let charge label d =
    Engine.delay eng d;
    breakdown := (label, d) :: !breakdown
  in
  (* Reconstruction takes hundreds of microseconds; the node can fail-stop
     under it, and the {e source} can too — crash recovery then wakes the
     parked thread and applies the policy, cancelling the migration while
     this fiber is mid-rebuild. Check the ground truth at every point that
     would publish state (worker slot, thread location) — the teardown or
     the cancellation has already reset whatever we were building, and a
     worker spawned after the decision would outlive every exit broadcast. *)
  let gone () =
    Fabric.crashed (fabric t) ~node || not (migration_current th ~node)
  in
  let built_worker =
    match t.workers.(node) with
    | Absent ->
        let creation_q = Waitq.create () in
        t.workers.(node) <- Creating creation_q;
        charge "remote worker" c.Core_config.remote_worker_create;
        charge "address space" c.Core_config.address_space_init;
        if gone () then begin
          t.workers.(node) <- Absent;
          ignore (Waitq.wake_all creation_q ());
          None
        end
        else begin
          let queue =
            { ops = Queue.create (); signal = Waitq.create (); dead = false }
          in
          Engine.spawn eng
            ~label:
              (Printf.sprintf "remote-worker:pid%d:node%d" t.pid node)
            (worker_loop t node queue);
          t.workers.(node) <- Ready queue;
          ignore (Waitq.wake_all creation_q ());
          (* The first remote thread is forked as part of building the
             worker, with a still-cold address space: cheaper than a full
             fork from the warm worker. *)
          charge "thread creation" c.Core_config.thread_create_first;
          Some true
        end
    | Creating q ->
        (* Another migration is already building the worker; wait. *)
        Waitq.wait eng q;
        if gone () then None
        else begin
          charge "thread creation" c.Core_config.thread_create;
          Some false
        end
    | Ready _ ->
        charge "thread creation" c.Core_config.thread_create;
        if gone () then None else Some false
  in
  match built_worker with
  | None ->
      (* The node died mid-rebuild: the parked thread wakes back up at
         the origin and the migration reads as refused there. *)
      resume ()
  | Some built_worker ->
  charge "context setup" c.Core_config.context_install;
  charge "enqueue" c.Core_config.sched_enqueue;
  if gone () then resume ()
  else begin
  th.location <- node;
  t.mig_log <-
    {
      m_tid = tid;
      m_target = node;
      m_direction = `Forward;
      m_first_to_node = built_worker;
      m_origin_ns = origin_ns;
      m_remote_ns = Engine.now eng - t0;
      m_breakdown = List.rev !breakdown;
    }
    :: t.mig_log;
  resume ()
  end

let handle_migrate_back t ~node ~tid ~remote_ns resume =
  let eng = engine t in
  let c = cfg t in
  let th = find_thread t tid in
  if not (migration_current th ~node) then resume ()
  else
  let t0 = Engine.now eng in
  Engine.delay eng c.Core_config.backward_update;
  if not (migration_current th ~node) then resume ()
  else begin
  th.location <- t.origin;
  t.mig_log <-
    {
      m_tid = tid;
      m_target = t.origin;
      m_direction = `Backward;
      m_first_to_node = false;
      m_origin_ns = Engine.now eng - t0;
      m_remote_ns = remote_ns;
      m_breakdown = [ ("context update", c.Core_config.backward_update) ];
    }
    :: t.mig_log;
  resume ()
  end

(* ------------------------------------------------------------------ *)
(* Fail-stop crash recovery.                                           *)

(* Runs from {!Dex_net.Fabric.on_crash} when a node is declared dead —
   {e after} {!Coherence.reclaim_node}, which subscribed first, so the
   ownership metadata is already clean when threads are re-homed. *)
let handle_node_crash t ~node =
  let origin_died = node = t.origin in
  (* Shards whose home stood on the dead node. Computed here, before the
     per-shard promotion fibers (queued at priority 10) run, so the home
     table still points at the casualty. With one shard this is [0]
     iff the origin died. *)
  let homed =
    List.filter
      (fun s -> Coherence.shard_home t.coh ~shard:s = node)
      (List.init (Coherence.shard_count t.coh) Fun.id)
  in
  List.iter
    (fun shard ->
      match t.has.(shard) with
      | Some ha when Ha.armed ha ->
          (* The HA layer's own subscriber (priority 10) already queued
             the promotion fiber; this pass only cleans up local
             casualties. *)
          ()
      | Some _ when shard = 0 ->
          failwith
            "Process: origin crash with replication disabled (the whole \
             replica set was lost first) is unsupported"
      | None when shard = 0 ->
          failwith
            "Process: origin crash is unsupported (the directory and every \
             delegated service die with it)"
      | Some _ | None ->
          failwith
            "Process: a home node crashed with no live replica for its \
             shard — its delegated services die with it")
    homed;
  (* Wake home-side delegate fibers parked in the futex on behalf of
     threads that lived on the dead node — before any re-homing below
     changes thread locations, or the owner tags would lie. A home crash
     kills that shard's futex service itself: every delegate fiber parked
     in it is a casualty, whatever node its thread lives on (the
     survivors' threads retry the wait against the promoted home). *)
  let cancelled = ref 0 in
  Array.iteri
    (fun shard futex ->
      cancelled :=
        !cancelled
        +
        if List.mem shard homed then Futex.cancel futex ~owned_by:(fun _ -> true)
        else Futex.cancel futex ~owned_by:(fun owner -> owner = node))
    t.futexes;
  let cancelled = !cancelled in
  if cancelled > 0 then Stats.add t.stats "crash.futex_cancelled" cancelled;
  (* Apply the crash policy to every thread caught on the dead node.
     Threads standing on the dead origin are beyond re-homing — their
     register state died with the node that also held the directory — so
     they abort under either policy. *)
  List.iter
    (fun th ->
      if (not th.finished) && th.location = node then
        match (if origin_died then `Abort else on_crash_policy t) with
        | `Abort ->
            th.crashed <- true;
            Stats.incr t.stats "crash.threads_aborted"
        | `Rehome ->
            th.location <- t.origin;
            Stats.incr t.stats "crash.threads_rehomed")
    t.threads;
  (* Wake threads parked on an in-flight migration that touched the dead
     node: the context message may have been black-holed (or the rebuild
     died with the destination), and nobody else would ever resume them.
     The policy flags above are already set, so the woken thread's own
     post-park checks decide between refusal and unwinding. *)
  List.iter
    (fun th ->
      match th.mig_park with
      | Some (src, dst, resume) when src = node || dst = node -> resume ()
      | _ -> ())
    t.threads;
  (* Tear down the dead node's worker so its loop fiber exits. *)
  (match t.workers.(node) with
  | Ready queue ->
      queue.dead <- true;
      ignore (Waitq.wake_all queue.signal ())
  | Creating q -> ignore (Waitq.wake_all q ())
  | Absent -> ());
  t.workers.(node) <- Absent

(* ------------------------------------------------------------------ *)
(* Message routing.                                                    *)

let router t (env : Fabric.env) =
  if Coherence.handler t.coh env then true
  else
    let msg = env.Fabric.msg in
    match msg.Msg.payload with
    | M.Migrate { pid; tid; origin_ns; resume; _ } when pid = t.pid ->
        handle_migrate t ~node:msg.Msg.dst ~tid ~origin_ns resume;
        true
    | M.Migrate_back { pid; tid; remote_ns; resume } when pid = t.pid ->
        handle_migrate_back t ~node:msg.Msg.dst ~tid ~remote_ns resume;
        true
    | M.Delegate { pid; resp_size; run; _ } when pid = t.pid ->
        Engine.delay (engine t) (cfg t).Core_config.delegation_dispatch;
        let r = run () in
        (* Replicate-before-externalize: whatever the syscall mutated
           (futex state, VMAs, allocations) must be on the standbys before
           the reply publishes the effect to another node. Only this
           node's shards can have been mutated — fence those logs. *)
        ha_fence_node t ~node:msg.Msg.dst;
        env.Fabric.respond ~size:resp_size r;
        true
    | M.Vma_query { pid; addr } when pid = t.pid ->
        Engine.delay (engine t) (cfg t).Core_config.vma_op;
        let r = M.Vma_info (Vma_tree.find t.vmas.(t.origin) addr) in
        ha_fence_shard t 0;
        env.Fabric.respond r;
        true
    | M.Node_op { pid; op } when pid = t.pid -> (
        match t.workers.(msg.Msg.dst) with
        | Ready queue ->
            Queue.add (op, fun () -> env.Fabric.respond M.Node_op_ack) queue.ops;
            ignore (Waitq.wake_one queue.signal ());
            true
        | Absent | Creating _ ->
            (* No worker: the node holds no state for this process. *)
            env.Fabric.respond M.Node_op_ack;
            true)
    | _ -> false

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let create cluster ?(origin = 0) () =
  if origin < 0 || origin >= Cluster.nodes cluster then
    invalid_arg "Process.create: bad origin";
  let pid = Cluster.fresh_pid cluster in
  let seed = Rng.int (Cluster.rng cluster) 1_000_000 in
  let stats = Stats.create () in
  let cfg = Cluster.proto_config cluster in
  let coh = Coherence.create ~cfg ~seed ~pid (Cluster.fabric cluster) ~origin in
  let nshards = Coherence.shard_count coh in
  (* Zero standbys (and no explicit list) is replication off. *)
  let has =
    let k = cfg.Dex_proto.Proto_config.standby_count in
    if k < 0 then invalid_arg "Process.create: bad standby count";
    match cfg.Dex_proto.Proto_config.standbys with
    | None when k = 0 -> Array.make nshards None
    | _ ->
        let mode = cfg.Dex_proto.Proto_config.replication in
        let nodes = Cluster.nodes cluster in
        if nodes < 2 then
          invalid_arg "Process.create: replication needs at least two nodes";
        if nshards > 64 then
          invalid_arg
            "Process.create: replication supports at most 64 shards (the \
             per-shard replication stream id is pid * 64 + shard)";
        (* One independent replica set per shard: each home streams its
           own log, holds its own epoch and promotes on its own. *)
        Array.init nshards (fun shard ->
            let home = Coherence.shard_home coh ~shard in
            let standbys =
              match cfg.Dex_proto.Proto_config.standbys with
              | Some l ->
                  List.iter
                    (fun s ->
                      if s < 0 || s >= nodes || (nshards = 1 && s = origin)
                      then invalid_arg "Process.create: bad standby node")
                    l;
                  if l = [] then
                    invalid_arg "Process.create: empty standby list";
                  if List.length (List.sort_uniq compare l) <> List.length l
                  then invalid_arg "Process.create: duplicate standby node";
                  (* One list serves every shard; each
                     shard just skips its own home. *)
                  let l = List.filter (fun s -> s <> home) l in
                  if l = [] then
                    invalid_arg
                      "Process.create: standby list is empty once a \
                       shard's own home node is excluded";
                  l
              | None ->
                  (* The k lowest-numbered non-home nodes. *)
                  if k > nodes - 1 then
                    invalid_arg "Process.create: bad standby count";
                  List.filteri
                    (fun i _ -> i < k)
                    (List.filter
                       (fun n -> n <> home)
                       (List.init nodes (fun n -> n)))
            in
            let ha_pid = if nshards = 1 then pid else (pid * 64) + shard in
            Some
              (Ha.arm ~engine:(Cluster.engine cluster)
                 ~fabric:(Cluster.fabric cluster) ~stats ~pid:ha_pid ~mode
                 ~origin:home ~standbys))
  in
  let t =
    {
      cluster;
      pid;
      origin;
      has;
      coh;
      alloc = Allocator.create ();
      vmas = Array.init (Cluster.nodes cluster) (fun _ -> Vma_tree.create ());
      futexes =
        Array.init nshards (fun _ -> Futex.create (Cluster.engine cluster));
      vfss = Array.init nshards (fun _ -> Vfs.create ());
      stats;
      next_tid = 0;
      threads = [];
      workers = Array.make (Cluster.nodes cluster) Absent;
      mig_log = [];
      mmap_next = Layout.mmap_base;
      safepoint_hook = None;
      stopping = false;
      detach = Fun.id;
    }
  in
  (* Wire the replication logs into the protocol layer before any state is
     created, so the initial layout below is already logged. *)
  if Array.exists Option.is_some t.has then begin
    Coherence.set_commit_barrier t.coh (Some (fun shard -> ha_fence_shard t shard));
    Coherence.set_origin_resolver t.coh (Some (fun shard -> ha_resolve t ~shard));
    Coherence.set_origin_write_hook t.coh
      (Some
         (fun vpn ->
           (* Home-local dirtying never crosses the wire, so the directory
              observer cannot see it; ship the fresh bytes ([ha_log]
              routes them to the page's shard). *)
           let store =
             Coherence.page_store t.coh ~node:(Coherence.home_of t.coh vpn)
           in
           if Page_store.mem store vpn then
             ha_log t
               (Log_entry.Page_data
                  { vpn; data = Page_store.snapshot store vpn })));
    Array.iteri
      (fun shard ha ->
        match ha with
        | None -> ()
        | Some ha ->
            Directory.set_observer
              (Coherence.shard_directory t.coh ~shard)
              (Some
                 (fun vpn state ->
                   Ha.append ha
                     (match state with
                     | Some s -> Log_entry.Dir_set { vpn; state = s }
                     | None -> Log_entry.Dir_forget { vpn })));
            Ha.set_promote_hook ha (fun ~new_origin replica ->
                (* Runs in the promotion fiber, after directory reclaim for
                   the dead home was skipped in favor of this rebuild. *)
                Coherence.promote t.coh ~shard ~new_origin
                  ~dir_entries:(Replica.dir_snapshot replica)
                  ~page_data:(Replica.page_data replica);
                if shard = 0 then begin
                  t.origin <- new_origin;
                  (* The replicated tree IS the authoritative layout now;
                     the promoted node's lazily synced view is a strict
                     subset. VMAs live with shard 0, whose home runs the
                     VMA service. *)
                  t.vmas.(new_origin) <- Replica.vma_tree replica
                end;
                Coherence.fence_survivors t.coh ~shard;
                (* Bootstrap snapshot seeding the next replication
                   generation: this shard's slice of the state only. *)
                let vmas = ref [] in
                if shard = 0 then
                  Vma_tree.iter t.vmas.(new_origin) (fun vma ->
                      vmas := Log_entry.Vma_set vma :: !vmas);
                let store = Coherence.page_store t.coh ~node:new_origin in
                let pages =
                  Page_store.fold store ~init:[] ~f:(fun vpn data acc ->
                      if Coherence.shard_of t.coh vpn = shard then
                        Log_entry.Page_data { vpn; data = Bytes.copy data }
                        :: acc
                      else acc)
                in
                let dirs =
                  List.map
                    (fun (vpn, state) -> Log_entry.Dir_set { vpn; state })
                    (Directory.snapshot
                       (Coherence.shard_directory t.coh ~shard))
                in
                dirs @ pages @ List.rev !vmas);
            Cluster.add_router cluster (Ha.router ha))
      t.has
  end;
  (* Classic static layout at the origin; remote nodes learn VMAs on
     demand. *)
  let tree = t.vmas.(origin) in
  let layout_vma ~start ~len ~perm ~tag =
    let vma = Vma.make ~start ~len ~perm ~tag in
    Vma_tree.insert tree vma;
    ha_log t (Log_entry.Vma_set vma)
  in
  layout_vma ~start:Layout.text_base ~len:Layout.text_size ~perm:Perm.ro
    ~tag:"text";
  layout_vma ~start:Layout.globals_base ~len:Layout.globals_size
    ~perm:Perm.rw ~tag:"globals";
  layout_vma ~start:Layout.heap_base ~len:Layout.heap_size ~perm:Perm.rw
    ~tag:"heap";
  let unroute = Cluster.add_removable_router cluster (router t) in
  (* Subscriber priorities spell out the recovery order: directory reclaim
     (0, in Coherence.create), standby promotion (10, in Ha.arm), then
     thread/worker recovery here. *)
  let unsubscribe =
    Fabric.on_crash ~priority:20 (Cluster.fabric cluster) (fun node ->
        handle_node_crash t ~node)
  in
  t.detach <-
    (fun () ->
      unroute ();
      unsubscribe ();
      Coherence.unsubscribe_crash t.coh);
  t

let spawn t ?name:(thread_name = "worker") f =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    {
      proc = t;
      tid;
      thread_name = Printf.sprintf "%s:%d" thread_name tid;
      location = t.origin;
      finished = false;
      crashed = false;
      mig_park = None;
      done_q = Waitq.create ();
    }
  in
  t.threads <- th :: t.threads;
  (* Thread-private VMAs live in the origin's authoritative tree. *)
  let private_vma ~start ~len ~tag =
    let vma = Vma.make ~start ~len ~perm:Perm.rw ~tag in
    Vma_tree.insert t.vmas.(t.origin) vma;
    ha_log t (Log_entry.Vma_set vma)
  in
  private_vma ~start:(Layout.stack_for ~tid) ~len:Layout.stack_size
    ~tag:(Printf.sprintf "stack:%d" tid);
  private_vma ~start:(Layout.tls_for ~tid) ~len:Layout.tls_slot_size
    ~tag:(Printf.sprintf "tls:%d" tid);
  Engine.spawn (engine t) ~label:th.thread_name (fun () ->
      Engine.delay (engine t) (cfg t).Core_config.spawn_thread;
      (try f th with
      | Thread_crashed _ -> th.crashed <- true
      | Fabric.Unreachable { src; _ } when Fabric.crashed (fabric t) ~node:src
        ->
          (* The thread body called the fabric directly (no API guard);
             its node died under it. *)
          th.crashed <- true);
      th.finished <- true;
      ignore (Waitq.wake_all th.done_q ()));
  th

let join th =
  if not th.finished then Waitq.wait (engine th.proc) th.done_q

let set_safepoint_hook t hook = t.safepoint_hook <- hook

let set_periodic t ~interval f =
  if interval <= 0 then invalid_arg "Process.set_periodic: bad interval";
  Engine.spawn (engine t) ~label:"periodic" (fun () ->
      let rec loop () =
        Engine.delay (engine t) interval;
        if not t.stopping then begin
          f ();
          loop ()
        end
      in
      loop ())

let live_threads t =
  List.filter_map
    (fun th ->
      if th.finished || th.crashed then None else Some (th.tid, th.location))
    t.threads
  |> List.sort compare

let shutdown t =
  (* Join every thread, including ones spawned while we were joining. *)
  let rec drain () =
    match List.find_opt (fun th -> not th.finished) t.threads with
    | Some th ->
        join th;
        drain ()
    | None -> ()
  in
  drain ();
  (* Periodic fibers (the autopilot tick) notice on their next wake and
     exit, so the simulation still quiesces. *)
  t.stopping <- true;
  broadcast_node_op t M.Process_exit;
  (* Every thread is joined and every remote worker has acked teardown
     (in chaos mode a send only returns once acked, and duplicate copies
     are filtered at the fabric's dedup layer before routing), so no
     coherence message addressed to this pid can arrive anymore — unless
     replication is armed: a standby still holding this process's log can
     promote on a later origin crash and broadcast epoch fences that the
     coherence handler must ack, so replicated processes keep their router
     and crash subscribers registered (the pre-pruning behaviour). Any
     other finished process has nothing a later crash could damage (see
     {!Coherence.unsubscribe_crash} for why it must not stay
     subscribed). *)
  if Array.for_all Option.is_none t.has then t.detach ()
