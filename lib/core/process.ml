open Dex_sim
open Dex_mem
module Fabric = Dex_net.Fabric
module Msg = Dex_net.Msg
module Coherence = Dex_proto.Coherence
module Authority = Dex_proto.Authority
module M = Core_messages
module Ha = Dex_ha.Ha
module Log_entry = Dex_ha.Log_entry
module Replica = Dex_ha.Replica

exception Segfault of { node : int; addr : Page.addr }
exception Thread_crashed of { pid : int; tid : int }

type worker_state = Absent | Creating of unit Ivar.t | Ready

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
  coh : Coherence.t;
  alloc : Allocator.t;
  vmas : Vma_tree.t array;
  futexes : Futex.t array;  (* per shard: the futex word's home serves it *)
  vfs : Vfs.t;  (* the file table, at the origin with the other services *)
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
      (* removes this process's cluster registration (router and crash
         handler) at shutdown, so a long-lived cluster serving many
         short-lived processes neither scans nor retains every dead
         process on each message and each crash *)
}

and thread = {
  proc : t;
  tid : int;
  thread_name : string;
  mutable location : int;
  mutable crashed : bool;  (* lost to a fail-stop node crash (`Abort) *)
  (* In-flight migration park: [(src, dst, resume)] while the thread is
     suspended waiting for the destination to rebuild it. Crash recovery
     resumes the park when either endpoint dies — the context message may
     have been black-holed, in which case nobody else ever would. *)
  mutable mig_park : (int * int * (unit -> unit)) option;
  finished : unit Ivar.t;  (* full once the thread's body has returned *)
}

let cluster t = t.cluster
let pid t = t.pid
let origin t = Authority.home (Coherence.authority t.coh) ~shard:0
let ha t = Coherence.ha t.coh
let coherence t = t.coh
let allocator t = t.alloc
let vma_tree t ~node = t.vmas.(node)
let stats t = Coherence.stats t.coh
let tid th = th.tid
let location th = th.location
let crashed th = th.crashed
let self_process th = th.proc
let migration_log t = List.rev t.mig_log

let engine t = Cluster.engine t.cluster
let cfg t = Cluster.config t.cluster
let fabric t = Cluster.fabric t.cluster
let authority t = Coherence.authority t.coh

let find_thread t tid =
  match List.find_opt (fun th -> th.tid = tid) t.threads with
  | Some th -> th
  | None -> failwith (Printf.sprintf "Process %d: unknown thread %d" t.pid tid)

(* Replace any stale local view with [vma] (on-demand synchronization). *)
let install_vma tree vma =
  ignore (Vma_tree.remove_range tree ~start:vma.Vma.start ~len:vma.Vma.len);
  Vma_tree.insert tree vma

(* ------------------------------------------------------------------ *)
(* Calls to a home that may fail over.                                 *)

(* Run [f ~dst] against [shard]'s current home; when the {e home}
   fail-stops under the call, stall until the HA layer promotes a standby,
   then retry against the new home. Only the origin (shard 0's home) is
   ever replicated. Crashes of the calling node itself are not handled
   here — they keep unwinding to {!guard}, which applies the thread crash
   policy. Without replication the resolver answers [None] and the
   exception propagates. *)
let rec home_rpc t ~shard ~src ~stat f =
  let dst = Authority.home (authority t) ~shard in
  try f ~dst
  with
  | Fabric.Unreachable _ as e
    when dst <> src
         && Fabric.crashed (fabric t) ~node:dst
         && not (Fabric.crashed (fabric t) ~node:src) -> (
      Fabric.declare_dead (fabric t) ~node:dst;
      match Ha.resolve (ha t) with
      | Some o when o <> dst ->
          Stats.incr (stats t) stat;
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
   because [f] is passed the thread, not its location. Re-homed delegates
   re-execute their body from scratch (the simulator cannot checkpoint
   register state mid-syscall); [`Rehome] is only sound for workloads
   that tolerate that, which is why [`Abort] is the default. [guard th f
   a b c] runs [f th a b c]: the memory API passes a top-level [f] and
   its arguments, so a fault-free access builds no closure. *)
let rec guard th f a b c =
  let t = th.proc in
  if th.crashed then raise (Thread_crashed { pid = t.pid; tid = th.tid });
  let node = th.location in
  try f th a b c
  with Fabric.Unreachable _ when Fabric.crashed (fabric t) ~node -> (
    (* Exhausting the retry budget IS failure detection: make sure the
       recovery (reclaim, thread policy, worker teardown) has run before
       deciding this thread's fate. *)
    Fabric.declare_dead (fabric t) ~node;
    match on_crash_policy t with
    | `Abort ->
        th.crashed <- true;
        raise (Thread_crashed { pid = t.pid; tid = th.tid })
    | `Rehome ->
        (* The crash hook normally re-homed us already (it is
           location-based); cover the window where it has not. *)
        if th.location = node then begin
          th.location <- origin t;
          Stats.incr (stats t) "crash.threads_rehomed"
        end;
        guard th f a b c)

(* [guard] for a closure. *)
let run_thunk _th f () () = f ()
let guard_thunk th f = guard th run_thunk f () ()

(* ------------------------------------------------------------------ *)
(* VMA checking with on-demand synchronization (§III-D).               *)

let rec vma_check th ~addr ~len ~access ~queried =
  match Vma_tree.find th.proc.vmas.(th.location) addr with
  | Some vma when Perm.allows vma.Vma.perm access ->
      let e = Vma.end_ vma in
      if addr + len > e then
        vma_check th ~addr:e ~len:(addr + len - e) ~access ~queried:false
  | _ -> vma_miss th ~addr ~len ~access ~queried

(* The slow path: no local VMA allows the access. *)
and vma_miss th ~addr ~len ~access ~queried =
  let t = th.proc in
  let node = th.location in
  let fail () = raise (Segfault { node; addr }) in
  if node = origin t then fail ()
  else if queried then fail ()
  else begin
    (* The local view may be missing or stale: ask the origin. *)
    Stats.incr (stats t) "vma.sync";
    match
      origin_rpc t ~src:node ~stat:"ha.vma_syncs_retried" (fun ~dst ->
          Fabric.call (fabric t) ~src:node ~dst ~pid:t.pid ~kind:M.kind_vma
            ~size:64 (M.Vma_query { addr }))
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
   where the allocator/VMA/file services live; futex delegations route
   to the word's shard. Threads local to the home call straight into the
   kernel. [req_size] is the request-leg wire size — operations that
   carry a payload to the home (file writes) must charge for it. The
   result comes back as an OCaml value, never as a wire type. *)
let delegate ?(shard = 0) ?(req_size = 64) ?(resp_size = 64) th run =
  let t = th.proc in
  guard_thunk th (fun () ->
      Engine.delay (engine t) (cfg t).Core_config.syscall;
      let target = Authority.home (authority t) ~shard in
      if th.location = target then run ()
      else begin
        Stats.incr (stats t) "delegation";
        (* A futex delegation that pays a remote hop to a non-origin home
           is a cross-shard operation — the traffic sharding moved off the
           origin. *)
        if shard <> 0 then Stats.incr (stats t) "shard.cross_ops";
        (* A failover mid-call re-executes [run] at the promoted home
           (like [`Rehome], the simulator cannot checkpoint a syscall
           mid-flight); the futex wake ledger makes the stock sync
           primitives safe against the replay. *)
        home_rpc t ~shard ~src:th.location ~stat:"ha.delegations_retried"
          (fun ~dst ->
            (* A fresh cell per attempt: a zombie execution at a dead home
               can only fill its own, never its retry's. The fabric runs a
               handler at most once per call, so a chaos replay of the
               reply finds the cell that one execution filled. *)
            let result = ref None in
            match
              Fabric.call (fabric t) ~src:th.location ~dst ~pid:t.pid
                ~kind:M.kind_delegate ~size:req_size
                (M.Delegate
                   { resp_size; run = (fun () -> result := Some (run ())) })
            with
            | M.Delegate_done -> Option.get !result
            | _ -> failwith "Process: unexpected delegate reply")
      end)

(* ------------------------------------------------------------------ *)
(* Memory API.                                                         *)

let alloc_static t ?align ~bytes ~tag () =
  Allocator.alloc_static t.alloc ?align ~bytes ~tag ()

let malloc th ~bytes ~tag =
  let t = th.proc in
  delegate th (fun () -> Allocator.malloc t.alloc ~bytes ~tag)

let memalign th ~align ~bytes ~tag =
  let t = th.proc in
  delegate th (fun () -> Allocator.memalign t.alloc ~align ~bytes ~tag)

(* Each access is a top-level function of the thread, the optional
   [site] (forwarded to {!Coherence} as is), the address and one operand,
   run under {!guard}. *)
let coh th = th.proc.coh

let read_at th site addr len =
  vma_check th ~addr ~len ~access:Perm.Read ~queried:false;
  Coherence.access_range (coh th) ~node:th.location ~tid:th.tid ?site ~addr
    ~len ~access:Perm.Read ()

let write_at th site addr len =
  vma_check th ~addr ~len ~access:Perm.Write ~queried:false;
  Coherence.access_range (coh th) ~node:th.location ~tid:th.tid ?site ~addr
    ~len ~access:Perm.Write ()

let read th ?site addr ~len =
  if len <= 0 then invalid_arg "Process.read: len must be positive";
  guard th read_at site addr len

let write th ?site addr ~len =
  if len <= 0 then invalid_arg "Process.write: len must be positive";
  guard th write_at site addr len

let load_at th site addr () =
  vma_check th ~addr ~len:8 ~access:Perm.Read ~queried:false;
  Coherence.load_i64 (coh th) ~node:th.location ~tid:th.tid ?site addr

let store_at th site addr v =
  vma_check th ~addr ~len:8 ~access:Perm.Write ~queried:false;
  Coherence.store_i64 (coh th) ~node:th.location ~tid:th.tid ?site addr v

let cas_at th site addr (expected, desired) =
  vma_check th ~addr ~len:8 ~access:Perm.Write ~queried:false;
  Coherence.cas_i64 (coh th) ~node:th.location ~tid:th.tid ?site addr
    ~expected ~desired

let fetch_add_at th site addr delta =
  vma_check th ~addr ~len:8 ~access:Perm.Write ~queried:false;
  Coherence.fetch_add_i64 (coh th) ~node:th.location ~tid:th.tid ?site addr
    delta

let load th ?site addr = guard th load_at site addr ()
let store th ?site addr v = guard th store_at site addr v

let cas th ?site addr ~expected ~desired =
  guard th cas_at site addr (expected, desired)

let fetch_add th ?site addr delta = guard th fetch_add_at site addr delta

(* ------------------------------------------------------------------ *)
(* Compute.                                                            *)

(* Compute boundaries are the natural safe points: the thread holds no
   page lock and no delegated call is in flight, so a hook here may
   migrate it. *)
let safepoint th =
  match th.proc.safepoint_hook with
  | Some f when not (Ivar.is_full th.finished || th.crashed) -> f th
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
  let shard = Authority.shard_of (authority t) (Page.page_of_addr addr) in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.futex_op;
    if Ha.take_wake (ha t) ~addr ~tid:th.tid then
      (* The old home consumed a wake for this thread but died before
         the verdict reached it; the replicated ledger re-delivers. *)
      true
    else begin
      (* Atomic check-and-sleep: the value read below and the enqueue
         happen in the same engine event, so no wakeup can slip in
         between. The home reads the word locally — its own shard — so
         the word's page must never be re-homed by the autopilot: pin it
         (pulls authority back first if a re-home won the race). *)
      Coherence.pin_page t.coh ~vpn:(Page.page_of_addr addr);
      let v =
        Coherence.load_i64 t.coh
          ~node:(Authority.home (authority t) ~shard)
          ~tid:th.tid ~site:"futex" addr
      in
      if v <> expected then false
      else begin
        Ha.append (ha t)
          (Log_entry.Futex_wait { addr; tid = th.tid; owner = th.location });
        match
          Futex.wait ~owner:th.location ~tid:th.tid t.futexes.(shard) ~addr
        with
        | `Woken -> true
        | `Crashed ->
            (* The waiter's node died while it was parked: report a
               spurious wake. Sync primitives re-check their state in a
               loop, and the caller's own fiber unwinds through {!guard}
               anyway. *)
            Ha.append (ha t)
              (Log_entry.Futex_unpark { addr; tid = th.tid; woken = false });
            false
      end
    end
  in
  delegate ~shard th run

let futex_wake th ~addr ~count =
  let t = th.proc in
  let shard = Authority.shard_of (authority t) (Page.page_of_addr addr) in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.futex_op;
    let tids = Futex.wake_tids t.futexes.(shard) ~addr ~count in
    (* Each consumed wake is logged before the woken waiter's (or this
       waker's) reply leaves the home — the fence in the router makes
       the ledger entry durable first under [`Sync]. *)
    List.iter
      (fun tid ->
        Ha.append (ha t) (Log_entry.Futex_unpark { addr; tid; woken = true }))
      tids;
    List.length tids
  in
  delegate ~shard th run

(* ------------------------------------------------------------------ *)
(* File I/O (delegated to the origin like any stateful service).        *)

let file_open th name =
  let t = th.proc in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    Vfs.open_file t.vfs name
  in
  delegate th run

let file_read th ~fd ~bytes =
  let t = th.proc in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    let n = Vfs.read t.vfs fd ~bytes in
    (* The origin pulls the data from the shared storage appliance. *)
    if n > 0 then Resource.Server.transfer (Cluster.storage t.cluster) ~bytes:n;
    n
  in
  (* The payload travels back to the caller as the syscall result: big
     reads ride the RDMA path of the fabric automatically. *)
  delegate ~resp_size:(64 + bytes) th run

let file_write th ~fd ~bytes =
  let t = th.proc in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    Vfs.write t.vfs fd ~bytes;
    Resource.Server.transfer (Cluster.storage t.cluster) ~bytes
  in
  (* The payload travels WITH the request: charge the forward leg, the
     mirror image of [file_read]'s response accounting. *)
  delegate ~req_size:(64 + bytes) th run

let file_close th ~fd =
  let t = th.proc in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.file_op;
    Vfs.close t.vfs fd
  in
  delegate th run

(* ------------------------------------------------------------------ *)
(* Node-wide operations through remote workers.                        *)

(* Apply a node-wide operation at [node]'s remote worker. Runs in the
   fabric handler fiber that delivered it. *)
let apply_node_op t ~node op =
  match op with
  | M.Process_exit -> t.workers.(node) <- Absent
  | M.Vma_shrink { start; len } ->
      Engine.delay (engine t) (cfg t).Core_config.vma_op;
      ignore (Vma_tree.remove_range t.vmas.(node) ~start ~len);
      let first, last = Page.pages_of_range start ~len in
      ignore (Coherence.zap_range t.coh ~first ~last ~node)
  | M.Vma_protect { start; len; perm } ->
      Engine.delay (engine t) (cfg t).Core_config.vma_op;
      ignore (Vma_tree.protect_range t.vmas.(node) ~start ~len ~perm);
      let first, last = Page.pages_of_range start ~len in
      ignore (Coherence.zap_range t.coh ~first ~last ~node)

(* Broadcast a node-wide operation to every live remote worker and join
   all acknowledgements. Must run at the origin. If the origin fail-stops
   under the broadcast, re-resolve it (blocking through a promotion) and
   rebroadcast from the survivor — the per-node operations are idempotent,
   so the partial first round is harmless. *)
let rec broadcast_node_op t op =
  let src = origin t in
  let targets = ref [] in
  Array.iteri
    (fun node state ->
      (* A worker ON the origin exists only after a standby promotion
         (the promoted node keeps the worker it had as a remote); it gets
         the op over loopback like any other. *)
      match state with
      | Ready -> targets := node :: !targets
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
                 Fabric.call (fabric t) ~src ~dst:node ~pid:t.pid
                   ~kind:M.kind_node_op ~size:96 (M.Node_op op)
               with
              | M.Node_op_ack -> ()
              | exception Fabric.Unreachable _
                when Fabric.crashed (fabric t) ~node ->
                  (* A dead node holds no state worth shrinking: count the
                     broadcast as acknowledged (the crash hook reclaims
                     everything it had anyway). *)
                  Fabric.declare_dead (fabric t) ~node
              | exception Fabric.Unreachable _
                when Fabric.crashed (fabric t) ~node:src ->
                  src_died := true;
                  Fabric.declare_dead (fabric t) ~node:src
              | _ -> failwith "Process: unexpected node-op reply");
              decr pending;
              if !pending = 0 then ignore (Waitq.wake_one join ())))
        targets;
      Waitq.wait (engine t) join;
      if !src_died then
        match Ha.resolve (ha t) with
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
    Vma_tree.insert t.vmas.(origin t) vma;
    Ha.append (ha t) (Log_entry.Vma_set vma);
    addr
  in
  delegate th run

let munmap th ~addr ~len =
  let t = th.proc in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.vma_op;
    ignore (Vma_tree.remove_range t.vmas.(origin t) ~start:addr ~len);
    Ha.append (ha t) (Log_entry.Vma_remove { start = addr; len });
    let first, last = Page.pages_of_range addr ~len in
    ignore (Coherence.zap_range t.coh ~first ~last ~node:(origin t));
    (* Shrinks are broadcast eagerly (§III-D); the shrink must be durable
       on the standbys before any remote node observes it. *)
    Ha.fence (ha t);
    broadcast_node_op t (M.Vma_shrink { start = addr; len });
    Coherence.forget_range t.coh ~first ~last
  in
  delegate th run

let mprotect th ~addr ~len ~perm =
  let t = th.proc in
  let run () =
    Engine.delay (engine t) (cfg t).Core_config.vma_op;
    let tree = t.vmas.(origin t) in
    (* Downgrades must reach every node before the call returns;
       permissive changes propagate lazily via on-demand sync. *)
    let downgrade = ref false in
    Vma_tree.iter tree (fun { Vma.start; len = l; perm = old_perm; _ } ->
        if start < addr + len && addr < start + l
           && Perm.is_downgrade ~old_perm ~new_perm:perm
        then downgrade := true);
    ignore (Vma_tree.protect_range tree ~start:addr ~len ~perm);
    Ha.append (ha t) (Log_entry.Vma_protect { start = addr; len; perm });
    if !downgrade then begin
      let first, last = Page.pages_of_range addr ~len in
      ignore (Coherence.zap_range t.coh ~first ~last ~node:(origin t));
      Ha.fence (ha t);
      broadcast_node_op t (M.Vma_protect { start = addr; len; perm })
    end
  in
  delegate th run

(* ------------------------------------------------------------------ *)
(* Migration (§III-A).                                                 *)

(* Send a migration message and block until the destination handler
   reconstructs the thread there and resumes us. The park is registered
   on the thread so crash recovery can wake it when either endpoint dies
   while the context is in flight; [resume] is idempotent because both
   the handler and the crash hook may fire. *)
let send_and_park th ~src ~dst build =
  let t = th.proc in
  let arrived = Ivar.create () in
  let resume () = if Ivar.try_fill arrived () then th.mig_park <- None in
  th.mig_park <- Some (src, dst, resume);
  Fabric.send (fabric t) ~src ~dst ~pid:t.pid ~kind:M.kind_migrate
    ~size:(cfg t).Core_config.context_size (build resume);
  Ivar.read (engine t) arrived

let rec migrate th target =
  let t = th.proc in
  if target < 0 || target >= Cluster.nodes t.cluster then
    invalid_arg (Printf.sprintf "Process.migrate: bad node %d" target);
  if target = th.location then ()
  else if Fabric.crash_detected (fabric t) ~node:target then
    (* Known-dead destination: refuse, the thread stays where it is. *)
    Stats.incr (stats t) "crash.migrations_refused"
  else
    guard_thunk th (fun () ->
        try migrate_send th target
        with Fabric.Unreachable _ when Fabric.crashed (fabric t) ~node:target ->
          (* The destination died under the migration message; stay put.
             (Source-side crashes propagate to [guard] instead.) *)
          Fabric.declare_dead (fabric t) ~node:target;
          Stats.incr (stats t) "crash.migrations_refused")

and migrate_send th target =
  let t = th.proc in
  let eng = engine t in
  let c = cfg t in
  (* A re-homed retry may find the thread already where it was going. *)
  if th.location = target then ()
  else begin
    Engine.delay eng c.Core_config.syscall;
    let src = th.location in
    if target = origin t then begin
      (* Backward migration: collect the remote context and refresh the
         original thread with it. *)
      Stats.incr (stats t) "migration.backward";
      let t0 = Engine.now eng in
      Engine.delay eng c.Core_config.backward_capture;
      let remote_ns = Engine.now eng - t0 in
      send_and_park th ~src ~dst:target (fun resume ->
          M.Migrate_back { tid = th.tid; remote_ns; resume });
      (* Woken by crash recovery rather than the origin handler: the
         source node (and the context captured on it) died mid-flight.
         Surface it as the fabric would so {!guard} applies the policy. *)
      if th.location = src && Fabric.crashed (fabric t) ~node:src then
        raise (Fabric.Unreachable { src; dst = target; kind = M.kind_migrate })
    end
    else begin
      (* Forward migration. *)
      Stats.incr (stats t) "migration.forward";
      let first = t.workers.(target) = Absent in
      let t0 = Engine.now eng in
      Engine.delay eng
        (c.Core_config.context_capture
        + if first then c.Core_config.first_session_setup else 0);
      let origin_ns = Engine.now eng - t0 in
      send_and_park th ~src ~dst:target (fun resume ->
          M.Migrate { tid = th.tid; origin_ns; resume });
      (* The destination died while the context was in flight (or while
         it was rebuilding the thread): the migration failed, the thread
         never left. *)
      if th.location <> target && Fabric.crashed (fabric t) ~node:target then
        Stats.incr (stats t) "crash.migrations_refused"
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
     worker published after the decision would outlive every exit
     broadcast. *)
  let gone () =
    Fabric.crashed (fabric t) ~node || not (migration_current th ~node)
  in
  let built_worker =
    match t.workers.(node) with
    | Absent ->
        (* Filled by whichever ends the build first: this fiber, or the
           crash handler when the node dies under it. *)
        let built = Ivar.create () in
        t.workers.(node) <- Creating built;
        charge "remote worker" c.Core_config.remote_worker_create;
        charge "address space" c.Core_config.address_space_init;
        if gone () then begin
          t.workers.(node) <- Absent;
          ignore (Ivar.try_fill built ());
          None
        end
        else begin
          t.workers.(node) <- Ready;
          ignore (Ivar.try_fill built ());
          (* The first remote thread is forked as part of building the
             worker, with a still-cold address space: cheaper than a full
             fork from the warm worker. *)
          charge "thread creation" c.Core_config.thread_create_first;
          Some true
        end
    | Creating built ->
        (* Another migration is already building the worker; wait. *)
        Ivar.read eng built;
        if gone () then None
        else begin
          charge "thread creation" c.Core_config.thread_create;
          Some false
        end
    | Ready ->
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
  th.location <- origin t;
  t.mig_log <-
    {
      m_tid = tid;
      m_target = origin t;
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

(* The last step of {!on_node_crash}: {!Coherence.reclaim_node} has run,
   so the ownership metadata is already clean when threads are re-homed,
   and a home loss nothing can recover was refused there: a dead home
   reaching this point is the origin, and HA has its failover in hand. *)
let handle_node_crash t ~node =
  let origin_died = node = origin t in
  (* Shards whose home stood on the dead node. Computed here, before the
     promotion fiber (queued by {!Ha.handle_crash}) runs, so the home
     table still points at the casualty. *)
  let homed = Authority.homed_at (authority t) node in
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
  if cancelled > 0 then Stats.add (stats t) "crash.futex_cancelled" cancelled;
  (* Apply the crash policy to every thread caught on the dead node.
     Threads standing on the dead origin are beyond re-homing — their
     register state died with the node that also held the directory — so
     they abort under either policy. *)
  List.iter
    (fun th ->
      if (not (Ivar.is_full th.finished)) && th.location = node then
        match (if origin_died then `Abort else on_crash_policy t) with
        | `Abort ->
            th.crashed <- true;
            Stats.incr (stats t) "crash.threads_aborted"
        | `Rehome ->
            th.location <- origin t;
            Stats.incr (stats t) "crash.threads_rehomed")
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
  (* The dead node's worker dies with it; a migration building it wakes
     and finds the node gone. *)
  (match t.workers.(node) with
  | Creating built -> ignore (Ivar.try_fill built ())
  | Ready | Absent -> ());
  t.workers.(node) <- Absent

(* The process's recovery sequence for a declared node failure, run
   synchronously from the declaration: repair the ownership metadata,
   queue the standby promotion if the origin died, then apply the thread
   crash policy and tear down the dead node's worker. *)
let on_node_crash t node =
  Coherence.reclaim_node t.coh ~node;
  Ha.handle_crash (ha t) ~node;
  handle_node_crash t ~node

(* ------------------------------------------------------------------ *)
(* Message routing.                                                    *)

let router t (env : Fabric.env) =
  if Coherence.handler t.coh env then true
  else if Ha.router (ha t) env then true
  else
    let msg = env.Fabric.msg in
    match msg.Msg.payload with
    | M.Migrate { tid; origin_ns; resume } ->
        handle_migrate t ~node:msg.Msg.dst ~tid ~origin_ns resume;
        true
    | M.Migrate_back { tid; remote_ns; resume } ->
        handle_migrate_back t ~node:msg.Msg.dst ~tid ~remote_ns resume;
        true
    | M.Delegate { resp_size; run } ->
        Engine.delay (engine t) (cfg t).Core_config.delegation_dispatch;
        run ();
        (* Replicate-before-externalize: whatever the syscall mutated
           (futex state, VMAs, allocations) must be on the standbys before
           the reply publishes the effect to another node. Only the
           origin's state is replicated. *)
        if msg.Msg.dst = origin t then Ha.fence (ha t);
        env.Fabric.respond ~size:resp_size M.Delegate_done;
        true
    | M.Vma_query { addr } ->
        Engine.delay (engine t) (cfg t).Core_config.vma_op;
        let r = M.Vma_info (Vma_tree.find t.vmas.(origin t) addr) in
        Ha.fence (ha t);
        env.Fabric.respond r;
        true
    | M.Node_op op ->
        let node = msg.Msg.dst in
        (* Without a worker the node holds no state for this process. *)
        if t.workers.(node) = Ready then apply_node_op t ~node op;
        env.Fabric.respond M.Node_op_ack;
        true
    | _ -> false

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                          *)

let create cluster ?(origin = 0) () =
  if origin < 0 || origin >= Cluster.nodes cluster then
    invalid_arg "Process.create: bad origin";
  let pid = Cluster.fresh_pid cluster in
  let seed = Rng.int (Cluster.rng cluster) 1_000_000 in
  let cfg = Cluster.proto_config cluster in
  let coh = Coherence.create ~cfg ~seed ~pid (Cluster.fabric cluster) ~origin in
  let nshards = Authority.shard_count (Coherence.authority coh) in
  let t =
    {
      cluster;
      pid;
      coh;
      alloc = Allocator.create ();
      vmas = Array.init (Cluster.nodes cluster) (fun _ -> Vma_tree.create ());
      futexes =
        Array.init nshards (fun _ -> Futex.create (Cluster.engine cluster));
      vfs = Vfs.create ();
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
  (* Without a replica set nothing can promote, so no hook is built. *)
  if Ha.configured (ha t) then
    Ha.set_promote_hook (ha t) (fun ~new_origin replica ->
        (* Runs in the promotion fiber, after directory reclaim for the
           dead origin was skipped in favor of this rebuild. *)
        Coherence.promote t.coh ~new_origin
          ~dir_entries:(Replica.dir_snapshot replica)
          ~page_data:(Replica.page_data replica);
        (* The replicated tree IS the authoritative layout now; the
           promoted node's lazily synced view is a strict subset. *)
        t.vmas.(new_origin) <- Replica.vma_tree replica;
        Coherence.fence_survivors t.coh;
        (* Bootstrap snapshot seeding the next replication generation. *)
        let vmas = ref [] in
        Vma_tree.iter t.vmas.(new_origin) (fun vma ->
            vmas := Log_entry.Vma_set vma :: !vmas);
        let pages =
          Page_store.fold
            (Coherence.page_store t.coh ~node:new_origin)
            ~init:[]
            ~f:(fun vpn data acc -> Log_entry.Page_data { vpn; data } :: acc)
        in
        let dirs =
          List.map
            (fun (vpn, state) -> Log_entry.Dir_set { vpn; state })
            (Directory.snapshot (Authority.directory (authority t) ~shard:0))
        in
        dirs @ pages @ List.rev !vmas);
  (* Classic static layout at the origin; remote nodes learn VMAs on
     demand. *)
  let tree = t.vmas.(origin) in
  let layout_vma ~start ~len ~perm ~tag =
    let vma = Vma.make ~start ~len ~perm ~tag in
    Vma_tree.insert tree vma;
    Ha.append (ha t) (Log_entry.Vma_set vma)
  in
  layout_vma ~start:Layout.text_base ~len:Layout.text_size ~perm:Perm.ro
    ~tag:"text";
  layout_vma ~start:Layout.globals_base ~len:Layout.globals_size
    ~perm:Perm.rw ~tag:"globals";
  layout_vma ~start:Layout.heap_base ~len:Layout.heap_size ~perm:Perm.rw
    ~tag:"heap";
  t.detach <-
    Cluster.add_process cluster ~pid ~route:(router t)
      ~on_crash:(on_node_crash t);
  t

let spawn t ?name:(thread_name = "worker") f =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th =
    {
      proc = t;
      tid;
      thread_name = Printf.sprintf "%s:%d" thread_name tid;
      location = origin t;
      crashed = false;
      mig_park = None;
      finished = Ivar.create ();
    }
  in
  t.threads <- th :: t.threads;
  (* The thread's stack lives in the origin's authoritative tree. *)
  let stack =
    Vma.make ~start:(Layout.stack_for ~tid) ~len:Layout.stack_size
      ~perm:Perm.rw ~tag:(Printf.sprintf "stack:%d" tid)
  in
  Vma_tree.insert t.vmas.(origin t) stack;
  Ha.append (ha t) (Log_entry.Vma_set stack);
  Engine.spawn (engine t) ~label:th.thread_name (fun () ->
      Engine.delay (engine t) (cfg t).Core_config.spawn_thread;
      (try f th with
      | Thread_crashed _ -> th.crashed <- true
      | Fabric.Unreachable { src; _ } when Fabric.crashed (fabric t) ~node:src
        ->
          (* The thread body called the fabric directly (no API guard);
             its node died under it. *)
          th.crashed <- true);
      Ivar.fill th.finished ());
  th

let join th = Ivar.read (engine th.proc) th.finished

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
      if Ivar.is_full th.finished || th.crashed then None
      else Some (th.tid, th.location))
    t.threads
  |> List.sort compare

let shutdown t =
  (* Join every thread, including ones spawned while we were joining. *)
  let rec drain () =
    match
      List.find_opt (fun th -> not (Ivar.is_full th.finished)) t.threads
    with
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
     a replica set was configured: a standby still holding this process's log can
     promote on a later origin crash and broadcast epoch fences that the
     coherence handler must ack, so replicated processes stay registered.
     Any other finished process has nothing a later crash could damage,
     and must not stay registered: its directory reclaim would keep the
     whole protocol state reachable and treat a later crash of its old
     origin node as an unrecoverable origin loss, failing whichever live
     fiber declared the crash. *)
  if not (Ha.configured (ha t)) then t.detach ()
