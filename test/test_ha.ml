(* Tests for origin replication: replication log replay determinism,
   quorum-fence behaviour over a replica set, and standby failover under
   live workloads — including simultaneous and back-to-back crashes. *)

open Dex_sim
open Dex_core
module Fabric = Dex_net.Fabric
module Msg = Dex_net.Msg
module Net_config = Dex_net.Net_config
module Directory = Dex_mem.Directory
module Node_set = Dex_mem.Node_set
module Ha = Dex_ha.Ha
module Ha_messages = Dex_ha.Ha_messages
module Log_entry = Dex_ha.Log_entry
module Replica = Dex_ha.Replica

(* Unwrap nested fiber failures in Alcotest's exception reports. *)
let () =
  Printexc.register_printer (function
    | Engine.Fiber_failure (label, e) ->
        Some (Printf.sprintf "Fiber_failure(%s, %s)" label (Printexc.to_string e))
    | _ -> None)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let us = Time_ns.us

(* Deterministic chaos fabric (no injected faults): fail-stop crashes need
   the reliable transport, and a short retry budget keeps detection quick. *)
let crash_net ?(max_retransmits = 4) ~nodes () =
  let chaos =
    {
      Net_config.chaos_default with
      Net_config.chaos_seed = 11;
      rto = us 20;
      rto_cap = us 100;
      max_retransmits;
    }
  in
  { (Net_config.default ~nodes ()) with Net_config.chaos = Some chaos }

(* The origin (node 0) replicates to [standbys], by default nodes 1..k. *)
let ha_proto ?(k = 1) ?standbys mode =
  {
    Dex_proto.Proto_config.default with
    replication = mode;
    standbys = Option.value standbys ~default:(List.init k (fun i -> i + 1));
    on_crash = `Rehome;
  }

let pstat proc name = Stats.get (Process.stats proc) name
let cstat proc name = Stats.get (Dex_proto.Coherence.stats (Process.coherence proc)) name

(* ------------------------------------------------------------------ *)
(* Satellite: replay determinism. Drive a real directory through random
   mutations with the replication observer attached; at every watermark,
   replaying the log prefix into a fresh replica must rebuild an image
   bit-identical to the directory snapshot taken at that point.          *)

let prop_replay_determinism =
  QCheck.Test.make ~name:"log replay rebuilds every directory snapshot"
    ~count:60
    QCheck.(
      list_of_size Gen.(1 -- 60)
        (triple (int_bound 2) (int_bound 23) (int_bound 14)))
    (fun ops ->
      let dir = Directory.create ~origin:0 in
      let log = ref [] in
      Directory.set_observer dir
        (Some
           (fun vpn state ->
             log :=
               (match state with
               | Some s -> Log_entry.Dir_set { vpn; state = s }
               | None -> Log_entry.Dir_forget { vpn })
               :: !log));
      (* Each op appends >= 1 log entries; checkpoint the canonical
         snapshot after every op, i.e. at every possible ack watermark. *)
      let checkpoints = ref [] in
      List.iter
        (fun (kind, vpn, arg) ->
          let restore st = ignore (Directory.apply dir vpn (Restore st)) in
          (match kind with
          | 0 -> restore (Some (Exclusive (arg mod 4)))
          | 1 ->
              restore
                (Some (Shared (Node_set.of_list [ arg mod 4; (arg / 4) mod 4 ])))
          | _ -> restore None);
          checkpoints := (List.length !log, Directory.snapshot dir) :: !checkpoints)
        ops;
      let entries = Array.of_list (List.rev !log) in
      List.for_all
        (fun (watermark, snap) ->
          let replica = Replica.create ~origin:0 in
          for i = 0 to watermark - 1 do
            Replica.apply replica entries.(i)
          done;
          Replica.dir_snapshot replica = snap)
        !checkpoints)

(* The pending-wake ledger delivers each consumed wake exactly once. *)
let test_replica_wake_ledger () =
  let r = Replica.create ~origin:0 in
  Replica.apply r (Log_entry.Futex_wait { addr = 4096; tid = 7; owner = 2 });
  Replica.apply r (Log_entry.Futex_unpark { addr = 4096; tid = 7; woken = true });
  check_int "one pending wake" 1 (List.length (Replica.pending_wakes r));
  check_bool "wake consumed" true (Replica.take_wake r ~addr:4096 ~tid:7);
  check_bool "only once" false (Replica.take_wake r ~addr:4096 ~tid:7);
  check_int "ledger drained" 0 (List.length (Replica.pending_wakes r))

(* ------------------------------------------------------------------ *)
(* Satellite: the per-origin-epoch guard. Batches stamped with an older
   generation than the standby has accepted are NACKed, so a deposed
   (zombie) origin can never advance a watermark the new generation
   relies on. Driven through a hand-built delivery env so the zombie can
   "send" even though the fabric would black-hole it.                    *)

let test_zombie_epoch_nack () =
  let e = Engine.create () in
  let fabric = Fabric.create e (crash_net ~nodes:3 ()) in
  let stats = Stats.create () in
  let ha =
    Ha.arm ~engine:e ~fabric ~stats ~pid:7 ~mode:`Sync ~origin:0
      ~standbys:[ 1; 2 ]
  in
  let deliver ~epoch ~first_seq entries =
    let reply = ref None in
    let env =
      {
        Fabric.msg =
          {
            Msg.src = 0;
            dst = 1;
            pid = 7;
            size = 64;
            kind = Ha_messages.kind_repl;
            payload =
              Ha_messages.Repl_append { epoch; first_seq; entries };
          };
        respond = (fun ?size:_ p -> reply := Some p);
      }
    in
    check_bool "handled by the replication router" true (Ha.router ha env);
    !reply
  in
  let entry vpn = Log_entry.Dir_set { vpn; state = Directory.Exclusive 1 } in
  (* A batch from generation 3 is accepted and acked... *)
  (match deliver ~epoch:3 ~first_seq:0 [ entry 1; entry 2 ] with
  | Some (Ha_messages.Repl_ack { watermark; _ }) ->
      check_int "batch applied and acked" 2 watermark
  | _ -> Alcotest.fail "expected an ack");
  (* ...after which a batch from the deposed generation 0 is refused. *)
  (match deliver ~epoch:0 ~first_seq:2 [ entry 3 ] with
  | Some (Ha_messages.Repl_nack { epoch; _ }) ->
      check_int "nack names the accepted generation" 3 epoch
  | _ -> Alcotest.fail "expected a nack");
  check_int "zombie batch counted" 1 (Stats.get stats "ha.zombie_nacks");
  (* A batch towards a node outside the replica set is refused too. *)
  let env_out =
    {
      Fabric.msg =
        {
          Msg.src = 0;
          dst = 0;
          pid = 7;
          size = 64;
          kind = Ha_messages.kind_repl;
          payload =
            Ha_messages.Repl_append
              { epoch = 3; first_seq = 0; entries = [ entry 9 ] };
        };
      respond = (fun ?size:_ _ -> ());
    }
  in
  check_bool "non-member batch handled" true (Ha.router ha env_out);
  check_int "non-member batch nacked" 2 (Stats.get stats "ha.zombie_nacks")

(* A logged page image shares its buffer with the origin's store, so the
   origin's later store to the page must leave the logged bytes alone:
   the standby keeps every [Page_data] image it is sent, and each must
   still read the value stored when it was logged. *)
let test_logged_image_unchanged () =
  let e = Engine.create () in
  let fabric = Fabric.create e (Net_config.default ~nodes:2 ()) in
  let coh =
    Dex_proto.Coherence.create ~cfg:(ha_proto `Sync) fabric ~origin:0
  in
  let logged = ref [] in
  for node = 0 to 1 do
    Fabric.set_handler fabric ~node (fun _ env ->
        (match env.Fabric.msg.Msg.payload with
        | Ha_messages.Repl_append { entries; _ } ->
            List.iter
              (function
                | Log_entry.Page_data { data; _ } -> logged := data :: !logged
                | _ -> ())
              entries
        | _ -> ());
        if
          not
            (Dex_proto.Coherence.handler coh env
            || Ha.router (Dex_proto.Coherence.ha coh) env)
        then failwith "test_ha: unrouted message")
  done;
  let addr = Dex_mem.Layout.heap_base in
  Engine.spawn e (fun () ->
      for v = 1 to 3 do
        Dex_proto.Coherence.store_i64 coh ~node:0 ~tid:0 addr (Int64.of_int v);
        Engine.delay e (us 50)
      done);
  Engine.run_until_quiescent e;
  Alcotest.(check (list int64))
    "each logged image holds the value stored when it was logged"
    [ 1L; 2L; 3L ]
    (List.rev_map (fun data -> Bytes.get_int64_le data 0) !logged)

(* ------------------------------------------------------------------ *)
(* Failover workload: writers hammer a shared counter from fixed nodes
   while [crash] injects failures mid-run. With `Sync replication the run
   must finish with zero lost updates and zero aborted threads.          *)

let run_failover_workload ?(nodes = 4) ?k ?standbys
    ?(writer_nodes = [ 1; 2; 3 ]) ?rehome_to ~mode ~rounds ~crash () =
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ())
      ~proto:(ha_proto ?k ?standbys mode)
      ()
  in
  let final = ref (-1L) in
  let writers = List.length writer_nodes in
  let proc =
    Dex.run cl (fun proc main ->
        let counter = Process.memalign main ~align:4096 ~bytes:8 ~tag:"ctr" in
        (* Seed the counter from the origin so its page starts origin-
           staged — the crash must not lose that image either. *)
        Process.store main counter 0L;
        (* Optionally move the counter page's authority off the origin
           before the writers start, as the placement autopilot would. *)
        Option.iter
          (fun node ->
            match
              Dex_proto.Coherence.rehome_page (Process.coherence proc)
                ~vpn:(Dex_mem.Page.page_of_addr counter) ~node
            with
            | `Rehomed -> ()
            | _ -> Alcotest.fail "setup re-home must succeed")
          rehome_to;
        let threads =
          List.map
            (fun node ->
              Process.spawn proc (fun th ->
                  Process.migrate th node;
                  for _ = 1 to rounds do
                    ignore (Process.fetch_add th counter 1L);
                    Process.compute th ~ns:(us 30)
                  done))
            writer_nodes
        in
        (* Every thread that stays at the origin dies with it — including
           this one. Ride out the crashes on the highest node. *)
        Process.migrate main (nodes - 1);
        crash cl proc main;
        List.iter Process.join threads;
        final := Process.load main counter)
  in
  Dex_proto.Coherence.check_invariants (Process.coherence proc);
  (if Sys.getenv_opt "HA_DEBUG" <> None then
     let p n = Printf.printf "%-28s %d\n" n (pstat proc n) in
     Printf.printf "final=%Ld expect=%d\n" !final (writers * rounds);
     List.iter p
       [
         "ha.failovers"; "ha.entries"; "ha.entries_acked"; "ha.fence_waits";
         "ha.standby_lost"; "ha.quorum_degraded"; "ha.quorum_stalls";
         "ha.reelections"; "ha.rearm_aborted"; "ha.recruits";
         "ha.compacted"; "ha.ship_batches"; "ha.entries_shipped";
         "ha.disabled";
         "crash.threads_aborted"; "crash.threads_rehomed";
       ];
     let c n = Printf.printf "%-28s %d\n" n (cstat proc n) in
     List.iter c
       [
         "ha.stale_epoch_nacks"; "ha.stale_revokes"; "ha.fence_zapped";
         "ha.stalled_faults"; "ha.promotions";
       ]);
  (proc, !final, writers * rounds)

let crash_at ~at_us node cl _proc main =
  Process.compute main ~ns:(us at_us);
  Cluster.crash_node cl ~node

(* The winner recorded by the last election must dominate every candidate
   under the (generation, watermark, lowest-node) order.                 *)
let check_election_winner proc =
  let ha = Process.ha proc in
  check_bool "a replica set was configured" true (Ha.configured ha);
  match Ha.last_election ha with
  | None -> Alcotest.fail "a failover must record its election"
  | Some (winner, candidates) ->
      check_bool "election had candidates" true (candidates <> []);
      let best =
        List.fold_left
          (fun acc (node, ep, w) ->
            match acc with
            | None -> Some (node, ep, w)
            | Some (n', ep', w') ->
                if (ep, w, -node) > (ep', w', -n') then Some (node, ep, w)
                else acc)
          None candidates
      in
      (match best with
      | Some (node, _, _) ->
          check_int "winner has the highest watermark" node winner
      | None -> ());
      check_int "the winner is the serving origin" winner
        (Process.origin proc)

let test_sync_failover_no_lost_writes () =
  let proc, final, expect =
    run_failover_workload ~mode:`Sync ~rounds:40
      ~crash:(crash_at ~at_us:1500 0) ()
  in
  check_bool "origin crash detected" true
    (Cluster.node_crashed (Process.cluster proc) ~node:0);
  Alcotest.(check int64)
    "every increment survived the failover" (Int64.of_int expect) final;
  check_int "exactly one failover" 1 (pstat proc "ha.failovers");
  check_int "no thread aborted" 0 (pstat proc "crash.threads_aborted");
  check_int "origin moved to the standby" 1 (Process.origin proc);
  check_election_winner proc;
  check_bool "stale-epoch NACKs re-steered survivors" true
    (cstat proc "ha.stale_epoch_nacks" > 0);
  check_bool "replication re-armed towards a fresh recruit" true
    (let ha = Process.ha proc in
     Ha.active ha && Ha.standbys ha = [ 2 ]);
  (* One owner per piece of process state: the protocol instance holds
     the replication, the origin and the only counter table. *)
  check_bool "the process's table is the protocol's" true
    (Process.stats proc == Dex_proto.Coherence.stats (Process.coherence proc));
  check_int "Process.origin is Ha.origin"
    (Ha.origin (Process.ha proc))
    (Process.origin proc);
  let digest =
    Format.asprintf "%a" Dex_profile.Report.pp_ha (Process.stats proc)
  in
  let has line =
    List.exists
      (fun l -> String.starts_with ~prefix:line l)
      (String.split_on_char '\n' digest)
  in
  check_bool "pp_ha prints the log line" true
    (has (Printf.sprintf "ha: entries=%d " (pstat proc "ha.entries")));
  check_bool "pp_ha prints the failover line, survivor repair included" true
    (has
       (Printf.sprintf
          "ha failover: count=1 replayed=%d detect_to_serve=%.1fus \
           stalled_faults=%d stale_nacks=%d "
          (pstat proc "ha.replay_entries")
          (float_of_int (pstat proc "ha.failover_ns") /. 1000.0)
          (cstat proc "ha.stalled_faults")
          (cstat proc "ha.stale_epoch_nacks")))

let test_async_failover_completes () =
  let proc, final, expect =
    run_failover_workload ~mode:(`Async 8) ~rounds:40
      ~crash:(crash_at ~at_us:1500 0) ()
  in
  check_int "exactly one failover" 1 (pstat proc "ha.failovers");
  check_int "no thread aborted" 0 (pstat proc "crash.threads_aborted");
  (* Async may lose the unacked suffix, never more than it. *)
  check_bool "final count within the bounded-lag window" true
    (final >= 0L && final <= Int64.of_int expect)

let prop_sync_failover_sc =
  (* Randomized crash instants and round counts: the no-lost-writes
     guarantee must hold wherever the crash lands after the writers have
     left the origin. *)
  QCheck.Test.make ~name:"sync failover loses no writes (random crash time)"
    ~count:8
    QCheck.(pair (int_range 1200 4000) (int_range 20 40))
    (fun (at_us, rounds) ->
      let proc, final, expect =
        run_failover_workload ~mode:`Sync ~rounds ~crash:(crash_at ~at_us 0)
          ()
      in
      final = Int64.of_int expect
      && pstat proc "ha.failovers" = 1
      && pstat proc "crash.threads_aborted" = 0)

(* ------------------------------------------------------------------ *)
(* Tentpole: quorum behaviour of the replica set.                       *)

(* k=2, `Sync: a simultaneous origin+standby crash is any-minority loss
   for the origin+2 set. The fence demanded acks from both standbys, so
   the survivor vouches for every externalized write; it must win the
   election and nothing acknowledged may be lost.                        *)
let test_sync_double_crash_simultaneous () =
  let proc, final, expect =
    run_failover_workload ~k:2 ~writer_nodes:[ 2; 3; 3 ] ~mode:`Sync
      ~rounds:40
      ~crash:(fun cl _proc main ->
        Process.compute main ~ns:(us 1500);
        Cluster.crash_node cl ~node:0;
        Cluster.crash_node cl ~node:1)
      ()
  in
  Alcotest.(check int64)
    "every increment survived origin+standby dying together"
    (Int64.of_int expect) final;
  check_int "exactly one failover" 1 (pstat proc "ha.failovers");
  check_int "the surviving standby was promoted" 2 (Process.origin proc);
  check_election_winner proc;
  check_int "no thread aborted" 0 (pstat proc "crash.threads_aborted")

(* Satellite regression (PR 4 re-arm race): after the first failover the
   promoted origin is killed again while its re-arm snapshot may still be
   streaming. A half-seeded recruit must never be promoted — survivors
   fall back to retained previous-generation images when needed.         *)
let test_back_to_back_origin_crashes () =
  let proc, final, expect =
    run_failover_workload ~nodes:5 ~k:2 ~writer_nodes:[ 3; 4; 4 ]
      ~mode:`Sync ~rounds:40
      ~crash:(fun cl proc main ->
        Process.compute main ~ns:(us 1500);
        Cluster.crash_node cl ~node:0;
        (* The origin field flips inside the promotion hook; crashing the
           winner right then lands inside the re-arm window, before the
           next snapshot generation is fully seeded. *)
        while Process.origin proc = 0 do
          Process.compute main ~ns:(us 25)
        done;
        Cluster.crash_node cl ~node:(Process.origin proc))
      ()
  in
  Alcotest.(check int64)
    "every increment survived back-to-back failovers" (Int64.of_int expect)
    final;
  check_int "two failovers" 2 (pstat proc "ha.failovers");
  check_int "no thread aborted" 0 (pstat proc "crash.threads_aborted");
  check_election_winner proc;
  check_bool "a replica-set member was promoted" true
    (List.mem (Process.origin proc) [ 2; 3 ])

(* k=2 losing one standby: still quorate (origin+survivor = 2 of 3), so
   fences degrade to the survivor instead of blocking the run.           *)
let test_standby_loss_degrades_not_stalls () =
  let proc, final, expect =
    run_failover_workload ~k:2 ~writer_nodes:[ 2; 3; 3 ] ~mode:`Sync
      ~rounds:20 ~crash:(crash_at ~at_us:600 1) ()
  in
  Alcotest.(check int64) "work unaffected" (Int64.of_int expect) final;
  check_int "no failover happened" 0 (pstat proc "ha.failovers");
  check_int "standby loss recorded" 1 (pstat proc "ha.standby_lost");
  check_int "quorum degraded once" 1 (pstat proc "ha.quorum_degraded");
  check_int "no stall: origin+survivor is still a majority" 0
    (pstat proc "ha.quorum_stalls");
  check_bool "replication still armed on the survivor" true
    (let ha = Process.ha proc in
     Ha.active ha && Ha.standbys ha = [ 2 ])

(* k=3 losing standbys one by one: two losses break the quorum — `Sync
   writers stall rather than externalize unreplicated writes — and the
   third disables replication outright, releasing them. The worker dirties
   a fresh page per round so every round externalizes an origin grant
   through the fence (a single hot page would settle locally and go
   silent).                                                              *)
let test_quorum_lost_stalls_then_disables () =
  let nodes = 6 in
  let rounds = 30 in
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ())
      ~proto:(ha_proto ~k:3 `Sync) ()
  in
  let proc =
    Dex.run cl (fun proc main ->
        let base =
          Process.memalign main ~align:4096 ~bytes:(4096 * rounds)
            ~tag:"pages"
        in
        let th =
          Process.spawn proc (fun th ->
              Process.migrate th 4;
              for i = 0 to rounds - 1 do
                Process.store th (base + (i * 4096)) (Int64.of_int (i + 1));
                Process.compute th ~ns:(us 30)
              done)
        in
        (* Main times the crash schedule from node 5, where nothing
           contends for cores. *)
        Process.migrate main 5;
        Process.compute main ~ns:(us 400);
        Cluster.crash_node cl ~node:1;
        Cluster.crash_node cl ~node:2;
        (* The worker is stalled now; give the stall time to register,
           then lose the last standby so replication disables and
           releases it. *)
        Process.compute main ~ns:(us 800);
        Cluster.crash_node cl ~node:3;
        Process.join th;
        for i = 0 to rounds - 1 do
          Alcotest.(check int64)
            "store visible" (Int64.of_int (i + 1))
            (Process.load main (base + (i * 4096)))
        done)
  in
  Dex_proto.Coherence.check_invariants (Process.coherence proc);
  check_int "three standbys lost" 3 (pstat proc "ha.standby_lost");
  check_int "quorum degraded when the second standby fell" 1
    (pstat proc "ha.quorum_degraded");
  check_bool "losing the quorum stalled `Sync fences" true
    (pstat proc "ha.quorum_stalls" > 0);
  check_int "replication disabled with the set empty" 1
    (pstat proc "ha.disabled");
  check_int "no failover happened" 0 (pstat proc "ha.failovers");
  check_bool "disarmed" true
    (let ha = Process.ha proc in
     (not (Ha.armed ha)) && Ha.standbys ha = [])

(* k=1 standby loss still degenerates to the PR 4 behaviour: the set is
   empty, replication disables, the run is unaffected.                   *)
let test_standby_loss_disables () =
  let nodes = 4 in
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ()) ~proto:(ha_proto `Sync) ()
  in
  let proc =
    Dex.run cl (fun proc main ->
        let x = Process.memalign main ~align:4096 ~bytes:8 ~tag:"x" in
        let th =
          Process.spawn proc (fun th ->
              Process.migrate th 2;
              for i = 1 to 12 do
                Process.store th x (Int64.of_int i);
                Process.compute th ~ns:(us 40)
              done;
              Process.migrate th (Process.origin proc))
        in
        Process.compute main ~ns:(us 300);
        Cluster.crash_node cl ~node:1;
        Process.join th;
        Alcotest.(check int64) "work unaffected" 12L (Process.load main x))
  in
  check_int "standby loss recorded" 1 (pstat proc "ha.standby_lost");
  check_int "replication disabled" 1 (pstat proc "ha.disabled");
  check_int "no failover happened" 0 (pstat proc "ha.failovers");
  check_bool "disarmed" true (not (Ha.armed (Process.ha proc)))

(* Explicit replica-set selection is honoured, in the given order. *)
let test_standby_selection () =
  let nodes = 4 in
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ())
      ~proto:(ha_proto ~standbys:[ 3; 1 ] `Sync)
      ()
  in
  let proc = Dex.run cl (fun _proc _main -> ()) in
  Alcotest.(check (list int)) "configured replica set" [ 3; 1 ]
    (Ha.standbys (Process.ha proc))

(* Zero standbys is replication off, whatever the mode says: an mmap +
   munmap, remote grants and a barrier (futex wait and wake) go through
   every replication hook (log, fence, wake ledger, two-phase reclaim)
   and leave no trace: no [ha.*] counter, no replication traffic. A
   replica set with two shards is refused. *)
let test_zero_standbys_is_off () =
  let nodes = 3 in
  let cluster proto = Dex.cluster ~nodes ~net:(crash_net ~nodes ()) ~proto () in
  let cl = cluster (ha_proto ~k:0 (`Async 4)) in
  let proc =
    Dex.run cl (fun proc main ->
        let scratch = Process.mmap main ~len:(3 * 4096) ~tag:"scratch" () in
        Process.store main scratch 1L;
        let x = Process.memalign main ~align:4096 ~bytes:8 ~tag:"x" in
        let barrier = Sync.Barrier.create proc ~parties:3 () in
        let threads =
          List.map
            (fun node ->
              Process.spawn proc (fun th ->
                  Process.migrate th node;
                  for _ = 1 to 5 do
                    ignore (Process.fetch_add th x 1L);
                    ignore (Process.load th scratch)
                  done;
                  Sync.Barrier.await th barrier))
            [ 1; 2 ]
        in
        Sync.Barrier.await main barrier;
        List.iter Process.join threads;
        Alcotest.(check int64) "every increment landed" 10L
          (Process.load main x);
        Process.munmap main ~addr:scratch ~len:(3 * 4096))
  in
  Dex_proto.Coherence.check_invariants (Process.coherence proc);
  check_bool "the run took remote grants" true
    (pstat proc "delegation" > 0 && pstat proc "revoke.invalidate" > 0);
  Alcotest.(check (list string)) "no ha.* counter" []
    (List.filter_map
       (fun (name, _) ->
         if String.starts_with ~prefix:"ha." name then Some name else None)
       (Stats.to_list (Process.stats proc)));
  check_int "no replication traffic" 0
    (Stats.get (Fabric.stats (Cluster.fabric cl)) ("sent." ^ Ha_messages.kind_repl));
  let ha = Process.ha proc in
  Alcotest.(check (list int)) "empty replica set" [] (Ha.standbys ha);
  check_bool "not armed" false (Ha.armed ha);
  check_bool "not configured" false (Ha.configured ha);
  Alcotest.check_raises "replication with two shards is refused"
    (Invalid_argument "Coherence.create: replication needs one shard")
    (fun () ->
      ignore
        (Process.create
           (cluster { (ha_proto `Sync) with sharding = `Hash 2 })
           ()))

(* [`Sync] is lag 0: [`Async 0] runs the k = 1 failover workload to the
   same instant, counters and final count. *)
let test_async_zero_is_sync () =
  let run mode =
    let proc, final, expect =
      run_failover_workload ~mode ~rounds:30 ~crash:(crash_at ~at_us:1200 0) ()
    in
    ( Engine.now (Cluster.engine (Process.cluster proc)),
      Stats.to_list (Process.stats proc),
      final,
      expect )
  in
  let t_sync, stats_sync, final_sync, expect = run `Sync in
  let t_async, stats_async, final_async, _ = run (`Async 0) in
  check_int "same sim_time" t_sync t_async;
  Alcotest.(check (list (pair string int))) "same counters" stats_sync
    stats_async;
  Alcotest.(check int64) "same final count" final_sync final_async;
  Alcotest.(check int64) "no lost write" (Int64.of_int expect) final_sync

(* ------------------------------------------------------------------ *)
(* Futexes across a failover: a waiter parked at the old origin re-parks
   at the promoted one (the wait is in the log) and the post-crash wake
   reaches it.                                                          *)

let test_futex_across_failover () =
  let nodes = 4 in
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ()) ~proto:(ha_proto `Sync) ()
  in
  let woken = ref false in
  let proc =
    Dex.run cl (fun proc main ->
        let word = Process.memalign main ~align:4096 ~bytes:8 ~tag:"futex" in
        Process.store main word 0L;
        let waiter =
          Process.spawn proc (fun th ->
              Process.migrate th 2;
              woken := Process.futex_wait th ~addr:word ~expected:0L)
        in
        let waker =
          Process.spawn proc (fun th ->
              Process.migrate th 3;
              (* Park the waiter, kill the origin, then wake: the wake must
                 find the re-parked waiter at the promoted origin. *)
              Process.compute th ~ns:(us 2500);
              Cluster.crash_node cl ~node:0;
              Process.compute th ~ns:(us 1500);
              Process.store th word 1L;
              ignore (Process.futex_wake th ~addr:word ~count:1))
        in
        Process.migrate main 2;
        List.iter Process.join [ waiter; waker ])
  in
  check_bool "waiter woke after the failover" true !woken;
  check_int "one failover" 1 (pstat proc "ha.failovers");
  check_int "no thread aborted" 0 (pstat proc "crash.threads_aborted")

(* A delegated call outlives its home. A thread on a surviving node is
   parked in a delegated FUTEX_WAIT when the origin fails: the attempt
   stranded there is cancelled by the crash with a [false] verdict, which
   fills only that attempt's result cell. The call is re-sent to the
   promoted origin, parks again, and returns that retry's verdict: [true],
   from the later FUTEX_WAKE itself rather than the wake ledger. *)
let test_delegation_retried_across_failover () =
  let nodes = 4 in
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ()) ~proto:(ha_proto `Sync) ()
  in
  let verdict = ref None in
  let proc =
    Dex.run cl (fun proc main ->
        let word = Process.memalign main ~align:4096 ~bytes:8 ~tag:"futex" in
        Process.store main word 0L;
        let waiter =
          Process.spawn proc (fun th ->
              Process.migrate th 2;
              verdict := Some (Process.futex_wait th ~addr:word ~expected:0L))
        in
        let waker =
          Process.spawn proc (fun th ->
              Process.migrate th 3;
              Process.compute th ~ns:(us 2500);
              Cluster.crash_node cl ~node:0;
              (* Long enough for the waiter's call to give up on the dead
                 origin and park again at the promoted one. *)
              Process.compute th ~ns:(us 3000);
              Process.store th word 1L;
              ignore (Process.futex_wake th ~addr:word ~count:1))
        in
        Process.migrate main 2;
        List.iter Process.join [ waiter; waker ])
  in
  check_int "one failover" 1 (pstat proc "ha.failovers");
  check_bool "the stranded wait was cancelled" true
    (pstat proc "crash.futex_cancelled" >= 1);
  check_bool "the delegated wait was re-sent" true
    (pstat proc "ha.delegations_retried" >= 1);
  check_int "no wake redelivered from the ledger" 0
    (pstat proc "ha.wakes_redelivered");
  check_bool "the retry's verdict is returned" true (!verdict = Some true);
  check_int "no thread aborted" 0 (pstat proc "crash.threads_aborted")

(* ------------------------------------------------------------------ *)
(* Satellite: qcheck over random minority crash schedules. With k=2 every
   1- or 2-member loss of the {origin, s1, s2} set is survivable under
   `Sync: either the origin lives (no failover) or a fully-acked standby
   is promoted. Writers ride on node 3, which never crashes.             *)

let prop_minority_crash_schedules =
  let schedules =
    [| [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] |]
  in
  QCheck.Test.make
    ~name:"k=2: any minority crash schedule loses no acknowledged write"
    ~count:10
    QCheck.(
      triple (int_bound (Array.length schedules - 1)) (int_range 1200 3200)
        (int_range 15 30))
    (fun (si, at_us, rounds) ->
      let schedule = schedules.(si) in
      let proc, final, expect =
        run_failover_workload ~k:2 ~writer_nodes:[ 3; 3; 3 ] ~mode:`Sync
          ~rounds
          ~crash:(fun cl _proc main ->
            Process.compute main ~ns:(us at_us);
            List.iter (fun node -> Cluster.crash_node cl ~node) schedule)
          ()
      in
      let origin_died = List.mem 0 schedule in
      (if origin_died then check_election_winner proc
       else check_int "no failover without an origin death" 0
         (pstat proc "ha.failovers"));
      final = Int64.of_int expect
      && pstat proc "crash.threads_aborted" = 0)

(* qcheck SC: k=2 with a mid-run double crash — the origin, then the
   promoted origin again after a random slice of the re-arm window.      *)
let prop_sync_double_crash_sc =
  QCheck.Test.make
    ~name:"k=2: back-to-back origin crashes lose no writes (random window)"
    ~count:6
    QCheck.(pair (int_range 1200 3000) (int_range 0 800))
    (fun (at_us, window_us) ->
      let proc, final, expect =
        run_failover_workload ~nodes:5 ~k:2 ~writer_nodes:[ 3; 4; 4 ]
          ~mode:`Sync ~rounds:25
          ~crash:(fun cl proc main ->
            Process.compute main ~ns:(us at_us);
            Cluster.crash_node cl ~node:0;
            (* Wait for the *counted* failover, not the origin flip: the
               origin field changes inside the promotion hook before
               ha.failovers increments, so keying on the flip with a zero
               window crashes the winner mid-promotion and turns the
               second handover into a re-election (see
               test_double_crash_mid_promotion for that directed case). *)
            while pstat proc "ha.failovers" < 1 do
              Process.compute main ~ns:(us 25)
            done;
            if window_us > 0 then Process.compute main ~ns:(us window_us);
            Cluster.crash_node cl ~node:(Process.origin proc))
          ()
      in
      final = Int64.of_int expect
      && pstat proc "ha.failovers" = 2
      && pstat proc "crash.threads_aborted" = 0)

(* Regression: the input prop_sync_double_crash_sc used to shrink to
   before its readiness signal was fixed (at_us=1634, window_us=0).
   [Process.origin] flips inside the promotion hook *before* ha.failovers
   is counted, so keying the second crash on the flip with a zero window
   kills the winner mid-promotion: the cluster then holds a re-election
   instead of a second clean failover. Either way, nothing acknowledged
   may be lost and no thread may abort. *)
let test_double_crash_mid_promotion () =
  let proc, final, expect =
    run_failover_workload ~nodes:5 ~k:2 ~writer_nodes:[ 3; 4; 4 ]
      ~mode:`Sync ~rounds:25
      ~crash:(fun cl proc main ->
        Process.compute main ~ns:(us 1634);
        Cluster.crash_node cl ~node:0;
        while Process.origin proc = 0 do
          Process.compute main ~ns:(us 25)
        done;
        Cluster.crash_node cl ~node:(Process.origin proc))
      ()
  in
  Alcotest.(check int64)
    "every increment survived the mid-promotion crash" (Int64.of_int expect)
    final;
  check_int "no thread aborted" 0 (pstat proc "crash.threads_aborted");
  check_int "two handovers, as failovers or re-elections" 2
    (pstat proc "ha.failovers" + pstat proc "ha.reelections")

(* ------------------------------------------------------------------ *)
(* Re-home x failover: the counter page is re-homed before the origin
   dies. Onto the standby (node 1), promotion makes the target the page's
   static home, so the override folds back into the rebuilt shard
   directory — and the target's store, the page's freshest staging copy,
   must survive the replicated backfill. Onto a bystander (node 2 or 3),
   the page keeps serving from its overlay. Either way `Sync loses no
   write, and the invariants hold after the run. *)

let test_rehome_failover ~target () =
  let proc, final, expect =
    run_failover_workload ~rehome_to:target ~mode:`Sync ~rounds:40
      ~crash:(crash_at ~at_us:1500 0) ()
  in
  check_int "exactly one failover" 1 (pstat proc "ha.failovers");
  check_int "origin moved to the standby" 1 (Process.origin proc);
  Alcotest.(check int64)
    "every increment survived the failover" (Int64.of_int expect) final;
  let authority = Dex_proto.Coherence.authority (Process.coherence proc) in
  check_int "re-homes left: none once folded back, else the bystander's"
    (if target = 1 then 0 else 1)
    (List.length (Dex_proto.Authority.rehomed_pages authority))

(* Regression: a re-home whose {e shipping} home dies mid-shipment. The
   page was re-homed 0 -> 2; re-homing it 2 -> 3 ships the staging copy
   from node 2, which fail-stops 3 us into the call. The exhausted call
   must be pinned on the dead source, never on the live target (which,
   via [pin_page], is the static home and may be the origin): the source
   is declared, its re-homes fall back to the static home, and the move
   reports [`Busy] so the caller retries against the fallen-back route. *)
let test_rehome_source_dies () =
  let nodes = 4 in
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ())
      ~proto:{ Dex_proto.Proto_config.default with on_crash = `Rehome }
      ()
  in
  let vpn = ref (-1) in
  let verdict = ref `Noop in
  let proc =
    Dex.run cl (fun proc main ->
        let x = Process.memalign main ~align:4096 ~bytes:8 ~tag:"x" in
        Process.store main x 7L;
        let coh = Process.coherence proc in
        vpn := Dex_mem.Page.page_of_addr x;
        (match Dex_proto.Coherence.rehome_page coh ~vpn:!vpn ~node:2 with
        | `Rehomed -> ()
        | _ -> Alcotest.fail "setup re-home must succeed");
        let engine = Cluster.engine cl in
        Engine.spawn engine (fun () ->
            Engine.delay engine (us 3);
            Cluster.crash_node cl ~node:2);
        verdict := Dex_proto.Coherence.rehome_page coh ~vpn:!vpn ~node:3;
        Alcotest.(check int64) "the page kept its bytes" 7L
          (Process.load main x))
  in
  let coh = Process.coherence proc in
  let authority = Dex_proto.Coherence.authority coh in
  check_bool "a dead source is retried, not blamed on the target" true
    (!verdict = `Busy);
  check_bool "the source was declared dead" true
    (Fabric.crash_detected (Cluster.fabric cl) ~node:2);
  check_bool "the target stays live" false (Cluster.node_crashed cl ~node:3);
  check_bool "the target was not declared dead" false
    (Fabric.crash_detected (Cluster.fabric cl) ~node:3);
  check_int "the page routes to its static home"
    (Dex_proto.Authority.home_of authority !vpn)
    (Dex_proto.Authority.route authority !vpn).node;
  Dex_proto.Coherence.check_invariants coh

(* The same product at any crash instant: the fold-back races grants in
   flight at the target, which the epoch fence must not mistake for
   replies lost with the old home. *)
let prop_rehome_failover_sc =
  QCheck.Test.make ~name:"re-home x failover: no lost write at any instant"
    ~count:40
    QCheck.(pair (int_bound 2300) (int_bound 2))
    (fun (at, target) ->
      let _, final, expect =
        run_failover_workload ~rehome_to:(1 + target) ~mode:`Sync ~rounds:40
          ~crash:(crash_at ~at_us:(300 + at) 0) ()
      in
      final = Int64.of_int expect)

let () =
  Alcotest.run "dex_ha"
    [
      ( "replica",
        List.map QCheck_alcotest.to_alcotest [ prop_replay_determinism ]
        @ [
            Alcotest.test_case "pending-wake ledger" `Quick
              test_replica_wake_ledger;
            Alcotest.test_case "zombie origin batches are NACKed" `Quick
              test_zombie_epoch_nack;
            Alcotest.test_case "logged page image unchanged by later stores"
              `Quick test_logged_image_unchanged;
          ] );
      ( "failover",
        [
          Alcotest.test_case "sync: no lost writes" `Quick
            test_sync_failover_no_lost_writes;
          Alcotest.test_case "async: bounded loss, run completes" `Quick
            test_async_failover_completes;
          Alcotest.test_case "futex wait survives failover" `Quick
            test_futex_across_failover;
          Alcotest.test_case "delegated wait re-sent to the promoted origin"
            `Quick test_delegation_retried_across_failover;
          Alcotest.test_case "k=1: standby loss disables replication" `Quick
            test_standby_loss_disables;
          Alcotest.test_case "explicit replica-set selection" `Quick
            test_standby_selection;
          Alcotest.test_case "zero standbys is replication off" `Quick
            test_zero_standbys_is_off;
          Alcotest.test_case "`Async 0 runs like `Sync" `Quick
            test_async_zero_is_sync;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "k=2: simultaneous origin+standby crash" `Quick
            test_sync_double_crash_simultaneous;
          Alcotest.test_case "k=2: back-to-back crashes (re-arm race)" `Quick
            test_back_to_back_origin_crashes;
          Alcotest.test_case "k=2: crash lands mid-promotion" `Quick
            test_double_crash_mid_promotion;
          Alcotest.test_case "k=2: standby loss degrades, not stalls" `Quick
            test_standby_loss_degrades_not_stalls;
          Alcotest.test_case "k=3: quorum lost stalls, then disables" `Quick
            test_quorum_lost_stalls_then_disables;
        ] );
      ( "rehome",
        [
          Alcotest.test_case "re-homed to the standby: folds back" `Quick
            (test_rehome_failover ~target:1);
          Alcotest.test_case "re-homed to a bystander: keeps serving" `Quick
            (test_rehome_failover ~target:2);
          Alcotest.test_case "re-home source dies mid-shipment" `Quick
            test_rehome_source_dies;
          QCheck_alcotest.to_alcotest prop_rehome_failover_sc;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sync_failover_sc;
            prop_minority_crash_schedules;
            prop_sync_double_crash_sc;
          ] );
    ]
