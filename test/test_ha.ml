(* Tests for origin replication: crash-subscriber ordering, replication
   log replay determinism, quorum-fence behaviour over a replica set, and
   standby failover under live workloads — including simultaneous and
   back-to-back crashes. *)

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

let ha_proto ?(k = 1) ?standbys mode =
  {
    Dex_proto.Proto_config.default with
    replication = mode;
    standby_count = k;
    standbys;
    on_crash = `Rehome;
  }

let pstat proc name = Stats.get (Process.stats proc) name
let cstat proc name = Stats.get (Dex_proto.Coherence.stats (Process.coherence proc)) name

(* ------------------------------------------------------------------ *)
(* Satellite: crash subscribers run in ascending priority order, with
   registration order breaking ties. HA promotion (10) must sit between
   directory reclaim (0) and process thread recovery (20) — a regression
   here would let threads be re-homed against a dead directory.          *)

let test_on_crash_priority () =
  let e = Engine.create () in
  let fabric = Fabric.create e (crash_net ~nodes:3 ()) in
  let order = ref [] in
  let sub ?priority tag =
    let (_ : unit -> unit) =
      Fabric.on_crash ?priority fabric (fun _ -> order := tag :: !order)
    in
    ()
  in
  sub ~priority:20 "recovery";
  sub ~priority:0 "reclaim-a";
  sub ~priority:10 "promote";
  sub "default-a";
  (* no priority = 0, after reclaim-a *)
  sub ~priority:0 "reclaim-b";
  Fabric.crash fabric ~node:2;
  Fabric.declare_dead fabric ~node:2;
  Alcotest.(check (list string))
    "ascending priority, registration order within a tier"
    [ "reclaim-a"; "default-a"; "reclaim-b"; "promote"; "recovery" ]
    (List.rev !order);
  (* Exactly once per node. *)
  Fabric.declare_dead fabric ~node:2;
  check_int "declaration is idempotent" 5 (List.length !order)

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
          (match kind with
          | 0 -> Directory.set_exclusive dir vpn (arg mod 4)
          | 1 ->
              Directory.set_shared dir vpn
                (Node_set.of_list [ arg mod 4; (arg / 4) mod 4 ])
          | _ -> Directory.forget dir vpn);
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
            size = 64;
            kind = Ha_messages.kind_repl;
            payload =
              Ha_messages.Repl_append { pid = 7; epoch; first_seq; entries };
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
          size = 64;
          kind = Ha_messages.kind_repl;
          payload =
            Ha_messages.Repl_append
              { pid = 7; epoch = 3; first_seq = 0; entries = [ entry 9 ] };
        };
      respond = (fun ?size:_ _ -> ());
    }
  in
  check_bool "non-member batch handled" true (Ha.router ha env_out);
  check_int "non-member batch nacked" 2 (Stats.get stats "ha.zombie_nacks")

(* ------------------------------------------------------------------ *)
(* Failover workload: writers hammer a shared counter from fixed nodes
   while [crash] injects failures mid-run. With `Sync replication the run
   must finish with zero lost updates and zero aborted threads.          *)

let run_failover_workload ?(nodes = 4) ?k ?standbys
    ?(writer_nodes = [ 1; 2; 3 ]) ~mode ~rounds ~crash () =
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
  match Process.ha proc with
  | None -> Alcotest.fail "replication should be armed"
  | Some ha -> (
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
            (Process.origin proc))

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
    (match Process.ha proc with
    | Some ha -> Ha.active ha && Ha.standbys ha = [ 2 ]
    | None -> false)

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
    (match Process.ha proc with
    | Some ha -> Ha.active ha && Ha.standbys ha = [ 2 ]
    | None -> false)

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
    (match Process.ha proc with
    | Some ha -> (not (Ha.armed ha)) && Ha.standbys ha = []
    | None -> false)

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
  check_bool "disarmed" true
    (match Process.ha proc with Some ha -> not (Ha.armed ha) | None -> false)

(* Explicit replica-set selection is honoured, in the given order. *)
let test_standby_selection () =
  let nodes = 4 in
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ())
      ~proto:(ha_proto ~standbys:[ 3; 1 ] `Sync)
      ()
  in
  let proc = Dex.run cl (fun _proc _main -> ()) in
  match Process.ha proc with
  | Some ha ->
      Alcotest.(check (list int)) "configured replica set" [ 3; 1 ]
        (Ha.standbys ha)
  | None -> Alcotest.fail "replication should be armed"

(* Zero standbys is replication off, whatever the mode says; a negative
   count and an empty explicit list are refused. *)
let test_zero_standbys_is_off () =
  let nodes = 3 in
  let cluster proto = Dex.cluster ~nodes ~net:(crash_net ~nodes ()) ~proto () in
  let proc = Dex.run (cluster (ha_proto ~k:0 (`Async 4))) (fun _ _ -> ()) in
  check_bool "nothing armed" true (Process.ha proc = None);
  check_int "no log entries" 0 (pstat proc "ha.entries");
  Alcotest.check_raises "negative count refused"
    (Invalid_argument "Process.create: bad standby count") (fun () ->
      ignore (Process.create (cluster (ha_proto ~k:(-1) `Sync)) ()));
  Alcotest.check_raises "empty list refused"
    (Invalid_argument "Process.create: empty standby list") (fun () ->
      ignore (Process.create (cluster (ha_proto ~standbys:[] `Sync)) ()))

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
(* Sharded homes: crash the node homing shard 1 — not the process
   origin — mid-run. Only that shard fails over (shard 0 keeps serving at
   node 0) and `Sync replication loses none of the writes the dead home
   acknowledged.                                                        *)

let test_shard_home_crash_no_lost_writes () =
  let nodes = 5 in
  let rounds = 25 in
  let npages = 4 in
  let writer_nodes = [ 3; 4; 4 ] in
  let cl =
    Dex.cluster ~nodes ~net:(crash_net ~nodes ())
      ~proto:
        { (ha_proto ~k:2 ~standbys:[ 2; 3 ] `Sync) with sharding = `Hash 2 }
      ()
  in
  let finals = Array.make npages (-1L) in
  let addr base p = base + (p * 4096) in
  let proc =
    Dex.run cl (fun proc main ->
        let base =
          Process.memalign main ~align:4096 ~bytes:(npages * 4096) ~tag:"ctrs"
        in
        (* Seed every counter from the origin node so pages of both shards
           start home-staged — the crash must not lose those images.     *)
        for p = 0 to npages - 1 do
          Process.store main (addr base p) 0L
        done;
        let threads =
          List.map
            (fun node ->
              Process.spawn proc (fun th ->
                  Process.migrate th node;
                  for r = 1 to rounds do
                    (* Round-robin over pages: with `Hash 2 the even pages
                       stay on the origin's shard, the odd ones on the
                       shard homed at node 1 — the one about to die.     *)
                    ignore (Process.fetch_add th (addr base (r mod npages)) 1L);
                    Process.compute th ~ns:(us 30)
                  done))
            writer_nodes
        in
        Process.migrate main (nodes - 1);
        Process.compute main ~ns:(us 1500);
        Cluster.crash_node cl ~node:1;
        List.iter Process.join threads;
        for p = 0 to npages - 1 do
          finals.(p) <- Process.load main (addr base p)
        done)
  in
  Dex_proto.Coherence.check_invariants (Process.coherence proc);
  let writers = List.length writer_nodes in
  for p = 0 to npages - 1 do
    let per_writer = ref 0 in
    for r = 1 to rounds do
      if r mod npages = p then incr per_writer
    done;
    Alcotest.(check int64)
      (Printf.sprintf "page %d kept every increment" p)
      (Int64.of_int (writers * !per_writer))
      finals.(p)
  done;
  check_int "the process origin never moved" 0 (Process.origin proc);
  check_int "exactly the dead home's shard was promoted" 1
    (cstat proc "ha.promotions");
  check_int "one failover" 1 (pstat proc "ha.failovers");
  check_int "no thread aborted" 0 (pstat proc "crash.threads_aborted")

let () =
  Alcotest.run "dex_ha"
    [
      ( "ordering",
        [
          Alcotest.test_case "on_crash priority order" `Quick
            test_on_crash_priority;
        ] );
      ( "replica",
        List.map QCheck_alcotest.to_alcotest [ prop_replay_determinism ]
        @ [
            Alcotest.test_case "pending-wake ledger" `Quick
              test_replica_wake_ledger;
            Alcotest.test_case "zombie origin batches are NACKed" `Quick
              test_zombie_epoch_nack;
          ] );
      ( "failover",
        [
          Alcotest.test_case "sync: no lost writes" `Quick
            test_sync_failover_no_lost_writes;
          Alcotest.test_case "async: bounded loss, run completes" `Quick
            test_async_failover_completes;
          Alcotest.test_case "futex wait survives failover" `Quick
            test_futex_across_failover;
          Alcotest.test_case "k=1: standby loss disables replication" `Quick
            test_standby_loss_disables;
          Alcotest.test_case "explicit replica-set selection" `Quick
            test_standby_selection;
          Alcotest.test_case "zero standbys is replication off" `Quick
            test_zero_standbys_is_off;
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
          Alcotest.test_case "sharded: home-node crash loses no writes"
            `Quick test_shard_home_crash_no_lost_writes;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sync_failover_sc;
            prop_minority_crash_schedules;
            prop_sync_double_crash_sc;
          ] );
    ]
