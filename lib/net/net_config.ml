type partition = {
  p_a : int;
  p_b : int;
  p_from : Dex_sim.Time_ns.t;
  p_until : Dex_sim.Time_ns.t;
}

type crash = { crash_node : int; crash_at : Dex_sim.Time_ns.t }

type chaos = {
  chaos_seed : int;
  drop_prob : float;
  dup_prob : float;
  reorder_prob : float;
  delay_jitter_ns : Dex_sim.Time_ns.t;
  partitions : partition list;
  crashes : crash list;
  rto : Dex_sim.Time_ns.t;
  rto_cap : Dex_sim.Time_ns.t;
  max_retransmits : int;
}

let chaos_default =
  {
    chaos_seed = 0xC4405;
    drop_prob = 0.0;
    dup_prob = 0.0;
    reorder_prob = 0.0;
    delay_jitter_ns = 0;
    partitions = [];
    crashes = [];
    (* The base RTO must comfortably exceed a healthy round trip including
       handler work: origin-side revocation fan-outs legitimately take
       hundreds of microseconds, and a premature timeout turns every slow
       reply into a (harmless but noisy) retransmission. *)
    rto = Dex_sim.Time_ns.us 200;
    rto_cap = Dex_sim.Time_ns.ms 2;
    (* Generous: with the capped 2 ms RTO this rides out multi-millisecond
       partitions before declaring the peer unreachable. *)
    max_retransmits = 30;
  }

type t = {
  nodes : int;
  link_latency : Dex_sim.Time_ns.t;
  link_bandwidth_bytes_per_us : float;
  verb_overhead : Dex_sim.Time_ns.t;
  rdma_setup : Dex_sim.Time_ns.t;
  rdma_threshold : int;
  send_pool_slots : int;
  sink_slots : int;
  copy_ns_per_byte : float;
  loopback_latency : Dex_sim.Time_ns.t;
  chaos : chaos option;
}

let default ?(nodes = 8) () =
  {
    nodes;
    (* ~1.5us one-way: NIC + switch + propagation. *)
    link_latency = Dex_sim.Time_ns.ns 1_500;
    (* 56 Gbps = 7000 bytes/us. *)
    link_bandwidth_bytes_per_us = 7_000.0;
    verb_overhead = Dex_sim.Time_ns.ns 700;
    rdma_threshold = 2_048;
    (* Sink negotiation + completion-queue handling. *)
    rdma_setup = Dex_sim.Time_ns.ns 7_800;
    send_pool_slots = 128;
    sink_slots = 64;
    (* One copy from the sink to the final page, ~10 GB/s. *)
    copy_ns_per_byte = 0.1;
    loopback_latency = Dex_sim.Time_ns.ns 300;
    chaos = None;
  }

let prob_ok p = p >= 0.0 && p < 1.0

let validate_chaos nodes c =
  if not (prob_ok c.drop_prob && prob_ok c.dup_prob && prob_ok c.reorder_prob)
  then invalid_arg "Net_config: chaos probabilities must be in [0, 1)";
  if c.delay_jitter_ns < 0 then
    invalid_arg "Net_config: delay_jitter_ns must be non-negative";
  if c.rto <= 0 || c.rto_cap < c.rto then
    invalid_arg "Net_config: need 0 < rto <= rto_cap";
  if c.max_retransmits < 0 then
    invalid_arg "Net_config: max_retransmits must be non-negative";
  List.iter
    (fun p ->
      if p.p_a < 0 || p.p_a >= nodes || p.p_b < 0 || p.p_b >= nodes then
        invalid_arg "Net_config: partition endpoint out of range";
      if p.p_a = p.p_b then
        invalid_arg "Net_config: cannot partition a node from itself";
      if p.p_from < 0 || p.p_until < p.p_from then
        invalid_arg "Net_config: partition window must be well-ordered")
    c.partitions;
  List.iter
    (fun cr ->
      if cr.crash_node < 0 || cr.crash_node >= nodes then
        invalid_arg "Net_config: crash node out of range";
      if cr.crash_at < 0 then
        invalid_arg "Net_config: crash time must be >= 0")
    c.crashes

let validate t =
  if t.nodes <= 0 then invalid_arg "Net_config: nodes must be positive";
  if t.link_bandwidth_bytes_per_us <= 0.0 then
    invalid_arg "Net_config: bandwidth must be positive";
  if t.send_pool_slots <= 0 || t.sink_slots <= 0 then
    invalid_arg "Net_config: pool sizes must be positive";
  if t.rdma_threshold <= 0 then
    invalid_arg "Net_config: rdma_threshold must be positive";
  match t.chaos with None -> () | Some c -> validate_chaos t.nodes c
