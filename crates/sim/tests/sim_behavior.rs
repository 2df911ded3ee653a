//! Behavioural validation of the discrete-event IBA model: exact timing on
//! quiet networks, conservation, determinism, flow-control limits, and the
//! qualitative results the paper's evaluation rests on.

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{run, sweep, InjectionProcess, NoopProbe, RunSpec, SimConfig, TrafficPattern};
use ibfat_topology::{Network, NodeId, TreeParams};

fn net(m: u32, n: u32) -> Network {
    Network::mport_ntree(TreeParams::new(m, n).unwrap())
}

/// Analytic zero-load latency for a route with `links` links and
/// `switches` switch traversals.
fn zero_load_latency(cfg: &SimConfig, links: u64, switches: u64) -> u64 {
    links * cfg.fly_time_ns + switches * cfg.routing_time_ns + cfg.packet_time_ns()
}

#[test]
fn zero_load_latency_matches_analytic_value_exactly() {
    // Bit-complement on FT(4,3): every pair has gcp length 0, so every
    // route is maximal: 6 links, 5 switches. At near-zero load there is no
    // contention, so every packet's latency equals the analytic constant.
    let net = net(4, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(1);
    let report = run(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::bit_complement(16),
        RunSpec {
            offered_load: 0.01,
            sim_time_ns: 2_000_000,
            warmup_ns: 100_000,
        },
        NoopProbe,
    )
    .unwrap()
    .0;
    let expect = zero_load_latency(&cfg, 6, 5);
    assert_eq!(expect, 6 * 20 + 5 * 100 + 256); // 876 ns
    assert!(report.delivered > 100);
    assert_eq!(report.latency.min(), expect);
    assert_eq!(report.latency.max(), expect);
    assert_eq!(report.avg_latency_ns(), expect as f64);
}

#[test]
fn zero_load_latency_shortest_route() {
    // A permutation pairing leaf siblings: P(even) <-> P(odd). Routes are
    // 2 links through 1 switch.
    let net = net(4, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(1);
    let perm: Vec<NodeId> = (0..16).map(|i| NodeId(i ^ 1)).collect();
    let report = run(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Permutation(perm),
        RunSpec {
            offered_load: 0.01,
            sim_time_ns: 1_000_000,
            warmup_ns: 50_000,
        },
        NoopProbe,
    )
    .unwrap()
    .0;
    let expect = zero_load_latency(&cfg, 2, 1); // 2*20 + 100 + 256 = 396
    assert_eq!(report.latency.min(), expect);
    assert_eq!(report.latency.max(), expect);
}

#[test]
fn packets_are_conserved() {
    let net = net(8, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    for load in [0.1, 0.5, 0.9] {
        let report = run(
            &net,
            &routing,
            SimConfig::paper(2),
            TrafficPattern::Uniform,
            RunSpec::new(load, 300_000),
            NoopProbe,
        )
        .unwrap()
        .0;
        assert_eq!(
            report.total_generated,
            report.total_delivered + report.in_flight_at_end,
            "conservation at load {load}"
        );
        assert!(report.total_delivered > 0);
    }
}

#[test]
fn same_seed_same_result_different_seed_different_result() {
    let net = net(4, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let spec = RunSpec::new(0.4, 200_000);
    let a = run(
        &net,
        &routing,
        SimConfig::paper(2),
        TrafficPattern::Uniform,
        spec,
        NoopProbe,
    )
    .unwrap()
    .0;
    let b = run(
        &net,
        &routing,
        SimConfig::paper(2),
        TrafficPattern::Uniform,
        spec,
        NoopProbe,
    )
    .unwrap()
    .0;
    assert_eq!(a.total_generated, b.total_generated);
    assert_eq!(a.total_delivered, b.total_delivered);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.avg_latency_ns(), b.avg_latency_ns());

    let mut cfg = SimConfig::paper(2);
    cfg.seed = 12345;
    let c = run(
        &net,
        &routing,
        cfg,
        TrafficPattern::Uniform,
        spec,
        NoopProbe,
    )
    .unwrap()
    .0;
    assert_ne!(a.events_processed, c.events_processed);
}

#[test]
fn accepted_traffic_tracks_offered_at_low_load() {
    let net = net(8, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let report = run(
        &net,
        &routing,
        SimConfig::paper(4),
        TrafficPattern::Uniform,
        RunSpec::new(0.2, 500_000),
        NoopProbe,
    )
    .unwrap()
    .0;
    // Offered = 0.2 bytes/ns/node; accepted must match within a few
    // percent (window-edge effects only).
    let offered = report.offered_bytes_per_ns_per_node;
    assert!((offered - 0.2).abs() < 1e-9);
    let ratio = report.accepted_bytes_per_ns_per_node / offered;
    assert!((0.95..=1.05).contains(&ratio), "accepted/offered = {ratio}");
}

#[test]
fn accepted_traffic_never_exceeds_link_capacity() {
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let report = run(
        &net,
        &routing,
        SimConfig::paper(4),
        TrafficPattern::Uniform,
        RunSpec::new(1.0, 300_000),
        NoopProbe,
    )
    .unwrap()
    .0;
    assert!(report.accepted_bytes_per_ns_per_node <= 1.0 + 1e-9);
    assert!(report.mean_link_utilization <= 1.0 + 1e-9);
    assert!(report.max_link_utilization <= 1.0 + 1e-9);
}

#[test]
fn single_buffer_credit_loop_caps_per_hop_throughput() {
    // With one-packet buffers and one VL, a hop cannot sustain more than
    // packet/(route + packet + 2*fly) — the credit round trip. Check the
    // simulator honours this well-known bound on a 2-node chain where the
    // only contention is flow control itself.
    let params = TreeParams::new(2, 1).unwrap();
    let net = Network::mport_ntree(params);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(1);
    let report = run(
        &net,
        &routing,
        cfg,
        TrafficPattern::Uniform, // 2 nodes: each targets the other
        RunSpec::new(1.0, 2_000_000),
        NoopProbe,
    )
    .unwrap()
    .0;
    let bound = 256.0 / (100.0 + 256.0 + 40.0);
    let got = report.accepted_bytes_per_ns_per_node;
    assert!(
        (got - bound).abs() < 0.03,
        "throughput {got}, credit-loop bound {bound}"
    );
}

#[test]
fn more_virtual_lanes_raise_saturation_throughput() {
    let net = net(4, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let mut last = 0.0;
    for vls in [1, 2, 4] {
        let report = run(
            &net,
            &routing,
            SimConfig::paper(vls),
            TrafficPattern::Uniform,
            RunSpec::new(1.0, 400_000),
            NoopProbe,
        )
        .unwrap()
        .0;
        let acc = report.accepted_bytes_per_ns_per_node;
        assert!(
            acc > last * 0.98,
            "throughput should not collapse with more VLs: {vls} VLs -> {acc} (prev {last})"
        );
        if vls > 1 {
            assert!(acc > last, "{vls} VLs should beat fewer");
        }
        last = acc;
    }
}

#[test]
fn mlid_beats_slid_under_hotspot_traffic() {
    // The paper's headline: with 50%-centric traffic, MLID sustains more
    // accepted traffic than SLID (Observation 3 / Remark 1).
    let net = net(8, 2);
    let mlid = Routing::build(&net, RoutingKind::Mlid);
    let slid = Routing::build(&net, RoutingKind::Slid);
    let spec = RunSpec::new(0.6, 400_000);
    let cfg = SimConfig::paper(1);
    let rm = run(
        &net,
        &mlid,
        cfg.clone(),
        TrafficPattern::paper_centric(),
        spec,
        NoopProbe,
    )
    .unwrap()
    .0;
    let rs = run(
        &net,
        &slid,
        cfg,
        TrafficPattern::paper_centric(),
        spec,
        NoopProbe,
    )
    .unwrap()
    .0;
    assert!(
        rm.accepted_bytes_per_ns_per_node > rs.accepted_bytes_per_ns_per_node,
        "MLID {} should beat SLID {}",
        rm.accepted_bytes_per_ns_per_node,
        rs.accepted_bytes_per_ns_per_node
    );
}

#[test]
fn mlid_at_least_matches_slid_under_uniform_traffic() {
    // Observation 1: uniform traffic, small radix — MLID a little higher
    // or equal throughput.
    let net = net(4, 3);
    let mlid = Routing::build(&net, RoutingKind::Mlid);
    let slid = Routing::build(&net, RoutingKind::Slid);
    let spec = RunSpec::new(1.0, 400_000);
    let cfg = SimConfig::paper(1);
    let rm = run(
        &net,
        &mlid,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
        NoopProbe,
    )
    .unwrap()
    .0;
    let rs = run(&net, &slid, cfg, TrafficPattern::Uniform, spec, NoopProbe)
        .unwrap()
        .0;
    assert!(
        rm.accepted_bytes_per_ns_per_node >= rs.accepted_bytes_per_ns_per_node * 0.97,
        "MLID {} vs SLID {}",
        rm.accepted_bytes_per_ns_per_node,
        rs.accepted_bytes_per_ns_per_node
    );
}

#[test]
fn poisson_injection_runs_and_conserves() {
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let mut cfg = SimConfig::paper(1);
    cfg.injection = InjectionProcess::Poisson;
    let report = run(
        &net,
        &routing,
        cfg,
        TrafficPattern::Uniform,
        RunSpec::new(0.3, 300_000),
        NoopProbe,
    )
    .unwrap()
    .0;
    assert_eq!(
        report.total_generated,
        report.total_delivered + report.in_flight_at_end
    );
    // Poisson with the same mean rate: offered load figure unchanged.
    assert!((report.offered_bytes_per_ns_per_node - 0.3).abs() < 1e-9);
}

#[test]
fn latency_grows_with_load() {
    let net = net(4, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let reports = sweep(
        &net,
        &routing,
        SimConfig::paper(1),
        &TrafficPattern::Uniform,
        &[0.1, 0.4, 0.9],
        300_000,
    )
    .unwrap();
    assert!(reports[0].avg_latency_ns() <= reports[1].avg_latency_ns());
    assert!(reports[1].avg_latency_ns() < reports[2].avg_latency_ns());
}

#[test]
fn permutation_self_map_nodes_stay_silent() {
    // Identity permutation: nobody sends.
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let perm: Vec<NodeId> = (0..8).map(NodeId).collect();
    let report = run(
        &net,
        &routing,
        SimConfig::paper(1),
        TrafficPattern::Permutation(perm),
        RunSpec::new(0.5, 100_000),
        NoopProbe,
    )
    .unwrap()
    .0;
    assert_eq!(report.total_generated, 0);
    assert_eq!(report.total_delivered, 0);
}

#[test]
fn updown_routing_also_simulates_cleanly() {
    let net = net(4, 3);
    let routing = Routing::build(&net, RoutingKind::UpDown);
    let report = run(
        &net,
        &routing,
        SimConfig::paper(2),
        TrafficPattern::Uniform,
        RunSpec::new(0.3, 300_000),
        NoopProbe,
    )
    .unwrap()
    .0;
    assert_eq!(
        report.total_generated,
        report.total_delivered + report.in_flight_at_end
    );
    assert!(report.delivered > 0);
}

#[test]
fn path_selection_policies_all_deliver_and_conserve() {
    use ibfat_sim::PathSelection;
    let net = net(4, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    for policy in [
        PathSelection::Paper,
        PathSelection::RandomPerPacket,
        PathSelection::RoundRobinPerSource,
    ] {
        let mut cfg = SimConfig::paper(2);
        cfg.path_selection = policy;
        let report = run(
            &net,
            &routing,
            cfg,
            TrafficPattern::Uniform,
            RunSpec::new(0.4, 200_000),
            NoopProbe,
        )
        .unwrap()
        .0;
        assert_eq!(
            report.total_generated,
            report.total_delivered + report.in_flight_at_end,
            "{policy:?}"
        );
        assert_eq!(report.dropped, 0, "{policy:?}");
        assert!(report.delivered > 0, "{policy:?}");
    }
}

#[test]
fn vl_assignment_policies_run() {
    use ibfat_sim::VlAssignment;
    let net = net(8, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    for policy in [
        VlAssignment::Random,
        VlAssignment::DestinationHash,
        VlAssignment::SourceHash,
    ] {
        let mut cfg = SimConfig::paper(4);
        cfg.vl_assignment = policy;
        let report = run(
            &net,
            &routing,
            cfg,
            TrafficPattern::paper_centric(),
            RunSpec::new(0.5, 200_000),
            NoopProbe,
        )
        .unwrap()
        .0;
        assert!(report.delivered > 0, "{policy:?}");
        assert_eq!(
            report.total_generated,
            report.total_delivered + report.in_flight_at_end,
            "{policy:?}"
        );
    }
}

#[test]
fn destination_hash_vls_help_under_hotspot() {
    // Confining hot-spot traffic to one lane protects the other lanes'
    // uniform traffic — accepted traffic should not be worse than the
    // random assignment.
    use ibfat_sim::VlAssignment;
    let net = net(8, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let acc = |assignment| {
        let mut cfg = SimConfig::paper(4);
        cfg.vl_assignment = assignment;
        run(
            &net,
            &routing,
            cfg,
            TrafficPattern::paper_centric(),
            RunSpec::new(0.8, 300_000),
            NoopProbe,
        )
        .unwrap()
        .0
        .accepted_bytes_per_ns_per_node
    };
    let random = acc(VlAssignment::Random);
    let dest = acc(VlAssignment::DestinationHash);
    assert!(
        dest > random * 0.95,
        "dest-hash {dest} should not trail random {random}"
    );
}

#[test]
fn degraded_fabric_drops_unroutable_packets_cleanly() {
    // Cut a node's only cable, rebuild with fault repair, and let uniform
    // traffic target the unreachable node: those packets must be dropped,
    // everything else delivered, and the books must balance.
    let mut degraded = net(4, 2);
    let victim = degraded
        .links()
        .iter()
        .position(|l| {
            l.a.device == ibfat_topology::DeviceRef::Node(NodeId(7))
                || l.b.device == ibfat_topology::DeviceRef::Node(NodeId(7))
        })
        .unwrap();
    degraded.remove_link(victim);
    let routing = ibfat_routing::build_fault_tolerant(&degraded, RoutingKind::Mlid);
    let report = run(
        &degraded,
        &routing,
        SimConfig::paper(1),
        TrafficPattern::Uniform,
        RunSpec::new(0.3, 200_000),
        NoopProbe,
    )
    .unwrap()
    .0;
    assert!(
        report.dropped > 0,
        "traffic to the cut node must be dropped"
    );
    assert_eq!(
        report.total_generated,
        report.total_delivered + report.dropped + report.in_flight_at_end
    );
}

#[test]
fn simulation_respects_analytic_bounds() {
    use ibfat_sim::bounds;
    let params = TreeParams::new(8, 2).unwrap();
    let network = Network::mport_ntree(params);
    let routing = Routing::build(&network, RoutingKind::Mlid);
    for vls in [1u8, 2, 4] {
        let cfg = SimConfig::paper(vls);
        // Uniform saturation never exceeds the credit-loop bound.
        let r = run(
            &network,
            &routing,
            cfg.clone(),
            TrafficPattern::Uniform,
            RunSpec::new(1.0, 300_000),
            NoopProbe,
        )
        .unwrap()
        .0;
        let bound = bounds::uniform_saturation_bound(&cfg);
        assert!(
            r.accepted_bytes_per_ns_per_node <= bound + 0.02,
            "{vls} VLs: accepted {} > bound {bound}",
            r.accepted_bytes_per_ns_per_node
        );
        // Hot-spot accepted traffic never exceeds its bound either.
        let rh = run(
            &network,
            &routing,
            cfg.clone(),
            TrafficPattern::paper_centric(),
            RunSpec::new(0.5, 300_000),
            NoopProbe,
        )
        .unwrap()
        .0;
        let hbound = bounds::hotspot_saturation_bound(params, &cfg, 0.5, 0.5);
        assert!(
            rh.accepted_bytes_per_ns_per_node <= hbound + 0.02,
            "{vls} VLs hotspot: accepted {} > bound {hbound}",
            rh.accepted_bytes_per_ns_per_node
        );
        // Every observed latency is at least the shortest-route bound.
        assert!(r.latency.min() >= bounds::zero_load_latency_ns(params, &cfg, params.n() - 1));
    }
}

#[test]
fn flight_recorder_captures_exact_timeline() {
    use ibfat_sim::{FlightRecorder, TraceEvent, TraceSampling};
    // Quiet network: one traced packet shows the textbook pipeline.
    let net = net(4, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(1);
    let recorder = FlightRecorder::new(8, TraceSampling::FirstN, cfg.seed);
    let (_, recorder) = run(
        &net,
        &routing,
        cfg,
        TrafficPattern::bit_complement(16),
        RunSpec {
            offered_load: 0.01,
            sim_time_ns: 500_000,
            warmup_ns: 10_000,
        },
        recorder,
    )
    .unwrap();
    let traces = recorder.traces();
    assert_eq!(traces.len(), 8);
    for t in traces {
        assert!(t.completed(), "quiet network completes every packet");
        assert_eq!(t.latency_ns(), Some(876), "{}", t.render());
        // Generated, injected, then 5 switches x (arrive, route, grant,
        // transmit), then delivered.
        assert_eq!(t.events.len(), 2 + 5 * 4 + 1);
        assert!(matches!(t.events[0].1, TraceEvent::Generated));
        assert!(matches!(
            t.events.last().expect("nonempty").1,
            TraceEvent::Delivered
        ));
        // Timestamps never regress.
        for pair in t.events.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }
}

#[test]
fn paper_selection_is_order_preserving_random_is_not() {
    use ibfat_sim::PathSelection;
    let net = net(8, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let run = |policy| {
        let mut cfg = SimConfig::paper(2);
        cfg.path_selection = policy;
        run(
            &net,
            &routing,
            cfg,
            TrafficPattern::Uniform,
            RunSpec::new(0.7, 300_000),
            NoopProbe,
        )
        .unwrap()
        .0
    };
    // The paper's one-path-per-pair mapping delivers every flow in order.
    let paper = run(PathSelection::Paper);
    assert_eq!(paper.out_of_order, 0, "rank selection must not reorder");
    // Per-packet random multipathing reorders under load — the hidden
    // cost of naive multipath in InfiniBand.
    let random = run(PathSelection::RandomPerPacket);
    assert!(
        random.out_of_order > 0,
        "random per-packet selection should reorder at 0.7 load"
    );
}

#[test]
fn adaptive_up_routing_delivers_and_relieves_credit_stalls() {
    // Adaptive upward routing (an extension beyond IBA's deterministic
    // tables) must conserve packets, stay deadlock-free in practice, and
    // at VL1 under uniform saturation it should not do worse than the
    // deterministic tables — spreading climbs over idle up-ports works
    // around single-buffer credit stalls.
    let net = net(8, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let run = |adaptive| {
        let mut cfg = SimConfig::paper(1);
        cfg.adaptive_up = adaptive;
        run(
            &net,
            &routing,
            cfg,
            TrafficPattern::Uniform,
            RunSpec::new(1.0, 300_000),
            NoopProbe,
        )
        .unwrap()
        .0
    };
    let det = run(false);
    let ada = run(true);
    assert_eq!(
        ada.total_generated,
        ada.total_delivered + ada.in_flight_at_end
    );
    assert!(
        ada.accepted_bytes_per_ns_per_node >= det.accepted_bytes_per_ns_per_node * 0.98,
        "adaptive {} vs deterministic {}",
        ada.accepted_bytes_per_ns_per_node,
        det.accepted_bytes_per_ns_per_node
    );
}

#[test]
fn adaptive_up_requires_intact_fabric() {
    let mut degraded = net(4, 2);
    let idx = degraded.inter_switch_link_indices()[0];
    degraded.remove_link(idx);
    let routing = ibfat_routing::build_fault_tolerant(&degraded, RoutingKind::Mlid);
    let mut cfg = SimConfig::paper(1);
    cfg.adaptive_up = true;
    let result = std::panic::catch_unwind(|| {
        run(
            &degraded,
            &routing,
            cfg,
            TrafficPattern::Uniform,
            RunSpec::new(0.1, 10_000),
            NoopProbe,
        )
        .unwrap()
        .0
    });
    assert!(result.is_err(), "degraded fabric must reject adaptive mode");
}
