//! Fabric-counter validation: conservation laws, agreement with the
//! report's own accounting, and non-perturbation (a probed or recorded
//! run must be bit-identical to an unprobed, unrecorded one).

use ibfat_routing::{build_fault_tolerant, Routing, RoutingKind};
use ibfat_sim::{
    generators, run, run_workload, FabricCounters, FlightRecorder, NoopProbe, PhaseProfile,
    RunSpec, SimConfig, SimReport, TraceEvent, TraceSampling, TrafficPattern, BYTE_TIME_NS,
};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum, SwitchId, TreeParams};
use proptest::prelude::*;

fn net(m: u32, n: u32) -> Network {
    Network::mport_ntree(TreeParams::new(m, n).unwrap())
}

#[test]
fn counters_obey_conservation_on_a_fault_free_fabric() {
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(2);
    let bytes = u64::from(cfg.packet_bytes);
    for load in [0.1, 0.6] {
        let (report, c) = run(
            &net,
            &routing,
            cfg.clone(),
            TrafficPattern::Uniform,
            RunSpec::new(load, 300_000),
            FabricCounters::new(&net, cfg.num_vls),
        )
        .unwrap();
        let nodes = c.node_totals();
        let sw = c.switch_totals();

        // Fault-free fabric: nothing is ever discarded, and the report's
        // own ledger closes.
        assert_eq!(c.total_drops(), 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(
            report.total_generated,
            report.total_delivered + report.in_flight_at_end
        );

        // Every delivery raised node_rcv exactly once.
        assert_eq!(nodes.rcv_pkts, report.total_delivered);
        assert_eq!(nodes.rcv_bytes, report.total_delivered * bytes);
        // Every transmission was of a generated packet; everything
        // delivered was first transmitted.
        assert!(nodes.xmit_pkts <= report.total_generated);
        assert!(nodes.xmit_pkts >= report.total_delivered);

        // Switch flow conservation: packets received but not (yet)
        // transmitted are exactly the ones resident in switch buffers at
        // the end — a subset of the in-flight population.
        assert!(sw.rcv_pkts >= sw.xmit_pkts);
        assert!(sw.rcv_pkts - sw.xmit_pkts <= report.in_flight_at_end);
        // Every path in a fat tree crosses at least one switch.
        assert!(sw.xmit_pkts >= report.total_delivered);
        assert_eq!(sw.rcv_bytes, sw.rcv_pkts * bytes);
        assert_eq!(sw.xmit_bytes, sw.xmit_pkts * bytes);
    }
}

#[test]
fn port_xmit_bytes_agree_with_link_utilization() {
    // `busy_ns` (the report's link accounting) and `xmit_bytes` (the
    // counters) measure the same transmissions two ways. They may differ
    // only by the tail clamp: a transmission cut off by the end of the
    // run is clamped in busy_ns but counted whole in xmit_bytes, so each
    // directed link's counted time is its busy time plus less than one
    // packet. The report averages over cabled directions only, so a cut
    // cable (link 8, a node's) takes its two directions out of the mean.
    let intact = net(4, 2);
    let mut degraded = intact.clone();
    degraded.remove_link(8);
    for (net, cabled) in [(intact, 6 * 4 + 8), (degraded, 6 * 4 + 8 - 2)] {
        let routing = build_fault_tolerant(&net, RoutingKind::Slid);
        let cfg = SimConfig::paper(1);
        let pkt_ns = cfg.packet_time_ns();
        let sim_time = 200_000u64;
        let (report, c) = run(
            &net,
            &routing,
            cfg.clone(),
            TrafficPattern::Uniform,
            RunSpec::new(0.5, sim_time),
            FabricCounters::new(&net, cfg.num_vls),
        )
        .unwrap();
        // Every cabled directed link: the switch ports with a peer, and
        // the injection side of every node with a cable.
        let sent_ns: Vec<u64> = (0..c.num_switches() as u32)
            .flat_map(|sw| (0..c.ports_per_switch() as u8).map(move |port| (sw, port)))
            .filter(|&(sw, port)| {
                net.peer_of(DeviceRef::Switch(SwitchId(sw)), PortNum(port + 1))
                    .is_some()
            })
            .map(|(sw, port)| c.port(sw, port).xmit_bytes)
            .chain(
                (0..net.num_nodes() as u32)
                    .filter(|&n| {
                        net.peer_of(DeviceRef::Node(NodeId(n)), PortNum(1))
                            .is_some()
                    })
                    .map(|n| c.node(n).xmit_bytes),
            )
            .map(|bytes| bytes * BYTE_TIME_NS)
            .collect();
        let links = sent_ns.len() as u64;
        assert_eq!(links, cabled);
        let busy_total = (report.mean_link_utilization * (links * sim_time) as f64).round() as u64;
        let sent_total: u64 = sent_ns.iter().sum();
        assert!(
            sent_total >= busy_total && sent_total - busy_total < links * pkt_ns,
            "busy {busy_total} vs sent {sent_total} over {links} links"
        );
        let max_sent = *sent_ns.iter().max().unwrap();
        let max_busy = (report.max_link_utilization * sim_time as f64).round() as u64;
        assert!(
            max_sent >= max_busy && max_sent - max_busy < pkt_ns,
            "busiest link: busy {max_busy} vs sent {max_sent}"
        );
        assert!(max_busy > 0);
    }
}

#[test]
fn a_fabric_without_cables_reports_zero_utilization() {
    // With every cable cut there is no link to average over.
    let mut net = net(2, 1);
    net.remove_link(1);
    net.remove_link(0);
    let routing = build_fault_tolerant(&net, RoutingKind::Mlid);
    let (report, _) = run(
        &net,
        &routing,
        SimConfig::paper(1),
        TrafficPattern::Uniform,
        RunSpec::new(0.3, 5_000),
        NoopProbe,
    )
    .unwrap();
    assert_eq!(report.mean_link_utilization, 0.0);
    assert_eq!(report.max_link_utilization, 0.0);
}

#[test]
fn probed_run_is_bit_identical_to_unprobed() {
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(4);
    let spec = RunSpec::new(0.7, 150_000);
    let plain = run(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
        NoopProbe,
    )
    .unwrap()
    .0;
    let (counted, _) = run(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
        FabricCounters::new(&net, cfg.num_vls).with_sampling(5_000, 4),
    )
    .unwrap();
    let (noop, _) = run(
        &net,
        &routing,
        cfg,
        TrafficPattern::Uniform,
        spec,
        NoopProbe,
    )
    .unwrap();
    let mut a = plain;
    let mut b = counted;
    let mut c = noop;
    // The only non-deterministic fields are wall-clock throughput.
    a.events_per_sec = 0.0;
    b.events_per_sec = 0.0;
    c.events_per_sec = 0.0;
    a.packets_per_sec = 0.0;
    b.packets_per_sec = 0.0;
    c.packets_per_sec = 0.0;
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn phase_profile_accounts_for_every_event() {
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(2);
    let (report, prof) = run(
        &net,
        &routing,
        cfg,
        TrafficPattern::Uniform,
        RunSpec::new(0.4, 100_000),
        PhaseProfile::new(),
    )
    .unwrap();
    assert_eq!(prof.total_events(), report.events_processed);
    // A steady simulation exercises all four phases.
    for (phase, _, events) in prof.rows() {
        assert!(events > 0, "no {} events", phase.name());
    }
}

#[test]
fn hot_spot_congestion_is_visible_in_xmit_wait() {
    // Half of all traffic aims at node 0; the leaf link to node 0 is the
    // bottleneck, so xmit-wait must concentrate on its switch port and
    // time-series samples must show it among the hottest ports.
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(1);
    let (report, c) = run(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::paper_centric(),
        RunSpec::new(0.8, 400_000),
        FabricCounters::new(&net, cfg.num_vls).with_sampling(20_000, 4),
    )
    .unwrap();
    assert!(report.delivered > 0);
    // Find the leaf port that feeds node 0 from the topology itself.
    use ibfat_topology::{DeviceRef, NodeId, PortNum};
    let peer = net
        .peer_of(DeviceRef::Node(NodeId(0)), PortNum(1))
        .expect("node 0 is cabled");
    let hot = match peer.device {
        DeviceRef::Switch(s) => (s.0, peer.port.0),
        DeviceRef::Node(_) => unreachable!("endports attach to switches"),
    };
    // That port carries half of all traffic: it transmits more than any
    // other port fabric-wide…
    let hottest = c.hottest_ports(1)[0];
    assert_eq!((hottest.sw, hottest.port), hot);
    // …and it ranks among the top xmit-wait ports. (The very top spots
    // may go to ports *upstream* of the bottleneck: backpressure keeps
    // their output buffers occupied while more inputs pile up behind
    // them — congestion-tree spreading, exactly what the counter is for.)
    let congested = c.most_congested_ports(4);
    assert!(!congested.is_empty(), "hot spot produced no xmit wait");
    assert!(
        congested.iter().any(|p| (p.sw, p.port) == hot),
        "hot leaf port {hot:?} not among top waits {congested:?}"
    );
    assert!(!c.samples().is_empty());
    let last = c.samples().back().unwrap();
    assert!(last.t_ns <= report.sim_time_ns);
}

fn normalized(mut r: SimReport) -> SimReport {
    // The only host-dependent fields; everything else must match exactly.
    r.events_per_sec = 0.0;
    r.packets_per_sec = 0.0;
    r
}

#[test]
fn recorded_workload_runs_equal_unrecorded() {
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let nodes = net.num_nodes() as u32;
    for wl in [
        generators::all_to_all(nodes, 1024),
        generators::allreduce_ring(nodes, 2048),
    ] {
        let cfg = SimConfig::paper(2);
        let (plain, NoopProbe) = run_workload(&net, &routing, cfg.clone(), &wl, NoopProbe).unwrap();
        let recorder = FlightRecorder::new(64, TraceSampling::FirstN, cfg.seed);
        let (recorded, recorder) = run_workload(&net, &routing, cfg, &wl, recorder).unwrap();
        assert_eq!(recorded, plain);
        // A drained workload run leaves no packet behind: every span
        // runs from `Generated` to `Delivered`.
        assert_eq!(recorder.traces().len(), 64);
        for t in recorder.traces() {
            assert_eq!(t.events[0].1, TraceEvent::Generated, "{}", t.render());
            let last = t.events.last().unwrap().1;
            assert_eq!(last, TraceEvent::Delivered, "{}", t.render());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flight recorder only ever writes its own buffer: a recorded
    /// run's report is the unrecorded report under every sampling
    /// policy, and recording next to the counters changes neither
    /// probe's findings.
    #[test]
    fn recorded_runs_equal_unrecorded(
        (m, n) in prop_oneof![Just((4u32, 2u32)), Just((4, 3)), Just((8, 2))],
        scheme in prop_oneof![Just(RoutingKind::Mlid), Just(RoutingKind::Slid)],
        seed in any::<u64>(),
        sampling in prop_oneof![
            Just(TraceSampling::FirstN),
            Just(TraceSampling::OneInN(3)),
            Just(TraceSampling::Pairs(vec![(0, 1), (2, 3), (1, 0)])),
        ],
    ) {
        let net = net(m, n);
        let routing = Routing::build(&net, scheme);
        let cfg = SimConfig {
            num_vls: 2,
            seed,
            ..SimConfig::default()
        };
        let pattern = TrafficPattern::Uniform;
        let spec = RunSpec::new(0.5, 25_000);
        let recorder = || FlightRecorder::new(16, sampling.clone(), seed);
        let counters = || FabricCounters::new(&net, 2).with_sampling(5_000, 4);

        let plain = run(&net, &routing, cfg.clone(), pattern.clone(), spec, NoopProbe).unwrap().0;
        let plain = normalized(plain);
        let (recorded, alone) =
            run(&net, &routing, cfg.clone(), pattern.clone(), spec, recorder()).unwrap();
        prop_assert_eq!(&normalized(recorded), &plain);
        let (_, counted) =
            run(&net, &routing, cfg.clone(), pattern.clone(), spec, counters()).unwrap();
        let (both, (pair_counts, pair_traces)) =
            run(&net, &routing, cfg, pattern, spec, (counters(), recorder())).unwrap();
        prop_assert_eq!(&normalized(both), &plain);
        prop_assert_eq!(pair_counts.to_json(), counted.to_json());
        prop_assert_eq!(pair_traces.traces(), alone.traces());
    }
}
