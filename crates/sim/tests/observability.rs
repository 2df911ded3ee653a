//! Fabric-counter validation: conservation laws, agreement with the
//! report's own accounting, and non-perturbation (a probed or recorded
//! run must be bit-identical to an unprobed, unrecorded one).

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{
    run_observed, run_once, FabricCounters, NoopProbe, PhaseProfile, RunSpec, SimConfig, SimReport,
    TraceSampling, TrafficPattern,
};
use ibfat_topology::{Network, TreeParams};
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
        let (report, c) = run_observed(
            &net,
            &routing,
            cfg.clone(),
            TrafficPattern::Uniform,
            RunSpec::new(load, 300_000),
            FabricCounters::new(&net, cfg.num_vls),
        );
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
    // `busy_ns` (PR 1's link accounting) and `xmit_bytes` (this PR's
    // counters) measure the same transmissions two ways. They may differ
    // only by the tail clamp: a transmission cut off by the end of the
    // run is clamped in busy_ns but counted whole in xmit_bytes.
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Slid);
    let cfg = SimConfig {
        collect_link_stats: true,
        ..SimConfig::paper(1)
    };
    let pkt_ns = cfg.packet_time_ns();
    let sim_time = 200_000u64;
    let (report, c) = run_observed(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        RunSpec::new(0.5, sim_time),
        FabricCounters::new(&net, cfg.num_vls),
    );
    let links = report.link_utilization.as_ref().expect("stats enabled");
    let mut checked = 0;
    for link in links {
        let Some(sw) = link.from.strip_prefix('S') else {
            continue; // node links are covered by node counters
        };
        let sw: u32 = sw.parse().unwrap();
        let busy_ns = (link.utilization * sim_time as f64).round() as u64;
        let sent_ns = c.port(sw, link.port - 1).xmit_bytes * cfg.byte_time_ns;
        assert!(
            sent_ns >= busy_ns && sent_ns - busy_ns < pkt_ns,
            "S{sw} port {}: busy {busy_ns} vs sent {sent_ns}",
            link.port
        );
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn probed_run_is_bit_identical_to_unprobed() {
    let net = net(4, 2);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig::paper(4);
    let spec = RunSpec::new(0.7, 150_000);
    let plain = run_once(&net, &routing, cfg.clone(), TrafficPattern::Uniform, spec);
    let (counted, _) = run_observed(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
        FabricCounters::new(&net, cfg.num_vls).with_sampling(5_000, 4),
    );
    let (noop, _) = run_observed(
        &net,
        &routing,
        cfg,
        TrafficPattern::Uniform,
        spec,
        NoopProbe,
    );
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
    let (report, prof) = run_observed(
        &net,
        &routing,
        cfg,
        TrafficPattern::Uniform,
        RunSpec::new(0.4, 100_000),
        PhaseProfile::new(),
    );
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
    let (report, c) = run_observed(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::paper_centric(),
        RunSpec::new(0.8, 400_000),
        FabricCounters::new(&net, cfg.num_vls).with_sampling(20_000, 4),
    );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flight recorder only ever writes its own buffer: stripped of
    /// the traces, a recorded run's report is the unrecorded report,
    /// under every sampling policy.
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
        let base = SimConfig {
            num_vls: 2,
            seed,
            ..SimConfig::default()
        };
        let pattern = TrafficPattern::Uniform;
        let spec = RunSpec::new(0.5, 25_000);

        let plain = normalized(run_once(
            &net, &routing, base.clone(), pattern.clone(), spec,
        ));
        prop_assert!(plain.traces.is_none());

        let recorded_cfg = SimConfig {
            trace_first_packets: 16,
            trace_sampling: sampling,
            ..base
        };
        let mut recorded = normalized(run_once(
            &net, &routing, recorded_cfg, pattern, spec,
        ));
        prop_assert!(recorded.traces.is_some(), "recording was on");
        recorded.traces = None;
        prop_assert_eq!(&recorded, &plain);
    }
}
