//! Serialization and degraded-fabric behaviour through the public API.

use ib_fabric::prelude::*;
use ib_fabric::{FlightRecorder, PacketTrace, TraceSampling};

#[test]
fn routing_survives_a_json_round_trip() {
    // A subnet manager might persist its computed state; the routing must
    // round-trip losslessly.
    for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
        let fabric = Fabric::builder(4, 3).routing(kind).build().unwrap();
        let json = fabric.routing().to_json();
        let back = Routing::from_json(&json).unwrap();
        assert_eq!(back.lfts(), fabric.routing().lfts());
        assert_eq!(back.lid_space(), fabric.routing().lid_space());
        assert_eq!(back.kind(), kind);
        // The revived routing still routes.
        let route = back
            .trace(
                fabric.network(),
                NodeId(0),
                back.select_dlid(NodeId(0), NodeId(7)),
            )
            .unwrap();
        assert_eq!(route.dst, NodeId(7));
    }
}

#[test]
fn network_survives_a_json_round_trip() {
    let net = Network::mport_ntree(TreeParams::new(8, 2).unwrap());
    let json = net.to_json();
    let back = Network::from_json(&json).unwrap();
    back.validate().unwrap();
    assert_eq!(back.num_nodes(), net.num_nodes());
    assert_eq!(back.links().len(), net.links().len());
    assert_eq!(back.params(), net.params());
}

#[test]
fn sim_report_serializes_with_all_extensions_enabled() {
    let fabric = Fabric::builder(4, 2).build().unwrap();
    let cfg = SimConfig::default();
    let recorder = FlightRecorder::new(4, TraceSampling::FirstN, cfg.seed);
    let (report, recorder) = ib_fabric::sim::run(
        fabric.network(),
        fabric.routing(),
        cfg,
        TrafficPattern::Uniform,
        ib_fabric::RunSpec::new(0.3, 50_000),
        recorder,
    )
    .unwrap();
    let back = SimReport::from_json(&report.to_json()).unwrap();
    assert_eq!(back.delivered, report.delivered);
    // The recorder's spans read back through their JSONL form.
    let jsonl = ib_fabric::traces_to_jsonl(recorder.traces());
    assert_eq!(jsonl.lines().count(), 4);
    for (line, trace) in jsonl.lines().zip(recorder.traces()) {
        let doc = ib_fabric::json::parse(line).unwrap();
        assert_eq!(&PacketTrace::decode(&doc).unwrap(), trace);
    }
}

#[test]
fn with_failed_links_deduplicates_and_handles_unsorted_input() {
    let fabric = Fabric::builder(4, 2).build().unwrap();
    let inter = fabric.network().inter_switch_link_indices();
    let (a, b) = (inter[0], inter[3]);
    // Duplicates and reverse order must both work.
    let degraded = fabric.with_failed_links(&[b, a, b, a]);
    assert_eq!(
        degraded.network().links().len(),
        fabric.network().links().len() - 2
    );
    degraded.network().is_connected();
}

#[test]
fn config_round_trips_including_policies() {
    let mut cfg = SimConfig::paper(4);
    cfg.path_selection = PathSelection::RoundRobinPerSource;
    cfg.vl_assignment = VlAssignment::DestinationHash;
    cfg.vl_arbitration = VlArbitration::Weighted(vec![(0, 3), (1, 1), (2, 1), (3, 1)]);
    cfg.adaptive_up = true;
    let json = cfg.to_json();
    let back = SimConfig::from_json(&json).unwrap();
    assert_eq!(back, cfg);
}

/// Network and Routing equality after a round trip is checked next to
/// their codecs (`ibfat-topology`, `ibfat-routing`); these are the
/// simulator's persisted types.
#[test]
fn configs_and_reports_read_back_equal() {
    // SimConfig: every policy variant, exact seeds, a non-empty fault plan.
    let plan = ib_fabric::FaultPlan {
        events: vec![
            ib_fabric::FaultEvent {
                at_ns: 1_000,
                action: ib_fabric::FaultAction::KillLink(7),
            },
            ib_fabric::FaultEvent {
                at_ns: 2_000,
                action: ib_fabric::FaultAction::KillSwitch(3),
            },
            ib_fabric::FaultEvent {
                at_ns: 3_000,
                action: ib_fabric::FaultAction::ReviveLink(7),
            },
            ib_fabric::FaultEvent {
                at_ns: 4_000,
                action: ib_fabric::FaultAction::ReviveSwitch(3),
            },
        ],
        policy: ib_fabric::FaultPolicy::Stall,
        detect_ns: 123,
        per_switch_ns: u64::MAX,
    };
    let arbitrations = [
        VlArbitration::RoundRobin,
        VlArbitration::Weighted(vec![(0, 3), (1, 0), (2, 255)]),
    ];
    let mut configs = Vec::new();
    for (i, path_selection) in [
        PathSelection::Paper,
        PathSelection::RandomPerPacket,
        PathSelection::RoundRobinPerSource,
    ]
    .into_iter()
    .enumerate()
    {
        for vl_assignment in [
            VlAssignment::Random,
            VlAssignment::DestinationHash,
            VlAssignment::SourceHash,
        ] {
            for injection in [InjectionProcess::Deterministic, InjectionProcess::Poisson] {
                for k in 0..4 {
                    configs.push(SimConfig {
                        path_selection,
                        vl_assignment,
                        injection,
                        vl_arbitration: arbitrations[k % 2].clone(),
                        seed: [u64::MAX, (1 << 53) + 1, 0][i],
                        adaptive_up: k == 1,
                        faults: if k == 3 {
                            plan.clone()
                        } else {
                            ib_fabric::FaultPlan::default()
                        },
                        ..SimConfig::paper(4)
                    });
                }
            }
        }
    }
    for cfg in configs {
        assert_eq!(SimConfig::from_json(&cfg.to_json()).unwrap(), cfg);
    }

    // SimReport: a recorded run (its spans through their own codec) and
    // a faulted run's counters.
    let fabric = Fabric::builder(4, 3).build().unwrap();
    let cfg = SimConfig::default();
    let recorder = FlightRecorder::new(8, TraceSampling::OneInN(2), cfg.seed);
    let (traced, recorder) = ib_fabric::sim::run(
        fabric.network(),
        fabric.routing(),
        cfg,
        TrafficPattern::Uniform,
        ib_fabric::RunSpec::new(0.3, 20_000),
        recorder,
    )
    .unwrap();
    assert!(!recorder.traces().is_empty());
    for (slot, trace) in recorder.traces().iter().enumerate() {
        let doc = ib_fabric::json::parse(&trace.to_json_line(slot)).unwrap();
        assert_eq!(&PacketTrace::decode(&doc).unwrap(), trace);
    }
    let faulted = ib_fabric::sim::run(
        fabric.network(),
        fabric.routing(),
        SimConfig {
            faults: ib_fabric::FaultPlan::kill_links_at(
                &ib_fabric::FaultPlan::pick_links(fabric.network(), 2, 1),
                5_000,
            ),
            ..SimConfig::paper(2)
        },
        TrafficPattern::Uniform,
        ib_fabric::RunSpec::new(0.6, 20_000),
        ib_fabric::NoopProbe,
    )
    .unwrap()
    .0;
    for mut report in [traced, faulted] {
        report.events_per_sec = 0.0;
        report.packets_per_sec = 0.0;
        assert_eq!(SimReport::from_json(&report.to_json()).unwrap(), report);
    }
}
