//! Exercise the remaining public API surface of the high-level crate.

use ib_fabric::prelude::*;
use ib_fabric::topology::DeviceRef;
use ib_fabric::{aggregate, LidSpace, PortNum, RunSpec, SwitchId};

#[test]
fn replicated_experiments_aggregate() {
    let fabric = Fabric::builder(4, 2).build().unwrap();
    let reports = ib_fabric::sim::replicate(
        fabric.network(),
        fabric.routing(),
        SimConfig::default(),
        &TrafficPattern::Uniform,
        RunSpec::new(0.4, 60_000),
        &[11, 22, 33],
    )
    .unwrap();
    assert_eq!(reports.len(), 3);
    let agg = aggregate(&reports);
    assert_eq!(agg.n, 3);
    assert!(agg.mean_accepted > 0.0);
    assert!(agg.mean_latency_ns > 0.0);
}

#[test]
fn counters_cover_every_cabled_port() {
    let fabric = Fabric::builder(4, 2).build().unwrap();
    let net = fabric.network();
    let (report, counters) = fabric
        .experiment()
        .offered_load(0.3)
        .duration_ns(60_000)
        .run_observed(FabricCounters::new(net, 1));
    // m ports per switch, all cabled on the intact tree, plus one
    // injection side per node: each carried traffic.
    assert_eq!(counters.num_switches(), fabric.num_switches() as usize);
    assert_eq!(counters.ports_per_switch(), 4);
    for sw in 0..fabric.num_switches() {
        for port in 0..4u8 {
            let peer = net.peer_of(DeviceRef::Switch(SwitchId(sw)), PortNum(port + 1));
            assert!(peer.is_some(), "S{sw} port {} is uncabled", port + 1);
            assert!(
                counters.port(sw, port).xmit_pkts > 0,
                "S{sw} port {}",
                port + 1
            );
        }
    }
    for node in 0..fabric.num_nodes() {
        assert!(counters.node(node).xmit_pkts > 0, "N{node}");
    }
    assert!(report.max_link_utilization <= 1.0);
    assert!(report.mean_link_utilization > 0.0);
}

#[test]
fn fabric_exposes_consistent_views() {
    let fabric = Fabric::builder(8, 2)
        .routing(RoutingKind::Slid)
        .build()
        .unwrap();
    assert_eq!(fabric.num_nodes(), 32);
    assert_eq!(fabric.num_switches(), 12);
    assert_eq!(fabric.params().m(), 8);
    assert_eq!(fabric.routing().kind(), RoutingKind::Slid);
    assert_eq!(fabric.network().params(), fabric.params());
    assert_eq!(
        fabric.routing().lid_space(),
        &LidSpace::new(32, 0),
        "SLID assigns one LID per node"
    );
}

#[test]
fn route_to_every_lid_of_every_destination() {
    let fabric = Fabric::builder(4, 2).build().unwrap();
    let space = fabric.routing().lid_space().clone();
    for src in 0..fabric.num_nodes() {
        for dst in 0..fabric.num_nodes() {
            for lid in space.lids(NodeId(dst)) {
                let route = fabric.route_to_lid(NodeId(src), lid).unwrap();
                assert_eq!(route.dst, NodeId(dst));
            }
        }
    }
}

#[test]
fn experiment_defaults_match_the_paper() {
    let fabric = Fabric::builder(4, 2).build().unwrap();
    let report = fabric.experiment().duration_ns(40_000).run();
    // Defaults: 256-byte packets at 0.3 load -> offered 0.3 B/ns/node.
    assert!((report.offered_bytes_per_ns_per_node - 0.3).abs() < 1e-9);
    assert_eq!(report.sim_time_ns, 40_000);
    assert_eq!(report.warmup_ns, 8_000);
}

#[test]
fn error_types_render_readably() {
    let err = Fabric::builder(6, 2).build().unwrap_err();
    let text = err.to_string();
    assert!(text.contains("power of two"), "{text}");
    let fabric = Fabric::builder(4, 2).build().unwrap();
    let bad = fabric
        .route_to_lid(NodeId(0), ib_fabric::Lid(999))
        .unwrap_err();
    assert!(bad.to_string().contains("not assigned"), "{bad}");
}
