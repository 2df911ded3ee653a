//! Cross-crate integration: build → verify → simulate pipelines through
//! the public API, for every scheme and a spread of network sizes.

use ib_fabric::prelude::*;
use ib_fabric::sim::{FLY_TIME_NS, ROUTING_TIME_NS};

#[test]
fn full_pipeline_for_every_scheme() {
    for kind in [RoutingKind::Slid, RoutingKind::Mlid, RoutingKind::UpDown] {
        let fabric = Fabric::builder(4, 2).routing(kind).build().unwrap();
        fabric.verify().unwrap_or_else(|e| panic!("{kind}: {e}"));
        let report = fabric
            .experiment()
            .traffic(TrafficPattern::Uniform)
            .offered_load(0.3)
            .duration_ns(120_000)
            .run();
        assert!(report.delivered > 0, "{kind} delivered nothing");
        assert_eq!(
            report.total_generated,
            report.total_delivered + report.in_flight_at_end,
            "{kind} lost packets"
        );
    }
}

#[test]
fn verification_passes_on_all_evaluated_sizes() {
    // The cheap passes on every size; the quadratic all-LID sweep only on
    // the smaller two.
    for (m, n) in [(4, 3), (8, 3), (16, 2), (32, 2)] {
        let fabric = Fabric::builder(m, n).build().unwrap();
        fabric.network().validate().unwrap();
    }
    for (m, n) in [(4, 3), (8, 2)] {
        let fabric = Fabric::builder(m, n).build().unwrap();
        fabric.verify().unwrap_or_else(|e| panic!("{m}x{n}: {e}"));
    }
}

#[test]
fn deterministic_end_to_end() {
    let fabric = Fabric::builder(8, 2).build().unwrap();
    let run = || {
        fabric
            .experiment()
            .virtual_lanes(2)
            .traffic(TrafficPattern::paper_centric())
            .offered_load(0.5)
            .duration_ns(150_000)
            .seed(2024)
            .run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.latency.count(), b.latency.count());
    assert_eq!(a.avg_latency_ns(), b.avg_latency_ns());
}

#[test]
fn simulated_latency_is_never_below_the_analytic_minimum() {
    // The fastest possible delivery crosses 2 links and 1 switch.
    let fabric = Fabric::builder(8, 2).build().unwrap();
    let cfg = SimConfig::paper(1);
    let min = 2 * FLY_TIME_NS + ROUTING_TIME_NS + cfg.packet_time_ns();
    let report = fabric
        .experiment()
        .offered_load(0.6)
        .duration_ns(150_000)
        .run();
    assert!(
        report.latency.min() >= min,
        "{} < {min}",
        report.latency.min()
    );
    assert!(report.network_latency.min() >= min);
}

#[test]
fn headline_result_hotspot_ordering_holds_at_scale() {
    // MLID ≥ SLID accepted traffic under the paper's hot-spot pattern on
    // a mid-sized fabric, at several operating points.
    let slid = Fabric::builder(8, 3)
        .routing(RoutingKind::Slid)
        .build()
        .unwrap();
    let mlid = Fabric::builder(8, 3)
        .routing(RoutingKind::Mlid)
        .build()
        .unwrap();
    for load in [0.3, 0.8] {
        let acc = |fabric: &Fabric| {
            fabric
                .experiment()
                .traffic(TrafficPattern::paper_centric())
                .offered_load(load)
                .duration_ns(200_000)
                .run()
                .accepted_bytes_per_ns_per_node
        };
        let (s, m) = (acc(&slid), acc(&mlid));
        assert!(m >= s, "load {load}: MLID {m} < SLID {s}");
    }
}

#[test]
fn topology_objects_flow_between_crates() {
    // A Network built by the topology crate routes with ibfat-routing and
    // simulates with ibfat-sim without the Fabric wrapper.
    let params = TreeParams::new(4, 2).unwrap();
    let net = Network::mport_ntree(params);
    let routing = ib_fabric::routing::Routing::build(&net, RoutingKind::Mlid);
    let report = ib_fabric::sim::run(
        &net,
        &routing,
        SimConfig::default(),
        TrafficPattern::Uniform,
        ib_fabric::sim::RunSpec::new(0.2, 60_000),
        ib_fabric::sim::NoopProbe,
    )
    .unwrap()
    .0;
    assert!(report.delivered > 0);
}
