//! The table-free data plane's contract.
//!
//! The oracle route backend answers every per-hop forwarding question
//! from the closed-form MLID/SLID route formula instead of a
//! materialized LFT. These tests pin the two halves of that bargain:
//!
//! 1. **Bit identity** — for every fabric × scheme × engine ×
//!    thread count, an oracle-backed run reports exactly what the
//!    table-backed run reports (only the wall-clock throughput fields
//!    are host noise). The existing routing-crate proptest pins
//!    `RouteOracle::route_hop` against a table walk per (switch, LID);
//!    this one pins the *simulator seam*: the backend match in
//!    `sw_route_done`, including the `None` ↔ missing-entry drop path.
//! 2. **Memory** — an oracle simulator over a table-free `Routing`
//!    constructs and runs without ever allocating a forwarding table,
//!    on a fabric whose flat LFT would be ~21 MB (FT(16,3): 320
//!    switches × 1024 nodes × 64 LIDs).

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{
    run_once, run_once_par, RouteBackend, RunSpec, SimConfig, SimReport, Simulator, TrafficPattern,
};
use ibfat_topology::{Network, TreeParams};
use proptest::prelude::*;

fn normalized(mut r: SimReport) -> SimReport {
    r.events_per_sec = 0.0;
    r.packets_per_sec = 0.0;
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Table and oracle backends report bit-identically, on both engines
    /// at every thread count.
    #[test]
    fn oracle_backend_reports_equal_table_backend(
        (m, n) in prop_oneof![Just((4u32, 2u32)), Just((4, 3)), Just((8, 2))],
        scheme in prop_oneof![Just(RoutingKind::Mlid), Just(RoutingKind::Slid)],
        vls in prop_oneof![Just(1u8), Just(4)],
        seed in any::<u64>(),
        load in prop_oneof![Just(0.2f64), Just(0.6)],
    ) {
        let params = TreeParams::new(m, n).expect("valid params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, scheme);
        let cfg = |route_backend| SimConfig {
            num_vls: vls,
            seed,
            route_backend,
            ..SimConfig::default()
        };
        let pattern = TrafficPattern::Uniform;
        let spec = RunSpec::new(load, 25_000);
        let table = normalized(run_once(
            &net, &routing, cfg(RouteBackend::Table), pattern.clone(), spec,
        ));
        let oracle = normalized(run_once(
            &net, &routing, cfg(RouteBackend::Oracle), pattern.clone(), spec,
        ));
        prop_assert_eq!(&oracle, &table, "sequential backend divergence");
        for threads in [2usize, 4] {
            let par = normalized(run_once_par(
                &net, &routing, cfg(RouteBackend::Oracle), pattern.clone(), spec, threads,
            ));
            prop_assert_eq!(&par, &table, "oracle divergence at {} threads", threads);
        }
    }
}

/// The memory guard: a table-free MLID routing on FT(16,3) carries zero
/// table bytes, and the oracle backend runs the simulator over it — the
/// flat LFT such a fabric would otherwise flatten (320 switches × 65536
/// LID slots ≈ 21 MB resident) is never allocated anywhere.
#[test]
fn oracle_backend_runs_ft16_3_without_forwarding_tables() {
    let params = TreeParams::new(16, 3).expect("valid params");
    let net = Network::mport_ntree(params);
    let routing = Routing::build_table_free(&net, RoutingKind::Mlid);
    assert!(!routing.has_tables());
    assert_eq!(routing.table_bytes(), 0);
    let cfg = SimConfig {
        route_backend: RouteBackend::Oracle,
        seed: 11,
        ..SimConfig::default()
    };
    let report = Simulator::new(&net, &routing, cfg, TrafficPattern::Uniform, 0.2, 3_000, 0).run();
    assert!(report.delivered > 0, "no traffic delivered: {report:?}");
    assert_eq!(report.dropped, 0, "intact fabric must not drop");
}

/// The same fabric's materialized tables, for contrast: the table
/// backend genuinely needs megabytes the oracle run never touches.
#[test]
fn ft16_3_materialized_tables_cost_megabytes() {
    let params = TreeParams::new(16, 3).expect("valid params");
    let net = Network::mport_ntree(params);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    assert!(routing.has_tables());
    assert!(
        routing.table_bytes() > 10 << 20,
        "expected a multi-MB flat LFT, got {} bytes",
        routing.table_bytes()
    );
}

/// A table-backed simulator over a table-free routing is a programmer
/// error and must be rejected loudly at construction, not fail as an
/// out-of-bounds index deep in a handler.
#[test]
#[should_panic(expected = "table-free")]
fn table_backend_rejects_table_free_routing() {
    let params = TreeParams::new(4, 2).expect("valid params");
    let net = Network::mport_ntree(params);
    let routing = Routing::build_table_free(&net, RoutingKind::Mlid);
    let _ = Simulator::new(
        &net,
        &routing,
        SimConfig::default(),
        TrafficPattern::Uniform,
        0.2,
        1_000,
        0,
    );
}

/// The oracle has no closed form for up*/down* routing; asking for it
/// must fail at construction with a message naming the constraint.
#[test]
#[should_panic(expected = "SLID/MLID")]
fn oracle_backend_rejects_updown_routing() {
    let params = TreeParams::new(4, 2).expect("valid params");
    let net = Network::mport_ntree(params);
    let routing = Routing::build(&net, RoutingKind::UpDown);
    let cfg = SimConfig {
        route_backend: RouteBackend::Oracle,
        ..SimConfig::default()
    };
    let _ = Simulator::new(&net, &routing, cfg, TrafficPattern::Uniform, 0.2, 1_000, 0);
}
