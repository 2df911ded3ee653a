//! The closed-form data plane's contract.
//!
//! A run on a routing that `Routing::build` programmed for SLID or MLID
//! answers every per-hop forwarding question from the closed-form route
//! formula instead of the routing's LFTs. For every fabric × scheme × VL
//! count × load, such a run reports exactly what a run on the same
//! tables, assembled from parts and therefore read as tables, reports
//! (only the wall-clock throughput fields are host noise). The
//! routing-crate tests pin `RouteOracle::route_hop` against a table
//! walk per (switch, LID); these tests pin the *simulator seam*: the
//! lookup match in `sw_route_done`, including the `None` ↔
//! missing-entry drop path.

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{run, NoopProbe, RunSpec, SimConfig, SimReport, TrafficPattern};
use ibfat_topology::{Network, TreeParams};
use proptest::prelude::*;

fn normalized(mut r: SimReport) -> SimReport {
    r.events_per_sec = 0.0;
    r.packets_per_sec = 0.0;
    r
}

/// The same tables as `routing`, assembled from parts: runs on it read
/// the tables.
fn as_tables(routing: &Routing) -> Routing {
    Routing::assemble(
        routing.kind(),
        routing.params(),
        routing.lid_space().clone(),
        routing.lfts().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Closed-form and table lookups report bit-identically.
    #[test]
    fn closed_form_reports_equal_table_reports(
        (m, n) in prop_oneof![Just((4u32, 2u32)), Just((4, 3)), Just((8, 2))],
        scheme in prop_oneof![Just(RoutingKind::Mlid), Just(RoutingKind::Slid)],
        vls in prop_oneof![Just(1u8), Just(4)],
        seed in any::<u64>(),
        load in prop_oneof![Just(0.2f64), Just(0.6)],
    ) {
        let params = TreeParams::new(m, n).expect("valid params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, scheme);
        let tables = as_tables(&routing);
        let cfg = SimConfig {
            num_vls: vls,
            seed,
            ..SimConfig::default()
        };
        let pattern = TrafficPattern::Uniform;
        let spec = RunSpec::new(load, 25_000);
        let table = normalized(run(
            &net, &tables, cfg.clone(), pattern.clone(), spec, NoopProbe,
        ).unwrap().0);
        let oracle = normalized(run(
            &net, &routing, cfg, pattern.clone(), spec, NoopProbe,
        ).unwrap().0);
        prop_assert_eq!(&oracle, &table, "lookup divergence");
    }
}

/// FT(16,3), the largest fabric the two lookups are compared on (320
/// switches × 65536 LID slots), is beyond the proptest's grid: pin the
/// closed-form report to the table report there too.
#[test]
fn closed_form_matches_tables_on_ft16_3() {
    let params = TreeParams::new(16, 3).expect("valid params");
    let net = Network::mport_ntree(params);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let run = |routing: &Routing| {
        let cfg = SimConfig {
            seed: 11,
            ..SimConfig::default()
        };
        let spec = RunSpec {
            offered_load: 0.2,
            sim_time_ns: 3_000,
            warmup_ns: 0,
        };
        normalized(
            run(&net, routing, cfg, TrafficPattern::Uniform, spec, NoopProbe)
                .unwrap()
                .0,
        )
    };
    let oracle = run(&routing);
    assert!(oracle.delivered > 0, "no traffic delivered: {oracle:?}");
    assert_eq!(oracle.dropped, 0, "intact fabric must not drop");
    assert_eq!(oracle, run(&as_tables(&routing)), "lookup divergence");
}

/// The same fabric's tables, block-compressed: 21 MB of entries (320
/// switches × 65537 slots) in under a megabyte, because Equations (1)
/// and (2) fill every 64-LID block with one of a few patterns.
#[test]
fn ft16_3_tables_compress_below_a_megabyte() {
    let params = TreeParams::new(16, 3).expect("valid params");
    let net = Network::mport_ntree(params);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let slots: usize = routing.lfts().iter().map(|lft| lft.len()).sum();
    assert_eq!(slots, 320 * 65_537);
    assert!(
        routing.table_bytes() < 1 << 20,
        "expected block-compressed LFTs under 1 MiB, got {} bytes",
        routing.table_bytes()
    );
}
