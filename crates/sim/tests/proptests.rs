//! Property-based tests: the simulator's invariants must hold for random
//! configurations, loads, seeds and policies.

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{
    bounds, run, InjectionProcess, NoopProbe, PathSelection, RunSpec, SimConfig, TrafficPattern,
    VlAssignment,
};
use ibfat_topology::{Network, TreeParams};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    m: u32,
    n: u32,
    kind: RoutingKind,
    vls: u8,
    buffers: u8,
    load: f64,
    seed: u64,
    injection: InjectionProcess,
    selection: PathSelection,
    assignment: VlAssignment,
    pattern_kind: u8,
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop_oneof![Just((4u32, 2u32)), Just((4, 3)), Just((8, 2)), Just((2, 3))],
        prop_oneof![
            Just(RoutingKind::Mlid),
            Just(RoutingKind::Slid),
            Just(RoutingKind::UpDown)
        ],
        prop_oneof![Just(1u8), Just(2), Just(4)],
        prop_oneof![Just(1u8), Just(2)],
        0.05f64..1.0,
        any::<u64>(),
        prop_oneof![
            Just(InjectionProcess::Deterministic),
            Just(InjectionProcess::Poisson)
        ],
        prop_oneof![
            Just(PathSelection::Paper),
            Just(PathSelection::RandomPerPacket),
            Just(PathSelection::RoundRobinPerSource)
        ],
        prop_oneof![
            Just(VlAssignment::Random),
            Just(VlAssignment::DestinationHash),
            Just(VlAssignment::SourceHash)
        ],
        0u8..3,
    )
        .prop_map(
            |((m, n), kind, vls, buffers, load, seed, injection, selection, assignment, pk)| Case {
                m,
                n,
                kind,
                vls,
                buffers,
                load,
                seed,
                injection,
                selection,
                assignment,
                pattern_kind: pk,
            },
        )
}

fn pattern_for(case: &Case, nodes: u32) -> TrafficPattern {
    match case.pattern_kind {
        0 => TrafficPattern::Uniform,
        1 => TrafficPattern::paper_centric(),
        _ => TrafficPattern::bit_complement(nodes),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_and_bounds_hold_for_any_configuration(c in case()) {
        let params = TreeParams::new(c.m, c.n).expect("valid strategy params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, c.kind);
        let mut cfg = SimConfig::paper(c.vls);
        cfg.buffer_packets = c.buffers;
        cfg.seed = c.seed;
        cfg.injection = c.injection;
        cfg.path_selection = c.selection;
        cfg.vl_assignment = c.assignment;
        let pattern = pattern_for(&c, params.num_nodes());
        let report = run(
            &net,
            &routing,
            cfg.clone(),
            pattern,
            RunSpec::new(c.load, 60_000), NoopProbe,
        ).unwrap().0;

        // Conservation: nothing vanishes, nothing is double-counted.
        prop_assert_eq!(
            report.total_generated,
            report.total_delivered + report.dropped + report.in_flight_at_end
        );
        prop_assert_eq!(report.dropped, 0, "intact fabric never drops");

        // Physical ceilings.
        prop_assert!(report.accepted_bytes_per_ns_per_node <= 1.0 + 1e-9);
        prop_assert!(report.mean_link_utilization <= 1.0 + 1e-9);
        prop_assert!(report.max_link_utilization <= 1.0 + 1e-9);

        // Latency floor: nothing beats the 2-link minimum route.
        if report.latency.count() > 0 {
            let floor = bounds::zero_load_latency_ns(params, &cfg, params.n() - 1);
            prop_assert!(
                report.latency.min() >= floor,
                "min latency {} below floor {floor}",
                report.latency.min()
            );
        }
    }

    #[test]
    fn determinism_for_any_configuration(c in case()) {
        let params = TreeParams::new(c.m, c.n).expect("valid strategy params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, c.kind);
        let mut cfg = SimConfig::paper(c.vls);
        cfg.seed = c.seed;
        cfg.path_selection = c.selection;
        cfg.vl_assignment = c.assignment;
        let pattern = pattern_for(&c, params.num_nodes());
        let spec = RunSpec::new(c.load, 30_000);
        let a = run(&net, &routing, cfg.clone(), pattern.clone(), spec, NoopProbe).unwrap().0;
        let b = run(&net, &routing, cfg, pattern, spec, NoopProbe).unwrap().0;
        prop_assert_eq!(a.events_processed, b.events_processed);
        prop_assert_eq!(a.total_generated, b.total_generated);
        prop_assert_eq!(a.total_delivered, b.total_delivered);
        prop_assert_eq!(a.avg_latency_ns(), b.avg_latency_ns());
    }
}

mod engine_props {
    use ibfat_sim::HeapCalendar;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn pops_sorted_and_fifo_within_timestamp(
            events in prop::collection::vec((0u64..50, 0u32..1000), 0..200)
        ) {
            let mut q = HeapCalendar::new();
            for (i, &(t, payload)) in events.iter().enumerate() {
                q.schedule(t, (payload, i));
            }
            prop_assert_eq!(q.len(), events.len());
            let mut last: Option<(u64, usize)> = None;
            while let Some((t, (_, idx))) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt, "time regressed");
                    if t == lt {
                        prop_assert!(idx > lidx, "FIFO broken within a timestamp");
                    }
                }
                last = Some((t, idx));
            }
            prop_assert!(q.is_empty());
        }
    }
}
