//! The parallel engine's determinism contract.
//!
//! `ParSimulator` promises reports *bit-identical* to the sequential
//! `Simulator` for the same inputs and seed, at any thread count. These
//! tests are the license to flip `--threads` on without revalidating a
//! single experiment: full `SimReport` equality (counters, latency
//! histograms, link utilization, flight-recorder traces, out-of-order
//! accounting) with only the wall-clock throughput field zeroed.

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{
    generators, run_once, run_once_par, run_workload, run_workload_par, traces_to_jsonl,
    ClosedLoopKind, FabricCounters, ParSimulator, PartitionKind, RouteBackend, RunSpec, SimConfig,
    SimReport, Simulator, TraceSampling, TrafficPattern, WindowPolicy, Workload,
};
use ibfat_topology::{Network, NodeId, TreeParams};
use proptest::prelude::*;

fn normalized(mut r: SimReport) -> SimReport {
    // The only host-dependent fields; everything else must match exactly.
    r.events_per_sec = 0.0;
    r.packets_per_sec = 0.0;
    r
}

fn par_report(
    net: &Network,
    routing: &Routing,
    cfg: &SimConfig,
    pattern: &TrafficPattern,
    spec: RunSpec,
    threads: usize,
) -> SimReport {
    normalized(run_once_par(
        net,
        routing,
        cfg.clone(),
        pattern.clone(),
        spec,
        threads,
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any legal configuration, any thread count: same report.
    #[test]
    fn par_reports_equal_sequential(
        (m, n) in prop_oneof![Just((4u32, 2u32)), Just((4, 3)), Just((8, 2)), Just((8, 3))],
        vls in prop_oneof![Just(1u8), Just(4)],
        seed in any::<u64>(),
        load in prop_oneof![Just(0.15f64), Just(0.45), Just(0.9)],
        partition in prop_oneof![
            Just(PartitionKind::FatTree),
            Just(PartitionKind::Block),
        ],
        window_policy in prop_oneof![
            Just(WindowPolicy::Adaptive),
            Just(WindowPolicy::Fixed),
        ],
        route_backend in prop_oneof![
            Just(RouteBackend::Table),
            Just(RouteBackend::Oracle),
        ],
    ) {
        // Keep the simulated horizon small: proptest runs many cases,
        // and FT(8,3) has 512 nodes.
        let sim_time = if m == 8 && n == 3 { 8_000 } else { 30_000 };
        let params = TreeParams::new(m, n).expect("valid params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let cfg = SimConfig {
            num_vls: vls,
            seed,
            partition,
            window_policy,
            route_backend,
            ..SimConfig::default()
        };
        let pattern = TrafficPattern::Uniform;
        let spec = RunSpec::new(load, sim_time);
        let seq = normalized(run_once(
            &net, &routing, cfg.clone(), pattern.clone(), spec,
        ));
        for threads in [1usize, 2, 4] {
            let par = par_report(&net, &routing, &cfg, &pattern, spec, threads);
            prop_assert_eq!(&par, &seq, "divergence at {} threads", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Adaptive windows are a pure barrier-count optimization: for every
    /// fabric × routing scheme × thread count, an adaptive-window run
    /// must be bit-identical to a fixed-window run of the same inputs —
    /// reports AND every per-port counter register the probe collects.
    /// (Window boundaries never reorder dispatch: cohorts are formed by
    /// `(time, lineage)` order alone; the policy only chooses how far a
    /// window may jump ahead when all shards are quiet.)
    #[test]
    fn adaptive_windows_equal_fixed_windows(
        (m, n) in prop_oneof![Just((4u32, 2u32)), Just((4, 3)), Just((8, 2))],
        scheme in prop_oneof![Just(RoutingKind::Mlid), Just(RoutingKind::Slid)],
        seed in any::<u64>(),
        partition in prop_oneof![
            Just(PartitionKind::FatTree),
            Just(PartitionKind::Block),
        ],
    ) {
        let params = TreeParams::new(m, n).expect("valid params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, scheme);
        let base = SimConfig {
            num_vls: 2,
            seed,
            partition,
            ..SimConfig::default()
        };
        let pattern = TrafficPattern::Uniform;
        let spec = RunSpec::new(0.4, 25_000);
        for threads in [1usize, 2, 4] {
            let [fixed, adaptive] = [WindowPolicy::Fixed, WindowPolicy::Adaptive].map(|window_policy| {
                let cfg = SimConfig { window_policy, ..base.clone() };
                let (report, counters) = ParSimulator::with_probe(
                    &net,
                    &routing,
                    cfg,
                    pattern.clone(),
                    spec.offered_load,
                    spec.sim_time_ns,
                    spec.warmup_ns,
                    threads,
                    FabricCounters::new(&net, base.num_vls),
                )
                .run_observed()
                .expect("no worker panicked");
                (normalized(report), counters.switch_totals())
            });
            prop_assert_eq!(
                adaptive, fixed,
                "fixed/adaptive divergence at {} threads", threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same contract for the message-level workload layer: the
    /// `WorkloadReport` — which embeds every per-message timestamp —
    /// must be bit-identical across thread counts and routing schemes.
    /// Completion-driven injection is the hard case: unlike pattern
    /// mode, every injection time depends on the fabric.
    #[test]
    fn workload_reports_equal_sequential(
        (m, n) in prop_oneof![Just((4u32, 2u32)), Just((8, 2))],
        kind in 0usize..4,
        scheme in prop_oneof![Just(RoutingKind::Mlid), Just(RoutingKind::Slid)],
        seed in any::<u64>(),
    ) {
        let params = TreeParams::new(m, n).expect("valid params");
        let net = Network::mport_ntree(params);
        let nodes = net.num_nodes() as u32;
        let routing = Routing::build(&net, scheme);
        let cfg = SimConfig {
            num_vls: 2,
            seed,
            ..SimConfig::default()
        };
        let wl: Workload = match kind {
            0 => generators::allreduce_ring(nodes, 4096),
            1 => generators::all_to_all(nodes, 1024),
            2 => generators::bcast_binomial(nodes, NodeId(0), 2048),
            _ => generators::closed_loop(
                nodes, ClosedLoopKind::Uniform, 512, 2, 6, seed,
            ),
        };
        let seq = run_workload(&net, &routing, cfg.clone(), &wl);
        prop_assert_eq!(seq.messages as usize, wl.messages.len());
        for threads in [2usize, 4] {
            let par = run_workload_par(&net, &routing, cfg.clone(), &wl, threads);
            prop_assert_eq!(&par, &seq, "divergence at {} threads", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The flight recorder's contract, in both directions: a recorded
    /// run is bit-identical to an unrecorded one (the recorder only ever
    /// writes its own buffer), and the rendered trace JSONL is
    /// byte-identical at every thread count (slot assignment is a pure
    /// flow function, so sampling survives sharding).
    #[test]
    fn recorded_runs_equal_unrecorded_and_traces_survive_sharding(
        (m, n) in prop_oneof![Just((4u32, 2u32)), Just((4, 3)), Just((8, 2))],
        scheme in prop_oneof![Just(RoutingKind::Mlid), Just(RoutingKind::Slid)],
        seed in any::<u64>(),
        sampling in prop_oneof![
            Just(TraceSampling::FirstN),
            Just(TraceSampling::OneInN(3)),
            Just(TraceSampling::Pairs(vec![(0, 1), (2, 3), (1, 0)])),
        ],
    ) {
        let params = TreeParams::new(m, n).expect("valid params");
        let net = Network::mport_ntree(params);
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
        let recorded = normalized(run_once(
            &net, &routing, recorded_cfg.clone(), pattern.clone(), spec,
        ));
        let traces = recorded.traces.clone().expect("recording was on");
        let jsonl = traces_to_jsonl(&traces);

        // Recording must not perturb the simulation: stripped of the
        // buffer itself, the recorded report is the unrecorded report.
        let mut stripped = recorded;
        stripped.traces = None;
        prop_assert_eq!(&stripped, &plain);

        // And the rendered spans are byte-stable under sharding.
        for threads in [1usize, 2, 4] {
            let par = par_report(&net, &routing, &recorded_cfg, &pattern, spec, threads);
            let par_jsonl = traces_to_jsonl(par.traces.as_deref().expect("recording was on"));
            prop_assert_eq!(
                &par_jsonl, &jsonl,
                "trace divergence at {} threads", threads
            );
        }
    }
}

/// A deeper fixed point: traces and per-link stats on, hot-spot traffic,
/// an awkward thread count that leaves unequal shards.
#[test]
fn ft43_hotspot_with_traces_and_link_stats_is_bit_identical() {
    let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig {
        num_vls: 2,
        seed: 0xDEC0DE,
        trace_first_packets: 32,
        collect_link_stats: true,
        ..SimConfig::default()
    };
    let pattern = TrafficPattern::Centric {
        hotspot: NodeId(3),
        fraction: 0.2,
    };
    let spec = RunSpec::new(0.5, 60_000);
    let seq = normalized(run_once(&net, &routing, cfg.clone(), pattern.clone(), spec));
    assert!(seq.delivered > 0, "the run must carry traffic");
    assert!(seq.traces.is_some() && seq.link_utilization.is_some());
    for threads in [2usize, 3, 5, 8] {
        let par = par_report(&net, &routing, &cfg, &pattern, spec, threads);
        assert_eq!(par, seq, "divergence at {threads} threads");
    }
}

/// The `FabricCounters` probe merges exactly: every per-device register
/// is owned by one shard, so the absorbed totals equal a sequential
/// probed run's.
#[test]
fn fabric_counter_registers_merge_exactly() {
    let net = Network::mport_ntree(TreeParams::new(4, 2).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig {
        num_vls: 2,
        seed: 0xC0FFEE,
        ..SimConfig::default()
    };
    let pattern = TrafficPattern::Uniform;
    let (load, sim_time) = (0.6, 50_000);

    let (seq_report, seq_counters) = Simulator::with_probe(
        &net,
        &routing,
        cfg.clone(),
        pattern.clone(),
        load,
        sim_time,
        0,
        FabricCounters::new(&net, cfg.num_vls),
    )
    .run_observed();

    let (par_report, par_counters) = ParSimulator::with_probe(
        &net,
        &routing,
        cfg.clone(),
        pattern.clone(),
        load,
        sim_time,
        0,
        4,
        FabricCounters::new(&net, cfg.num_vls),
    )
    .run_observed()
    .expect("no worker panicked");

    assert_eq!(normalized(par_report), normalized(seq_report));
    let seq_sw = seq_counters.switch_totals();
    let par_sw = par_counters.switch_totals();
    assert_eq!(seq_sw, par_sw, "switch register totals diverged");
    assert_eq!(
        seq_counters.hottest_ports(4),
        par_counters.hottest_ports(4),
        "hot-port ranking diverged"
    );
}

/// Feasibility clamps: zero lookahead and absurd thread counts both
/// produce the sequential answer rather than an incorrect parallel one.
#[test]
fn degenerate_configurations_fall_back_to_sequential() {
    let net = Network::mport_ntree(TreeParams::new(4, 2).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let spec = RunSpec::new(0.3, 20_000);

    // Zero wire flight ⇒ zero lookahead ⇒ sequential fallback.
    let cfg = SimConfig {
        fly_time_ns: 0,
        ..SimConfig::default()
    };
    let seq = normalized(run_once(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
    ));
    let par = par_report(&net, &routing, &cfg, &TrafficPattern::Uniform, spec, 8);
    assert_eq!(par, seq);

    // More threads than switches: clamped, still identical.
    let cfg = SimConfig::default();
    let seq = normalized(run_once(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
    ));
    let par = par_report(&net, &routing, &cfg, &TrafficPattern::Uniform, spec, 64);
    assert_eq!(par, seq);
}
