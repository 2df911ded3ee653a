//! The run entry points: one operating point, one workload, load sweeps
//! and seed replication.

use crate::probe::{NoopProbe, Probe};
use crate::{SimConfig, SimError, SimReport, Simulator, TrafficPattern, Workload, WorkloadReport};
use ibfat_routing::Routing;
use ibfat_topology::Network;

/// Wall-clock parameters of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Normalized offered load per node: any positive, finite number,
    /// where 1.0 saturates the injection link.
    pub offered_load: f64,
    /// Total simulated time (ns).
    pub sim_time_ns: u64,
    /// Warm-up (ns) excluded from measurement.
    pub warmup_ns: u64,
}

impl RunSpec {
    /// A spec with the common 20% warm-up convention.
    pub fn new(offered_load: f64, sim_time_ns: u64) -> Self {
        RunSpec {
            offered_load,
            sim_time_ns,
            warmup_ns: sim_time_ns / 5,
        }
    }
}

/// Run one operating point observed by `probe` (pass [`NoopProbe`] for
/// none); returns the report and the probe with everything it collected
/// (see [`Probe`], [`crate::FabricCounters`], [`crate::PhaseProfile`]).
///
/// Every check on the inputs runs before the first event, and a
/// rejection is a [`SimError`], never a panic.
pub fn run<P: Probe>(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    pattern: TrafficPattern,
    spec: RunSpec,
    probe: P,
) -> Result<(SimReport, P), SimError> {
    Simulator::build_pattern(net, routing, cfg, pattern, spec, probe)?.run_pattern()
}

/// Drive a message-level workload (see [`Workload`]) to completion,
/// observed by `probe`, and report per-message latency, per-group
/// completion times, and node skew. Checked like [`run`], plus the
/// workload's own checks; a workload that cannot complete on the fabric
/// is a [`SimError::InvalidWorkload`].
pub fn run_workload<P: Probe>(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    wl: &Workload,
    probe: P,
) -> Result<(WorkloadReport, P), SimError> {
    Simulator::build_workload(net, routing, cfg, wl, probe)?.run_to_completion()
}

// The shared scoped thread pool now lives in the topology crate, where the
// routing control plane (parallel LFT builds, sharded load analysis) can
// reach it too; re-exported here so existing sim-facing callers keep
// working unchanged.
pub use ibfat_topology::par_map_indexed;

/// Sweep a list of offered loads, one independent simulation per point,
/// fanned out over OS threads (each point is single-threaded and
/// deterministic; the sweep result order matches `loads`).
///
/// Points are dispatched heaviest first — in descending offered load,
/// since a point's cost rises with its load — so the pool's
/// self-scheduling starts the long runs first and fills in with the
/// short ones (longest-processing-time order). The dispatch order never
/// reaches the reports: each is exactly its point's [`run`]. The first
/// point (in `loads` order) that fails fails the sweep.
pub fn sweep(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    pattern: &TrafficPattern,
    loads: &[f64],
    sim_time_ns: u64,
) -> Result<Vec<SimReport>, SimError> {
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by(|&a, &b| loads[b].total_cmp(&loads[a]));
    let reports = par_map_indexed(&order, |_, &i| {
        let spec = RunSpec::new(loads[i], sim_time_ns);
        Ok(run(net, routing, cfg.clone(), pattern.clone(), spec, NoopProbe)?.0)
    });
    let mut by_input: Vec<(usize, Result<SimReport, SimError>)> =
        order.into_iter().zip(reports).collect();
    by_input.sort_unstable_by_key(|&(i, _)| i);
    by_input.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfat_routing::RoutingKind;
    use ibfat_topology::TreeParams;

    #[test]
    fn sweep_returns_points_in_order() {
        let params = TreeParams::new(4, 2).unwrap();
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let cfg = SimConfig::paper(1);
        let loads = [0.1, 0.3, 0.2];
        let reports = sweep(
            &net,
            &routing,
            cfg,
            &TrafficPattern::Uniform,
            &loads,
            50_000,
        )
        .unwrap();
        assert_eq!(reports.len(), 3);
        for (r, l) in reports.iter().zip(loads) {
            assert!((r.offered_load - l).abs() < 1e-12);
        }
    }

    /// Zero the two wall-clock fields, the only ones that vary between
    /// identical runs.
    fn without_wall_clock(mut r: SimReport) -> SimReport {
        r.events_per_sec = 0.0;
        r.packets_per_sec = 0.0;
        r
    }

    #[test]
    fn sweep_order_never_reaches_the_reports() {
        let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let cfg = SimConfig::paper(2);
        let pattern = TrafficPattern::Uniform;
        let loads = [0.3, 0.9, 0.1, 0.6];
        let reports = sweep(&net, &routing, cfg.clone(), &pattern, &loads, 40_000).unwrap();
        assert_eq!(reports.len(), loads.len());
        for (report, load) in reports.into_iter().zip(loads) {
            let (alone, _) = run(
                &net,
                &routing,
                cfg.clone(),
                pattern.clone(),
                RunSpec::new(load, 40_000),
                NoopProbe,
            )
            .unwrap();
            assert_eq!(without_wall_clock(report), without_wall_clock(alone));
        }
    }
}

/// Run the same operating point under several seeds (in parallel) —
/// replication for confidence intervals. The first seed's failure (in
/// `seeds` order) fails the replication.
pub fn replicate(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    pattern: &TrafficPattern,
    spec: RunSpec,
    seeds: &[u64],
) -> Result<Vec<SimReport>, SimError> {
    par_map_indexed(seeds, |_, &seed| {
        let mut cfg = cfg.clone();
        cfg.seed = seed;
        Ok(run(net, routing, cfg, pattern.clone(), spec, NoopProbe)?.0)
    })
    .into_iter()
    .collect()
}

/// Mean and sample standard deviation over replicated runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Replicas aggregated.
    pub n: usize,
    /// Mean accepted traffic, bytes/ns/node.
    pub mean_accepted: f64,
    /// Sample standard deviation of accepted traffic.
    pub std_accepted: f64,
    /// Mean of the per-run average latencies, ns.
    pub mean_latency_ns: f64,
    /// Sample standard deviation of the per-run average latencies.
    pub std_latency_ns: f64,
}

/// Aggregate replicated reports.
///
/// # Panics
/// Panics on an empty slice.
pub fn aggregate(reports: &[SimReport]) -> Aggregate {
    assert!(!reports.is_empty(), "nothing to aggregate");
    let n = reports.len() as f64;
    let acc: Vec<f64> = reports
        .iter()
        .map(|r| r.accepted_bytes_per_ns_per_node)
        .collect();
    let lat: Vec<f64> = reports.iter().map(|r| r.avg_latency_ns()).collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
    let std = |v: &[f64], m: f64| {
        if v.len() < 2 {
            0.0
        } else {
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        }
    };
    let (ma, ml) = (mean(&acc), mean(&lat));
    Aggregate {
        n: reports.len(),
        mean_accepted: ma,
        std_accepted: std(&acc, ma),
        mean_latency_ns: ml,
        std_latency_ns: std(&lat, ml),
    }
}

#[cfg(test)]
mod replication_tests {
    use super::*;
    use ibfat_routing::RoutingKind;
    use ibfat_topology::TreeParams;

    #[test]
    fn replicas_differ_by_seed_and_aggregate_sanely() {
        let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let reports = replicate(
            &net,
            &routing,
            SimConfig::paper(1),
            &TrafficPattern::Uniform,
            RunSpec::new(0.5, 80_000),
            &[1, 2, 3, 4],
        )
        .unwrap();
        assert_eq!(reports.len(), 4);
        let agg = aggregate(&reports);
        assert_eq!(agg.n, 4);
        assert!(agg.mean_accepted > 0.0);
        assert!(agg.std_accepted >= 0.0);
        // Different seeds should produce at least slightly different runs.
        let first = reports[0].events_processed;
        assert!(reports.iter().any(|r| r.events_processed != first));
    }

    #[test]
    #[should_panic(expected = "nothing to aggregate")]
    fn aggregate_rejects_empty() {
        aggregate(&[]);
    }
}
