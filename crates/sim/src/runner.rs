//! One-shot runs and multi-point load sweeps.

use crate::probe::Probe;
use crate::{SimConfig, SimReport, Simulator, TrafficPattern};
use ibfat_routing::Routing;
use ibfat_topology::Network;

/// Wall-clock parameters of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Normalized offered load per node, `(0, 1]`.
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

/// Run one operating point.
pub fn run_once(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    pattern: TrafficPattern,
    spec: RunSpec,
) -> SimReport {
    Simulator::new(
        net,
        routing,
        cfg,
        pattern,
        spec.offered_load,
        spec.sim_time_ns,
        spec.warmup_ns,
    )
    .run()
}

/// Drive a message-level workload (see [`crate::Workload`]) to
/// completion on the sequential engine and report per-message latency,
/// per-group completion times, and node skew.
pub fn run_workload(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    wl: &crate::Workload,
) -> crate::WorkloadReport {
    Simulator::for_workload(net, routing, cfg, wl).run_workload()
}

/// Run one operating point observed by `probe`; returns the report and
/// the probe with everything it collected (see [`Probe`],
/// [`crate::FabricCounters`], [`crate::PhaseProfile`]).
pub fn run_observed<P: Probe>(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    pattern: TrafficPattern,
    spec: RunSpec,
    probe: P,
) -> (SimReport, P) {
    Simulator::with_probe(
        net,
        routing,
        cfg,
        pattern,
        spec.offered_load,
        spec.sim_time_ns,
        spec.warmup_ns,
        probe,
    )
    .run_observed()
}

// The shared scoped thread pool now lives in the topology crate, where the
// routing control plane (parallel LFT builds, sharded load analysis) can
// reach it too; re-exported here so existing sim-facing callers keep
// working unchanged.
pub use ibfat_topology::par_map_indexed;

/// Sweep a list of offered loads, one independent simulation per point,
/// fanned out over OS threads (each point is single-threaded and
/// deterministic; the sweep result order matches `loads`).
pub fn sweep(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    pattern: &TrafficPattern,
    loads: &[f64],
    sim_time_ns: u64,
) -> Vec<SimReport> {
    par_map_indexed(loads, |_, &load| {
        let spec = RunSpec::new(load, sim_time_ns);
        run_once(net, routing, cfg.clone(), pattern.clone(), spec)
    })
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
        );
        assert_eq!(reports.len(), 3);
        for (r, l) in reports.iter().zip(loads) {
            assert!((r.offered_load - l).abs() < 1e-12);
        }
    }
}

/// Run the same operating point under several seeds (in parallel) —
/// replication for confidence intervals.
pub fn replicate(
    net: &Network,
    routing: &Routing,
    cfg: SimConfig,
    pattern: &TrafficPattern,
    spec: RunSpec,
    seeds: &[u64],
) -> Vec<SimReport> {
    par_map_indexed(seeds, |_, &seed| {
        let mut cfg = cfg.clone();
        cfg.seed = seed;
        run_once(net, routing, cfg, pattern.clone(), spec)
    })
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
        );
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
