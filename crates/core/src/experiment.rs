use crate::Fabric;
use ibfat_sim::{
    run_once, sweep, InjectionProcess, Probe, RunSpec, SimConfig, SimReport, Simulator,
    TrafficPattern, Workload, WorkloadReport,
};

/// Fluent configuration of a simulation over a [`Fabric`].
///
/// Defaults are the paper's operating point: 256-byte packets, 1 VL,
/// uniform traffic, 30% offered load, 500 µs of simulated time with a 20%
/// warm-up.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder<'a> {
    fabric: &'a Fabric,
    cfg: SimConfig,
    pattern: TrafficPattern,
    offered_load: f64,
    sim_time_ns: u64,
    warmup_ns: Option<u64>,
}

impl<'a> ExperimentBuilder<'a> {
    pub(crate) fn new(fabric: &'a Fabric) -> Self {
        ExperimentBuilder {
            fabric,
            cfg: SimConfig::default(),
            pattern: TrafficPattern::Uniform,
            offered_load: 0.3,
            sim_time_ns: 500_000,
            warmup_ns: None,
        }
    }

    /// Forwarding-state backend for the packet engine (default: table —
    /// flat LFT lookups, exactly what real switch hardware does). The
    /// oracle backend answers hops from the closed-form route formula
    /// instead, never materializing per-switch tables; reports are
    /// bit-identical across backends, the oracle just trades a formula
    /// evaluation for the table's memory footprint. Only the SLID/MLID
    /// schemes on intact fabrics have an oracle (see
    /// [`ibfat_sim::RouteBackend`]).
    pub fn route_backend(mut self, backend: ibfat_sim::RouteBackend) -> Self {
        self.cfg.route_backend = backend;
        self
    }

    /// Number of virtual lanes (paper: 1, 2 or 4).
    pub fn virtual_lanes(mut self, vls: u8) -> Self {
        self.cfg.num_vls = vls;
        self
    }

    /// Packet size in bytes (paper: 256).
    pub fn packet_bytes(mut self, bytes: u32) -> Self {
        self.cfg.packet_bytes = bytes;
        self
    }

    /// Buffer depth per (port, VL) in packets (paper: 1).
    pub fn buffer_packets(mut self, packets: u8) -> Self {
        self.cfg.buffer_packets = packets;
        self
    }

    /// Injection process (default deterministic, as in the paper).
    pub fn injection(mut self, process: InjectionProcess) -> Self {
        self.cfg.injection = process;
        self
    }

    /// Path-selection policy over the destination's LID window (default:
    /// the paper's rank-based selection).
    pub fn path_selection(mut self, policy: ibfat_sim::PathSelection) -> Self {
        self.cfg.path_selection = policy;
        self
    }

    /// VL assignment policy (default: uniform random per packet).
    pub fn vl_assignment(mut self, policy: ibfat_sim::VlAssignment) -> Self {
        self.cfg.vl_assignment = policy;
        self
    }

    /// Traffic pattern.
    pub fn traffic(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Normalized offered load per node in `(0, 1]`.
    pub fn offered_load(mut self, load: f64) -> Self {
        self.offered_load = load;
        self
    }

    /// Total simulated time in ns.
    pub fn duration_ns(mut self, ns: u64) -> Self {
        self.sim_time_ns = ns;
        self
    }

    /// Warm-up excluded from measurement (default: 20% of the duration).
    pub fn warmup_ns(mut self, ns: u64) -> Self {
        self.warmup_ns = Some(ns);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Override the full simulator configuration.
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Schedule deterministic mid-run fabric failures (see
    /// [`ibfat_sim::FaultPlan`]): scheduled link/switch kills and
    /// revivals with modeled SM detection + patch-level reprogramming.
    /// The empty plan (the default) leaves the engine on its pre-fault
    /// code paths.
    pub fn faults(mut self, plan: ibfat_sim::FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    fn spec(&self, load: f64) -> RunSpec {
        RunSpec {
            offered_load: load,
            sim_time_ns: self.sim_time_ns,
            warmup_ns: self.warmup_ns.unwrap_or(self.sim_time_ns / 5),
        }
    }

    /// Run the configured operating point.
    pub fn run(self) -> SimReport {
        let spec = self.spec(self.offered_load);
        run_once(
            self.fabric.network(),
            self.fabric.routing(),
            self.cfg,
            self.pattern,
            spec,
        )
    }

    /// Run the configured operating point observed by `probe` — e.g. an
    /// [`ibfat_sim::FabricCounters`] for per-port counters and sampled
    /// time-series, an [`ibfat_sim::PhaseProfile`] for self-profiling, or
    /// a tuple of both. Returns the report together with the probe.
    pub fn run_observed<P: Probe>(self, probe: P) -> (SimReport, P) {
        let spec = self.spec(self.offered_load);
        ibfat_sim::run_observed(
            self.fabric.network(),
            self.fabric.routing(),
            self.cfg,
            self.pattern,
            spec,
            probe,
        )
    }

    /// Run a load sweep, returning reports in the order of `loads`. The
    /// points are independent simulations and run in parallel across
    /// the available cores.
    pub fn run_sweep(self, loads: &[f64]) -> Vec<SimReport> {
        sweep(
            self.fabric.network(),
            self.fabric.routing(),
            self.cfg,
            &self.pattern,
            loads,
            self.sim_time_ns,
        )
    }

    /// Drive a message-level workload (a collective, closed-loop, or
    /// replayed trace — see [`ibfat_sim::generators`] and
    /// [`ibfat_sim::workload_trace`]) to completion instead of sampling
    /// a traffic pattern for a fixed duration. Pattern, load, duration
    /// and warm-up settings are ignored.
    pub fn run_workload(self, wl: &Workload) -> WorkloadReport {
        ibfat_sim::run_workload(self.fabric.network(), self.fabric.routing(), self.cfg, wl)
    }

    /// Drive a workload to completion observed by `probe` — e.g. an
    /// [`ibfat_sim::PhaseProfile`] for engine self-profiling.
    pub fn run_workload_observed<P: Probe>(self, wl: &Workload, probe: P) -> (WorkloadReport, P) {
        Simulator::for_workload_observed(
            self.fabric.network(),
            self.fabric.routing(),
            self.cfg,
            wl,
            probe,
        )
        .run_workload_observed()
    }

    /// Run the configured operating point under several seeds and return
    /// each replica's report (use [`ibfat_sim::aggregate`] to summarize).
    pub fn run_replicated(self, seeds: &[u64]) -> Vec<SimReport> {
        let spec = self.spec(self.offered_load);
        ibfat_sim::replicate(
            self.fabric.network(),
            self.fabric.routing(),
            self.cfg,
            &self.pattern,
            spec,
            seeds,
        )
    }

    /// Collect per-link utilization into the report.
    pub fn collect_link_stats(mut self, on: bool) -> Self {
        self.cfg.collect_link_stats = on;
        self
    }

    /// Record full event timelines for the first `n` generated packets.
    pub fn trace_first_packets(mut self, n: u32) -> Self {
        self.cfg.trace_first_packets = n;
        self
    }

    /// Which flows fill the flight-recorder slots (default: the first
    /// packets generated, whatever their flow; see
    /// [`ibfat_sim::TraceSampling`] for 1-in-N flow sampling and
    /// explicit (src, dst) filters).
    pub fn trace_sampling(mut self, sampling: ibfat_sim::TraceSampling) -> Self {
        self.cfg.trace_sampling = sampling;
        self
    }

    /// Adaptive upward routing (extension; see
    /// [`ibfat_sim::SimConfig::adaptive_up`]).
    pub fn adaptive_up(mut self, on: bool) -> Self {
        self.cfg.adaptive_up = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingKind;

    #[test]
    fn experiment_defaults_run() {
        let fabric = Fabric::builder(4, 2).build().unwrap();
        let report = fabric.experiment().duration_ns(100_000).run();
        assert!(report.delivered > 0);
        assert_eq!(report.warmup_ns, 20_000);
    }

    #[test]
    fn builder_knobs_are_applied() {
        let fabric = Fabric::builder(4, 2)
            .routing(RoutingKind::Slid)
            .build()
            .unwrap();
        let report = fabric
            .experiment()
            .virtual_lanes(4)
            .packet_bytes(128)
            .offered_load(0.5)
            .duration_ns(80_000)
            .warmup_ns(10_000)
            .seed(99)
            .run();
        assert_eq!(report.warmup_ns, 10_000);
        assert_eq!(report.sim_time_ns, 80_000);
        assert!((report.offered_load - 0.5).abs() < 1e-12);
        // 128-byte packets at load 0.5 -> offered 0.5 bytes/ns/node.
        assert!((report.offered_bytes_per_ns_per_node - 0.5).abs() < 1e-9);
    }

    #[test]
    fn workload_through_experiment_api() {
        let fabric = Fabric::builder(4, 2).build().unwrap();
        let wl = ibfat_sim::generators::allreduce_ring(fabric.num_nodes(), 2048);
        let seq = fabric.experiment().run_workload(&wl);
        assert_eq!(seq.messages as usize, wl.messages.len());
        assert!(seq.makespan_ns > 0);
    }

    #[test]
    fn sweep_through_experiment_api() {
        let fabric = Fabric::builder(4, 2).build().unwrap();
        let reports = fabric
            .experiment()
            .duration_ns(60_000)
            .run_sweep(&[0.2, 0.6]);
        assert_eq!(reports.len(), 2);
        assert!(reports[0].avg_latency_ns() <= reports[1].avg_latency_ns());
    }
}
