//! The four benchmark workloads. Each builds its inputs from the seed in
//! set-up and then drives the library through its public entry points,
//! exactly as a user program would.

use crate::spans::Spans;
use bench::{figure_to_csv, loads_for, Figure, Point, Series};
use ib_fabric::routing::{repair_fault_tolerant, RepairState};
use ib_fabric::sim::{par_map_indexed, Simulator, NUM_PHASES};
use ib_fabric::{
    disruption_report, generators, DisruptionReport, ExperimentBuilder, Fabric, FaultAction,
    FaultPlan, Network, PhaseProfile, Routing, RoutingKind, SimConfig, SimReport, TrafficPattern,
    TreeParams, Workload as MessageDag, WorkloadReport,
};
use std::time::Instant;

/// Exact counts read from one operation's output.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Packets delivered over the whole run.
    pub packets: u64,
    pub events: u64,
    pub in_flight: u64,
}

/// Totals of one pass with every engine run observed by a
/// [`PhaseProfile`].
#[derive(Debug, Default)]
pub struct Profiled {
    pub phase_ns: [u64; NUM_PHASES],
    /// Host time of the observed engine runs, summed over runs.
    pub engine_ns: u64,
}

impl Profiled {
    fn absorb(&mut self, other: Profiled) {
        for (sum, ns) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            *sum += ns;
        }
        self.engine_ns += other.engine_ns;
    }
}

/// One engine run observed by a fresh [`PhaseProfile`], timed.
fn observed<T>(run: impl FnOnce(PhaseProfile) -> (T, PhaseProfile)) -> (T, Profiled) {
    let start = Instant::now();
    let (out, profile) = run(PhaseProfile::new());
    let engine_ns = start.elapsed().as_nanos() as u64;
    let phase_ns = profile.rows().map(|(_, ns, _)| ns);
    (
        out,
        Profiled {
            phase_ns,
            engine_ns,
        },
    )
}

/// One workload: inputs built in set-up, then a pass of operations over
/// them. The traced run wraps each engine run in a `sim.point` span.
pub trait Workload {
    type Input;
    /// One operation's output, with its host-time fields zeroed.
    type Out: PartialEq;

    /// One line naming the generated inputs.
    fn inputs(&self) -> String;
    /// Operations in one pass.
    fn ops(&self) -> usize;
    fn setup(&self, spans: &mut Spans) -> Self::Input;
    fn fabrics<'a>(&self, input: &'a Self::Input) -> Vec<&'a Fabric>;
    /// One pass, one output per operation.
    fn run(&self, input: &Self::Input, spans: &mut Spans) -> Vec<Self::Out>;
    /// The pass with every engine run observed by a [`PhaseProfile`].
    fn profile(&self, input: &Self::Input) -> (Vec<Self::Out>, Profiled);
    fn counts(out: &Self::Out) -> Counts;
    /// Whether each output passes the workload's own checks.
    fn check(&self, input: &Self::Input, outs: &[Self::Out]) -> Vec<bool>;
    /// Per-layer metrics only this workload exercises; may time further
    /// layer calls into `spans`. Traced run only.
    fn layers(
        &self,
        _input: &Self::Input,
        _outs: &[Self::Out],
        _spans: &mut Spans,
    ) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Zero the host-time fields, leaving what the seed determines.
fn normalized(mut r: SimReport) -> SimReport {
    r.events_per_sec = 0.0;
    r.packets_per_sec = 0.0;
    r
}

fn sim_counts(r: &SimReport) -> Counts {
    Counts {
        packets: r.total_delivered,
        events: r.events_processed,
        in_flight: r.in_flight_at_end,
    }
}

/// Packets are conserved: every generated packet was delivered, dropped
/// (fault losses included), or is still in the fabric.
fn conserved(r: &SimReport) -> bool {
    r.total_generated == r.total_delivered + r.dropped + r.in_flight_at_end
        && r.fault_lost <= r.dropped
        && r.total_delivered > 0
}

/// Build one fabric; the traced run also times the topology and routing
/// layers on their own.
fn build_fabric(m: u32, n: u32, kind: RoutingKind, spans: &mut Spans) -> Fabric {
    if spans.is_on() {
        let params = TreeParams::new(m, n).expect("benchmark sizes are valid trees");
        let net = spans.time("topology.build", |_| Network::mport_ntree(params));
        spans.time("routing.lft_build", |_| Routing::build(&net, kind));
    }
    spans.time("core.fabric_build", |_| {
        Fabric::builder(m, n)
            .routing(kind)
            .build()
            .expect("benchmark sizes are valid trees")
    })
}

/// Time one engine run as a `sim.point` span.
fn point<T>(spans: &mut Spans, f: impl FnOnce() -> T) -> T {
    spans.time("sim.point", |_| f())
}

// ---------------------------------------------------------------------
// paper_figs: the paper's Figs. 14 + 15
// ---------------------------------------------------------------------

pub struct PaperFigs {
    pub m: u32,
    pub n: u32,
    pub time_ns: u64,
    pub vls: Vec<u8>,
    pub seed: u64,
    /// Compare the figures with the committed CSVs (default seed, full
    /// size only).
    pub golden: bool,
}

const SCHEMES: [RoutingKind; 2] = [RoutingKind::Slid, RoutingKind::Mlid];

const GOLDEN_CSV: [&str; 2] = [
    include_str!("../../results/fig14_8x3_uniform.csv"),
    include_str!("../../results/fig15_8x3_centric50.csv"),
];

impl PaperFigs {
    fn patterns() -> [TrafficPattern; 2] {
        [TrafficPattern::Uniform, TrafficPattern::paper_centric()]
    }

    fn loads(&self, pattern: &TrafficPattern) -> Vec<f64> {
        let nodes = TreeParams::new(self.m, self.n).expect("valid").num_nodes();
        loads_for(pattern, nodes)
    }

    /// Every curve of both figures with its load grid, in figure order:
    /// pattern, scheme, VLs.
    fn curves<'a>(&'a self, fabrics: &'a [Fabric]) -> Vec<(ExperimentBuilder<'a>, Vec<f64>)> {
        let mut curves = Vec::new();
        for pattern in Self::patterns() {
            let loads = self.loads(&pattern);
            for fabric in fabrics {
                for &vl in &self.vls {
                    let exp = fabric
                        .experiment()
                        .seed(self.seed)
                        .virtual_lanes(vl)
                        .traffic(pattern.clone())
                        .duration_ns(self.time_ns);
                    curves.push((exp, loads.clone()));
                }
            }
        }
        curves
    }

    /// The two figures as `bench::figure_to_csv` renders them.
    fn csvs(&self, outs: &[SimReport]) -> Vec<String> {
        let mut reports = outs.iter();
        Self::patterns()
            .iter()
            .map(|pattern| {
                let loads = self.loads(pattern);
                let mut series = Vec::new();
                for kind in SCHEMES {
                    for &vls in &self.vls {
                        let points = reports
                            .by_ref()
                            .take(loads.len())
                            .map(|r| Point {
                                offered_load: r.offered_load,
                                accepted: r.accepted_bytes_per_ns_per_node,
                                avg_latency_ns: r.avg_latency_ns(),
                                p99_latency_ns: r.latency.quantile(0.99),
                                delivered: r.delivered,
                            })
                            .collect();
                        series.push(Series {
                            scheme: kind.as_str().to_uppercase(),
                            vls,
                            points,
                        });
                    }
                }
                figure_to_csv(&Figure {
                    m: self.m,
                    n: self.n,
                    pattern: pattern.name(),
                    series,
                })
            })
            .collect()
    }
}

impl Workload for PaperFigs {
    type Input = Vec<Fabric>;
    type Out = SimReport;

    fn inputs(&self) -> String {
        let [u, c] = Self::patterns().map(|p| self.loads(&p).len());
        format!(
            "FT({},{}) SLID+MLID x VL{:?}, uniform ({u} loads) + centric50 ({c} loads), \
             {} us per point, seed {}",
            self.m,
            self.n,
            self.vls,
            self.time_ns / 1000,
            self.seed
        )
    }

    fn ops(&self) -> usize {
        let per_curve: usize = Self::patterns().iter().map(|p| self.loads(p).len()).sum();
        per_curve * SCHEMES.len() * self.vls.len()
    }

    fn setup(&self, spans: &mut Spans) -> Vec<Fabric> {
        SCHEMES
            .iter()
            .map(|&kind| build_fabric(self.m, self.n, kind, spans))
            .collect()
    }

    fn fabrics<'a>(&self, input: &'a Vec<Fabric>) -> Vec<&'a Fabric> {
        input.iter().collect()
    }

    fn run(&self, input: &Vec<Fabric>, spans: &mut Spans) -> Vec<SimReport> {
        let mut outs = Vec::with_capacity(self.ops());
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (exp, loads) in self.curves(input) {
            if !spans.is_on() {
                // A curve swept in rounds of two loads per core, each round
                // a part of the pass: a whole curve's sweep takes 0.3-0.5 s,
                // too long a sample to be steady on a shared host.
                for round in loads.chunks(2 * workers) {
                    let reports = spans.time("sim.sweep", |_| exp.clone().run_sweep(round));
                    outs.extend(reports.into_iter().map(normalized));
                }
                continue;
            }
            spans.time("sim.sweep", |spans| {
                // The same independent points `run_sweep` fans out, each timed.
                let timed = par_map_indexed(&loads, |_, &load| {
                    let start = Instant::now();
                    let report = exp.clone().offered_load(load).run();
                    (report, start, Instant::now())
                });
                for (report, start, end) in timed {
                    spans.record("sim.point", start, end);
                    outs.push(normalized(report));
                }
            });
        }
        outs
    }

    fn profile(&self, input: &Vec<Fabric>) -> (Vec<SimReport>, Profiled) {
        let mut outs = Vec::with_capacity(self.ops());
        let mut prof = Profiled::default();
        for (exp, loads) in self.curves(input) {
            let runs = par_map_indexed(&loads, |_, &load| {
                observed(|p| exp.clone().offered_load(load).run_observed(p))
            });
            for (report, point) in runs {
                prof.absorb(point);
                outs.push(normalized(report));
            }
        }
        (outs, prof)
    }

    fn counts(out: &SimReport) -> Counts {
        sim_counts(out)
    }

    fn check(&self, _input: &Vec<Fabric>, outs: &[SimReport]) -> Vec<bool> {
        let mut ok: Vec<bool> = outs
            .iter()
            .map(|r| conserved(r) && r.dropped == 0)
            .collect();
        if self.golden {
            // One CSV row per operating point, in the same order.
            let csvs = self.csvs(outs);
            let got: Vec<&str> = csvs.iter().flat_map(|c| c.lines().skip(1)).collect();
            let want: Vec<&str> = GOLDEN_CSV.iter().flat_map(|c| c.lines().skip(1)).collect();
            for (i, ok) in ok.iter_mut().enumerate() {
                *ok &= want.len() == got.len() && got.get(i) == want.get(i);
            }
        }
        ok
    }
}

// ---------------------------------------------------------------------
// scaleout: one FT(16,3) MLID run past saturation
// ---------------------------------------------------------------------

pub struct Scaleout {
    pub m: u32,
    pub n: u32,
    pub load: f64,
    pub time_ns: u64,
    pub seed: u64,
}

impl Scaleout {
    fn experiment<'a>(&self, fabric: &'a Fabric) -> ExperimentBuilder<'a> {
        fabric
            .experiment()
            .seed(self.seed)
            .virtual_lanes(1)
            .traffic(TrafficPattern::Uniform)
            .offered_load(self.load)
            .duration_ns(self.time_ns)
    }
}

impl Workload for Scaleout {
    type Input = Fabric;
    type Out = SimReport;

    fn inputs(&self) -> String {
        format!(
            "FT({},{}) MLID table backend, uniform, load {}, VL1, {} us, seed {}",
            self.m,
            self.n,
            self.load,
            self.time_ns / 1000,
            self.seed
        )
    }

    fn ops(&self) -> usize {
        1
    }

    fn setup(&self, spans: &mut Spans) -> Fabric {
        build_fabric(self.m, self.n, RoutingKind::Mlid, spans)
    }

    fn fabrics<'a>(&self, input: &'a Fabric) -> Vec<&'a Fabric> {
        vec![input]
    }

    fn run(&self, fabric: &Fabric, spans: &mut Spans) -> Vec<SimReport> {
        vec![normalized(point(spans, || self.experiment(fabric).run()))]
    }

    fn profile(&self, fabric: &Fabric) -> (Vec<SimReport>, Profiled) {
        let (report, prof) = observed(|p| self.experiment(fabric).run_observed(p));
        (vec![normalized(report)], prof)
    }

    fn counts(out: &SimReport) -> Counts {
        sim_counts(out)
    }

    fn check(&self, _fabric: &Fabric, outs: &[SimReport]) -> Vec<bool> {
        outs.iter()
            .map(|r| conserved(r) && r.dropped == 0)
            .collect()
    }
}

// ---------------------------------------------------------------------
// faults: live link kills, SM repair, disruption report
// ---------------------------------------------------------------------

pub struct Faults {
    pub m: u32,
    pub n: u32,
    pub kill: usize,
    pub load: f64,
    pub time_ns: u64,
    pub seed: u64,
}

impl Faults {
    fn experiment<'a>(&self, fabric: &'a Fabric, plan: &FaultPlan) -> ExperimentBuilder<'a> {
        fabric
            .experiment()
            .seed(self.seed)
            .traffic(TrafficPattern::Uniform)
            .offered_load(self.load)
            .duration_ns(self.time_ns)
            .faults(plan.clone())
    }
}

impl Workload for Faults {
    type Input = (Fabric, FaultPlan);
    type Out = (SimReport, DisruptionReport);

    fn inputs(&self) -> String {
        format!(
            "FT({},{}) MLID, kill {} seeded inter-switch links at {} us, drop policy, \
             uniform load {}, {} us, seed {}",
            self.m,
            self.n,
            self.kill,
            self.time_ns / 4000,
            self.load,
            self.time_ns / 1000,
            self.seed
        )
    }

    fn ops(&self) -> usize {
        1
    }

    fn setup(&self, spans: &mut Spans) -> (Fabric, FaultPlan) {
        let fabric = build_fabric(self.m, self.n, RoutingKind::Mlid, spans);
        let plan = spans.time("faults.plan", |_| {
            let killed = FaultPlan::pick_links(fabric.network(), self.kill, self.seed);
            assert_eq!(killed.len(), self.kill, "the fabric has enough cables");
            let plan = FaultPlan::kill_links_at(&killed, self.time_ns / 4);
            plan.validate(fabric.network())
                .expect("a seeded kill plan is valid");
            plan
        });
        (fabric, plan)
    }

    fn fabrics<'a>(&self, input: &'a (Fabric, FaultPlan)) -> Vec<&'a Fabric> {
        vec![&input.0]
    }

    fn run(&self, (fabric, plan): &(Fabric, FaultPlan), spans: &mut Spans) -> Vec<Self::Out> {
        let report = point(spans, || self.experiment(fabric, plan).run());
        let disruption = spans.time("faults.report", |_| {
            disruption_report(fabric.network(), fabric.routing(), plan, &report)
        });
        vec![(normalized(report), disruption)]
    }

    fn profile(&self, (fabric, plan): &(Fabric, FaultPlan)) -> (Vec<Self::Out>, Profiled) {
        let (report, prof) = observed(|p| self.experiment(fabric, plan).run_observed(p));
        let disruption = disruption_report(fabric.network(), fabric.routing(), plan, &report);
        (vec![(normalized(report), disruption)], prof)
    }

    fn counts((report, _): &Self::Out) -> Counts {
        sim_counts(report)
    }

    fn check(&self, _input: &(Fabric, FaultPlan), outs: &[Self::Out]) -> Vec<bool> {
        outs.iter()
            .map(|(r, d)| {
                let s = &d.survival;
                // MLID keeps every one of the 2^LMC paths of every pair.
                let all_paths = s.min_per_pair == s.lids_per_node
                    && s.disconnected_pairs == 0
                    && s.surviving_paths == s.pairs * u64::from(s.lids_per_node);
                // Patch repair touches less than a full rebuild would.
                let patched_less = d.faults.len() == self.kill
                    && d.faults.iter().all(|f| f.entries_patched < f.table_entries);
                conserved(r) && d.packets_lost == r.fault_lost && all_paths && patched_less
            })
            .collect()
    }

    fn layers(
        &self,
        (fabric, plan): &(Fabric, FaultPlan),
        outs: &[Self::Out],
        spans: &mut Spans,
    ) -> Vec<(&'static str, f64)> {
        // The SM's incremental repair for the same plan, one fault at a
        // time, as the engine applies it mid-run.
        let net = fabric.network();
        let kind = fabric.routing().kind();
        let mut state = RepairState::new(net);
        let mut prev = fabric.routing().clone();
        let mut dead = Vec::new();
        let mut patched = 0;
        for ev in &plan.events {
            if let FaultAction::KillLink(l) = ev.action {
                dead.push(l as usize);
            }
            dead.sort_unstable_by(|a, b| b.cmp(a)); // high to low keeps indices valid
            let mut degraded = net.clone();
            for &i in &dead {
                degraded.remove_link(i);
            }
            let (routing, _, stats) = spans.time("routing.repair", |_| {
                repair_fault_tolerant(&degraded, kind, &prev, &mut state)
            });
            patched += stats.entries_patched;
            prev = routing;
        }
        let (lost, rerouted) = outs.iter().fold((0, 0), |(l, r), (rep, _)| {
            (l + rep.fault_lost, r + rep.fault_rerouted)
        });
        vec![
            ("routing.repair_ms", spans.total_ms("routing.repair")),
            ("routing.entries_patched", patched as f64),
            ("faults.run_ms", spans.total_ms("sim.point")),
            ("faults.report_ms", spans.total_ms("faults.report")),
            ("faults.lost", lost as f64),
            ("faults.rerouted", rerouted as f64),
        ]
    }
}

// ---------------------------------------------------------------------
// alltoall: a message DAG driven to completion
// ---------------------------------------------------------------------

pub struct AllToAll {
    pub m: u32,
    pub n: u32,
    pub bytes: u64,
    pub seed: u64,
}

impl AllToAll {
    fn config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            ..SimConfig::default()
        }
    }
}

impl Workload for AllToAll {
    type Input = (Fabric, MessageDag);
    type Out = WorkloadReport;

    fn inputs(&self) -> String {
        format!(
            "FT({},{}) MLID, pairwise all-to-all of {} B messages, seed {}",
            self.m, self.n, self.bytes, self.seed
        )
    }

    fn ops(&self) -> usize {
        1
    }

    fn setup(&self, spans: &mut Spans) -> (Fabric, MessageDag) {
        let fabric = build_fabric(self.m, self.n, RoutingKind::Mlid, spans);
        let dag = spans.time("workload.gen", |_| {
            generators::all_to_all(fabric.num_nodes(), self.bytes)
        });
        (fabric, dag)
    }

    fn fabrics<'a>(&self, input: &'a (Fabric, MessageDag)) -> Vec<&'a Fabric> {
        vec![&input.0]
    }

    fn run(&self, (fabric, dag): &(Fabric, MessageDag), spans: &mut Spans) -> Vec<WorkloadReport> {
        let exp = fabric.experiment().config(self.config());
        vec![point(spans, || exp.run_workload(dag))]
    }

    fn profile(&self, (fabric, dag): &(Fabric, MessageDag)) -> (Vec<WorkloadReport>, Profiled) {
        let (report, prof) = observed(|p| {
            let (net, routing) = (fabric.network(), fabric.routing());
            Simulator::for_workload_observed(net, routing, self.config(), dag, p)
                .run_workload_observed()
        });
        (vec![report], prof)
    }

    fn counts(out: &WorkloadReport) -> Counts {
        Counts {
            packets: out.packets,
            events: out.events,
            in_flight: 0,
        }
    }

    fn check(&self, (_, dag): &(Fabric, MessageDag), outs: &[WorkloadReport]) -> Vec<bool> {
        let packet_bytes = u64::from(self.config().packet_bytes);
        let packets: u64 = dag
            .messages
            .iter()
            .map(|m| m.bytes.div_ceil(packet_bytes))
            .sum();
        outs.iter()
            .map(|r| {
                r.messages == dag.messages.len() as u64
                    && r.timings.len() == dag.messages.len()
                    && r.packets == packets
                    && r.makespan_ns > 0
            })
            .collect()
    }

    fn layers(
        &self,
        _input: &(Fabric, MessageDag),
        outs: &[WorkloadReport],
        spans: &mut Spans,
    ) -> Vec<(&'static str, f64)> {
        let (messages, packets) = outs
            .iter()
            .fold((0, 0), |(m, p), r| (m + r.messages, p + r.packets));
        vec![
            ("workload.run_ms", spans.total_ms("sim.point")),
            ("workload.messages", messages as f64),
            ("workload.packets", packets as f64),
        ]
    }
}
