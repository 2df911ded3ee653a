//! The bench-trajectory harness: run the representative workloads, write
//! `BENCH_sim.json`, and compare against the committed baseline.
//!
//! ```text
//! cargo run --release -p bench --bin bench -- [options]
//!   --out <path>        where to write the snapshot  [BENCH_sim.json]
//!   --baseline <path>   baseline to diff against     [the --out path]
//!   --threshold <frac>  regression threshold         [0.25 = 25% slower]
//!   --iters <n>         iterations per workload (best-of) [3]
//!   --gate              exit non-zero on regressions beyond --threshold
//!   --warn-only         report regressions but exit 0 (the default;
//!                       overrides --gate when both are given)
//!   --quick             shorter simulations (CI smoke; same names)
//!   --filter <substr>   run only workloads whose name contains substr
//!                       (the snapshot then holds just those rows — use a
//!                       scratch --out so the committed trajectory keeps
//!                       its full row set; a filter matching no row lists
//!                       the available names and exits non-zero)
//! ```
//!
//! Regressions beyond the threshold are reported on every run; the exit
//! code only reflects them under `--gate` (wall times are host-dependent,
//! so failing is opt-in). Compare trajectories only across runs on
//! comparable hardware.

use bench::trajectory::{
    compare, par_speedups, BenchReport, PhaseSplit, SimTelemetry, WorkloadResult,
};
use ibfat_routing::{
    all_to_all_loads, all_to_all_loads_oracle, LidSpace, MlidScheme, Routing, RoutingKind,
    RoutingScheme, SlidScheme,
};
use ibfat_sim::{
    run_observed, run_once, run_once_par, PhaseProfile, RouteBackend, RunSpec, SimConfig,
    TrafficPattern,
};
use ibfat_topology::{Network, TreeParams};
use std::time::Instant;

/// Simulated configurations: the `sim_50us` criterion set, with VL 4 on
/// the paper's mid-size FT(8,3) as the headline, plus the extended-LID
/// scale-out fabric FT(16,3) (1024 nodes) at VL 1.
const SIM_CONFIGS: [(u32, u32, u8); 6] = [
    (4, 3, 1),
    (4, 3, 4),
    (8, 3, 1),
    (8, 3, 4),
    (16, 2, 1),
    (16, 3, 1),
];

/// Oracle-backend configurations: the headline fabric (for a direct
/// table-vs-oracle comparison against `sim_engine/8x3/vl4`) and the
/// scale-out fabric whose flat MLID LFT costs ~21 MB the oracle never
/// allocates.
const ORACLE_CONFIGS: [(u32, u32, u8); 2] = [(8, 3, 4), (16, 3, 1)];

/// Routing-build configurations (Table 1 sizes × both schemes, plus the
/// extended-LID scale-out point FT(16, 3): 1024 nodes, 2^16 LIDs).
const LFT_CONFIGS: [(u32, u32); 5] = [(4, 3), (8, 3), (16, 2), (32, 2), (16, 3)];

struct Opts {
    out: String,
    baseline: Option<String>,
    threshold: f64,
    iters: u32,
    gate: bool,
    warn_only: bool,
    quick: bool,
    filter: Option<String>,
    /// Every row name offered to [`wanted`](Self::wanted) this run —
    /// the candidate set a zero-match `--filter` is reported against.
    offered: std::cell::RefCell<Vec<String>>,
}

impl Opts {
    /// Whether a workload name passes `--filter` (no filter = run all).
    /// Every name asked about is recorded, so a filter that matches
    /// nothing can list what it could have matched.
    fn wanted(&self, name: &str) -> bool {
        self.offered.borrow_mut().push(name.to_string());
        match &self.filter {
            None => true,
            Some(f) => name.contains(f.as_str()),
        }
    }

    /// The sorted, deduplicated candidate row names seen this run.
    fn offered_names(&self) -> Vec<String> {
        let mut names = self.offered.borrow().clone();
        names.sort();
        names.dedup();
        names
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        out: "BENCH_sim.json".into(),
        baseline: None,
        threshold: 0.25,
        iters: 3,
        gate: false,
        warn_only: false,
        quick: false,
        filter: None,
        offered: std::cell::RefCell::new(Vec::new()),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
        };
        match arg.as_str() {
            "--out" => opts.out = value("--out"),
            "--baseline" => opts.baseline = Some(value("--baseline")),
            "--threshold" => {
                opts.threshold = value("--threshold")
                    .parse()
                    .expect("--threshold takes a fraction, e.g. 0.25")
            }
            "--iters" => {
                opts.iters = value("--iters")
                    .parse()
                    .expect("--iters takes a positive integer")
            }
            "--gate" => opts.gate = true,
            "--warn-only" => opts.warn_only = true,
            "--quick" => opts.quick = true,
            "--filter" => opts.filter = Some(value("--filter")),
            other => panic!("unknown option: {other}"),
        }
    }
    assert!(opts.iters > 0, "--iters must be positive");
    opts
}

/// Run `work` `iters` times; return the best wall time (ns) and the
/// (deterministic) work-unit count it reported.
fn best_of(iters: u32, mut work: impl FnMut() -> u64) -> (u64, u64) {
    let mut best = u64::MAX;
    let mut events = 0;
    for _ in 0..iters {
        let start = Instant::now();
        events = work();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    (best, events)
}

fn result(name: String, wall_ns: u64, events: u64, iters: u32) -> WorkloadResult {
    let events_per_sec = if events > 0 && wall_ns > 0 {
        events as f64 / (wall_ns as f64 / 1e9)
    } else {
        0.0
    };
    println!(
        "  {name:<28} {:>9.3} ms   {:>10.0} ev/s",
        wall_ns as f64 / 1e6,
        events_per_sec
    );
    WorkloadResult {
        name,
        wall_ns,
        events,
        events_per_sec,
        iters,
        threads_available: 0,
        phases: Vec::new(),
        sim_telemetry: None,
    }
}

fn run_workloads(opts: &Opts) -> Vec<WorkloadResult> {
    let sim_time_ns: u64 = if opts.quick { 20_000 } else { 50_000 };
    let mut out = Vec::new();

    println!("sim_engine ({} ns simulated, load 0.5):", sim_time_ns);
    for &(m, n, vls) in &SIM_CONFIGS {
        let name = format!("sim_engine/{m}x{n}/vl{vls}");
        if !opts.wanted(&name) {
            continue;
        }
        let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid configs"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let cfg = SimConfig::paper(vls);
        let (wall, events) = best_of(opts.iters, || {
            run_once(
                &net,
                &routing,
                cfg.clone(),
                TrafficPattern::Uniform,
                RunSpec::new(0.5, sim_time_ns),
            )
            .events_processed
        });
        out.push(result(name, wall, events, opts.iters));
    }

    // The table-free data plane: every per-hop forwarding decision is
    // answered by the closed-form `RouteOracle` instead of an LFT read,
    // over a `Routing` that never materialized a table. Reports are
    // bit-identical to the table backend (pinned by the route_backend
    // proptest), so these rows measure the pure lookup-cost delta — and
    // on FT(16,3) they run a fabric whose flat MLID LFT (~21 MB) is
    // never allocated at all.
    println!("sim_engine_oracle (closed-form hop routing, table-free):");
    for &(m, n, vls) in &ORACLE_CONFIGS {
        let name = format!("sim_engine_oracle/{m}x{n}/vl{vls}");
        if !opts.wanted(&name) {
            continue;
        }
        let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid configs"));
        let routing = Routing::build_table_free(&net, RoutingKind::Mlid);
        let cfg = SimConfig {
            route_backend: RouteBackend::Oracle,
            ..SimConfig::paper(vls)
        };
        let (wall, events) = best_of(opts.iters, || {
            run_once(
                &net,
                &routing,
                cfg.clone(),
                TrafficPattern::Uniform,
                RunSpec::new(0.5, sim_time_ns),
            )
            .events_processed
        });
        out.push(result(name, wall, events, opts.iters));
    }

    // The headline configuration on the sharded engine, at 1/2/4 worker
    // threads. Reports (and so `events`) are bit-identical across the
    // thread counts and to the sequential engine; only wall time moves,
    // and only with the host's core count — on a single-core runner the
    // t2/t4 rows pay barrier overhead for no parallelism. Compare these
    // rows to their own history on comparable hardware, not across hosts.
    println!("sim_engine_par (8x3/vl4, sharded engine):");
    {
        // Host core count, stamped on every par row: a t4 wall time from
        // a 1-core box is synchronization overhead, not parallelism, and
        // whoever reads the trajectory later needs to tell them apart.
        let threads_available = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(0);
        let rows =
            [1usize, 2, 4].map(|threads| (format!("sim_engine_par/8x3/vl4/t{threads}"), threads));
        if rows.iter().any(|(name, _)| opts.wanted(name)) {
            let net = Network::mport_ntree(TreeParams::new(8, 3).expect("valid config"));
            let routing = Routing::build(&net, RoutingKind::Mlid);
            let cfg = SimConfig::paper(4);
            for (name, threads) in rows {
                if !opts.wanted(&name) {
                    continue;
                }
                let (wall, events) = best_of(opts.iters, || {
                    run_once_par(
                        &net,
                        &routing,
                        cfg.clone(),
                        TrafficPattern::Uniform,
                        RunSpec::new(0.5, sim_time_ns),
                        threads,
                    )
                    .events_processed
                });
                let mut row = result(name, wall, events, opts.iters);
                row.threads_available = threads_available;
                // One extra untimed run with the engine's self-telemetry
                // on: structural context (windows, barrier waits, shard
                // imbalance) stamped next to the wall time it explains.
                // Kept out of `best_of` so the timed iterations and their
                // baseline comparison stay telemetry-free.
                let (_, tel) = ibfat_sim::try_run_once_par_telemetry(
                    &net,
                    &routing,
                    cfg.clone(),
                    TrafficPattern::Uniform,
                    RunSpec::new(0.5, sim_time_ns),
                    threads,
                )
                .expect("telemetry run matches the timed configuration");
                println!(
                    "    t{threads}: {} windows, {:.3} ms barrier wait, {} msgs, imbalance {:.2}",
                    tel.windows(),
                    tel.barrier_wait_ns() as f64 / 1e6,
                    tel.total_msgs(),
                    tel.event_imbalance()
                );
                row.sim_telemetry = Some(SimTelemetry {
                    threads: threads as u32,
                    windows: tel.windows(),
                    barrier_wait_ns: tel.barrier_wait_ns(),
                    msgs: tel.total_msgs(),
                    edge_cut: tel.edge_cut as u64,
                    event_imbalance: tel.event_imbalance(),
                });
                out.push(row);
            }
        }
    }

    // The headline configuration once more, under the self-profiling
    // probe: where does the engine's wall time go, phase by phase? The
    // run itself is identical (the probe cannot perturb the simulation),
    // only slower by the two `Instant` reads around each dispatch — so
    // this row is NOT comparable to its `sim_engine` twin, only to its
    // own history.
    println!("sim_profile (8x3/vl4, per-phase wall time):");
    if opts.wanted("sim_profile/8x3/vl4") {
        let net = Network::mport_ntree(TreeParams::new(8, 3).expect("valid config"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let cfg = SimConfig::paper(4);
        let mut best_wall = u64::MAX;
        let mut best: Option<(u64, PhaseProfile)> = None;
        for _ in 0..opts.iters {
            let start = Instant::now();
            let (report, prof) = run_observed(
                &net,
                &routing,
                cfg.clone(),
                TrafficPattern::Uniform,
                RunSpec::new(0.5, sim_time_ns),
                PhaseProfile::new(),
            );
            let wall = start.elapsed().as_nanos() as u64;
            if wall < best_wall {
                best_wall = wall;
                best = Some((report.events_processed, prof));
            }
        }
        let (events, prof) = best.expect("--iters is positive");
        let mut row = result("sim_profile/8x3/vl4".into(), best_wall, events, opts.iters);
        row.phases = prof
            .rows()
            .into_iter()
            .map(|(phase, wall_ns, events)| PhaseSplit {
                name: phase.name().to_string(),
                wall_ns,
                events,
            })
            .collect();
        for p in &row.phases {
            println!(
                "    {:<26} {:>9.3} ms   {:>10} events",
                p.name,
                p.wall_ns as f64 / 1e6,
                p.events
            );
        }
        out.push(row);
    }

    println!("lft_build:");
    for &(m, n) in &LFT_CONFIGS {
        let kinds = [RoutingKind::Slid, RoutingKind::Mlid];
        if !kinds
            .iter()
            .any(|k| opts.wanted(&format!("lft_build/{m}x{n}/{}", k.as_str())))
        {
            continue;
        }
        let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid configs"));
        for kind in kinds {
            if !opts.wanted(&format!("lft_build/{m}x{n}/{}", kind.as_str())) {
                continue;
            }
            let (wall, events) = best_of(opts.iters, || {
                let routing = Routing::build(&net, kind);
                // Work unit: programmed forwarding entries.
                (0..net.num_switches())
                    .map(|sw| {
                        routing
                            .lft(ibfat_topology::SwitchId(sw as u32))
                            .entries()
                            .count() as u64
                    })
                    .sum()
            });
            out.push(result(
                format!("lft_build/{m}x{n}/{}", kind.as_str()),
                wall,
                events,
                opts.iters,
            ));
        }
    }

    // The dense parallel build's mandate: beat the per-entry serial
    // reference by >=2x on the scale-out size, measured in the same run.
    // These rows time ONLY LID assignment + table construction (no
    // entry-count sweep), so compare them to each other, not to the
    // `lft_build` rows above.
    println!("lft_build_serial (per-entry reference, 16x3):");
    let serial_dense_rows: Vec<String> = ["lft_build_serial", "lft_build_dense"]
        .iter()
        .flat_map(|prefix| ["slid", "mlid"].map(|kind| format!("{prefix}/16x3/{kind}")))
        .collect();
    if serial_dense_rows.iter().any(|name| opts.wanted(name)) {
        let net = Network::mport_ntree(TreeParams::new(16, 3).expect("valid config"));
        let entries = |lfts: &[ibfat_routing::Lft], space: &LidSpace| {
            lfts.len() as u64 * u64::from(space.max_lid().0)
        };
        for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
            if !opts.wanted(&format!("lft_build_serial/16x3/{}", kind.as_str())) {
                continue;
            }
            let lmc = match kind {
                RoutingKind::Mlid => net.params().lmc(),
                _ => 0,
            };
            let (wall, events) = best_of(opts.iters, || {
                let space = LidSpace::new(net.params().num_nodes(), lmc);
                let lfts = match kind {
                    RoutingKind::Mlid => MlidScheme::build_lfts_reference(&net, &space),
                    _ => SlidScheme::build_lfts_reference(&net, &space),
                };
                let total = entries(&lfts, &space);
                std::hint::black_box(&lfts);
                total
            });
            out.push(result(
                format!("lft_build_serial/16x3/{}", kind.as_str()),
                wall,
                events,
                opts.iters,
            ));
        }
        for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
            if !opts.wanted(&format!("lft_build_dense/16x3/{}", kind.as_str())) {
                continue;
            }
            let lmc = match kind {
                RoutingKind::Mlid => net.params().lmc(),
                _ => 0,
            };
            let (wall, events) = best_of(opts.iters, || {
                let space = LidSpace::new(net.params().num_nodes(), lmc);
                let lfts = match kind {
                    RoutingKind::Mlid => MlidScheme.build_lfts(&net, &space),
                    _ => SlidScheme.build_lfts(&net, &space),
                };
                let total = entries(&lfts, &space);
                std::hint::black_box(&lfts);
                total
            });
            out.push(result(
                format!("lft_build_dense/16x3/{}", kind.as_str()),
                wall,
                events,
                opts.iters,
            ));
        }
    }

    if !opts.quick {
        // FT(32, 3): 1280 switches x 2^21 LIDs — materializing every
        // table at once would be 2.6 GB, so this row streams one
        // per-switch dense build at a time and drops each table.
        println!("lft_build (streamed per switch, 32x3):");
        let params = TreeParams::new(32, 3).expect("valid config");
        for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
            if !opts.wanted(&format!("lft_build/32x3/{}", kind.as_str())) {
                continue;
            }
            let lmc = match kind {
                RoutingKind::Mlid => params.lmc(),
                _ => 0,
            };
            let space = LidSpace::new(params.num_nodes(), lmc);
            let per_switch = u64::from(space.max_lid().0);
            let (wall, events) = best_of(opts.iters, || {
                let mut total = 0u64;
                for sw in 0..params.num_switches() {
                    let lft = match kind {
                        RoutingKind::Mlid => MlidScheme::build_switch_lft(
                            params,
                            &space,
                            ibfat_topology::SwitchId(sw),
                        ),
                        _ => SlidScheme::build_switch_lft(
                            params,
                            &space,
                            ibfat_topology::SwitchId(sw),
                        ),
                    };
                    std::hint::black_box(&lft);
                    total += per_switch;
                }
                total
            });
            out.push(result(
                format!("lft_build/32x3/{}", kind.as_str()),
                wall,
                events,
                opts.iters,
            ));
        }
    }

    println!("loads_all_to_all (dense channel-load analysis):");
    {
        // Table-walked streaming over parallel source shards.
        for &(m, n) in &[(8u32, 3u32), (16, 3)] {
            if opts.quick && (m, n) == (16, 3) {
                continue; // ~1M traced routes: full runs only
            }
            if !opts.wanted(&format!("loads_all_to_all/{m}x{n}")) {
                continue;
            }
            let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid configs"));
            let routing = Routing::build(&net, RoutingKind::Mlid);
            let nodes = u64::from(net.params().num_nodes());
            let (wall, events) = best_of(opts.iters, || {
                let loads = all_to_all_loads(&net, &routing).expect("pristine fabric routes");
                std::hint::black_box(loads.max_up);
                nodes * (nodes - 1)
            });
            out.push(result(
                format!("loads_all_to_all/{m}x{n}"),
                wall,
                events,
                opts.iters,
            ));
        }
        if !opts.quick && opts.wanted("loads_all_to_all/32x3") {
            // FT(32, 3): 8192 nodes, 67M flows. The closed-form oracle
            // streams the whole matrix without tables or a graph; one
            // iteration — the workload is deterministic and long.
            let params = TreeParams::new(32, 3).expect("valid config");
            let nodes = u64::from(params.num_nodes());
            let (wall, events) = best_of(1, || {
                let loads = all_to_all_loads_oracle(params, RoutingKind::Mlid)
                    .expect("mlid has a closed form");
                std::hint::black_box(loads.max_up);
                nodes * (nodes - 1)
            });
            out.push(result("loads_all_to_all/32x3".into(), wall, events, 1));
        }
    }

    // Message-level workloads driven to completion on the headline
    // fabric. The work unit is events processed, which is deterministic
    // (the run ends when the collective finishes, not at a horizon);
    // wall time is host-dependent like every other row, and these are
    // warn-only in the comparator. `--quick` shrinks the payload.
    println!("workload (message engine, 8x3):");
    if ["workload_allreduce/8x3", "workload_alltoall/8x3"]
        .iter()
        .any(|name| opts.wanted(name))
    {
        let net = Network::mport_ntree(TreeParams::new(8, 3).expect("valid config"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let cfg = SimConfig::paper(1);
        let bytes: u64 = if opts.quick { 512 } else { 4096 };
        let nodes = net.num_nodes() as u32;
        let rows: [(&str, ibfat_sim::Workload); 2] = [
            (
                "workload_allreduce/8x3",
                ibfat_sim::generators::allreduce_ring(nodes, bytes),
            ),
            (
                "workload_alltoall/8x3",
                ibfat_sim::generators::all_to_all(nodes, bytes),
            ),
        ];
        for (name, wl) in rows {
            if !opts.wanted(name) {
                continue;
            }
            let (wall, events) = best_of(opts.iters, || {
                ibfat_sim::run_workload(&net, &routing, cfg.clone(), &wl).events
            });
            out.push(result(name.to_string(), wall, events, opts.iters));
        }
    }

    println!("path_select:");
    let lookups: u64 = if opts.quick { 200_000 } else { 1_000_000 };
    for &(m, n) in &[(8u32, 3u32), (32, 2)] {
        if !opts.wanted(&format!("path_select/{m}x{n}")) {
            continue;
        }
        let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid configs"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let nodes = net.num_nodes() as u32;
        let (wall, events) = best_of(opts.iters, || {
            let mut acc = 0u64;
            for i in 0..lookups {
                let src = ibfat_topology::NodeId(((i * 7 + 1) % u64::from(nodes)) as u32);
                let dst = ibfat_topology::NodeId(((i * 13 + 3) % u64::from(nodes)) as u32);
                if src != dst {
                    acc = acc.wrapping_add(u64::from(routing.select_dlid(src, dst).0));
                }
            }
            std::hint::black_box(acc);
            lookups
        });
        out.push(result(
            format!("path_select/{m}x{n}"),
            wall,
            events,
            opts.iters,
        ));
    }

    out
}

fn main() {
    let opts = parse_opts();
    let workloads = run_workloads(&opts);
    if workloads.is_empty() {
        if let Some(f) = &opts.filter {
            eprintln!("--filter {f:?} matches no workload; available rows:");
            for name in opts.offered_names() {
                eprintln!("  {name}");
            }
            std::process::exit(1);
        }
    }
    let report = BenchReport::new(workloads);

    let speedups = par_speedups(&report);
    if !speedups.is_empty() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        println!("\nsharded-engine speedup over its t1 row (this host, {cores} core(s)):");
        for (name, threads, speedup) in &speedups {
            println!("  {name:<28} {threads} thread(s)  {speedup:>5.2}x");
        }
        if cores == 1 {
            // A t4 row on one core measures synchronization overhead, not
            // parallelism — flagging it as "slow" would be noise by
            // construction, so the speedup warnings are skipped outright.
            println!("  (1-CPU host: tN rows measure overhead only; speedup warnings skipped)");
        } else {
            for (name, threads, speedup) in &speedups {
                if *threads > 1 && *speedup < 1.0 {
                    println!("  warning: {name} is slower than its t1 twin on a {cores}-core host");
                }
            }
        }
    }

    // The control-plane overhaul's mandate, checked on every run that
    // measured both sides: dense parallel build vs per-entry reference.
    for kind in ["slid", "mlid"] {
        let (dense, serial) = (
            report.get(&format!("lft_build_dense/16x3/{kind}")),
            report.get(&format!("lft_build_serial/16x3/{kind}")),
        );
        if let (Some(d), Some(s)) = (dense, serial) {
            if d.wall_ns > 0 {
                println!(
                    "\nlft_build_dense/16x3/{kind} is {:.2}x the serial reference",
                    s.wall_ns as f64 / d.wall_ns as f64
                );
            }
        }
    }

    // Compare against the baseline BEFORE overwriting --out. A missing
    // or empty baseline seeds a fresh trajectory; a corrupt one warns
    // (this binary's job is to measure, not to gatekeep bad files).
    let baseline_path = opts.baseline.as_deref().unwrap_or(&opts.out);
    let mut regressed = false;
    match BenchReport::load(baseline_path) {
        Err(e) => println!("\nskipping comparison — {e}"),
        Ok(None) => println!("\nno baseline at {baseline_path}; writing a fresh trajectory"),
        Ok(Some(baseline)) => {
            let deltas = compare(&baseline, &report).expect("comparable schemas");
            println!(
                "\nvs baseline {baseline_path} (threshold {:.0}%):",
                opts.threshold * 100.0
            );
            for d in &deltas {
                let verdict = if d.is_regression(opts.threshold) {
                    // Sharded-engine rows are informational: their wall
                    // time tracks the host's core count, so a different
                    // (or busier) machine is not a code regression. The
                    // control-plane rows share that fate — the parallel
                    // builders scale with cores, and the sub-millisecond
                    // dense-build rows are pure scheduling noise on a
                    // shared box.
                    // The FT(16,3) scale-out rows stay warn-only too:
                    // memory-pressure sensitive (the 16x3 table rows walk
                    // a ~21 MB LFT). The oracle rows have settled history
                    // and gate like the plain engine rows now.
                    if d.name.starts_with("sim_engine_par")
                        || d.name.starts_with("lft_build")
                        || d.name.starts_with("loads_all_to_all")
                        || d.name.starts_with("workload_")
                        || d.name.ends_with("/16x3/vl1")
                    {
                        "slower (warn-only: host-dependent)"
                    } else {
                        regressed = true;
                        "REGRESSION"
                    }
                } else if d.ratio < 1.0 {
                    "faster"
                } else {
                    "ok"
                };
                println!("  {:<28} {:>6.2}x  {verdict}", d.name, d.ratio);
            }
            if deltas.is_empty() {
                println!("  (no overlapping workloads)");
            }
        }
    }

    std::fs::write(&opts.out, report.to_json())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", opts.out));
    println!("wrote {}", opts.out);

    if regressed && opts.gate && !opts.warn_only {
        eprintln!("performance regression beyond threshold; failing (--gate)");
        std::process::exit(1);
    } else if regressed {
        eprintln!("performance regression beyond threshold (warn-only; use --gate to fail)");
    }
}
