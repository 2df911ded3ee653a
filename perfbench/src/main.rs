//! Benchmark of the MLID fat-tree simulator, end to end and per layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of untraced runs;
//! with `--trace 1` the per-layer metrics of a traced run, plus the
//! tracing overhead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--tiny` shrinks every
//! workload for the smoke test. `perfbench/README.md` explains the
//! workloads and metrics.

mod spans;
mod workloads;

use spans::Spans;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{AllToAll, Faults, PaperFigs, Scaleout, Workload};

const WORKLOADS: [&str; 4] = [
    "paper_figs_8x3",
    "scaleout_16x3",
    "faults_8x3",
    "alltoall_8x3",
];

/// End-to-end metrics (untraced run): name, unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("packets_per_s", "packets/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name, unit. A workload that does not
/// exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 29] = [
    ("topology.build_ms", "ms"),
    ("routing.lft_build_ms", "ms"),
    ("routing.table_mb", "MB"),
    ("core.fabric_build_ms", "ms"),
    ("sim.point_ms.p50", "ms"),
    ("sim.point_ms.p90", "ms"),
    ("sim.points", "count"),
    ("sim.events", "count"),
    ("sim.events_per_packet", "ratio"),
    ("sim.ns_per_event", "ns"),
    ("sim.phase.generation_ms", "ms"),
    ("sim.phase.routing_ms", "ms"),
    ("sim.phase.arbitration_ms", "ms"),
    ("sim.phase.delivery_ms", "ms"),
    ("sim.phase.coverage", "fraction"),
    ("sim.phase.overhead", "ratio"),
    ("sim.in_flight_at_end", "count"),
    ("sweep.busy_frac", "fraction"),
    ("routing.repair_ms", "ms"),
    ("routing.entries_patched", "count"),
    ("faults.run_ms", "ms"),
    ("faults.report_ms", "ms"),
    ("faults.lost", "count"),
    ("faults.rerouted", "count"),
    ("workload.gen_ms", "ms"),
    ("workload.run_ms", "ms"),
    ("workload.messages", "count"),
    ("workload.packets", "count"),
    ("trace.overhead", "ratio"),
];

/// `PhaseProfile` phases in `Phase::index` order.
const PHASE_METRICS: [&str; 4] = [
    "sim.phase.generation_ms",
    "sim.phase.routing_ms",
    "sim.phase.arbitration_ms",
    "sim.phase.delivery_ms",
];

/// Set-up spans whose per-rep totals become per-layer metrics.
const SETUP_SPANS: [(&str, &str); 4] = [
    ("topology.build", "topology.build_ms"),
    ("routing.lft_build", "routing.lft_build_ms"),
    ("core.fabric_build", "core.fabric_build_ms"),
    ("workload.gen", "workload.gen_ms"),
];

/// Passes per run at the least: two, so every run checks that the same
/// seed gives the same outputs.
const MIN_PASSES: usize = 2;
/// Set-up reps before the first pass: at least this many, and more while
/// they are cheap.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// Set-up reps between two untraced passes: at least one, and more for
/// this long, so that set-up is sampled over the whole run.
const GAP_SETUP_BUDGET: Duration = Duration::from_millis(30);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: ib_fabric::SimConfig::default().seed,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seed, tiny) = (args.seed, args.tiny);
    let default_seed = seed == ib_fabric::SimConfig::default().seed;
    // The one-operation workloads are sized so that a pass takes about
    // 0.1 s: a run then holds a hundred passes or more, and its fastest
    // pass is steady on a shared host, where the fastest of a dozen 0.3-2 s
    // passes is not.
    match args.workload.as_str() {
        "paper_figs_8x3" => drive(
            &PaperFigs {
                m: if tiny { 4 } else { 8 },
                n: if tiny { 2 } else { 3 },
                time_ns: if tiny { 20_000 } else { 200_000 },
                vls: vec![1, 2, 4],
                seed,
                golden: default_seed && !tiny,
            },
            &args,
        ),
        "scaleout_16x3" => drive(
            &Scaleout {
                m: if tiny { 4 } else { 16 },
                n: 3,
                load: 0.5,
                time_ns: 20_000,
                seed,
            },
            &args,
        ),
        "faults_8x3" => drive(
            &Faults {
                m: if tiny { 4 } else { 8 },
                n: 3,
                kill: 2,
                load: 0.3,
                time_ns: if tiny { 100_000 } else { 200_000 },
                seed,
            },
            &args,
        ),
        "alltoall_8x3" => drive(
            &AllToAll {
                m: if tiny { 4 } else { 8 },
                n: if tiny { 2 } else { 3 },
                bytes: if tiny { 1024 } else { 2048 },
                seed,
            },
            &args,
        ),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
}

/// Outcome tally: operations attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one pass: an operation fails if its own check fails or its
    /// output differs from the reference pass of the same seed.
    fn pass<W: Workload>(
        &mut self,
        w: &W,
        input: &W::Input,
        outs: &[W::Out],
        reference: &[W::Out],
    ) {
        let ok = w.check(input, outs);
        let expected = w.ops();
        self.attempted += expected as u64;
        let good = (0..expected)
            .filter(|&i| {
                ok.get(i) == Some(&true) && outs.get(i).is_some() && outs.get(i) == reference.get(i)
            })
            .count();
        self.failed += (expected - good) as u64;
    }
}

fn drive<W: Workload>(w: &W, args: &Args) {
    println!("workload {}: {}", args.workload, w.inputs());
    let (result, tally) = if args.trace {
        traced(w, args)
    } else {
        untraced(w, args)
    };
    println!(
        "ops_failed {} fraction",
        tally.failed as f64 / tally.attempted as f64
    );
    print_result(
        &result,
        &tally,
        if args.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        },
    );
}

/// Build the inputs at least `min` times, and again while `budget`
/// lasts; return the last inputs and each rep's recorder (`trace` on)
/// and host time.
fn setups<W: Workload>(
    w: &W,
    trace: bool,
    min: usize,
    budget: Duration,
) -> (W::Input, Vec<Spans>, Vec<f64>) {
    let mut input = None;
    let (mut recorders, mut secs) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while secs.len() < min || (secs.len() < MAX_SETUPS && started.elapsed() < budget) {
        drop(input.take()); // drop the previous inputs first, so peak memory holds one set
        let mut spans = if trace { Spans::on() } else { Spans::off() };
        let start = Instant::now();
        input = Some(w.setup(&mut spans));
        secs.push(start.elapsed().as_secs_f64());
        recorders.push(spans);
    }
    (input.expect("at least one set-up ran"), recorders, secs)
}

/// End-to-end metrics from untraced passes repeated for `--seconds`.
///
/// Times are the fastest of the run: `wall_s` sums each part of a pass
/// at its fastest, `setup_s` is the fastest set-up. Outside load on a
/// shared host only ever slows the work, by up to 2.5x and for seconds
/// at a time, so the fastest of many short samples is the steadiest
/// estimate of the work's own cost; the median follows the host's load.
fn untraced<W: Workload>(w: &W, args: &Args) -> (BTreeMap<&'static str, f64>, Tally) {
    let started = Instant::now();
    let (input, _, mut setup_secs) = setups(w, false, MIN_SETUPS, SETUP_BUDGET);
    let mut tally = Tally::default();
    let (mut walls, mut fastest_parts) = (Vec::new(), Vec::new());
    let mut packets;
    let mut reference: Option<Vec<W::Out>> = None;
    // Peak RSS per pass: the count restarts from the current resident set
    // before each pass, so the first pass's peak also covers set-up. The
    // smallest is reported: what later passes add is memory the allocator
    // kept from earlier ones, and it varies from run to run.
    let (mut peaks, mut resets) = (Vec::new(), true);
    loop {
        let (wall, parts, delivered) = plain_pass(w, &input, &mut tally, &mut reference);
        peaks.push(peak_rss_mb());
        walls.push(wall);
        fastest_parts.resize(parts.len(), f64::INFINITY); // the same parts on every pass
        for (fastest, part) in fastest_parts.iter_mut().zip(parts) {
            *fastest = part.min(*fastest);
        }
        packets = delivered; // the same on every pass, or the pass failed
        if walls.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
        setup_secs.extend(setups(w, false, 1, GAP_SETUP_BUDGET).2);
        resets &= reset_peak_rss();
    }
    if !resets {
        peaks = vec![peak_rss_mb()]; // only the whole-run peak is known
    }
    let wall: f64 = fastest_parts.iter().sum();
    let mut m = BTreeMap::new();
    m.insert("wall_s", wall);
    m.insert("packets_per_s", packets as f64 / wall);
    m.insert("setup_s", quantile(&setup_secs, 0.0));
    m.insert("peak_rss_mb", quantile(&peaks, 0.0));
    println!(
        "passes {} x {} ops in {} parts: fastest parts sum to {wall:.4} s; pass fastest {:.4} s, \
         median {:.4} s, slowest {:.4} s; {} set-ups: fastest {:.6} s, median {:.6} s",
        walls.len(),
        w.ops(),
        fastest_parts.len(),
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0),
        setup_secs.len(),
        quantile(&setup_secs, 0.0),
        median(&setup_secs),
    );
    (m, tally)
}

/// Per-layer metrics from a traced run: traced set-ups, one pass with
/// every engine run observed by `PhaseProfile` (which also warms up),
/// then untraced and traced passes in turn, alternating which goes
/// first, for the rest of `--seconds`.
fn traced<W: Workload>(w: &W, args: &Args) -> (BTreeMap<&'static str, f64>, Tally) {
    let started = Instant::now();
    let (input, setup_spans, _) = setups(w, true, MIN_SETUPS, SETUP_BUDGET);
    let mut m = BTreeMap::new();
    for (span, metric) in SETUP_SPANS {
        let per_rep: Vec<f64> = setup_spans.iter().map(|s| s.total_ms(span)).collect();
        m.insert(metric, median(&per_rep));
    }
    let table_bytes: usize = w
        .fabrics(&input)
        .iter()
        .map(|f| f.routing().table_bytes())
        .sum();
    m.insert("routing.table_mb", table_bytes as f64 / 1e6);

    let (profiled, prof) = w.profile(&input);
    for (i, metric) in PHASE_METRICS.iter().enumerate() {
        m.insert(metric, prof.phase_ns[i] as f64 / 1e6);
    }
    let phase_ns: u64 = prof.phase_ns.iter().sum();
    m.insert(
        "sim.phase.coverage",
        phase_ns as f64 / prof.engine_ns as f64,
    );

    let mut tally = Tally::default();
    let mut reference: Option<Vec<W::Out>> = None;
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut points = Vec::new();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    loop {
        let plain_first = plain_walls.len() % 2 == 0;
        if plain_first {
            plain_walls.push(plain_pass(w, &input, &mut tally, &mut reference).0);
        }
        let mut spans = Spans::on();
        let outs = spans.time("pass", |spans| w.run(&input, spans));
        let pass_ms = spans.top_level_ms("pass");
        traced_walls.push(pass_ms / 1e3);
        if !plain_first {
            plain_walls.push(plain_pass(w, &input, &mut tally, &mut reference).0);
        }
        let reference = reference.as_deref().expect("a plain pass ran");
        tally.pass(w, &input, &outs, reference);

        let point_ms = spans.ms("sim.point");
        let engine_ms: f64 = point_ms.iter().sum();
        points.extend(point_ms);
        let (mut events, mut packets, mut in_flight) = (0, 0, 0);
        for c in outs.iter().map(W::counts) {
            events += c.events;
            packets += c.packets;
            in_flight += c.in_flight;
        }
        let mut add = |name, v| per_pass.entry(name).or_default().push(v);
        add("sim.events", events as f64);
        add("sim.events_per_packet", events as f64 / packets as f64);
        add("sim.ns_per_event", engine_ms * 1e6 / events as f64);
        add("sim.in_flight_at_end", in_flight as f64);
        add("sweep.busy_frac", engine_ms / (pass_ms * workers));
        add(
            "sim.phase.overhead",
            prof.engine_ns as f64 / 1e6 / engine_ms,
        );
        for (name, v) in w.layers(&input, &outs, &mut spans) {
            add(name, v);
        }
        let next = plain_walls.last().copied().unwrap_or(0.0) + pass_ms / 1e3;
        if traced_walls.len() >= MIN_PASSES && started.elapsed().as_secs_f64() + next > args.seconds
        {
            break;
        }
    }
    let reference = reference.expect("a plain pass ran");
    tally.pass(w, &input, &profiled, &reference);
    for (name, values) in per_pass {
        m.insert(name, median(&values));
    }
    m.insert(
        "sim.points",
        points.len() as f64 / traced_walls.len() as f64,
    );
    m.insert("sim.point_ms.p50", quantile(&points, 0.5));
    m.insert("sim.point_ms.p90", quantile(&points, 0.9));
    // Fastest against fastest, as `wall_s` is measured.
    let (traced_wall, plain_wall) = (quantile(&traced_walls, 0.0), quantile(&plain_walls, 0.0));
    let overhead = traced_wall / plain_wall;
    m.insert("trace.overhead", overhead);
    println!(
        "tracing overhead: fastest traced pass {traced_wall:.4} s / fastest untraced pass \
         {plain_wall:.4} s = {overhead:.4} ({} pairs)",
        traced_walls.len()
    );
    (m, tally)
}

/// One untraced pass, checked against `reference` (which the first pass
/// becomes); returns its host time, the host time of each of its parts
/// (the workload's outermost spans), both in seconds, and the packets
/// delivered.
fn plain_pass<W: Workload>(
    w: &W,
    input: &W::Input,
    tally: &mut Tally,
    reference: &mut Option<Vec<W::Out>>,
) -> (f64, Vec<f64>, u64) {
    let mut spans = Spans::top();
    let start = Instant::now();
    let outs = w.run(input, &mut spans);
    let wall = start.elapsed().as_secs_f64();
    let parts = spans.top_level().map(|s| s.ms() / 1e3).collect();
    let packets = outs.iter().map(|o| W::counts(o).packets).sum();
    tally.pass(w, input, &outs, reference.as_deref().unwrap_or(&outs));
    reference.get_or_insert(outs);
    (wall, parts, packets)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; 0 for no values.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Restart the peak-RSS count from the current resident set; false
/// where the kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn print_result(metrics: &BTreeMap<&'static str, f64>, tally: &Tally, names: &[(&str, &str)]) {
    let mut out = String::new();
    for (name, unit) in names {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<28} {value:>16.6} {unit}");
        let value = if value.is_finite() { value } else { 0.0 };
        if !out.is_empty() {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
}
