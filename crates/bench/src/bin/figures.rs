//! Regenerates the paper's result figures: average message latency vs
//! accepted traffic for {SLID, MLID} × {1, 2, 4} virtual lanes, per
//! network size and traffic pattern. `figures --help` prints the
//! options ([`USAGE`]); bad options print an `error:` line and exit 2.

use bench::{figure_to_csv, loads_for, run_figure, EVAL_CONFIGS, EVAL_VLS};
use ib_fabric::prelude::*;
use std::path::PathBuf;
use std::process::ExitCode;

/// The `--help` text.
const USAGE: &str = "\
Regenerate the paper's latency-vs-accepted-traffic figures.

Usage:
  # One figure:
  cargo run --release -p bench --bin figures -- --config 8x3 --pattern centric
  # Everything (all 8 figures; writes results/*.csv + *.json):
  cargo run --release -p bench --bin figures -- --all

Options:
  --config MxN        network size (default 4x3)
  --pattern P         uniform | centric | bitcomp (default uniform)
  --sim-time-us T     simulated microseconds per point (default 200)
  --loads a,b,c       offered-load grid (default 0.05..1.0)
  --vls a,b,c         VL counts (default 1,2,4)
  --out DIR           output directory for CSV/JSON (default results)
  --all               run the full 4-size × 2-pattern matrix
  -h, --help          print this help
";

struct Args {
    configs: Vec<(u32, u32)>,
    /// `None` means "bit-complement, instantiated per config".
    patterns: Vec<Option<TrafficPattern>>,
    sim_time_ns: u64,
    /// Explicit load grid; `None` picks a per-(pattern, size) grid.
    loads: Option<Vec<f64>>,
    vls: Vec<u8>,
    out: PathBuf,
}

/// Parse a comma-separated list, rejecting any item `ok` refuses.
fn parse_list<T: std::str::FromStr>(
    flag: &str,
    v: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Vec<T>, String> {
    v.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .ok()
                .filter(|x| ok(x))
                .ok_or_else(|| format!("{flag}: bad value {s:?}"))
        })
        .collect()
}

/// Parse the command line; `Ok(None)` means `--help` was asked for.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        configs: vec![(4, 3)],
        patterns: vec![Some(TrafficPattern::Uniform)],
        sim_time_ns: 200_000,
        loads: None,
        vls: EVAL_VLS.to_vec(),
        out: PathBuf::from("results"),
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "-h" | "--help" => return Ok(None),
            "--config" => {
                let v = value()?;
                let bad = || format!("--config expects MxN with a valid fat tree, got {v:?}");
                let (m, n) = v.split_once(['x', 'X']).ok_or_else(bad)?;
                let (m, n) = (m.parse().map_err(|_| bad())?, n.parse().map_err(|_| bad())?);
                TreeParams::new(m, n).map_err(|e| format!("--config {v}: {e}"))?;
                args.configs = vec![(m, n)];
            }
            "--pattern" => {
                args.patterns = vec![match value()?.as_str() {
                    "uniform" => Some(TrafficPattern::Uniform),
                    "centric" => Some(TrafficPattern::paper_centric()),
                    "bitcomp" => None,
                    other => return Err(format!("unknown pattern {other:?}")),
                }];
            }
            "--sim-time-us" => {
                let v = value()?;
                args.sim_time_ns = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&us| us > 0)
                    .and_then(|us| us.checked_mul(1_000))
                    .ok_or_else(|| format!("--sim-time-us: bad value {v:?}"))?;
            }
            "--loads" => {
                let ok = |l: &f64| l.is_finite() && *l > 0.0;
                args.loads = Some(parse_list("--loads", &value()?, ok)?);
            }
            "--vls" => args.vls = parse_list("--vls", &value()?, |vl: &u8| (1..=15).contains(vl))?,
            "--out" => args.out = PathBuf::from(value()?),
            "--all" => {
                args.configs = EVAL_CONFIGS.to_vec();
                args.patterns = vec![
                    Some(TrafficPattern::Uniform),
                    Some(TrafficPattern::paper_centric()),
                ];
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(&args.out).expect("create output dir");

    let mut fig_no = 12; // the paper's first result figure
    for &(m, n) in &args.configs {
        for pattern_opt in &args.patterns {
            let nodes = TreeParams::new(m, n).expect("valid config").num_nodes();
            let pattern = pattern_opt
                .clone()
                .unwrap_or_else(|| TrafficPattern::bit_complement(nodes));
            let loads = args
                .loads
                .clone()
                .unwrap_or_else(|| loads_for(&pattern, nodes));
            eprintln!(
                "running {m}-port {n}-tree / {} ({} loads x {} VLs x 2 schemes)…",
                pattern.name(),
                loads.len(),
                args.vls.len()
            );
            let fig = run_figure(m, n, &pattern, &loads, args.sim_time_ns, &args.vls);
            println!("{}", bench::render_figure_text(&fig));
            println!("{}", bench::render_figure_plot(&fig, 64, 18));

            let stem = format!("fig{}_{}x{}_{}", fig_no, m, n, fig.pattern);
            std::fs::write(args.out.join(format!("{stem}.csv")), figure_to_csv(&fig))
                .expect("write csv");
            std::fs::write(
                args.out.join(format!("{stem}.json")),
                serde_json::to_string_pretty(&fig).expect("figure serializes"),
            )
            .expect("write json");
            eprintln!("wrote {}/{stem}.{{csv,json}}", args.out.display());
            fig_no += 1;
        }
    }
    ExitCode::SUCCESS
}
