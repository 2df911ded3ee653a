//! Shared experiment harness for regenerating the paper's table and
//! figures. The binaries (`table1`, `figures`, `ablation`) and the
//! `perfbench` benchmark build on this.

use ib_fabric::json::JsonBuf;
use ib_fabric::prelude::*;

/// The four evaluated network sizes (Table 1). The OCR of the paper lost
//  the digits; DESIGN.md §3 explains the reconstruction: two small-radix
/// and two large-radix configurations, matching the observations'
/// "not large (·-port or ·-port)" vs "large (·-port or ·-port)" split.
pub const EVAL_CONFIGS: [(u32, u32); 4] = [(4, 3), (8, 3), (16, 2), (32, 2)];

/// Virtual-lane counts the paper sweeps.
pub const EVAL_VLS: [u8; 3] = [1, 2, 4];

/// Default offered-load grid, from low load to saturation.
pub fn default_loads() -> Vec<f64> {
    vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
}

/// A load grid adapted to the traffic pattern on a given network size.
///
/// Uniform and permutation patterns use [`default_loads`]. For a hot-spot
/// pattern the interesting region is around the load where the aggregate
/// hot traffic reaches the destination link's capacity,
/// `load* = 1 / (num_nodes * fraction)`; on large networks that is far
/// below the uniform grid (every point of which would sit in deep
/// collapse), so the grid is laid out geometrically around `load*`.
pub fn loads_for(pattern: &TrafficPattern, num_nodes: u32) -> Vec<f64> {
    match pattern {
        TrafficPattern::Centric { fraction, .. } => {
            let knee = 1.0 / (f64::from(num_nodes) * fraction);
            let mut loads: Vec<f64> = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0]
                .iter()
                .map(|&k| (k * knee).min(1.0))
                .collect();
            loads.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            loads
        }
        _ => default_loads(),
    }
}

/// One curve of a figure: a scheme at a VL count swept over offered load.
#[derive(Debug, Clone)]
pub struct Series {
    /// Scheme name ("SLID" / "MLID").
    pub scheme: String,
    /// Virtual lanes.
    pub vls: u8,
    /// Points in load order.
    pub points: Vec<Point>,
}

/// One operating point of a curve.
#[derive(Debug, Clone)]
pub struct Point {
    /// Normalized offered load.
    pub offered_load: f64,
    /// Accepted traffic, bytes/ns per node (the figures' x-axis).
    pub accepted: f64,
    /// Average message latency, ns (the figures' y-axis).
    pub avg_latency_ns: f64,
    /// 99th-percentile latency, ns (extension).
    pub p99_latency_ns: u64,
    /// Packets delivered in the measurement window.
    pub delivered: u64,
}

impl Point {
    fn from_report(r: &SimReport) -> Point {
        Point {
            offered_load: r.offered_load,
            accepted: r.accepted_bytes_per_ns_per_node,
            avg_latency_ns: r.avg_latency_ns(),
            p99_latency_ns: r.latency.quantile(0.99),
            delivered: r.delivered,
        }
    }
}

/// A whole figure: all six curves for one (network size, traffic pattern).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Switch ports.
    pub m: u32,
    /// Tree levels.
    pub n: u32,
    /// Pattern name ("uniform" / "centric50").
    pub pattern: String,
    /// The curves: {SLID, MLID} × {1, 2, 4} VLs.
    pub series: Vec<Series>,
}

/// Write an `f64` so it parses back to the same value (`{:?}` is the
/// shortest round-tripping form); JSON has no NaN/Inf, so those are
/// `null`.
fn f64_json(j: &mut JsonBuf, v: f64) {
    if v.is_finite() {
        j.raw_value(&format!("{v:?}"));
    } else {
        j.raw_value("null");
    }
}

impl Figure {
    /// The figure as one JSON object: `m`, `n`, `pattern` and the
    /// `series`, each with its `points`.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_u64("m", u64::from(self.m));
        j.field_u64("n", u64::from(self.n));
        j.field_str("pattern", &self.pattern);
        j.key("series");
        j.begin_arr();
        for s in &self.series {
            j.begin_obj();
            j.field_str("scheme", &s.scheme);
            j.field_u64("vls", u64::from(s.vls));
            j.key("points");
            j.begin_arr();
            for p in &s.points {
                j.begin_obj();
                j.key("offered_load");
                f64_json(&mut j, p.offered_load);
                j.key("accepted");
                f64_json(&mut j, p.accepted);
                j.key("avg_latency_ns");
                f64_json(&mut j, p.avg_latency_ns);
                j.field_u64("p99_latency_ns", p.p99_latency_ns);
                j.field_u64("delivered", p.delivered);
                j.end_obj();
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.into_string()
    }
}

/// Run every curve of one figure.
///
/// `sim_time_ns` trades accuracy for wall time; 200 µs with a 20% warm-up
/// reproduces the paper's shapes well on every evaluated size.
pub fn run_figure(
    m: u32,
    n: u32,
    pattern: &TrafficPattern,
    loads: &[f64],
    sim_time_ns: u64,
    vls: &[u8],
) -> Figure {
    let mut series = Vec::new();
    for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
        let fabric = Fabric::builder(m, n)
            .routing(kind)
            .build()
            .expect("evaluated configs are valid");
        for &vl in vls {
            let reports = fabric
                .experiment()
                .virtual_lanes(vl)
                .traffic(pattern.clone())
                .duration_ns(sim_time_ns)
                .run_sweep(loads);
            series.push(Series {
                scheme: kind.as_str().to_uppercase(),
                vls: vl,
                points: reports.iter().map(Point::from_report).collect(),
            });
        }
    }
    Figure {
        m,
        n,
        pattern: pattern.name(),
        series,
    }
}

/// One row of Table 1 (network sizes).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Switch ports.
    pub m: u32,
    /// Tree levels.
    pub n: u32,
    /// Processing nodes, `2 (m/2)^n`.
    pub nodes: u32,
    /// Switches, `(2n-1)(m/2)^(n-1)`.
    pub switches: u32,
    /// Links (node links + inter-switch links).
    pub links: usize,
    /// LMC under the MLID scheme.
    pub lmc: u32,
    /// LIDs per node, `2^LMC`.
    pub lids_per_node: u32,
    /// Paths between maximally distant nodes.
    pub max_paths: u32,
}

/// Table 1 as a JSON array, one object per row.
pub fn table1_to_json(rows: &[Table1Row]) -> String {
    let mut j = JsonBuf::new();
    j.begin_arr();
    for r in rows {
        j.begin_obj();
        j.field_u64("m", u64::from(r.m));
        j.field_u64("n", u64::from(r.n));
        j.field_u64("nodes", u64::from(r.nodes));
        j.field_u64("switches", u64::from(r.switches));
        j.field_u64("links", r.links as u64);
        j.field_u64("lmc", u64::from(r.lmc));
        j.field_u64("lids_per_node", u64::from(r.lids_per_node));
        j.field_u64("max_paths", u64::from(r.max_paths));
        j.end_obj();
    }
    j.end_arr();
    j.into_string()
}

/// Compute Table 1.
pub fn table1() -> Vec<Table1Row> {
    EVAL_CONFIGS
        .iter()
        .map(|&(m, n)| {
            let params = TreeParams::new(m, n).expect("valid");
            let net = Network::mport_ntree(params);
            Table1Row {
                m,
                n,
                nodes: params.num_nodes(),
                switches: params.num_switches(),
                links: net.links().len(),
                lmc: params.lmc(),
                lids_per_node: params.lids_per_node(),
                max_paths: params.num_lcas(0),
            }
        })
        .collect()
}

/// Render a figure's curves as an aligned text table, one block per curve
/// — the same rows the paper plots.
pub fn render_figure_text(fig: &Figure) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {}-port {}-tree, {} traffic, 256-byte packets",
        fig.m, fig.n, fig.pattern
    );
    for s in &fig.series {
        let _ = writeln!(out, "\n## {} VL{}", s.scheme, s.vls);
        let _ = writeln!(
            out,
            "{:>8} {:>18} {:>16} {:>12}",
            "offered", "accepted(B/ns/nd)", "avg-lat(ns)", "p99(ns)"
        );
        for p in &s.points {
            let _ = writeln!(
                out,
                "{:>8.2} {:>18.4} {:>16.1} {:>12}",
                p.offered_load, p.accepted, p.avg_latency_ns, p.p99_latency_ns
            );
        }
    }
    out
}

/// Write a figure as CSV (long format: one row per point).
pub fn figure_to_csv(fig: &Figure) -> String {
    let mut out = String::from(
        "m,n,pattern,scheme,vls,offered,accepted,avg_latency_ns,p99_latency_ns,delivered\n",
    );
    for s in &fig.series {
        for p in &s.points {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                fig.m,
                fig.n,
                fig.pattern,
                s.scheme,
                s.vls,
                p.offered_load,
                p.accepted,
                p.avg_latency_ns,
                p.p99_latency_ns,
                p.delivered
            ));
        }
    }
    out
}

/// Saturation throughput of a curve: the maximum accepted traffic over the
/// sweep (bytes/ns per node).
pub fn saturation(series: &Series) -> f64 {
    series.points.iter().map(|p| p.accepted).fold(0.0, f64::max)
}

/// Find a curve by scheme and VL count.
pub fn find_series<'a>(fig: &'a Figure, scheme: &str, vls: u8) -> Option<&'a Series> {
    fig.series
        .iter()
        .find(|s| s.scheme.eq_ignore_ascii_case(scheme) && s.vls == vls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_closed_forms() {
        let rows = table1();
        assert_eq!(rows.len(), 4);
        let by = |m: u32, n: u32| rows.iter().find(|r| r.m == m && r.n == n).unwrap();
        assert_eq!(by(4, 3).nodes, 16);
        assert_eq!(by(4, 3).switches, 20);
        assert_eq!(by(8, 3).nodes, 128);
        assert_eq!(by(8, 3).switches, 80);
        assert_eq!(by(16, 2).nodes, 128);
        assert_eq!(by(16, 2).switches, 24);
        assert_eq!(by(32, 2).nodes, 512);
        assert_eq!(by(32, 2).switches, 48);
        for r in &rows {
            assert_eq!(r.lids_per_node, 1 << r.lmc);
            assert_eq!(r.max_paths, r.lids_per_node);
        }
    }

    #[test]
    fn small_figure_runs_and_orders_schemes_under_hotspot() {
        let fig = run_figure(
            4,
            3,
            &TrafficPattern::paper_centric(),
            &[0.3, 0.8],
            120_000,
            &[1],
        );
        assert_eq!(fig.series.len(), 2);
        let slid = find_series(&fig, "SLID", 1).unwrap();
        let mlid = find_series(&fig, "MLID", 1).unwrap();
        assert!(saturation(mlid) > saturation(slid));
        let text = render_figure_text(&fig);
        assert!(text.contains("MLID VL1"));
        let csv = figure_to_csv(&fig);
        assert_eq!(csv.lines().count(), 1 + 2 * 2);
    }
}

/// Render a figure as an ASCII scatter plot — accepted traffic on the
/// x-axis, average latency (log scale) on the y-axis, one glyph per curve
/// — mirroring how the paper presents Figures 12–19.
pub fn render_figure_plot(fig: &Figure, width: usize, height: usize) -> String {
    use std::fmt::Write;
    const GLYPHS: [char; 6] = ['s', 'S', '$', 'm', 'M', 'W'];
    let mut grid = vec![vec![' '; width]; height];

    let points: Vec<(usize, f64, f64)> = fig
        .series
        .iter()
        .enumerate()
        .flat_map(|(si, s)| {
            s.points
                .iter()
                .filter(|p| p.avg_latency_ns > 0.0)
                .map(move |p| (si, p.accepted, p.avg_latency_ns))
        })
        .collect();
    if points.is_empty() {
        return "(no data)\n".into();
    }
    let x_max = points.iter().map(|&(_, x, _)| x).fold(0.0, f64::max) * 1.05;
    let (y_min, y_max) = points
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &(_, _, y)| {
            (lo.min(y), hi.max(y))
        });
    let (ly_min, ly_max) = (y_min.ln(), (y_max * 1.1).ln());
    let y_span = (ly_max - ly_min).max(1e-9);

    for &(si, x, y) in &points {
        let col = ((x / x_max) * (width - 1) as f64).round() as usize;
        let row = (((y.ln() - ly_min) / y_span) * (height - 1) as f64).round() as usize;
        let row = height - 1 - row.min(height - 1);
        grid[row][col.min(width - 1)] = GLYPHS[si % GLYPHS.len()];
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "avg latency (log, {:.0}..{:.0} ns) vs accepted traffic (0..{x_max:.3} B/ns/node)",
        y_min, y_max
    );
    for row in &grid {
        let _ = writeln!(out, "|{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    for (si, s) in fig.series.iter().enumerate() {
        let _ = write!(
            out,
            "  {} = {} VL{}",
            GLYPHS[si % GLYPHS.len()],
            s.scheme,
            s.vls
        );
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod plot_tests {
    use super::*;

    fn tiny_figure() -> Figure {
        Figure {
            m: 4,
            n: 2,
            pattern: "uniform".into(),
            series: vec![Series {
                scheme: "MLID".into(),
                vls: 1,
                points: vec![
                    Point {
                        offered_load: 0.1,
                        accepted: 0.1,
                        avg_latency_ns: 700.0,
                        p99_latency_ns: 1024,
                        delivered: 10,
                    },
                    Point {
                        offered_load: 0.9,
                        accepted: 0.42,
                        avg_latency_ns: 90_000.0,
                        p99_latency_ns: 1 << 17,
                        delivered: 40,
                    },
                ],
            }],
        }
    }

    #[test]
    fn plot_renders_points_and_legend() {
        let text = render_figure_plot(&tiny_figure(), 40, 10);
        assert!(text.contains("s = MLID VL1"));
        assert!(text.matches('s').count() >= 2, "{text}");
        assert_eq!(text.lines().filter(|l| l.starts_with('|')).count(), 10);
    }

    #[test]
    fn empty_figure_is_handled() {
        let mut fig = tiny_figure();
        fig.series[0].points.clear();
        assert_eq!(render_figure_plot(&fig, 40, 10), "(no data)\n");
    }
}
