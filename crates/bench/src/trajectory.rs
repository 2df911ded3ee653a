//! The persisted bench trajectory: a schema-stable `BENCH_sim.json` at
//! the repo root, written by the `bench` binary and compared across
//! commits.
//!
//! The format is emitted and parsed by hand (a tiny JSON subset) so the
//! trajectory does not depend on any serialization crate: the file is
//! byte-stable for unchanged measurements modulo the numbers themselves,
//! and the comparison step runs anywhere the workspace compiles.

use ibfat_sim::json::{self, escape};
use std::fmt::Write as _;

/// Version stamp of the JSON layout. Bump only on breaking changes;
/// the comparator refuses to diff across schema versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Wall time and event count attributed to one simulator phase by the
/// self-profiling probe (the `sim_profile` workload).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSplit {
    /// Phase name, e.g. `arbitration`.
    pub name: String,
    /// Wall time spent dispatching this phase's events, ns.
    pub wall_ns: u64,
    /// Events dispatched in this phase.
    pub events: u64,
}

/// Sharded-engine self-telemetry attached to a `sim_engine_par` row:
/// the structural summary of one representative (untimed) telemetry run
/// at the row's thread count. Wall-clock context for the row's own wall
/// time — a high `barrier_wait_ns` or `event_imbalance` explains a slow
/// tN row better than the number alone.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTelemetry {
    /// Worker threads (= shards) the telemetry run used.
    pub threads: u32,
    /// Conservative windows executed, summed over shards.
    pub windows: u64,
    /// Wall time spent waiting at the window barrier, summed over shards, ns.
    pub barrier_wait_ns: u64,
    /// Cross-shard messages sent, summed over shards.
    pub msgs: u64,
    /// Inter-shard links cut by the partition.
    pub edge_cut: u64,
    /// Max/mean per-shard event count (1.0 = perfectly balanced).
    pub event_imbalance: f64,
}

/// One measured workload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Stable identifier, e.g. `sim_engine/8x3/vl4`.
    pub name: String,
    /// Best-of-iterations wall time, ns.
    pub wall_ns: u64,
    /// Work units processed per iteration (simulator events, LID lookups,
    /// …; 0 when the workload has no natural unit).
    pub events: u64,
    /// `events / wall`, in units per second (0 when `events` is 0).
    pub events_per_sec: f64,
    /// Iterations the minimum was taken over.
    pub iters: u32,
    /// Cores available on the measuring host, recorded for rows whose
    /// wall time depends on the core count (the `sim_engine_par` rows) —
    /// a t4 row measured on 1 CPU is overhead, not parallelism, and the
    /// comparator needs to know which it is looking at. Omitted from the
    /// JSON when 0 (host-independent rows, pre-recording snapshots), so
    /// the schema version stands.
    pub threads_available: u32,
    /// Per-phase breakdown of the best iteration; empty for workloads
    /// that do not self-profile. Omitted from the JSON when empty, and
    /// absent in pre-profiling snapshots, so the schema version stands.
    pub phases: Vec<PhaseSplit>,
    /// Sharded-engine telemetry context for `sim_engine_par` rows;
    /// `None` everywhere else. Omitted from the JSON when absent, and
    /// absent in pre-telemetry snapshots, so the schema version stands.
    pub sim_telemetry: Option<SimTelemetry>,
}

/// A whole trajectory snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// All measured workloads, in a stable order.
    pub workloads: Vec<WorkloadResult>,
}

impl BenchReport {
    /// A report of the current schema version.
    pub fn new(workloads: Vec<WorkloadResult>) -> Self {
        BenchReport {
            schema: SCHEMA_VERSION,
            workloads,
        }
    }

    /// Find a workload by name.
    pub fn get(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// Serialize to the canonical pretty-printed JSON layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {},", self.schema);
        let _ = writeln!(out, "  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            let comma = if i + 1 < self.workloads.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", escape(&w.name));
            let _ = writeln!(out, "      \"wall_ns\": {},", w.wall_ns);
            let _ = writeln!(out, "      \"events\": {},", w.events);
            let _ = writeln!(out, "      \"events_per_sec\": {:.1},", w.events_per_sec);
            if w.threads_available > 0 {
                let _ = writeln!(out, "      \"threads_available\": {},", w.threads_available);
            }
            if let Some(t) = &w.sim_telemetry {
                let _ = writeln!(
                    out,
                    "      \"sim_telemetry\": {{ \"threads\": {}, \"windows\": {}, \
                     \"barrier_wait_ns\": {}, \"msgs\": {}, \"edge_cut\": {}, \
                     \"event_imbalance\": {:.3} }},",
                    t.threads, t.windows, t.barrier_wait_ns, t.msgs, t.edge_cut, t.event_imbalance
                );
            }
            if w.phases.is_empty() {
                let _ = writeln!(out, "      \"iters\": {}", w.iters);
            } else {
                let _ = writeln!(out, "      \"iters\": {},", w.iters);
                let _ = writeln!(out, "      \"phases\": [");
                for (j, p) in w.phases.iter().enumerate() {
                    let pc = if j + 1 < w.phases.len() { "," } else { "" };
                    let _ = writeln!(
                        out,
                        "        {{ \"name\": \"{}\", \"wall_ns\": {}, \"events\": {} }}{pc}",
                        escape(&p.name),
                        p.wall_ns,
                        p.events
                    );
                }
                let _ = writeln!(out, "      ]");
            }
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        out.push_str("}\n");
        out
    }

    /// Read a snapshot from disk. A missing or empty file yields
    /// `Ok(None)` — a fresh clone has no trajectory yet and that must not
    /// abort the run that would seed one. A present-but-unparsable file
    /// is still an error: silently discarding a corrupt baseline would
    /// hide regressions.
    pub fn load(path: &str) -> Result<Option<BenchReport>, String> {
        match std::fs::read_to_string(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("cannot read {path}: {e}")),
            Ok(text) if text.trim().is_empty() => Ok(None),
            Ok(text) => Self::parse(&text).map(Some),
        }
    }

    /// Parse a report previously written by [`to_json`](Self::to_json)
    /// (tolerant of whitespace and key order; uses the workspace-shared
    /// subset parser in [`ibfat_sim::json`]).
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let value = json::parse(text)?;
        let obj = value.as_object("top level")?;
        let schema = obj.field("schema")?.as_u64("schema")? as u32;
        let mut workloads = Vec::new();
        for (i, item) in obj
            .field("workloads")?
            .as_array("workloads")?
            .iter()
            .enumerate()
        {
            let w = item.as_object(&format!("workloads[{i}]"))?;
            // `phases` arrived after the first snapshots were committed;
            // its absence simply means "no breakdown recorded".
            let phases = match w.field("phases") {
                Err(_) => Vec::new(),
                Ok(v) => v
                    .as_array("phases")?
                    .iter()
                    .map(|p| {
                        let p = p.as_object("phases[]")?;
                        Ok(PhaseSplit {
                            name: p.field("name")?.as_string("name")?.to_string(),
                            wall_ns: p.field("wall_ns")?.as_u64("wall_ns")?,
                            events: p.field("events")?.as_u64("events")?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            };
            // `sim_telemetry` arrived after the first snapshots were
            // committed; absence means "no telemetry context recorded".
            let sim_telemetry = match w.field("sim_telemetry") {
                Err(_) => None,
                Ok(v) => {
                    let t = v.as_object("sim_telemetry")?;
                    Some(SimTelemetry {
                        threads: t.field("threads")?.as_u64("threads")? as u32,
                        windows: t.field("windows")?.as_u64("windows")?,
                        barrier_wait_ns: t.field("barrier_wait_ns")?.as_u64("barrier_wait_ns")?,
                        msgs: t.field("msgs")?.as_u64("msgs")?,
                        edge_cut: t.field("edge_cut")?.as_u64("edge_cut")?,
                        event_imbalance: t.field("event_imbalance")?.as_f64("event_imbalance")?,
                    })
                }
            };
            workloads.push(WorkloadResult {
                name: w.field("name")?.as_string("name")?.to_string(),
                wall_ns: w.field("wall_ns")?.as_u64("wall_ns")?,
                events: w.field("events")?.as_u64("events")?,
                events_per_sec: w.field("events_per_sec")?.as_f64("events_per_sec")?,
                iters: w.field("iters")?.as_u64("iters")? as u32,
                // Absent in snapshots that predate the recording — 0
                // means "host core count unknown".
                threads_available: match w.field("threads_available") {
                    Err(_) => 0,
                    Ok(v) => v.as_u64("threads_available")? as u32,
                },
                phases,
                sim_telemetry,
            });
        }
        Ok(BenchReport { schema, workloads })
    }
}

// ----- comparison ------------------------------------------------------

/// How one workload moved between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Workload name.
    pub name: String,
    /// Baseline wall time, ns.
    pub base_wall_ns: u64,
    /// Current wall time, ns.
    pub cur_wall_ns: u64,
    /// `current / baseline` (> 1 is slower).
    pub ratio: f64,
}

impl Delta {
    /// Whether this delta exceeds the regression threshold (e.g. `0.25`
    /// = fail when more than 25% slower than the baseline).
    pub fn is_regression(&self, threshold: f64) -> bool {
        self.ratio > 1.0 + threshold
    }
}

/// Compare two snapshots workload-by-workload (intersection by name).
///
/// # Errors
/// Fails when the schema versions differ — deltas across layouts are
/// meaningless.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Result<Vec<Delta>, String> {
    if baseline.schema != current.schema {
        return Err(format!(
            "schema mismatch: baseline v{}, current v{}",
            baseline.schema, current.schema
        ));
    }
    Ok(current
        .workloads
        .iter()
        .filter_map(|cur| {
            let base = baseline.get(&cur.name)?;
            (base.wall_ns > 0).then(|| Delta {
                name: cur.name.clone(),
                base_wall_ns: base.wall_ns,
                cur_wall_ns: cur.wall_ns,
                ratio: cur.wall_ns as f64 / base.wall_ns as f64,
            })
        })
        .collect())
}

/// Speedup of every `sim_engine_par/…/tN` workload over its own `t1`
/// twin on the same snapshot: `(name, threads, t1_wall / tN_wall)`.
///
/// Purely derived from wall times already in the report — nothing extra
/// is persisted, so the JSON layout (and [`SCHEMA_VERSION`]) stand.
/// Rows without a `t1` twin, with an unparsable thread suffix, or with a
/// zero wall time are skipped. The `t1` row itself is included (speedup
/// 1.0 by construction) so tables print a complete column.
pub fn par_speedups(report: &BenchReport) -> Vec<(String, u32, f64)> {
    report
        .workloads
        .iter()
        .filter_map(|w| {
            let (stem, t) = w.name.rsplit_once("/t")?;
            if !stem.starts_with("sim_engine_par") {
                return None;
            }
            let threads: u32 = t.parse().ok()?;
            let base = report.get(&format!("{stem}/t1"))?;
            (base.wall_ns > 0 && w.wall_ns > 0).then(|| {
                (
                    w.name.clone(),
                    threads,
                    base.wall_ns as f64 / w.wall_ns as f64,
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport::new(vec![
            WorkloadResult {
                name: "sim_engine/8x3/vl4".into(),
                wall_ns: 123_456_789,
                events: 1_000_000,
                events_per_sec: 8_100_000.5,
                iters: 3,
                threads_available: 0,
                phases: Vec::new(),
                sim_telemetry: None,
            },
            WorkloadResult {
                name: "lft_build/32x2/mlid".into(),
                wall_ns: 42_000,
                events: 0,
                events_per_sec: 0.0,
                iters: 5,
                threads_available: 0,
                phases: Vec::new(),
                sim_telemetry: None,
            },
        ])
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let text = report.to_json();
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back.schema, SCHEMA_VERSION);
        assert_eq!(back.workloads.len(), 2);
        assert_eq!(back.workloads[0].name, "sim_engine/8x3/vl4");
        assert_eq!(back.workloads[0].wall_ns, 123_456_789);
        assert_eq!(back.workloads[1].events, 0);
        // Emit is canonical: a second round trip is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn phases_round_trip_and_tolerate_absence() {
        let mut report = sample();
        report.workloads[0].phases = vec![
            PhaseSplit {
                name: "generation".into(),
                wall_ns: 10_000,
                events: 500,
            },
            PhaseSplit {
                name: "arbitration".into(),
                wall_ns: 90_000,
                events: 4_500,
            },
        ];
        let text = report.to_json();
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
        // A pre-profiling snapshot (no "phases" key anywhere) still parses.
        let old = sample().to_json();
        assert!(!old.contains("phases"));
        assert!(BenchReport::parse(&old).unwrap().workloads[0]
            .phases
            .is_empty());
    }

    #[test]
    fn threads_available_round_trips_and_tolerates_absence() {
        let mut report = sample();
        report.workloads[0].threads_available = 4;
        let text = report.to_json();
        assert!(text.contains("\"threads_available\": 4"));
        // Host-independent rows (0) omit the key entirely.
        assert_eq!(text.matches("threads_available").count(), 1);
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
        // Snapshots from before the field was recorded still parse.
        let old = sample().to_json();
        assert!(!old.contains("threads_available"));
        assert_eq!(
            BenchReport::parse(&old).unwrap().workloads[0].threads_available,
            0
        );
    }

    #[test]
    fn sim_telemetry_round_trips_and_tolerates_absence() {
        let mut report = sample();
        report.workloads[0].sim_telemetry = Some(SimTelemetry {
            threads: 4,
            windows: 1_234,
            barrier_wait_ns: 56_789,
            msgs: 4_321,
            edge_cut: 96,
            event_imbalance: 1.25,
        });
        let text = report.to_json();
        assert!(text.contains("\"sim_telemetry\": { \"threads\": 4,"));
        // Rows without telemetry omit the key entirely.
        assert_eq!(text.matches("sim_telemetry").count(), 1);
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text);
        // Snapshots from before the field was recorded still parse.
        let old = sample().to_json();
        assert!(!old.contains("sim_telemetry"));
        assert!(BenchReport::parse(&old).unwrap().workloads[0]
            .sim_telemetry
            .is_none());
    }

    #[test]
    fn load_tolerates_missing_and_empty_baselines() {
        let dir = std::env::temp_dir().join("ibfat-trajectory-load-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

        let missing = path("definitely-absent.json");
        let _ = std::fs::remove_file(&missing);
        assert_eq!(BenchReport::load(&missing).unwrap(), None);

        let empty = path("empty.json");
        std::fs::write(&empty, "  \n").unwrap();
        assert_eq!(BenchReport::load(&empty).unwrap(), None);

        let good = path("good.json");
        std::fs::write(&good, sample().to_json()).unwrap();
        assert_eq!(BenchReport::load(&good).unwrap(), Some(sample()));

        // Corruption is still loud: a broken baseline must not be
        // mistaken for "no baseline".
        let bad = path("bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        assert!(BenchReport::load(&bad).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchReport::parse("").is_err());
        assert!(BenchReport::parse("{}").is_err(), "missing fields");
        assert!(BenchReport::parse("{\"schema\": 1}").is_err());
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{\"schema\": 1, \"workloads\": []} x").is_err());
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let base = sample();
        let mut cur = sample();
        cur.workloads[0].wall_ns = 123_456_789 * 2; // 2.0x slower
        cur.workloads[1].wall_ns = 43_000; // ~2% slower: noise
        let deltas = compare(&base, &cur).unwrap();
        assert_eq!(deltas.len(), 2);
        let slow = deltas
            .iter()
            .find(|d| d.name.contains("sim_engine"))
            .unwrap();
        assert!(slow.is_regression(0.25));
        assert!((slow.ratio - 2.0).abs() < 1e-9);
        let ok = deltas
            .iter()
            .find(|d| d.name.contains("lft_build"))
            .unwrap();
        assert!(!ok.is_regression(0.25));
    }

    #[test]
    fn par_speedups_derive_from_the_t1_twin() {
        let row = |name: &str, wall_ns: u64| WorkloadResult {
            name: name.into(),
            wall_ns,
            events: 1_000,
            events_per_sec: 1.0,
            iters: 3,
            threads_available: 0,
            phases: Vec::new(),
            sim_telemetry: None,
        };
        let report = BenchReport::new(vec![
            row("sim_engine/8x3/vl4", 100), // not a par row: ignored
            row("sim_engine_par/8x3/vl4/t1", 90),
            row("sim_engine_par/8x3/vl4/t2", 45),
            row("sim_engine_par/8x3/vl4/t4", 60),
            row("sim_engine_par/4x2/vl1/t2", 10), // no t1 twin: skipped
        ]);
        let speedups = par_speedups(&report);
        assert_eq!(speedups.len(), 3);
        assert_eq!(speedups[0], ("sim_engine_par/8x3/vl4/t1".into(), 1, 1.0));
        assert_eq!(speedups[1], ("sim_engine_par/8x3/vl4/t2".into(), 2, 2.0));
        assert_eq!(speedups[2].1, 4);
        assert!((speedups[2].2 - 1.5).abs() < 1e-9);
    }

    #[test]
    fn compare_ignores_unmatched_names_and_checks_schema() {
        let base = sample();
        let mut cur = sample();
        cur.workloads[0].name = "renamed".into();
        assert_eq!(compare(&base, &cur).unwrap().len(), 1);
        cur.schema = SCHEMA_VERSION + 1;
        assert!(compare(&base, &cur).is_err());
    }
}
