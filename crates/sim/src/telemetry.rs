//! Engine self-telemetry for the parallel simulator.
//!
//! The flight recorder and the fabric counters describe the *simulated*
//! fabric; this module describes the *engine*: how the conservative
//! window synchronization actually behaved — chosen window sizes,
//! barrier wait time, mailbox message volume, and per-shard event
//! imbalance. ROADMAP item 3's optimization work reads these numbers
//! instead of guessing.
//!
//! Telemetry is collected only when requested
//! ([`ParSimulator::run_telemetry`](crate::ParSimulator::run_telemetry)
//! or `with_telemetry(true)`), so the plain parallel path pays nothing.
//! It is a *separate channel* from the simulation itself: the report
//! stays bit-identical with telemetry on or off, but the telemetry is
//! inherently host-dependent (barrier waits are wall-clock) and
//! schedule-shaped (per-shard counts depend on the partition), so it is
//! never compared across runs in determinism tests — only the
//! structural counts (windows, events, messages) are reproducible for
//! a fixed thread count.

use crate::json::JsonBuf;

/// Per-shard window-log bound: the first this many windows are kept in
/// full; later ones only feed the aggregates (and are counted in
/// [`ShardTelemetry::window_log_dropped`]).
pub const WINDOW_LOG_CAP: usize = 512;

/// One synchronization window as one shard saw it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowRecord {
    /// The window's end bound (simulated ns).
    pub bound_ns: u64,
    /// The window's span — the adaptive policy's chosen size (ns).
    pub span_ns: u64,
    /// Events this shard dispatched inside the window.
    pub events: u64,
    /// Cross-shard messages this shard published at the window end.
    pub msgs_sent: u64,
    /// Cross-shard messages this shard drained at the window start.
    pub msgs_recv: u64,
    /// Wall-clock ns this shard spent parked at the window barrier.
    pub barrier_wait_ns: u64,
}

/// Everything one shard recorded over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardTelemetry {
    pub shard: u32,
    /// Switches this shard owns.
    pub switches: u32,
    /// End nodes this shard owns.
    pub nodes: u32,
    /// Barrier rounds participated in.
    pub windows: u64,
    /// Rounds the empty-window fast path skipped dispatch entirely.
    pub skipped_windows: u64,
    /// Events dispatched.
    pub events: u64,
    /// Cross-shard messages published.
    pub msgs_sent: u64,
    /// Cross-shard messages drained.
    pub msgs_recv: u64,
    /// Total wall-clock ns parked at window barriers.
    pub barrier_wait_ns: u64,
    /// Sum of window spans (ns) — `span_sum_ns / windows` is the mean
    /// chosen window size.
    pub span_sum_ns: u64,
    /// Largest single window span (ns).
    pub span_max_ns: u64,
    /// The first [`WINDOW_LOG_CAP`] windows, in order.
    pub window_log: Vec<WindowRecord>,
    /// Windows beyond the log cap (aggregates still include them).
    pub window_log_dropped: u64,
}

impl ShardTelemetry {
    pub fn new(shard: u32, switches: u32, nodes: u32) -> ShardTelemetry {
        ShardTelemetry {
            shard,
            switches,
            nodes,
            ..ShardTelemetry::default()
        }
    }

    /// Fold one finished window in.
    pub(crate) fn on_window(&mut self, rec: WindowRecord, dispatched: bool) {
        self.windows += 1;
        if !dispatched {
            self.skipped_windows += 1;
        }
        self.events += rec.events;
        self.msgs_sent += rec.msgs_sent;
        self.msgs_recv += rec.msgs_recv;
        self.barrier_wait_ns += rec.barrier_wait_ns;
        self.span_sum_ns += rec.span_ns;
        self.span_max_ns = self.span_max_ns.max(rec.span_ns);
        if self.window_log.len() < WINDOW_LOG_CAP {
            self.window_log.push(rec);
        } else {
            self.window_log_dropped += 1;
        }
    }

    /// Mean chosen window size (ns); 0 before any window completed.
    pub fn mean_window_ns(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.span_sum_ns as f64 / self.windows as f64
        }
    }
}

/// The whole engine's telemetry for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineTelemetry {
    /// Effective worker count (1 = the sequential fallback ran; no
    /// shard records exist in that case).
    pub threads: usize,
    /// The static lookahead `W` (ns) windows advance in multiples of.
    pub lookahead_ns: u64,
    /// Switch-to-switch cables cut by the shard partition.
    pub edge_cut: usize,
    /// One record per shard (empty for a sequential run).
    pub shards: Vec<ShardTelemetry>,
}

impl EngineTelemetry {
    /// The marker telemetry of a run that fell back to the sequential
    /// engine.
    pub fn sequential(lookahead_ns: u64) -> EngineTelemetry {
        EngineTelemetry {
            threads: 1,
            lookahead_ns,
            edge_cut: 0,
            shards: Vec::new(),
        }
    }

    /// Barrier rounds (identical on every shard by construction; 0 for
    /// a sequential run).
    pub fn windows(&self) -> u64 {
        self.shards.iter().map(|s| s.windows).max().unwrap_or(0)
    }

    /// Events dispatched across all shards.
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Cross-shard messages published across all shards.
    pub fn total_msgs(&self) -> u64 {
        self.shards.iter().map(|s| s.msgs_sent).sum()
    }

    /// Total wall-clock ns spent at window barriers, summed over shards.
    pub fn barrier_wait_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.barrier_wait_ns).sum()
    }

    /// Load imbalance: the busiest shard's event count over the mean
    /// (1.0 = perfectly balanced; 1.0 for sequential runs too).
    pub fn event_imbalance(&self) -> f64 {
        if self.shards.is_empty() {
            return 1.0;
        }
        let max = self.shards.iter().map(|s| s.events).max().unwrap_or(0) as f64;
        let mean = self.total_events() as f64 / self.shards.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// One-object JSON summary (single line, no trailing newline).
    pub fn summary_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        self.write_summary_fields(&mut j);
        j.end_obj();
        j.into_string()
    }

    fn write_summary_fields(&self, j: &mut JsonBuf) {
        j.field_str("record", "engine");
        j.field_u64("threads", self.threads as u64);
        j.field_u64("lookahead_ns", self.lookahead_ns);
        j.field_u64("edge_cut", self.edge_cut as u64);
        j.field_u64("windows", self.windows());
        j.field_u64("events", self.total_events());
        j.field_u64("msgs", self.total_msgs());
        j.field_u64("barrier_wait_ns", self.barrier_wait_ns());
        j.field_f64("event_imbalance", self.event_imbalance(), 4);
    }

    /// The full JSONL document: one `engine` summary line, one `shard`
    /// line per shard, and — when `include_windows` — one `window` line
    /// per logged window. Every line is one standalone JSON object.
    pub fn to_jsonl(&self, include_windows: bool) -> String {
        let mut out = self.summary_json();
        out.push('\n');
        for s in &self.shards {
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.field_str("record", "shard");
            j.field_u64("shard", u64::from(s.shard));
            j.field_u64("switches", u64::from(s.switches));
            j.field_u64("nodes", u64::from(s.nodes));
            j.field_u64("windows", s.windows);
            j.field_u64("skipped_windows", s.skipped_windows);
            j.field_u64("events", s.events);
            j.field_u64("msgs_sent", s.msgs_sent);
            j.field_u64("msgs_recv", s.msgs_recv);
            j.field_u64("barrier_wait_ns", s.barrier_wait_ns);
            j.field_f64("mean_window_ns", s.mean_window_ns(), 1);
            j.field_u64("max_window_ns", s.span_max_ns);
            j.field_u64("window_log_dropped", s.window_log_dropped);
            j.end_obj();
            out.push_str(&j.into_string());
            out.push('\n');
            if include_windows {
                for w in &s.window_log {
                    let mut j = JsonBuf::new();
                    j.begin_obj();
                    j.field_str("record", "window");
                    j.field_u64("shard", u64::from(s.shard));
                    j.field_u64("bound_ns", w.bound_ns);
                    j.field_u64("span_ns", w.span_ns);
                    j.field_u64("events", w.events);
                    j.field_u64("msgs_sent", w.msgs_sent);
                    j.field_u64("msgs_recv", w.msgs_recv);
                    j.field_u64("barrier_wait_ns", w.barrier_wait_ns);
                    j.end_obj();
                    out.push_str(&j.into_string());
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_with(events: u64) -> ShardTelemetry {
        let mut s = ShardTelemetry::new(0, 2, 8);
        s.on_window(
            WindowRecord {
                bound_ns: 100,
                span_ns: 100,
                events,
                msgs_sent: 3,
                msgs_recv: 1,
                barrier_wait_ns: 50,
            },
            events > 0,
        );
        s
    }

    #[test]
    fn aggregates_fold_windows() {
        let mut s = ShardTelemetry::new(1, 2, 8);
        s.on_window(
            WindowRecord {
                bound_ns: 100,
                span_ns: 100,
                events: 10,
                msgs_sent: 2,
                msgs_recv: 0,
                barrier_wait_ns: 5,
            },
            true,
        );
        s.on_window(
            WindowRecord {
                bound_ns: 400,
                span_ns: 300,
                events: 0,
                msgs_sent: 0,
                msgs_recv: 0,
                barrier_wait_ns: 7,
            },
            false,
        );
        assert_eq!(s.windows, 2);
        assert_eq!(s.skipped_windows, 1);
        assert_eq!(s.events, 10);
        assert_eq!(s.span_max_ns, 300);
        assert!((s.mean_window_ns() - 200.0).abs() < 1e-9);
        assert_eq!(s.window_log.len(), 2);
    }

    #[test]
    fn window_log_is_bounded() {
        let mut s = ShardTelemetry::new(0, 1, 4);
        for i in 0..(WINDOW_LOG_CAP as u64 + 10) {
            s.on_window(
                WindowRecord {
                    bound_ns: i,
                    span_ns: 1,
                    ..WindowRecord::default()
                },
                true,
            );
        }
        assert_eq!(s.window_log.len(), WINDOW_LOG_CAP);
        assert_eq!(s.window_log_dropped, 10);
        assert_eq!(s.windows, WINDOW_LOG_CAP as u64 + 10);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let mut e = EngineTelemetry {
            threads: 2,
            lookahead_ns: 100,
            edge_cut: 4,
            shards: vec![shard_with(30), shard_with(10)],
        };
        e.shards[1].shard = 1;
        assert!((e.event_imbalance() - 1.5).abs() < 1e-9);
        assert_eq!(e.windows(), 1);
        assert_eq!(e.total_events(), 40);
        assert_eq!(e.total_msgs(), 6);
    }

    #[test]
    fn sequential_marker_is_balanced_and_empty() {
        let e = EngineTelemetry::sequential(100);
        assert_eq!(e.threads, 1);
        assert_eq!(e.windows(), 0);
        assert!((e.event_imbalance() - 1.0).abs() < 1e-9);
        assert!(e.shards.is_empty());
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let e = EngineTelemetry {
            threads: 1,
            lookahead_ns: 100,
            edge_cut: 0,
            shards: vec![shard_with(5)],
        };
        let doc = e.to_jsonl(true);
        // engine + shard + 1 window line
        assert_eq!(doc.lines().count(), 3);
        for line in doc.lines() {
            let v = crate::json::parse(line).expect("valid JSON line");
            v.as_object("line")
                .unwrap()
                .field("record")
                .expect("tagged");
        }
        assert!(doc.starts_with("{\"record\":\"engine\""));
    }
}
