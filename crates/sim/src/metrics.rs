//! Measurement: accepted traffic, latency distributions, link utilization.

use crate::json::{Codec, Json, JsonBuf};

/// Log2 histogram buckets of [`LatencyStats`]: 1 ns .. ~1 s.
const LATENCY_BUCKETS: usize = 40;

/// Streaming latency statistics with a logarithmic histogram for
/// percentile estimates (buckets: `[2^k, 2^(k+1))` ns).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// [`LATENCY_BUCKETS`] log2 buckets.
    buckets: Vec<u64>,
}

impl LatencyStats {
    /// Empty statistics.
    pub fn new() -> Self {
        LatencyStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; LATENCY_BUCKETS],
        }
    }

    /// Record one latency sample (ns). The running sum saturates instead
    /// of overflowing, so a pathological run degrades `mean()` gracefully
    /// rather than panicking (or wrapping in release builds).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
        let b = (64 - ns.max(1).leading_zeros() as usize - 1).min(self.buckets.len() - 1);
        self.buckets[b] += 1;
    }

    /// Number of samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (ns); 0 for no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Maximum sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile from the log histogram (upper bucket bound).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << (b + 1);
            }
        }
        self.max
    }

    /// The standard reporting percentiles in one call (log-histogram
    /// approximations, like [`quantile`](LatencyStats::quantile)). Used by
    /// the observability time-series snapshots.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Merge another set of samples into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats::new()
    }
}

/// The raw state, `{"count","sum","min","max","buckets"}`, so
/// percentiles and merges work on a decoded copy as on the original.
impl Codec for LatencyStats {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_u64("count", self.count);
        j.field_u64("sum", self.sum);
        j.field_u64("min", self.min);
        j.field_u64("max", self.max);
        j.field("buckets", &self.buckets);
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("latency")?;
        let buckets: Vec<u64> = o.decode("buckets")?;
        if buckets.len() != LATENCY_BUCKETS {
            return Err(format!(
                "{} latency buckets, not {LATENCY_BUCKETS}",
                buckets.len()
            ));
        }
        Ok(LatencyStats {
            count: o.int("count")?,
            sum: o.int("sum")?,
            min: o.int("min")?,
            max: o.int("max")?,
            buckets,
        })
    }
}

/// The p50/p95/p99 trio from one latency distribution (ns). Zeroes when
/// the distribution is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// Everything measured during one simulation run.
///
/// `PartialEq` compares every field, including the wall-clock-derived
/// [`events_per_sec`](SimReport::events_per_sec) and
/// [`packets_per_sec`](SimReport::packets_per_sec); comparisons that only
/// care about simulated behaviour (e.g. the calendar equivalence tests)
/// should zero those fields first.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Offered load as configured (fraction of link bandwidth per node).
    pub offered_load: f64,
    /// Simulated time (ns) including warm-up.
    pub sim_time_ns: u64,
    /// Warm-up time (ns) excluded from measurement.
    pub warmup_ns: u64,
    /// Packets generated inside the measurement window.
    pub generated: u64,
    /// Packets discarded by switches over the whole run: for lack of an
    /// LFT entry (only possible on degraded fabrics), plus the
    /// [`fault_lost`](Self::fault_lost) ones at dead ports.
    pub dropped: u64,
    /// Packets generated over the whole run (including warm-up).
    pub total_generated: u64,
    /// Packets delivered over the whole run (including warm-up).
    pub total_delivered: u64,
    /// Packets delivered inside the measurement window.
    pub delivered: u64,
    /// Bytes delivered inside the measurement window.
    pub delivered_bytes: u64,
    /// Packets still in flight or queued at the end.
    pub in_flight_at_end: u64,
    /// Accepted traffic in bytes/ns per node over the window — the paper's
    /// x-axis.
    pub accepted_bytes_per_ns_per_node: f64,
    /// Offered traffic in bytes/ns per node (for reference).
    pub offered_bytes_per_ns_per_node: f64,
    /// Latency from generation to delivery (the paper's y-axis: "time
    /// elapsed since the packet transmission is initiated until the packet
    /// is received", including source queueing).
    pub latency: LatencyStats,
    /// Latency from first byte on the wire to delivery (network-only).
    pub network_latency: LatencyStats,
    /// Events processed (engine throughput diagnostics).
    pub events_processed: u64,
    /// Events processed per wall-clock second, measured inside `run()`.
    /// A host-dependent diagnostic: with
    /// [`packets_per_sec`](SimReport::packets_per_sec), one of the two
    /// report fields that are not a deterministic function of the inputs
    /// and seed.
    pub events_per_sec: f64,
    /// Packets delivered per wall-clock second, measured inside `run()`.
    /// The engine-throughput currency that stays comparable when the
    /// engine changes how much bookkeeping one packet costs (a fused
    /// arrival does fewer calendar operations per packet, not fewer
    /// packets). Host-dependent, like
    /// [`events_per_sec`](SimReport::events_per_sec); equality
    /// comparisons should zero both.
    pub packets_per_sec: f64,
    /// Mean utilization (busy fraction) over all directed links.
    pub mean_link_utilization: f64,
    /// Peak utilization over all directed links.
    pub max_link_utilization: f64,
    /// Packets delivered out of order within their (src, dst) flow, over
    /// the whole run. InfiniBand transport expects in-order delivery on a
    /// path, so multipath policies that reorder (random/round-robin
    /// per-packet selection) would pay for this in real hardware; the
    /// paper's rank-based selection keeps every flow on one path and this
    /// count at zero.
    pub out_of_order: u64,
    /// Packets discarded because of a live fault (dead-port arrivals and
    /// dead-port routing under [`crate::FaultPolicy::Drop`]). Zero when
    /// the run has no [`crate::FaultPlan`].
    pub fault_lost: u64,
    /// Heads parked on a dead output port under
    /// [`crate::FaultPolicy::Stall`] while tables were stale.
    pub fault_stalled: u64,
    /// Parked heads re-routed when the SM reprogrammed their switch.
    pub fault_rerouted: u64,
}

impl Default for SimReport {
    /// An all-zero report (no traffic, no measurements) — a convenient
    /// base for analysis helpers that only read a few counters.
    fn default() -> Self {
        SimReport {
            offered_load: 0.0,
            sim_time_ns: 0,
            warmup_ns: 0,
            generated: 0,
            dropped: 0,
            total_generated: 0,
            total_delivered: 0,
            delivered: 0,
            delivered_bytes: 0,
            in_flight_at_end: 0,
            accepted_bytes_per_ns_per_node: 0.0,
            offered_bytes_per_ns_per_node: 0.0,
            latency: LatencyStats::new(),
            network_latency: LatencyStats::new(),
            events_processed: 0,
            events_per_sec: 0.0,
            packets_per_sec: 0.0,
            mean_link_utilization: 0.0,
            max_link_utilization: 0.0,
            out_of_order: 0,
            fault_lost: 0,
            fault_stalled: 0,
            fault_rerouted: 0,
        }
    }
}

/// Every field, losslessly: floats in their shortest exact form and
/// latency histograms raw.
impl Codec for SimReport {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_float("offered_load", self.offered_load);
        j.field_u64("sim_time_ns", self.sim_time_ns);
        j.field_u64("warmup_ns", self.warmup_ns);
        j.field_u64("generated", self.generated);
        j.field_u64("dropped", self.dropped);
        j.field_u64("total_generated", self.total_generated);
        j.field_u64("total_delivered", self.total_delivered);
        j.field_u64("delivered", self.delivered);
        j.field_u64("delivered_bytes", self.delivered_bytes);
        j.field_u64("in_flight_at_end", self.in_flight_at_end);
        j.field_float(
            "accepted_bytes_per_ns_per_node",
            self.accepted_bytes_per_ns_per_node,
        );
        j.field_float(
            "offered_bytes_per_ns_per_node",
            self.offered_bytes_per_ns_per_node,
        );
        j.field("latency", &self.latency);
        j.field("network_latency", &self.network_latency);
        j.field_u64("events_processed", self.events_processed);
        j.field_float("events_per_sec", self.events_per_sec);
        j.field_float("packets_per_sec", self.packets_per_sec);
        j.field_float("mean_link_utilization", self.mean_link_utilization);
        j.field_float("max_link_utilization", self.max_link_utilization);
        j.field_u64("out_of_order", self.out_of_order);
        j.field_u64("fault_lost", self.fault_lost);
        j.field_u64("fault_stalled", self.fault_stalled);
        j.field_u64("fault_rerouted", self.fault_rerouted);
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("report")?;
        Ok(SimReport {
            offered_load: o.f64("offered_load")?,
            sim_time_ns: o.int("sim_time_ns")?,
            warmup_ns: o.int("warmup_ns")?,
            generated: o.int("generated")?,
            dropped: o.int("dropped")?,
            total_generated: o.int("total_generated")?,
            total_delivered: o.int("total_delivered")?,
            delivered: o.int("delivered")?,
            delivered_bytes: o.int("delivered_bytes")?,
            in_flight_at_end: o.int("in_flight_at_end")?,
            accepted_bytes_per_ns_per_node: o.f64("accepted_bytes_per_ns_per_node")?,
            offered_bytes_per_ns_per_node: o.f64("offered_bytes_per_ns_per_node")?,
            latency: o.decode("latency")?,
            network_latency: o.decode("network_latency")?,
            events_processed: o.int("events_processed")?,
            events_per_sec: o.f64("events_per_sec")?,
            packets_per_sec: o.f64("packets_per_sec")?,
            mean_link_utilization: o.f64("mean_link_utilization")?,
            max_link_utilization: o.f64("max_link_utilization")?,
            out_of_order: o.int("out_of_order")?,
            fault_lost: o.int("fault_lost")?,
            fault_stalled: o.int("fault_stalled")?,
            fault_rerouted: o.int("fault_rerouted")?,
        })
    }
}

impl SimReport {
    /// Average end-to-end latency in ns — the headline metric.
    pub fn avg_latency_ns(&self) -> f64 {
        self.latency.mean()
    }

    /// Throughput as a fraction of the per-node link bandwidth.
    pub fn normalized_accepted(&self, link_bytes_per_ns: f64) -> f64 {
        self.accepted_bytes_per_ns_per_node / link_bytes_per_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_min_max() {
        let mut s = LatencyStats::new();
        for v in [100, 200, 300] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 200.0).abs() < 1e-9);
        assert_eq!(s.min(), 100);
        assert_eq!(s.max(), 300);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.quantile(0.99), 0);
    }

    #[test]
    fn quantile_is_monotone_and_bounding() {
        let mut s = LatencyStats::new();
        for v in 1..=1000u64 {
            s.record(v);
        }
        let q50 = s.quantile(0.5);
        let q99 = s.quantile(0.99);
        assert!(q50 <= q99);
        assert!((500 / 2..=1024).contains(&q50), "q50 = {q50}");
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let s = LatencyStats::new();
        let p = s.percentiles();
        assert_eq!((p.p50, p.p95, p.p99), (0, 0, 0));
    }

    #[test]
    fn single_sample_lands_in_its_bucket() {
        let mut s = LatencyStats::new();
        s.record(300); // bucket [256, 512)
        assert_eq!(s.count(), 1);
        assert_eq!(s.min(), 300);
        assert_eq!(s.max(), 300);
        // Every quantile of a one-sample distribution reports the same
        // bucket's upper bound.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 512, "q = {q}");
        }
        let p = s.percentiles();
        assert_eq!((p.p50, p.p95, p.p99), (512, 512, 512));
    }

    #[test]
    fn power_of_two_boundaries_split_buckets() {
        // 2^k is the *first* value of bucket k: [2^k, 2^(k+1)). A sample
        // at 2^k-1 must land one bucket below a sample at 2^k.
        let mut below = LatencyStats::new();
        below.record(255);
        assert_eq!(below.quantile(1.0), 256);
        let mut at = LatencyStats::new();
        at.record(256);
        assert_eq!(at.quantile(1.0), 512);
        // Zero is clamped into the first bucket rather than shifting out.
        let mut zero = LatencyStats::new();
        zero.record(0);
        assert_eq!(zero.quantile(1.0), 2);
        assert_eq!(zero.min(), 0);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut s = LatencyStats::new();
        // A spread crossing many buckets, deterministically generated.
        let mut v: u64 = 3;
        for _ in 0..500 {
            s.record(v % 100_000);
            v = v.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        }
        let qs: Vec<u64> = (0..=20).map(|i| s.quantile(i as f64 / 20.0)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantile not monotone: {qs:?}");
        }
        let p = s.percentiles();
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
    }

    #[test]
    fn sum_saturates_instead_of_overflowing() {
        let mut s = LatencyStats::new();
        s.record(u64::MAX);
        s.record(u64::MAX);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - u64::MAX as f64 / 2.0).abs() / s.mean() < 1e-9);
        let mut other = LatencyStats::new();
        other.record(u64::MAX);
        s.merge(&other); // must not panic in debug builds
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyStats::new();
        a.record(10);
        let mut b = LatencyStats::new();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 20.0).abs() < 1e-9);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 30);
    }
}
