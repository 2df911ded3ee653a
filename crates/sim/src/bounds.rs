//! Closed-form performance bounds for the simulated model.
//!
//! These are exact consequences of the timing constants and the
//! credit-based flow control with `buffer_packets`-deep buffers; the test
//! suite checks the simulator never exceeds them and approaches them in
//! the regimes where they are tight.

use crate::{SimConfig, FLY_TIME_NS, ROUTING_TIME_NS};
use ibfat_topology::TreeParams;

/// Zero-load end-to-end latency (generation → last byte delivered) for a
/// source/destination pair whose greatest common prefix has length
/// `alpha`: the route crosses `2(n - alpha)` links and `2(n - alpha) - 1`
/// switches, then pays one packet serialization.
pub fn zero_load_latency_ns(params: TreeParams, cfg: &SimConfig, alpha: u32) -> u64 {
    assert!(
        alpha < params.n(),
        "alpha must be below n for distinct nodes"
    );
    let links = u64::from(2 * (params.n() - alpha));
    let switches = links - 1;
    links * FLY_TIME_NS + switches * ROUTING_TIME_NS + cfg.packet_time_ns()
}

/// The credit-loop ceiling of a single switch-to-switch hop on one VL,
/// in bytes/ns: a buffer slot is reoccupiable only every
/// `packet + routing + 2·fly` ns, and `buffer_packets` slots pipeline.
/// Never exceeds the raw link rate.
pub fn hop_credit_rate(cfg: &SimConfig) -> f64 {
    let s = cfg.packet_time_ns() as f64;
    let loop_ns = s + ROUTING_TIME_NS as f64 + 2.0 * FLY_TIME_NS as f64;
    let per_vl = s / loop_ns * f64::from(cfg.buffer_packets);
    (per_vl * f64::from(cfg.num_vls)).min(cfg.link_bytes_per_ns())
}

/// The delivery ceiling of a destination endport, bytes/ns: the final hop
/// has no routing stage, so its credit loop is `packet + 2·fly`.
pub fn sink_rate(cfg: &SimConfig) -> f64 {
    let s = cfg.packet_time_ns() as f64;
    let loop_ns = s + 2.0 * FLY_TIME_NS as f64;
    let per_vl = s / loop_ns * f64::from(cfg.buffer_packets);
    (per_vl * f64::from(cfg.num_vls)).min(cfg.link_bytes_per_ns())
}

/// Upper bound on accepted **uniform** traffic per node (bytes/ns): the
/// minimum of the injection link, the per-hop credit ceiling, and the
/// sink ceiling. (The fat tree itself has full bisection bandwidth, so
/// links are not the binding constraint under uniform load.)
pub fn uniform_saturation_bound(cfg: &SimConfig) -> f64 {
    hop_credit_rate(cfg).min(sink_rate(cfg))
}

/// Upper bound on accepted traffic per node under a hot-spot pattern
/// where each node addresses the hot destination with probability
/// `fraction`: the hot flows share a single sink of rate [`sink_rate`],
/// and the non-hot remainder is bounded by the uniform ceiling.
///
/// `accepted ≤ min(offered_hot, sink/N) + min(offered_rest, uniform)`.
pub fn hotspot_saturation_bound(
    params: TreeParams,
    cfg: &SimConfig,
    fraction: f64,
    offered: f64,
) -> f64 {
    let nodes = f64::from(params.num_nodes());
    let hot = (offered * fraction).min(sink_rate(cfg) / nodes);
    let rest = (offered * (1.0 - fraction)).min(uniform_saturation_bound(cfg));
    hot + rest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_latency_matches_known_values() {
        let params = TreeParams::new(4, 3).unwrap();
        let cfg = SimConfig::paper(1);
        // alpha = 0: 6 links, 5 switches: 876 ns.
        assert_eq!(zero_load_latency_ns(params, &cfg, 0), 876);
        // alpha = 2 (leaf siblings): 2 links, 1 switch: 396 ns.
        assert_eq!(zero_load_latency_ns(params, &cfg, 2), 396);
    }

    #[test]
    fn credit_rates_scale_with_vls_and_buffers() {
        let one = SimConfig::paper(1);
        let two = SimConfig::paper(2);
        assert!(hop_credit_rate(&two) > hop_credit_rate(&one));
        let mut deep = SimConfig::paper(1);
        deep.buffer_packets = 8;
        // Deep buffers saturate the link.
        assert!((hop_credit_rate(&deep) - 1.0).abs() < 1e-12);
        // 1 VL, 1 buffer: 256/396.
        assert!((hop_credit_rate(&one) - 256.0 / 396.0).abs() < 1e-12);
        assert!((sink_rate(&one) - 256.0 / 296.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_are_never_above_link_rate() {
        for vls in [1, 2, 4, 8] {
            let cfg = SimConfig::paper(vls);
            assert!(hop_credit_rate(&cfg) <= 1.0 + 1e-12);
            assert!(sink_rate(&cfg) <= 1.0 + 1e-12);
            assert!(uniform_saturation_bound(&cfg) <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn hotspot_bound_shrinks_with_network_size() {
        let cfg = SimConfig::paper(1);
        let small = TreeParams::new(4, 3).unwrap();
        let large = TreeParams::new(32, 2).unwrap();
        let b_small = hotspot_saturation_bound(small, &cfg, 0.5, 1.0);
        let b_large = hotspot_saturation_bound(large, &cfg, 0.5, 1.0);
        assert!(b_large < b_small);
    }
}
