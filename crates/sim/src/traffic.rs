//! Traffic patterns: who sends to whom.
//!
//! The paper evaluates two patterns — uniform random and "50% centric"
//! (each packet targets one fixed hot node with probability 1/2, otherwise
//! a uniform random destination). Permutation patterns are provided as
//! extensions for stress studies.

use crate::SimError;
use ibfat_topology::NodeId;
use rand::Rng;

/// A destination-selection pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// Every packet picks a destination uniformly at random among the
    /// other nodes.
    Uniform,
    /// With probability `fraction`, the packet targets `hotspot`;
    /// otherwise a uniform random destination (possibly the hot spot
    /// again, matching "p out of 100 packets go to this node" semantics).
    /// The paper uses `fraction = 0.5`.
    Centric {
        /// The hot destination.
        hotspot: NodeId,
        /// Probability of targeting the hot spot.
        fraction: f64,
    },
    /// A fixed permutation: node `i` always sends to `perm[i]`.
    /// Self-mapped nodes stay silent.
    Permutation(Vec<NodeId>),
}

impl TrafficPattern {
    /// The paper's hot-spot pattern: 50% of traffic to node 0.
    pub fn paper_centric() -> Self {
        TrafficPattern::Centric {
            hotspot: NodeId(0),
            fraction: 0.5,
        }
    }

    /// Bit-complement permutation on PIDs (a classic adversarial pattern:
    /// every source's partner lies in the opposite half of the tree, so
    /// all traffic crosses the roots).
    pub fn bit_complement(num_nodes: u32) -> Self {
        assert!(num_nodes.is_power_of_two());
        let mask = num_nodes - 1;
        TrafficPattern::Permutation((0..num_nodes).map(|i| NodeId(i ^ mask)).collect())
    }

    /// Bit-reversal permutation on PIDs.
    pub fn bit_reversal(num_nodes: u32) -> Self {
        assert!(num_nodes.is_power_of_two());
        let bits = num_nodes.trailing_zeros();
        TrafficPattern::Permutation(
            (0..num_nodes)
                .map(|i| NodeId(i.reverse_bits() >> (32 - bits)))
                .collect(),
        )
    }

    /// Check the pattern against the fabric it will drive — the
    /// config-time guard that keeps [`sample`](TrafficPattern::sample)
    /// panic-free. A permutation must name exactly one destination per
    /// node and every destination must exist; a centric hot spot must
    /// exist and its fraction must be a probability.
    pub fn validate(&self, num_nodes: u32) -> Result<(), SimError> {
        match self {
            TrafficPattern::Uniform => Ok(()),
            TrafficPattern::Centric { hotspot, fraction } => {
                if hotspot.0 >= num_nodes {
                    return Err(SimError::InvalidPattern(format!(
                        "centric hotspot {} out of range ({num_nodes} nodes)",
                        hotspot.0
                    )));
                }
                if !(0.0..=1.0).contains(fraction) {
                    return Err(SimError::InvalidPattern(format!(
                        "centric fraction {fraction} is not a probability"
                    )));
                }
                Ok(())
            }
            TrafficPattern::Permutation(perm) => {
                if perm.len() != num_nodes as usize {
                    return Err(SimError::InvalidPattern(format!(
                        "permutation has {} entries for {num_nodes} nodes",
                        perm.len()
                    )));
                }
                for (src, dst) in perm.iter().enumerate() {
                    if dst.0 >= num_nodes {
                        return Err(SimError::InvalidPattern(format!(
                            "permutation maps node {src} to nonexistent node {} \
                             ({num_nodes} nodes)",
                            dst.0
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Draw the destination for a packet from `src`.
    ///
    /// Returns `None` when the source does not send under this pattern
    /// (a self-mapped slot of a permutation).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        src: NodeId,
        num_nodes: u32,
        rng: &mut R,
    ) -> Option<NodeId> {
        debug_assert!(num_nodes >= 2);
        match self {
            TrafficPattern::Uniform => {
                // Uniform over the other nodes.
                let raw = rng.gen_range(0..num_nodes - 1);
                Some(NodeId(if raw >= src.0 { raw + 1 } else { raw }))
            }
            TrafficPattern::Centric { hotspot, fraction } => {
                if rng.gen_bool(*fraction) {
                    if *hotspot == src {
                        // The hot node itself sends uniform traffic.
                        TrafficPattern::Uniform.sample(src, num_nodes, rng)
                    } else {
                        Some(*hotspot)
                    }
                } else {
                    TrafficPattern::Uniform.sample(src, num_nodes, rng)
                }
            }
            TrafficPattern::Permutation(perm) => {
                let dst = perm[src.index()];
                (dst != src).then_some(dst)
            }
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            TrafficPattern::Uniform => "uniform".into(),
            TrafficPattern::Centric { fraction, .. } => {
                format!("centric{}", (fraction * 100.0).round() as u32)
            }
            TrafficPattern::Permutation(_) => "permutation".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn uniform_never_targets_self_and_covers_everyone() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let mut seen = [false; 8];
        for _ in 0..2000 {
            let dst = TrafficPattern::Uniform
                .sample(NodeId(3), 8, &mut rng)
                .unwrap();
            assert_ne!(dst, NodeId(3));
            seen[dst.index()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 7);
    }

    #[test]
    fn centric_hits_hotspot_about_half_the_time() {
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let pattern = TrafficPattern::paper_centric();
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|_| pattern.sample(NodeId(5), 16, &mut rng) == Some(NodeId(0)))
            .count();
        // 50% direct + 50%/15 uniform spill ≈ 53.3%.
        let p = hits as f64 / trials as f64;
        assert!((0.50..0.57).contains(&p), "hot-spot fraction {p}");
    }

    #[test]
    fn hotspot_node_sends_uniform() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let pattern = TrafficPattern::paper_centric();
        for _ in 0..200 {
            let dst = pattern.sample(NodeId(0), 16, &mut rng).unwrap();
            assert_ne!(dst, NodeId(0));
        }
    }

    #[test]
    fn bit_complement_pairs_opposite_halves() {
        let pattern = TrafficPattern::bit_complement(16);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert_eq!(pattern.sample(NodeId(0), 16, &mut rng), Some(NodeId(15)));
        assert_eq!(pattern.sample(NodeId(5), 16, &mut rng), Some(NodeId(10)));
    }

    #[test]
    fn bit_reversal_is_an_involution() {
        let n = 32;
        if let TrafficPattern::Permutation(perm) = TrafficPattern::bit_reversal(n) {
            for i in 0..n {
                assert_eq!(perm[perm[i as usize].index()], NodeId(i));
            }
        } else {
            panic!("expected permutation");
        }
    }

    #[test]
    fn validate_catches_malformed_patterns_at_config_time() {
        assert!(TrafficPattern::Uniform.validate(8).is_ok());
        assert!(TrafficPattern::paper_centric().validate(8).is_ok());
        assert!(TrafficPattern::bit_complement(8).validate(8).is_ok());

        let short = TrafficPattern::Permutation(vec![NodeId(1), NodeId(0)]);
        let err = short.validate(8).unwrap_err();
        assert!(matches!(err, SimError::InvalidPattern(_)));
        assert!(err.to_string().contains("2 entries for 8 nodes"), "{err}");

        let out_of_range =
            TrafficPattern::Permutation(vec![NodeId(1), NodeId(0), NodeId(9), NodeId(2)]);
        let err = out_of_range.validate(4).unwrap_err();
        assert!(err.to_string().contains("nonexistent node 9"), "{err}");

        let bad_hotspot = TrafficPattern::Centric {
            hotspot: NodeId(40),
            fraction: 0.5,
        };
        assert!(bad_hotspot.validate(8).is_err());
        let bad_fraction = TrafficPattern::Centric {
            hotspot: NodeId(0),
            fraction: 1.5,
        };
        assert!(bad_fraction.validate(8).is_err());
    }

    #[test]
    fn names() {
        assert_eq!(TrafficPattern::Uniform.name(), "uniform");
        assert_eq!(TrafficPattern::paper_centric().name(), "centric50");
    }
}
