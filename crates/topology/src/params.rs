use crate::TopologyError;
use std::fmt;

/// Validated parameters of an m-port n-tree `FT(m, n)`.
///
/// * `m` — ports per switch; must be a power of two, `m >= 2`.
/// * `n` — number of switch levels; `n >= 1`.
///
/// The MLID scheme consumes `num_nodes * 2^LMC` LIDs with
/// `LMC = (n-1) * log2(m/2)`. Configurations up to `FT(8, 3)` fit inside
/// the 16-bit IBA unicast range (`0x0001..=0xBFFF`); larger fabrics such
/// as `FT(16, 3)` (2^16 LIDs) and `FT(32, 3)` (2^21 LIDs) are admitted
/// under a modeled *extended-LID* regime — the addressing arithmetic is
/// unchanged, only the identifier width grows. Construction rejects
/// combinations beyond the 2^21 extended-LID budget
/// (`num_nodes * (m/2)^(n-1) > 1 << 21`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TreeParams {
    m: u32,
    n: u32,
}

impl TreeParams {
    /// Create validated parameters for `FT(m, n)`.
    pub fn new(m: u32, n: u32) -> Result<Self, TopologyError> {
        // Ports are numbered 1..=m in a byte (port 0 is the management
        // port), so the largest power of two that fits is 128.
        if !(2..=128).contains(&m) || !m.is_power_of_two() {
            return Err(TopologyError::InvalidPortCount { m });
        }
        if n < 1 {
            return Err(TopologyError::InvalidTreeHeight { n });
        }
        let half = (m / 2) as u64;
        // num_nodes = 2 * half^n; reject anything beyond 2^20 nodes outright.
        let nodes = 2u64
            .checked_mul(half.checked_pow(n).ok_or(TopologyError::TooLarge {
                m,
                n,
                detail: "node count overflows u64",
            })?)
            .ok_or(TopologyError::TooLarge {
                m,
                n,
                detail: "node count overflows u64",
            })?;
        if nodes > 1 << 20 {
            return Err(TopologyError::TooLarge {
                m,
                n,
                detail: "more than 2^20 processing nodes",
            });
        }
        // MLID consumes nodes * half^(n-1) LIDs starting at LID 1. The
        // extended-LID regime admits up to 2^21 of them (FT(32, 3));
        // anything beyond that is out of the modeled design space.
        let lids = nodes * half.pow(n - 1);
        if lids > 1 << 21 {
            return Err(TopologyError::TooLarge {
                m,
                n,
                detail: "MLID LID space exceeds the 2^21 extended-LID budget",
            });
        }
        Ok(TreeParams { m, n })
    }

    /// Ports per switch, `m`.
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of switch levels, `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// `m/2`: the down-arity of non-root switches (and the digit radix for
    /// all label positions except the first).
    #[inline]
    pub fn half(&self) -> u32 {
        self.m / 2
    }

    /// Number of processing nodes, `2 * (m/2)^n`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        2 * self.half().pow(self.n)
    }

    /// Number of switches, `(2n - 1) * (m/2)^(n-1)`.
    #[inline]
    pub fn num_switches(&self) -> u32 {
        (2 * self.n - 1) * self.half().pow(self.n - 1)
    }

    /// Number of switches at `level`: `(m/2)^(n-1)` at level 0 (roots, whose
    /// first label digit ranges over `0..m/2`), and `2 * (m/2)^(n-1)` at
    /// every level `1..n` (first digit ranges over `0..m`).
    #[inline]
    pub fn switches_at_level(&self, level: u32) -> u32 {
        debug_assert!(level < self.n);
        if level == 0 {
            self.half().pow(self.n - 1)
        } else {
            2 * self.half().pow(self.n - 1)
        }
    }

    /// log2 of `(m/2)^(n-1)`, the switches at level 0 (half as many as
    /// at every lower level).
    #[inline]
    fn root_shift(&self) -> u32 {
        (self.m.trailing_zeros() - 1) * (self.n - 1)
    }

    /// Dense-id offset of the first switch of `level` (ids are level-major).
    #[inline]
    pub fn level_offset(&self, level: u32) -> u32 {
        debug_assert!(level < self.n);
        if level == 0 {
            0
        } else {
            (2 * level - 1) << self.root_shift()
        }
    }

    /// Level of a switch id under the level-major id layout — the inverse
    /// of [`TreeParams::level_offset`], in O(1) arithmetic.
    #[inline]
    pub fn switch_level_of(&self, id: u32) -> u32 {
        debug_assert!(id < self.num_switches());
        let shift = self.root_shift();
        if id >> shift == 0 {
            0
        } else {
            ((id - (1 << shift)) >> (shift + 1)) + 1
        }
    }

    /// The height of the fat tree as defined in the paper, `n + 1`
    /// (n switch levels plus the processing-node level).
    #[inline]
    pub fn height(&self) -> u32 {
        self.n + 1
    }

    /// The LID Mask Control value used by the MLID scheme:
    /// `LMC = log2((m/2)^(n-1)) = (n-1) * log2(m/2)`.
    ///
    /// Each node is assigned `2^LMC` consecutive LIDs; IBA caps LMC at 7
    /// bits (128 paths), which [`TreeParams::new`] indirectly enforces via
    /// the LID-space bound for every practical configuration.
    #[inline]
    pub fn lmc(&self) -> u32 {
        (self.n - 1) * self.half().trailing_zeros()
    }

    /// `2^LMC = (m/2)^(n-1)`: LIDs per node under MLID, which is also the
    /// number of distinct least common ancestors (and hence paths) between
    /// two maximally distant processing nodes.
    #[inline]
    pub fn lids_per_node(&self) -> u32 {
        self.half().pow(self.n - 1)
    }

    /// Number of digits in a node label (`n`).
    #[inline]
    pub fn node_digits(&self) -> usize {
        self.n as usize
    }

    /// Number of digits in a switch label (`n - 1`).
    #[inline]
    pub fn switch_digits(&self) -> usize {
        (self.n - 1) as usize
    }

    /// Radix of node-label digit `i`: `m` for digit 0, `m/2` otherwise.
    #[inline]
    pub fn node_digit_radix(&self, i: usize) -> u32 {
        if i == 0 {
            self.m
        } else {
            self.half()
        }
    }

    /// Radix of switch-label digit `i` at `level`: digit 0 has radix `m/2`
    /// for root switches (level 0) and `m` for all lower levels; the
    /// remaining digits always have radix `m/2`.
    #[inline]
    pub fn switch_digit_radix(&self, level: u32, i: usize) -> u32 {
        if i == 0 && level > 0 {
            self.m
        } else {
            self.half()
        }
    }

    /// Number of least common ancestors of two nodes whose greatest common
    /// prefix has length `alpha`: `(m/2)^(n-1-alpha)`.
    #[inline]
    pub fn num_lcas(&self, alpha: u32) -> u32 {
        debug_assert!(alpha < self.n);
        self.half().pow(self.n - 1 - alpha)
    }

    /// Size of a greatest-common-prefix group `gcpg(x, alpha)`:
    /// all `2 (m/2)^n` nodes for `alpha = 0`, otherwise `(m/2)^(n-alpha)`.
    #[inline]
    pub fn gcpg_size(&self, alpha: u32) -> u32 {
        debug_assert!(alpha <= self.n);
        if alpha == 0 {
            self.num_nodes()
        } else {
            self.half().pow(self.n - alpha)
        }
    }
}

impl fmt::Display for TreeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FT({}, {})", self.m, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_4port_3tree() {
        // The paper's running example: a 4-port 3-tree has 16 processing
        // nodes and 20 communication switches, height 4.
        let p = TreeParams::new(4, 3).unwrap();
        assert_eq!(p.num_nodes(), 16);
        assert_eq!(p.num_switches(), 20);
        assert_eq!(p.height(), 4);
        assert_eq!(p.switches_at_level(0), 4);
        assert_eq!(p.switches_at_level(1), 8);
        assert_eq!(p.switches_at_level(2), 8);
        assert_eq!(p.lmc(), 2);
        assert_eq!(p.lids_per_node(), 4);
    }

    #[test]
    fn evaluation_configs() {
        for (m, n, nodes, switches) in [
            (4, 3, 16, 20),
            (8, 3, 128, 80),
            (16, 2, 128, 24),
            (32, 2, 512, 48),
        ] {
            let p = TreeParams::new(m, n).unwrap();
            assert_eq!(p.num_nodes(), nodes, "FT({m},{n}) nodes");
            assert_eq!(p.num_switches(), switches, "FT({m},{n}) switches");
        }
    }

    #[test]
    fn level_offsets_partition_switch_ids() {
        let p = TreeParams::new(8, 3).unwrap();
        let mut total = 0;
        for l in 0..p.n() {
            assert_eq!(p.level_offset(l), total);
            total += p.switches_at_level(l);
        }
        assert_eq!(total, p.num_switches());
    }

    #[test]
    fn switch_level_of_inverts_level_offset() {
        for (m, n) in [(2, 2), (4, 3), (8, 3), (16, 2), (8, 4)] {
            let p = TreeParams::new(m, n).unwrap();
            for l in 0..p.n() {
                for i in 0..p.switches_at_level(l) {
                    assert_eq!(p.switch_level_of(p.level_offset(l) + i), l, "FT({m},{n})");
                }
            }
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            TreeParams::new(3, 2),
            Err(TopologyError::InvalidPortCount { m: 3 })
        ));
        assert!(matches!(
            TreeParams::new(6, 2),
            Err(TopologyError::InvalidPortCount { m: 6 })
        ));
        assert!(matches!(
            TreeParams::new(0, 2),
            Err(TopologyError::InvalidPortCount { m: 0 })
        ));
        assert!(matches!(
            TreeParams::new(256, 1),
            Err(TopologyError::InvalidPortCount { m: 256 })
        ));
        assert!(matches!(
            TreeParams::new(4, 0),
            Err(TopologyError::InvalidTreeHeight { n: 0 })
        ));
        // 64-port 4-tree: 2 * 32^4 = 2M nodes — too large.
        assert!(matches!(
            TreeParams::new(64, 4),
            Err(TopologyError::TooLarge { .. })
        ));
    }

    #[test]
    fn lid_space_bound_enforced() {
        // FT(16, 4): 2*8^4 = 8192 nodes, 8^3 = 512 LIDs each -> 2^22 LIDs,
        // beyond the 2^21 extended-LID budget.
        assert!(matches!(
            TreeParams::new(16, 4),
            Err(TopologyError::TooLarge { .. })
        ));
        // FT(8, 4): 2*4^4 = 512 nodes * 64 LIDs = 32768 LIDs. OK.
        assert!(TreeParams::new(8, 4).is_ok());
    }

    #[test]
    fn extended_lid_regime_admits_the_scale_out_configs() {
        // FT(16, 3): 1024 nodes x 64 LIDs = 2^16 — beyond the 16-bit
        // unicast range, inside the extended regime.
        let p = TreeParams::new(16, 3).unwrap();
        assert_eq!(p.num_nodes(), 1024);
        assert_eq!(
            u64::from(p.num_nodes()) * u64::from(p.lids_per_node()),
            1 << 16
        );
        // FT(32, 3): 8192 nodes x 256 LIDs = 2^21 — the budget boundary.
        let p = TreeParams::new(32, 3).unwrap();
        assert_eq!(p.num_nodes(), 8192);
        assert_eq!(p.num_switches(), 1280);
        assert_eq!(p.lmc(), 8);
        assert_eq!(
            u64::from(p.num_nodes()) * u64::from(p.lids_per_node()),
            1 << 21
        );
    }

    #[test]
    fn m_equals_two_degenerates_to_path() {
        // FT(2, n): half = 1, 2 nodes, (2n-1) switches in a chain.
        let p = TreeParams::new(2, 3).unwrap();
        assert_eq!(p.num_nodes(), 2);
        assert_eq!(p.num_switches(), 5);
        assert_eq!(p.lmc(), 0);
        assert_eq!(p.lids_per_node(), 1);
    }

    #[test]
    fn gcpg_sizes_match_paper() {
        let p = TreeParams::new(4, 3).unwrap();
        assert_eq!(p.gcpg_size(0), 16);
        assert_eq!(p.gcpg_size(1), 4); // the paper's gcpg("1", 1) has 4 nodes
        assert_eq!(p.gcpg_size(2), 2);
        assert_eq!(p.gcpg_size(3), 1);
        assert_eq!(p.num_lcas(1), 2); // lca(P(100), P(111)) = 2 switches
        assert_eq!(p.num_lcas(0), 4); // 4 roots
    }
}
