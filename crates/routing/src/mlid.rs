//! The paper's Multiple LID (MLID) routing scheme (Section 4).
//!
//! Three cooperating pieces:
//!
//! 1. **Processing-node addressing** — every node gets `2^LMC` LIDs,
//!    `LMC = log2((m/2)^(n-1))`, `BaseLID(P(p)) = PID(P(p))·2^LMC + 1`.
//! 2. **Path selection** — for a source `s` and destination `d` with
//!    greatest common prefix length `alpha`, the source's rank `r` in
//!    `gcpg(s_0..s_alpha, alpha+1)` picks `DLID = BaseLID(d) + r`.
//! 3. **Forwarding-table assignment** — per switch `SW<w, l>` and LID
//!    `lid` owned by node `P(p)`:
//!    * *Case 1* (`p` reachable downward, i.e. `p_0..p_{l-1} = w_0..w_{l-1}`):
//!      `k = p_l + 1`                              — Equation (1)
//!    * *Case 2* (otherwise, climb):
//!      `k = (⌊(lid-1)/(m/2)^(n-1-l)⌋ mod m/2) + m/2 + 1`  — Equation (2)
//!
//! Equation (2) reads digit `n-1-l` of `lid - 1` in base `m/2`. Because the
//! low `LMC` digits of `lid - 1` are the path-selection offset `r`, and `r`'s
//! digits are exactly the source's label digits (`digit_j(r) = s_{n-1-j}`),
//! the switch reached while climbing at level `l` is *the source label with
//! digit `l` deleted* — so every upward link is used by exactly one source
//! node, which is what spreads hot-spot traffic over all the least common
//! ancestors.

use crate::{Lft, Lid, LidSpace, RoutingScheme};
use ibfat_topology::{
    gcp_len, par_map_indexed, rank_in, Gcpg, Network, NodeId, NodeLabel, PortNum, SwitchId,
    SwitchLabel, TreeParams,
};

/// Decompose a dense switch id into `(level, index within level)`.
#[inline]
pub(crate) fn level_and_index(params: TreeParams, sw: SwitchId) -> (u32, u32) {
    let level = params.switch_level_of(sw.0);
    (level, sw.0 - params.level_offset(level))
}

/// Fill the Equation (1) descending entries of a switch's LFT by contiguous
/// runs.
///
/// The subtree below switch `idx` at `level` is the contiguous node-id
/// range `[prefix * (m/2)^(n-level), ..)` where `prefix` is the first
/// `level` digits of the switch label (for roots, every node is below).
/// Within it, down-port `d + 1` owns exactly the nodes whose label digit
/// `level` equals `d` — one contiguous block of `(m/2)^(n-1-level)` nodes,
/// hence one contiguous LID run per port.
pub(crate) fn fill_down_runs(lft: &mut Lft, params: TreeParams, space: &LidSpace, sw: SwitchId) {
    let half = params.half();
    let n = params.n();
    let lpn = space.lids_per_node();
    let (level, idx) = level_and_index(params, sw);
    let stride_nodes = half.pow(n - 1 - level);
    let radix = if level == 0 { params.m() } else { half };
    let below_start = if level == 0 {
        0
    } else {
        (idx / stride_nodes) * half.pow(n - level)
    };
    for d in 0..radix {
        let first = NodeId(below_start + d * stride_nodes);
        lft.fill(
            space.base_lid(first),
            (stride_nodes * lpn) as usize,
            PortNum((d + 1) as u8),
        );
    }
}

/// Table slots (switches × LID slots) from which a parallel build pays
/// for spawning the thread pool, tens of µs: a serial FT(8,3) MLID build
/// (80 × 2049 slots) takes about 36 µs, a serial FT(16,3) one (320 ×
/// 65,537) about 2 ms against 1.3 ms on two threads.
const PARALLEL_BUILD_SLOTS: usize = 1 << 20;

/// Build and compact every switch's table with `build`, in switch-id
/// order, over the thread pool only when the tables are large enough to
/// pay for it. Compacting here keeps that work on the builder threads;
/// `Routing::assemble` then finds nothing left to merge.
pub(crate) fn build_all(
    params: TreeParams,
    space: &LidSpace,
    build: impl Fn(SwitchId) -> Lft + Sync,
) -> Vec<Lft> {
    let compacted = |sw: &u32| {
        let mut lft = build(SwitchId(*sw));
        lft.compact();
        lft
    };
    let switches: Vec<u32> = (0..params.num_switches()).collect();
    if switches.len() * (space.max_lid().index() + 1) < PARALLEL_BUILD_SLOTS {
        return switches.iter().map(compacted).collect();
    }
    par_map_indexed(&switches, |_, sw| compacted(sw))
}

/// The MLID scheme (stateless; all state lives in the produced artifacts).
#[derive(Debug, Clone, Copy, Default)]
pub struct MlidScheme;

impl MlidScheme {
    /// The paper's path selection: `BaseLID(dst) + rank(src)` where the
    /// rank is taken in the source's prefix group one digit deeper than the
    /// greatest common prefix with the destination.
    ///
    /// For `src == dst` (self-addressed traffic) the base LID is returned.
    pub fn select(params: TreeParams, space: &LidSpace, src: NodeId, dst: NodeId) -> Lid {
        if src == dst {
            return space.base_lid(dst);
        }
        let ls = NodeLabel::from_id(params, src);
        let ld = NodeLabel::from_id(params, dst);
        let alpha = gcp_len(&ls, &ld);
        let group = Gcpg::of(params, &ls, alpha + 1);
        let r = rank_in(params, &group, &ls);
        debug_assert!(r < space.lids_per_node());
        space.lid_with_offset(dst, r)
    }

    /// Equation (1): the down-port (IB numbering) toward the owner of a
    /// LID from a switch that has it in its subtree.
    #[inline]
    pub fn eq1_down_port(owner: &NodeLabel, level: usize) -> PortNum {
        PortNum(owner.digit(level) + 1)
    }

    /// Equation (2): the up-port (IB numbering) for a LID at a level-`l`
    /// switch that must climb.
    #[inline]
    pub fn eq2_up_port(params: TreeParams, lid: Lid, level: u32) -> PortNum {
        let half = params.half();
        let digit_index = params.n() - 1 - level;
        let digit = ((lid.0 - 1) / half.pow(digit_index)) % half;
        PortNum((digit + half + 1) as u8)
    }

    /// Build one switch's full LFT by dense block operations instead of
    /// per-entry formula evaluation.
    ///
    /// Equation (2)'s digit of `lid - 1` at level `l >= 1` is a pure
    /// function of the offset within the owning node's LID window: with
    /// `lid - 1 = PID * (m/2)^(n-1) + off`, the node term contributes
    /// `PID * (m/2)^l ≡ 0 (mod m/2)` to the extracted digit. One
    /// precomputed pattern of `2^LMC` port bytes therefore serves *every*
    /// node's window, and the descending case overwrites the (contiguous)
    /// subtree range afterwards via Equation (1) runs. Both are block
    /// writes: no per-LID `pow`/`div`, and no per-LID work at all when
    /// the window fits a 64-LID block.
    pub fn build_switch_lft(params: TreeParams, space: &LidSpace, sw: SwitchId) -> Lft {
        debug_assert_eq!(
            space.lmc(),
            params.lmc(),
            "MLID builder needs the MLID LID space"
        );
        let half = params.half();
        let (level, _) = level_and_index(params, sw);
        let mut lft = Lft::new(space.max_lid());
        if level >= 1 {
            let stride = half.pow(params.n() - 1 - level);
            let pattern: Vec<u8> = (0..space.lids_per_node())
                .map(|off| ((off / stride) % half + half + 1) as u8)
                .collect();
            lft.fill_pattern(Lid(1), space.max_lid().index(), &pattern);
        }
        fill_down_runs(&mut lft, params, space, sw);
        lft
    }

    /// The original per-entry builder: every (switch, node, LID) triple
    /// evaluated through Equations (1)/(2) one at a time, serially.
    ///
    /// Kept as the independently-derived reference the dense parallel
    /// [`RoutingScheme::build_lfts`] is tested (and benchmarked) against.
    pub fn build_lfts_reference(net: &Network, space: &LidSpace) -> Vec<Lft> {
        let params = net.params();
        let max_lid = space.max_lid();
        let mut lfts = Vec::with_capacity(net.num_switches());
        for sw in SwitchLabel::all(params) {
            let level = sw.level().index();
            let mut lft = Lft::new(max_lid);
            for node in NodeLabel::all(params) {
                // Case 1 applies iff the first `level` digits match.
                let below = (0..level).all(|i| sw.digit(i) == node.digit(i));
                for lid in space.lids(node.id(params)) {
                    let port = if below {
                        Self::eq1_down_port(&node, level)
                    } else {
                        Self::eq2_up_port(params, lid, level as u32)
                    };
                    lft.set(lid, port);
                }
            }
            lfts.push(lft);
        }
        lfts
    }
}

impl RoutingScheme for MlidScheme {
    fn name(&self) -> &'static str {
        "MLID"
    }

    fn lid_space(&self, net: &Network) -> LidSpace {
        let params = net.params();
        LidSpace::new(params.num_nodes(), params.lmc())
    }

    fn build_lfts(&self, net: &Network, space: &LidSpace) -> Vec<Lft> {
        let params = net.params();
        build_all(params, space, |sw| {
            Self::build_switch_lft(params, space, sw)
        })
    }

    fn select_dlid(&self, net: &Network, space: &LidSpace, src: NodeId, dst: NodeId) -> Lid {
        Self::select(net.params(), space, src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfat_topology::Level;

    fn setup() -> (TreeParams, Network, LidSpace, Vec<Lft>) {
        let params = TreeParams::new(4, 3).unwrap();
        let net = Network::mport_ntree(params);
        let space = MlidScheme.lid_space(&net);
        let lfts = MlidScheme.build_lfts(&net, &space);
        (params, net, space, lfts)
    }

    #[test]
    fn addressing_matches_paper() {
        let (_, net, space, _) = setup();
        assert_eq!(space.lmc(), 2);
        assert_eq!(space.lids_per_node(), 4);
        assert_eq!(space.max_lid(), Lid(64));
        assert_eq!(net.num_nodes(), 16);
        // BaseLID(P(010)) = 9 (PID 2).
        assert_eq!(space.base_lid(NodeId(2)), Lid(9));
    }

    #[test]
    fn path_selection_assigns_distinct_offsets_within_subgroup() {
        // The paper's example: P(000), P(001), P(010), P(011) sending to
        // P(100) select the four consecutive LIDs of P(100) in rank order.
        let (params, _, space, _) = setup();
        let dst = NodeId(4); // P(100)
        let base = space.base_lid(dst).0;
        for (i, src) in [0u32, 1, 2, 3].into_iter().enumerate() {
            let dlid = MlidScheme::select(params, &space, NodeId(src), dst);
            assert_eq!(dlid, Lid(base + i as u32), "src P(0..) #{i}");
        }
    }

    #[test]
    fn paper_path_q_walkthrough() {
        // DLID 17 (base LID of P(100)) from P(000): the LFT entries along
        // path Q: SW<00,2> -> SW<00,1> -> SW<00,0> -> SW<10,1> -> SW<10,2>.
        let (params, _, _, lfts) = setup();
        let lid = Lid(17);
        let at = |w: &[u8], l: u8| {
            let id = SwitchLabel::new(params, w, Level(l)).unwrap().id(params);
            lfts[id.index()].get(lid).unwrap()
        };
        // Climbing: offset = (17-1) mod 4 = 0 -> both up hops use the first
        // up-port, IB port 3.
        assert_eq!(at(&[0, 0], 2), PortNum(3));
        assert_eq!(at(&[0, 0], 1), PortNum(3));
        // At the root SW<00,0>: descend toward p0 = 1 -> IB port 2.
        assert_eq!(at(&[0, 0], 0), PortNum(2));
        // Descending: SW<10,1> uses p1 = 0 -> port 1; SW<10,2> uses p2 = 0
        // -> port 1.
        assert_eq!(at(&[1, 0], 1), PortNum(1));
        assert_eq!(at(&[1, 0], 2), PortNum(1));
    }

    #[test]
    fn every_lft_entry_is_populated() {
        let (_, net, space, lfts) = setup();
        for (i, lft) in lfts.iter().enumerate() {
            assert_eq!(
                lft.populated(),
                space.max_lid().index(),
                "switch S{i} has unpopulated entries"
            );
        }
        assert_eq!(lfts.len(), net.num_switches());
    }

    #[test]
    fn eq2_up_ports_stay_in_up_range() {
        let (params, _, space, _) = setup();
        for lid in 1..=space.max_lid().0 {
            for level in 1..params.n() {
                let p = MlidScheme::eq2_up_port(params, Lid(lid), level);
                assert!(
                    u32::from(p.0) > params.half() && u32::from(p.0) <= params.m(),
                    "lid {lid} level {level}: port {p} out of up range"
                );
            }
        }
    }

    #[test]
    fn dense_parallel_build_matches_the_reference() {
        // The block-fill builder must reproduce the per-entry Equation
        // (1)/(2) walk exactly, table for table, over a parameter grid.
        for (m, n) in [(2, 2), (2, 3), (4, 2), (4, 3), (8, 2), (8, 3)] {
            let params = TreeParams::new(m, n).unwrap();
            let net = Network::mport_ntree(params);
            let space = MlidScheme.lid_space(&net);
            let dense = MlidScheme.build_lfts(&net, &space);
            let reference = MlidScheme::build_lfts_reference(&net, &space);
            assert_eq!(dense, reference, "FT({m},{n})");
        }
    }

    #[test]
    fn self_traffic_uses_base_lid() {
        let (params, _, space, _) = setup();
        assert_eq!(
            MlidScheme::select(params, &space, NodeId(5), NodeId(5)),
            space.base_lid(NodeId(5))
        );
    }
}
