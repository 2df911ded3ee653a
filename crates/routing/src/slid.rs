//! The Single LID (SLID) baseline scheme the paper evaluates against.
//!
//! Each node owns exactly one LID (`PID + 1`, i.e. LMC = 0). Forwarding
//! tables are built "based on the consideration of evenly distributing
//! possible traffic over available paths": descending entries are forced
//! (Equation 1 — the down path is unique), and climbing entries spread the
//! *destinations* across the up-ports by reading a digit of the
//! destination's PID — the classical d-mod-k placement. All packets to a
//! given destination from a given switch share one fixed path, which is
//! precisely the hot-spot weakness (the paper's Figure 9(a)) that MLID
//! removes.

use crate::mlid::{build_all, fill_down_runs, level_and_index};
use crate::{Lft, Lid, LidSpace, MlidScheme, RoutingScheme};
use ibfat_topology::{Network, NodeId, NodeLabel, SwitchId, SwitchLabel, TreeParams};

/// The SLID scheme (stateless).
#[derive(Debug, Clone, Copy, Default)]
pub struct SlidScheme;

impl SlidScheme {
    /// Build one switch's full LFT by dense block operations.
    ///
    /// With LMC = 0, `lid - 1` is the destination PID, so the climbing
    /// rule (Equation (2)'s d-mod-k placement on the destination) assigns
    /// whole contiguous blocks of `(m/2)^(n-1-level)` consecutive LIDs to
    /// the same up-port, cycling through the up-ports. One cycle is a
    /// pattern the table repeats, then the (contiguous) subtree range is
    /// overwritten by Equation (1) descending runs.
    pub fn build_switch_lft(params: TreeParams, space: &LidSpace, sw: SwitchId) -> Lft {
        debug_assert_eq!(space.lmc(), 0, "SLID builder needs the LMC = 0 LID space");
        let half = params.half();
        let (level, _) = level_and_index(params, sw);
        let mut lft = Lft::new(space.max_lid());
        if level >= 1 {
            let stride = half.pow(params.n() - 1 - level);
            let cycle: Vec<u8> = (0..stride * half)
                .map(|i| ((i / stride) + half + 1) as u8)
                .collect();
            lft.fill_pattern(Lid(1), space.max_lid().index(), &cycle);
        }
        fill_down_runs(&mut lft, params, space, sw);
        lft
    }

    /// The original per-entry builder, kept as the independently-derived
    /// reference the dense parallel [`RoutingScheme::build_lfts`] is tested
    /// (and benchmarked) against.
    pub fn build_lfts_reference(net: &Network, space: &LidSpace) -> Vec<Lft> {
        let params = net.params();
        let max_lid = space.max_lid();
        let mut lfts = Vec::with_capacity(net.num_switches());
        for sw in SwitchLabel::all(params) {
            let level = sw.level().index();
            let mut lft = Lft::new(max_lid);
            for node in NodeLabel::all(params) {
                let lid = space.base_lid(node.id(params));
                let below = (0..level).all(|i| sw.digit(i) == node.digit(i));
                let port = if below {
                    MlidScheme::eq1_down_port(&node, level)
                } else {
                    // Spread destinations over the up-ports: with LMC = 0,
                    // `lid - 1` is the destination PID, so Equation (2)'s
                    // digit extraction becomes d-mod-k on the destination.
                    MlidScheme::eq2_up_port(params, lid, level as u32)
                };
                lft.set(lid, port);
            }
            lfts.push(lft);
        }
        lfts
    }
}

impl RoutingScheme for SlidScheme {
    fn name(&self) -> &'static str {
        "SLID"
    }

    fn lid_space(&self, net: &Network) -> LidSpace {
        LidSpace::new(net.params().num_nodes(), 0)
    }

    fn build_lfts(&self, net: &Network, space: &LidSpace) -> Vec<Lft> {
        let params = net.params();
        build_all(params, space, |sw| {
            Self::build_switch_lft(params, space, sw)
        })
    }

    fn select_dlid(&self, _net: &Network, space: &LidSpace, _src: NodeId, dst: NodeId) -> Lid {
        space.base_lid(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfat_topology::{Level, PortNum, TreeParams};

    fn setup() -> (TreeParams, Network, LidSpace, Vec<Lft>) {
        let params = TreeParams::new(4, 3).unwrap();
        let net = Network::mport_ntree(params);
        let space = SlidScheme.lid_space(&net);
        let lfts = SlidScheme.build_lfts(&net, &space);
        (params, net, space, lfts)
    }

    #[test]
    fn one_lid_per_node() {
        let (_, _, space, _) = setup();
        assert_eq!(space.lmc(), 0);
        assert_eq!(space.lids_per_node(), 1);
        assert_eq!(space.max_lid(), Lid(16));
        assert_eq!(space.base_lid(NodeId(7)), Lid(8)); // PID + 1
    }

    #[test]
    fn destinations_spread_over_up_ports() {
        // At a leaf switch, the up-entries for the node LIDs must use every
        // up-port equally often (8 climbing destinations over 2 up-ports
        // for SW<00,2> in FT(4,3): destinations below it are P(000),P(001);
        // the other 14 climb).
        let (params, _, space, lfts) = setup();
        let sw = SwitchLabel::new(params, &[0, 0], Level(2)).unwrap();
        let lft = &lfts[sw.id(params).index()];
        let mut counts = [0u32; 2];
        for node in 0..space.num_nodes() {
            let lid = space.base_lid(NodeId(node));
            let port = lft.get(lid).unwrap();
            if u32::from(port.0) > params.half() {
                counts[(u32::from(port.0) - params.half() - 1) as usize] += 1;
            }
        }
        assert_eq!(counts.iter().sum::<u32>(), 14);
        assert_eq!(counts[0], 7);
        assert_eq!(counts[1], 7);
    }

    #[test]
    fn same_destination_same_path_from_any_source() {
        // SLID's defining limitation: the DLID is the same for every
        // source, so the up-port chosen at a shared switch is identical.
        let (params, _, space, lfts) = setup();
        let dst = NodeId(15);
        let lid = space.base_lid(dst);
        let leaf = SwitchLabel::new(params, &[0, 0], Level(2)).unwrap();
        let port_for_everyone = lfts[leaf.id(params).index()].get(lid).unwrap();
        assert!(u32::from(port_for_everyone.0) > params.half());
        // There is exactly one entry for dst at this switch — no way to
        // differentiate sources.
        assert_eq!(port_for_everyone, PortNum(port_for_everyone.0));
    }

    #[test]
    fn dense_parallel_build_matches_the_reference() {
        for (m, n) in [(2, 2), (2, 3), (4, 2), (4, 3), (8, 2), (8, 3)] {
            let params = TreeParams::new(m, n).unwrap();
            let net = Network::mport_ntree(params);
            let space = SlidScheme.lid_space(&net);
            let dense = SlidScheme.build_lfts(&net, &space);
            let reference = SlidScheme::build_lfts_reference(&net, &space);
            assert_eq!(dense, reference, "FT({m},{n})");
        }
    }

    #[test]
    fn down_entries_follow_equation_1() {
        let (params, _, space, lfts) = setup();
        let root = SwitchLabel::new(params, &[1, 1], Level(0)).unwrap();
        let lft = &lfts[root.id(params).index()];
        for node in NodeLabel::all(params) {
            let lid = space.base_lid(node.id(params));
            assert_eq!(lft.get(lid).unwrap(), PortNum(node.digit(0) + 1));
        }
    }
}
