//! Digests of every fault-tolerant LFT byte on degraded FT(4,3), FT(4,4)
//! and FT(8,3) fabrics, under MLID and SLID, for a from-scratch
//! `build_fault_tolerant` and for a `repair_fault_tolerant` chain that
//! kills links, kills a switch and revives a link.
//!
//! The digests pin the tables `program_switch` emits: any change to how
//! a row is programmed must reproduce them byte for byte.

use ibfat_routing::{
    build_fault_tolerant, repair_fault_tolerant, LftPatch, RepairState, Routing, RoutingKind,
};
use ibfat_topology::{DeviceRef, Network, SwitchId, TreeParams};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn tables(&mut self, routing: &Routing) {
        for lft in routing.lfts() {
            self.bytes(&lft.bytes().collect::<Vec<u8>>());
        }
    }

    fn patches(&mut self, patches: &[LftPatch]) {
        for p in patches {
            self.bytes(&p.sw.0.to_le_bytes());
            self.bytes(&p.lid.0.to_le_bytes());
            self.bytes(&[p.port.map_or(0, |port| port.0)]);
        }
    }
}

/// The base net minus the given base-net link indices.
fn without(net: &Network, dead: &[usize]) -> Network {
    let mut dead = dead.to_vec();
    dead.sort_unstable();
    dead.dedup();
    let mut d = net.clone();
    for &i in dead.iter().rev() {
        d.remove_link(i);
    }
    d
}

/// Base-net indices of every cable incident to `sw`.
fn switch_links(net: &Network, sw: u32) -> Vec<usize> {
    net.links()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            [l.a, l.b]
                .iter()
                .any(|p| p.device == DeviceRef::Switch(SwitchId(sw)))
        })
        .map(|(i, _)| i)
        .collect()
}

/// `(build digest, repair-chain digest)` for one fabric and scheme.
///
/// The chain's steps, as base-net dead sets: kill link `a`; kill link
/// `b`; kill switch `sw` (when given); revive `a`. Each step repairs the
/// previous step's tables.
fn digests(m: u32, n: u32, kind: RoutingKind, sw: Option<u32>) -> (u64, u64) {
    let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid params"));
    let inter = net.inter_switch_link_indices();
    let (a, b) = (inter[inter.len() / 3], inter[(7 * inter.len()) / 9]);
    let sw_dead = sw.map_or_else(Vec::new, |s| switch_links(&net, s));
    let mut steps = vec![vec![a], vec![a, b]];
    if !sw_dead.is_empty() {
        steps.push([vec![a, b], sw_dead.clone()].concat());
    }
    steps.push([vec![b], sw_dead].concat());

    let mut build = Fnv::new();
    build.tables(&build_fault_tolerant(
        &without(&net, steps.last().expect("steps")),
        kind,
    ));

    let mut chain = Fnv::new();
    let mut routing = Routing::build(&net, kind);
    let mut state = RepairState::new(&net);
    for dead in &steps {
        let dnet = without(&net, dead);
        let (repaired, patches, stats) = repair_fault_tolerant(&dnet, kind, &routing, &mut state);
        chain.tables(&repaired);
        chain.patches(&patches);
        chain.bytes(&(stats.switches_reprogrammed as u64).to_le_bytes());
        routing = repaired;
    }
    (build.0, chain.0)
}

#[test]
fn ft43_mlid_link_kills() {
    assert_eq!(digests(4, 3, RoutingKind::Mlid, None), PIN_FT43_MLID);
}

#[test]
fn ft43_slid_switch_kill() {
    let params = TreeParams::new(4, 3).expect("valid params");
    assert_eq!(params.switch_level_of(9), 1, "S9 is a middle switch");
    assert_eq!(digests(4, 3, RoutingKind::Slid, Some(9)), PIN_FT43_SLID);
}

#[test]
fn ft44_mlid_switch_kill() {
    assert_eq!(digests(4, 4, RoutingKind::Mlid, Some(20)), PIN_FT44_MLID);
}

#[test]
fn ft44_slid_link_kills() {
    assert_eq!(digests(4, 4, RoutingKind::Slid, None), PIN_FT44_SLID);
}

#[test]
fn ft83_mlid_leaf_switch_kill() {
    let params = TreeParams::new(8, 3).expect("valid params");
    assert_eq!(params.switch_level_of(50), 2, "S50 is a leaf switch");
    assert_eq!(digests(8, 3, RoutingKind::Mlid, Some(50)), PIN_FT83_MLID);
}

#[test]
fn ft83_slid_switch_kill() {
    assert_eq!(digests(8, 3, RoutingKind::Slid, Some(17)), PIN_FT83_SLID);
}

const PIN_FT43_MLID: (u64, u64) = (0x6a14_e531_322d_c7f9, 0x5f9f_101c_30ab_45e7);
const PIN_FT43_SLID: (u64, u64) = (0x069f_6b06_aa5b_e0c5, 0xeb00_385d_398b_310b);
const PIN_FT44_MLID: (u64, u64) = (0x3f5e_01c4_b450_436d, 0x198c_3f63_842b_6948);
const PIN_FT44_SLID: (u64, u64) = (0xab89_c7ec_b95e_00e5, 0x1965_73a0_ea15_8977);
const PIN_FT83_MLID: (u64, u64) = (0xa1b8_5af4_eeb1_bd65, 0x8a87_476f_0490_adad);
const PIN_FT83_SLID: (u64, u64) = (0xc0bd_aa0a_51eb_405d, 0x27f6_2b36_d5d2_d7da);
