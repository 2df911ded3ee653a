//! Fault-tolerant forwarding tables for degraded fat trees.
//!
//! The paper's schemes assume the full `IBFT(m, n)` wiring. Real fabrics
//! lose links; the subnet manager then has to reprogram the tables. This
//! module rebuilds MLID/SLID-style tables on a *degraded* network (some
//! cables removed) such that:
//!
//! * on an intact network the tables are **bit-identical** to the base
//!   scheme's (repair is conservative);
//! * every node that is still physically reachable stays reachable from
//!   everywhere, over an up\*-then-down\* path (so the routing remains
//!   deadlock-free);
//! * the multipath spreading of the base scheme is preserved wherever the
//!   designated port survives, and degrades gracefully (deterministic
//!   remap onto the surviving candidates) where it does not.
//!
//! The algorithm is two label-driven sweeps:
//!
//! 1. **Down-reachability** (leaves → roots): `reach_down[s]` = the set of
//!    nodes reachable from switch `s` using only live downward links.
//!    In a fat tree the child that can reach node `p` from level `l` is
//!    uniquely determined by digit `p_l`, so membership is exact.
//! 2. **Feasibility** (roots → leaves): `feasible[s]` = nodes deliverable
//!    from `s` by climbing zero or more live up-links and then descending:
//!    `feasible[s] = reach_down[s] ∪ ⋃ feasible[parent]`.
//!
//! An LFT entry then descends when the owner is in `reach_down`
//! (Equation 1, guarded by liveness) and otherwise climbs through the
//! scheme's designated up-port if that parent is feasible, falling back to
//! the designated-index rotation over the surviving feasible up-ports.
//!
//! ## Incremental repair
//!
//! A switch's programmed row is a pure function of its own live port set,
//! `reach_down[self]`, the `reach_down` of its down-peers, and the
//! `feasible` of its up-peers. [`RepairState`] caches the sweep vectors of
//! the previously routed network, so [`repair_fault_tolerant`] can re-run
//! the (cheap) sweeps on the further-degraded network, reprogram **only**
//! the switches whose inputs changed, and emit the exact `(switch, LID)`
//! entry deltas as [`LftPatch`]es — the incremental reprogramming an SM
//! performs after a mid-run failure. The result is bit-identical to a
//! from-scratch [`build_fault_tolerant`] on the same degraded network.

use crate::{Lft, Lid, LidSpace, RouteOracle, Routing, RoutingKind};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum, SwitchId, SwitchLabel, TreeParams};

/// A dense bitset over node ids.
#[derive(Clone, PartialEq, Eq)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn new(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, i: u32) {
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    #[inline]
    fn contains(&self, i: u32) -> bool {
        self.words[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    fn union_with(&mut self, other: &NodeSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// Switch ids grouped by tree level (index = level).
fn switches_by_level(params: TreeParams) -> Vec<Vec<SwitchId>> {
    let mut by_level: Vec<Vec<SwitchId>> = vec![Vec::new(); params.n() as usize];
    for label in SwitchLabel::all(params) {
        by_level[label.level().index()].push(label.id(params));
    }
    by_level
}

/// Pass 1: down-reachability, computed leaves -> roots (descending level).
fn sweep_reach_down(net: &Network, by_level: &[Vec<SwitchId>]) -> Vec<NodeSet> {
    let params = net.params();
    let half = params.half();
    let num_nodes = net.num_nodes();
    let mut reach_down: Vec<NodeSet> = vec![NodeSet::new(num_nodes); net.num_switches()];
    for level in (0..params.n()).rev() {
        for &sw in &by_level[level as usize] {
            let down_ports = if level == 0 { params.m() } else { half };
            let mut set = NodeSet::new(num_nodes);
            for k in 0..down_ports {
                let port = PortNum(k as u8 + 1);
                // Uncabled ports are simply skipped (failed links).
                if let Some(peer) = net.peer_of(DeviceRef::Switch(sw), port) {
                    match peer.device {
                        DeviceRef::Node(n) => set.insert(n.0),
                        DeviceRef::Switch(child) => {
                            set.union_with(&reach_down[child.index()]);
                        }
                    }
                }
            }
            reach_down[sw.index()] = set;
        }
    }
    reach_down
}

/// Pass 2: feasibility, roots -> leaves (ascending level).
fn sweep_feasible(
    net: &Network,
    by_level: &[Vec<SwitchId>],
    reach_down: &[NodeSet],
) -> Vec<NodeSet> {
    let params = net.params();
    let half = params.half();
    let mut feasible = reach_down.to_vec();
    for level in 1..params.n() {
        for &sw in &by_level[level as usize] {
            let mut set = feasible[sw.index()].clone();
            for k in half..params.m() {
                let port = PortNum(k as u8 + 1);
                if let Some(peer) = net.peer_of(DeviceRef::Switch(sw), port) {
                    if let DeviceRef::Switch(parent) = peer.device {
                        set.union_with(&feasible[parent.index()]);
                    }
                }
            }
            feasible[sw.index()] = set;
        }
    }
    feasible
}

/// Pass 3 for one switch: program its forwarding row from the sweeps.
fn program_switch(
    net: &Network,
    oracle: &RouteOracle,
    space: &LidSpace,
    label: &SwitchLabel,
    reach_down: &[NodeSet],
    feasible: &[NodeSet],
) -> Lft {
    let params = net.params();
    let half = params.half();
    let sw = label.id(params);
    let level = u32::from(label.level().0);
    let mut lft = Lft::new(space.max_lid());

    // Live, feasible up-port candidates are shared by every LID at
    // this switch, except for the per-destination feasibility check.
    let live_up: Vec<(u32, SwitchId)> = (half..params.m())
        .filter_map(|k| {
            net.peer_of(DeviceRef::Switch(sw), PortNum(k as u8 + 1))
                .and_then(|peer| match peer.device {
                    DeviceRef::Switch(parent) => Some((k, parent)),
                    DeviceRef::Node(_) => None,
                })
        })
        .collect();

    let lids_per_node = space.lids_per_node() as usize;
    let mut candidates: Vec<u32> = Vec::with_capacity(live_up.len());
    let mut window: Vec<u8> = Vec::with_capacity(lids_per_node);
    for nid in (0..params.num_nodes()).map(NodeId) {
        if reach_down[sw.index()].contains(nid.0) {
            if let Some(port) = down_port_live(net, oracle, sw, level, nid, reach_down) {
                lft.fill(space.base_lid(nid), lids_per_node, port);
            }
            continue;
        }
        // Climb. The candidates depend on the destination only; the
        // designated port (the base scheme's Equation 2) varies per LID.
        candidates.clear();
        candidates.extend(
            live_up
                .iter()
                .filter(|(_, parent)| feasible[parent.index()].contains(nid.0))
                .map(|&(k, _)| k),
        );
        if candidates.is_empty() {
            continue; // physically unreachable from here
        }
        window.clear();
        window.extend(space.lids(nid).map(|lid| {
            let designated = u32::from(oracle.up_port(level, lid).0) - 1;
            let port = if candidates.contains(&designated) {
                designated
            } else {
                candidates[(designated - half) as usize % candidates.len()]
            };
            port as u8 + 1
        }));
        lft.copy_block(space.base_lid(nid), &window);
    }
    lft
}

/// Build fault-tolerant forwarding tables for a (possibly degraded)
/// `IBFT(m, n)` network, mirroring the base scheme `kind`
/// ([`RoutingKind::Mlid`] or [`RoutingKind::Slid`]).
///
/// Entries for nodes that are physically unreachable from a switch are
/// left unprogrammed; tracing such a pair reports
/// [`crate::RoutingError::NoLftEntry`].
///
/// # Panics
/// Panics if `kind` is [`RoutingKind::UpDown`] (it is already
/// graph-generic — build it directly on the degraded network).
pub fn build_fault_tolerant(net: &Network, kind: RoutingKind) -> Routing {
    let params = net.params();
    let oracle = closed_form(params, kind);
    let space = oracle.lid_space();
    let by_level = switches_by_level(params);
    let reach_down = sweep_reach_down(net, &by_level);
    let feasible = sweep_feasible(net, &by_level, &reach_down);

    let mut lfts = Vec::with_capacity(net.num_switches());
    for label in SwitchLabel::all(params) {
        lfts.push(program_switch(
            net,
            &oracle,
            &space,
            &label,
            &reach_down,
            &feasible,
        ));
    }
    Routing::assemble(kind, params, space, lfts)
}

/// One forwarding-table entry delta: set `(sw, lid)` to `port`
/// (`None` = clear the entry; the destination became unreachable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LftPatch {
    pub sw: SwitchId,
    pub lid: Lid,
    pub port: Option<PortNum>,
}

/// What an incremental repair touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairStats {
    /// Switches whose row needed at least one entry change.
    pub switches_reprogrammed: usize,
    /// Individual `(switch, LID)` entries patched.
    pub entries_patched: usize,
    /// Total entry slots in the full table set (`switches × LIDs`) —
    /// the reprogramming cost a from-scratch rebuild would pay.
    pub table_entries: usize,
}

/// Cached sweep vectors of the last-routed network, enabling
/// [`repair_fault_tolerant`] to reprogram only switches whose pass-3
/// inputs changed.
pub struct RepairState {
    reach_down: Vec<NodeSet>,
    feasible: Vec<NodeSet>,
    live_mask: Vec<u64>,
}

impl RepairState {
    /// Capture the sweep state of `net` (the network the current tables
    /// were built for — intact or already degraded).
    pub fn new(net: &Network) -> RepairState {
        let by_level = switches_by_level(net.params());
        let reach_down = sweep_reach_down(net, &by_level);
        let feasible = sweep_feasible(net, &by_level, &reach_down);
        RepairState {
            reach_down,
            feasible,
            live_mask: net.cabled_port_masks(),
        }
    }
}

/// Incrementally repair `prev` (tables valid for the network `state` was
/// captured on) for the further-degraded (or partially revived) network
/// `net`: re-run the reachability sweeps, reprogram only the switches
/// whose pass-3 inputs changed, and return the repaired routing plus the
/// exact entry-level deltas.
///
/// The returned tables are bit-identical to
/// `build_fault_tolerant(net, kind)`; `state` is advanced to `net` so
/// repairs chain across successive failures.
///
/// # Panics
/// Panics if `kind` is [`RoutingKind::UpDown`] or if `prev` was built
/// for a different scheme.
pub fn repair_fault_tolerant(
    net: &Network,
    kind: RoutingKind,
    prev: &Routing,
    state: &mut RepairState,
) -> (Routing, Vec<LftPatch>, RepairStats) {
    let params = net.params();
    assert_eq!(prev.kind(), kind, "repair must continue the same scheme");
    let oracle = closed_form(params, kind);
    let space = oracle.lid_space();
    let by_level = switches_by_level(params);
    let reach_down = sweep_reach_down(net, &by_level);
    let feasible = sweep_feasible(net, &by_level, &reach_down);
    let live_mask = net.cabled_port_masks();

    let num_switches = net.num_switches();
    let half = params.half();
    let reach_changed: Vec<bool> = (0..num_switches)
        .map(|s| reach_down[s] != state.reach_down[s])
        .collect();
    let feas_changed: Vec<bool> = (0..num_switches)
        .map(|s| feasible[s] != state.feasible[s])
        .collect();

    // A switch needs reprogramming iff a pass-3 input changed: its own
    // cabled-port set or reach set, a descent-peer's reach set, or a
    // climb-candidate's feasible set. Descent consults ports `1..=m` on a
    // root and `1..=half` elsewhere (the designated digit's range); the
    // climb candidates are always ports `half..m` — on a root those are
    // down-links, but `program_switch` still consults their `feasible`
    // sets there. (Neighbor enumeration over the *new* net is sufficient:
    // a vanished neighbor flips the port mask.)
    let needs_rebuild = |label: &SwitchLabel| -> bool {
        let sw = label.id(params);
        let s = sw.index();
        if live_mask[s] != state.live_mask[s] || reach_changed[s] {
            return true;
        }
        let level = label.level();
        let down_ports = if level.0 == 0 { params.m() } else { half };
        for k in 0..params.m() {
            let port = PortNum(k as u8 + 1);
            let Some(peer) = net.peer_of(DeviceRef::Switch(sw), port) else {
                continue;
            };
            if let DeviceRef::Switch(other) = peer.device {
                let o = other.index();
                if (k < down_ports && reach_changed[o]) || (k >= half && feas_changed[o]) {
                    return true;
                }
            }
        }
        false
    };

    let max_lid = space.max_lid();
    let mut lfts = Vec::with_capacity(num_switches);
    let mut patches = Vec::new();
    let mut switches_reprogrammed = 0;
    for label in SwitchLabel::all(params) {
        let sw = label.id(params);
        let old = prev.lft(sw);
        if !needs_rebuild(&label) {
            lfts.push(old.clone());
            continue;
        }
        let fresh = program_switch(net, &oracle, &space, &label, &reach_down, &feasible);
        let before = patches.len();
        patches.extend(
            fresh
                .changes_from(old)
                .map(|(lid, port)| LftPatch { sw, lid, port }),
        );
        if patches.len() > before {
            switches_reprogrammed += 1;
        }
        lfts.push(fresh);
    }

    let stats = RepairStats {
        switches_reprogrammed,
        entries_patched: patches.len(),
        table_entries: num_switches * (max_lid.index() + 1),
    };
    state.reach_down = reach_down;
    state.feasible = feasible;
    state.live_mask = live_mask;
    (Routing::assemble(kind, params, space, lfts), patches, stats)
}

/// The base scheme's arithmetic, which the repaired tables follow
/// wherever the fabric still allows.
fn closed_form(params: TreeParams, kind: RoutingKind) -> RouteOracle {
    RouteOracle::for_kind(params, kind).expect("up*/down* handles degraded graphs natively")
}

/// The unique live down-port toward `node` (Equation 1), if its subtree
/// link survives and the subtree can still reach the node.
fn down_port_live(
    net: &Network,
    oracle: &RouteOracle,
    sw: SwitchId,
    level: u32,
    node: NodeId,
    reach_down: &[NodeSet],
) -> Option<PortNum> {
    let port = oracle.down_port(level, node.0);
    let peer = net.peer_of(DeviceRef::Switch(sw), port)?;
    match peer.device {
        DeviceRef::Node(n) => (n == node).then_some(port),
        DeviceRef::Switch(child) => reach_down[child.index()].contains(node.0).then_some(port),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_all_lids_deliver, verify_deadlock_free};
    use ibfat_topology::TreeParams;

    fn build(m: u32, n: u32) -> Network {
        Network::mport_ntree(TreeParams::new(m, n).unwrap())
    }

    #[test]
    fn intact_network_repair_is_identity() {
        for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
            for (m, n) in [(4, 2), (4, 3), (8, 2)] {
                let net = build(m, n);
                let base = Routing::build(&net, kind);
                let ft = build_fault_tolerant(&net, kind);
                assert_eq!(
                    base.lfts(),
                    ft.lfts(),
                    "{kind} IBFT({m},{n}): repair changed intact tables"
                );
            }
        }
    }

    #[test]
    fn single_failure_keeps_full_delivery() {
        let net = build(4, 2);
        for idx in net.inter_switch_link_indices() {
            let mut degraded = net.clone();
            degraded.remove_link(idx);
            assert!(degraded.is_connected());
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let routing = build_fault_tolerant(&degraded, kind);
                verify_all_lids_deliver(&degraded, &routing)
                    .unwrap_or_else(|e| panic!("{kind} after failing link {idx}: {e}"));
                verify_deadlock_free(&degraded, &routing)
                    .unwrap_or_else(|e| panic!("{kind} after failing link {idx}: {e}"));
            }
        }
    }

    #[test]
    fn incremental_repair_matches_full_rebuild() {
        // Kill two inter-switch links one at a time; after each kill the
        // patch-level repair must land on tables bit-identical to a
        // from-scratch build, while touching far fewer entries.
        let net = build(4, 3);
        for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
            let mut routing = build_fault_tolerant(&net, kind);
            let mut state = RepairState::new(&net);
            let mut degraded = net.clone();
            for (step, pick) in [3usize, 10].into_iter().enumerate() {
                // Indices shift after a removal; recompute from the live set.
                let live = degraded.inter_switch_link_indices();
                degraded.remove_link(live[pick % live.len()]);
                let (repaired, patches, stats) =
                    repair_fault_tolerant(&degraded, kind, &routing, &mut state);
                let full = build_fault_tolerant(&degraded, kind);
                assert_eq!(
                    repaired.lfts(),
                    full.lfts(),
                    "{kind} step {step}: incremental != full"
                );
                assert_eq!(stats.entries_patched, patches.len());
                assert!(
                    stats.entries_patched < stats.table_entries,
                    "{kind} step {step}: repair touched the whole table"
                );
                assert!(!patches.is_empty(), "{kind} step {step}: a kill must patch");
                routing = repaired;
            }
        }
    }

    #[test]
    fn incremental_repair_on_unchanged_network_is_empty() {
        let net = build(4, 2);
        let routing = build_fault_tolerant(&net, RoutingKind::Mlid);
        let mut state = RepairState::new(&net);
        let (repaired, patches, stats) =
            repair_fault_tolerant(&net, RoutingKind::Mlid, &routing, &mut state);
        assert_eq!(repaired.lfts(), routing.lfts());
        assert!(patches.is_empty());
        assert_eq!(stats.switches_reprogrammed, 0);
    }

    #[test]
    fn double_failures_on_ft43_degrade_gracefully() {
        // Sampled pairs of inter-switch failures on the 4-port 3-tree.
        // Two failures can make pairs unreachable under up*-then-down*
        // semantics even when the graph stays connected (the only
        // surviving walk turns down-then-up); such pairs must fail
        // cleanly with a missing LFT entry — never loop or misdeliver —
        // and every other pair must still deliver on a legal path.
        let net = build(4, 3);
        let inter = net.inter_switch_link_indices();
        let mut total_pairs = 0u32;
        let mut unreachable = 0u32;
        for (a_i, &a) in inter.iter().enumerate().step_by(7) {
            for &b in inter.iter().skip(a_i + 1).step_by(11) {
                let mut degraded = net.clone();
                // Remove the higher index first so the lower stays valid.
                degraded.remove_link(b.max(a));
                degraded.remove_link(b.min(a));
                if !degraded.is_connected() {
                    continue;
                }
                let routing = build_fault_tolerant(&degraded, RoutingKind::Mlid);
                let space = routing.lid_space();
                for src in 0..degraded.num_nodes() as u32 {
                    for lid in 1..=space.max_lid().0 {
                        total_pairs += 1;
                        match routing.trace(&degraded, ibfat_topology::NodeId(src), Lid(lid)) {
                            Ok(_) => {}
                            Err(crate::RoutingError::NoLftEntry { .. }) => unreachable += 1,
                            Err(e) => panic!("links {a},{b}, src {src}, lid {lid}: {e}"),
                        }
                    }
                }
                verify_deadlock_free(&degraded, &routing)
                    .unwrap_or_else(|e| panic!("failing links {a},{b}: {e}"));
            }
        }
        assert!(total_pairs > 0);
        // The overwhelming majority of pairs must survive two failures.
        assert!(
            f64::from(unreachable) < 0.05 * f64::from(total_pairs),
            "{unreachable}/{total_pairs} pairs unreachable"
        );
    }

    #[test]
    fn unreachable_entries_stay_unprogrammed() {
        // Cut a node's only cable: every switch loses its entries for that
        // node's LIDs, everything else still delivers.
        let mut net = build(4, 2);
        let victim_link = net
            .links()
            .iter()
            .position(|l| {
                l.a.device == DeviceRef::Node(ibfat_topology::NodeId(0))
                    || l.b.device == DeviceRef::Node(ibfat_topology::NodeId(0))
            })
            .unwrap();
        net.remove_link(victim_link);
        let routing = build_fault_tolerant(&net, RoutingKind::Mlid);
        let space = routing.lid_space();
        let victim_lid = space.base_lid(ibfat_topology::NodeId(0));
        for sw in 0..net.num_switches() {
            assert_eq!(
                routing.lft(SwitchId(sw as u32)).get(victim_lid),
                None,
                "S{sw} still routes to the isolated node"
            );
        }
        // Every other pair still delivers.
        for src in 1..net.num_nodes() as u32 {
            for dst in 1..net.num_nodes() as u32 {
                let dlid =
                    routing.select_dlid(ibfat_topology::NodeId(src), ibfat_topology::NodeId(dst));
                routing
                    .trace(&net, ibfat_topology::NodeId(src), dlid)
                    .unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "natively")]
    fn updown_is_rejected() {
        let net = build(4, 2);
        build_fault_tolerant(&net, RoutingKind::UpDown);
    }
}
