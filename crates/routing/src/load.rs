//! Static channel-load analysis.
//!
//! For a deterministic routing, the load of a directed link under a given
//! traffic matrix is the number of (source, destination) flows routed
//! across it — a simulator-free predictor of contention. A scheme's
//! worst-case link load under all-to-all traffic bounds its saturation
//! throughput from above: a link crossed by `L` of the `N-1` flows each
//! node sends can deliver at most `1/L`th of a link per flow.
//!
//! Loads live in a dense flat `Vec<u32>` indexed by the
//! [`PortSlots`] `(device, port)` stride — no per-hop hash probes, and
//! memory stays O(links) no matter how many flows stream through. The
//! all-to-all analysis shards sources across the thread pool and merges
//! the per-shard vectors by element-wise addition; the N² pair set is
//! never materialized.

use crate::{RouteOracle, Routing, RoutingError};
use ibfat_topology::{par_map_indexed, DeviceRef, Network, NodeId, PortNum, PortSlots, TreeParams};

/// Load statistics over the directed links of a subnet.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelLoads {
    params: TreeParams,
    slots: PortSlots,
    /// Flows crossing each directed link, indexed by the transmitting
    /// `(device, port)` slot.
    loads: Vec<u32>,
    /// Maximum over the *upward* inter-switch links.
    pub max_up: u32,
    /// Maximum over the *downward* inter-switch links.
    pub max_down: u32,
    /// Total links carrying at least one flow.
    pub used_links: usize,
}

impl ChannelLoads {
    /// Wrap a fully accumulated load vector, deriving the roll-up stats.
    fn finalize(params: TreeParams, slots: PortSlots, loads: Vec<u32>) -> ChannelLoads {
        debug_assert_eq!(loads.len(), slots.len());
        let half = params.half();
        let mut max_up = 0;
        let mut max_down = 0;
        let mut used_links = 0;
        for (slot, &load) in loads.iter().enumerate() {
            if load == 0 {
                continue;
            }
            used_links += 1;
            if let (DeviceRef::Switch(sw), port) = slots.decode(slot) {
                let is_up = params.switch_level_of(sw.0) > 0 && u32::from(port.0) > half;
                if is_up {
                    max_up = max_up.max(load);
                } else {
                    max_down = max_down.max(load);
                }
            }
        }
        ChannelLoads {
            params,
            slots,
            loads,
            max_up,
            max_down,
            used_links,
        }
    }

    /// The analyzed fabric's parameters.
    #[inline]
    pub fn params(&self) -> TreeParams {
        self.params
    }

    /// The highest load over every link (including edge links).
    pub fn max(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Flows crossing the directed link transmitted by `(device, port)`;
    /// 0 for unused (or nonexistent) links.
    pub fn load_of(&self, device: DeviceRef, port: PortNum) -> u32 {
        match device {
            DeviceRef::Switch(sw)
                if sw.0 < self.params.num_switches() && u32::from(port.0) <= self.params.m() =>
            {
                self.loads[self.slots.switch_slot(sw, port)]
            }
            DeviceRef::Node(node) if node.0 < self.params.num_nodes() && port == PortNum(1) => {
                self.loads[self.slots.node_slot(node)]
            }
            _ => 0,
        }
    }

    /// Iterate the used links as `(device, port, load)`, in slot order
    /// (switches by id then port, then nodes).
    pub fn iter(&self) -> impl Iterator<Item = (DeviceRef, PortNum, u32)> + '_ {
        self.loads
            .iter()
            .enumerate()
            .filter(|&(_, &load)| load != 0)
            .map(|(slot, &load)| {
                let (device, port) = self.slots.decode(slot);
                (device, port, load)
            })
    }

    /// The `k` most loaded directed links, heaviest first. Ties break
    /// deterministically: switches before nodes, then by id, then port —
    /// so equal analyses print identically across runs. (That order is
    /// exactly the slot order, so a stable sort by load suffices.)
    pub fn hottest(&self, k: usize) -> Vec<(DeviceRef, PortNum, u32)> {
        let mut all: Vec<_> = self.iter().collect();
        all.sort_by_key(|&(_, _, load)| std::cmp::Reverse(load));
        all.truncate(k);
        all
    }
}

/// Accumulate one flow's directed links into a load vector: the source's
/// injection link, then every switch's egress. On an error the vector is
/// partly updated; callers discard it.
#[inline]
fn add_route(
    loads: &mut [u32],
    slots: &PortSlots,
    net: &Network,
    routing: &Routing,
    src: NodeId,
    dst: NodeId,
) -> Result<(), RoutingError> {
    let dlid = routing.select_dlid(src, dst);
    loads[slots.node_slot(src)] += 1;
    routing.walk(net, src, dlid, |hop| {
        loads[slots.switch_slot(hop.switch, hop.out_port)] += 1;
    })?;
    Ok(())
}

/// Compute channel loads for the all-to-all traffic matrix under the
/// routing's own path selection (every ordered pair sends one flow).
///
/// Where [`RouteOracle::for_fabric`] vouches for the routing, flows are
/// replayed through the closed form with no table or graph read;
/// otherwise they walk the tables. Both give the same loads. Sources are
/// streamed in parallel shards — each shard walks its own rows of the
/// (never materialized) pair matrix into a private load vector, and the
/// shards merge by addition. Memory is O(links · threads).
pub fn all_to_all_loads(net: &Network, routing: &Routing) -> Result<ChannelLoads, RoutingError> {
    let slots = PortSlots::of(net.params());
    match RouteOracle::for_fabric(net, routing) {
        Some(oracle) => stream_all_to_all(net.params(), slots, |loads, _, src, dst| {
            let dlid = oracle.select_dlid(src, dst);
            oracle.walk(src, dlid, |device, port| {
                let slot = match device {
                    DeviceRef::Node(node) => slots.node_slot(node),
                    DeviceRef::Switch(sw) => slots.switch_slot(sw, port),
                };
                loads[slot] += 1;
            })?;
            Ok(())
        }),
        None => stream_all_to_all(net.params(), slots, |loads, _, src, dst| {
            add_route(loads, &slots, net, routing, src, dst)
        }),
    }
}

/// [`all_to_all_loads`] over the pairs that route: a pair whose walk
/// fails — a degraded fabric can leave pairs without a path — adds no
/// load on any link, since a pair's links are committed only once its
/// walk delivers.
pub fn routable_all_to_all_loads(net: &Network, routing: &Routing) -> ChannelLoads {
    if RouteOracle::for_fabric(net, routing).is_some() {
        // The closed form answers only on the routing's own intact tree,
        // where every pair routes.
        return all_to_all_loads(net, routing).expect("the closed form routes every pair");
    }
    let slots = PortSlots::of(net.params());
    stream_all_to_all(net.params(), slots, |loads, route, src, dst| {
        let dlid = routing.select_dlid(src, dst);
        route.clear();
        route.push(slots.node_slot(src));
        let walked = routing.walk(net, src, dlid, |hop| {
            route.push(slots.switch_slot(hop.switch, hop.out_port));
        });
        if walked.is_ok() {
            route.iter().for_each(|&slot| loads[slot] += 1);
        }
        Ok(())
    })
    .expect("unroutable pairs are skipped")
}

/// Accumulate every ordered `(src, dst)` pair's flow through `flow`,
/// sharding sources across the thread pool. Each shard lends `flow` a
/// reused scratch vector beside its load vector.
fn stream_all_to_all<F>(
    params: TreeParams,
    slots: PortSlots,
    flow: F,
) -> Result<ChannelLoads, RoutingError>
where
    F: Fn(&mut [u32], &mut Vec<usize>, NodeId, NodeId) -> Result<(), RoutingError> + Sync,
{
    let nodes = params.num_nodes();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    // A few shards per thread so an unlucky chunk can't straggle.
    let chunk = (nodes as usize).div_ceil(4 * threads).max(1);
    let sources: Vec<u32> = (0..nodes).collect();
    let shards: Vec<&[u32]> = sources.chunks(chunk).collect();
    let partials = par_map_indexed(&shards, |_, shard| -> Result<Vec<u32>, RoutingError> {
        let mut loads = vec![0u32; slots.len()];
        let mut scratch = Vec::new();
        for &src in *shard {
            for dst in 0..nodes {
                if dst != src {
                    flow(&mut loads, &mut scratch, NodeId(src), NodeId(dst))?;
                }
            }
        }
        Ok(loads)
    });
    let mut loads = vec![0u32; slots.len()];
    for partial in partials {
        for (total, shard) in loads.iter_mut().zip(partial?) {
            *total += shard;
        }
    }
    Ok(ChannelLoads::finalize(params, slots, loads))
}

/// Compute channel loads for an explicit flow matrix.
pub fn loads_for_matrix(
    net: &Network,
    routing: &Routing,
    flows: &[(NodeId, NodeId)],
) -> Result<ChannelLoads, RoutingError> {
    let params = net.params();
    let slots = PortSlots::of(params);
    let mut loads = vec![0u32; slots.len()];
    for &(src, dst) in flows {
        add_route(&mut loads, &slots, net, routing, src, dst)?;
    }
    Ok(ChannelLoads::finalize(params, slots, loads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingKind;
    use ibfat_topology::{SwitchLabel, TreeParams};
    use std::collections::HashMap;

    fn loads(m: u32, n: u32, kind: RoutingKind) -> ChannelLoads {
        let net = Network::mport_ntree(TreeParams::new(m, n).unwrap());
        let routing = Routing::build(&net, kind);
        all_to_all_loads(&net, &routing).unwrap()
    }

    #[test]
    fn all_to_all_upward_load_is_balanced_for_both_schemes() {
        // Under the *uniform* all-to-all matrix both schemes balance the
        // upward links perfectly (MLID partitions them by source, SLID by
        // destination digit): every leaf up-link of FT(4,3) carries
        // exactly N-2 flows (one source's 15 flows minus the leaf-sibling
        // one for MLID; 7+7 destination-split flows for SLID). The
        // schemes only separate on *skewed* matrices — see
        // `all_to_one_matrix_separates_the_schemes`.
        let n = 16u32;
        for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
            let l = loads(4, 3, kind);
            assert_eq!(l.max_up, n - 2, "{kind}");
        }
    }

    #[test]
    fn all_to_one_matrix_separates_the_schemes() {
        // Every node sends one flow to node 0 — the hot-spot matrix. MLID
        // bounds the upward load at 1 everywhere; SLID concentrates the
        // whole column onto shared up-links.
        for (m, n) in [(4, 3), (8, 2), (16, 2)] {
            let net = Network::mport_ntree(TreeParams::new(m, n).unwrap());
            let flows: Vec<_> = (1..net.num_nodes() as u32)
                .map(|s| (NodeId(s), NodeId(0)))
                .collect();
            let mlid = Routing::build(&net, RoutingKind::Mlid);
            let slid = Routing::build(&net, RoutingKind::Slid);
            let lm = loads_for_matrix(&net, &mlid, &flows).unwrap();
            let ls = loads_for_matrix(&net, &slid, &flows).unwrap();
            assert_eq!(lm.max_up, 1, "IBFT({m},{n}): MLID upward exclusivity");
            assert!(
                ls.max_up as u64 >= (net.num_nodes() as u64 - 1) / u64::from(m),
                "IBFT({m},{n}): SLID should concentrate ({} flows on one up-link)",
                ls.max_up
            );
        }
    }

    #[test]
    fn every_edge_link_carries_exactly_n_minus_one_flows() {
        // All-to-all: every node sends N-1 flows over its injection link
        // and receives N-1 over its delivery link.
        let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let l = all_to_all_loads(&net, &routing).unwrap();
        let nodes = net.num_nodes() as u32;
        for node in 0..nodes {
            let injection = l.load_of(DeviceRef::Node(NodeId(node)), PortNum(1));
            assert_eq!(injection, nodes - 1);
        }
        // Delivery links: the leaf switch port toward each node.
        let mut delivered = 0u32;
        for (device, port, load) in l.iter() {
            if let DeviceRef::Switch(sw) = device {
                if let Some(peer) = net.peer_of(device, port) {
                    if matches!(peer.device, DeviceRef::Node(_)) {
                        assert_eq!(load, nodes - 1, "delivery link of {sw}");
                        delivered += 1;
                    }
                }
            }
        }
        assert_eq!(delivered, nodes);
    }

    #[test]
    fn load_of_and_hottest_agree_with_the_link_iterator() {
        let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        let routing = Routing::build(&net, RoutingKind::Slid);
        let flows: Vec<_> = (1..net.num_nodes() as u32)
            .map(|s| (NodeId(s), NodeId(0)))
            .collect();
        let l = loads_for_matrix(&net, &routing, &flows).unwrap();
        // load_of mirrors the iterator and returns 0 off it.
        for (device, port, load) in l.iter() {
            assert_eq!(l.load_of(device, port), load);
        }
        assert_eq!(l.load_of(DeviceRef::Node(NodeId(0)), PortNum(1)), 0);
        assert_eq!(l.iter().count(), l.used_links);
        // hottest(k) is sorted, truncated, consistent with max(), and
        // deterministic (a second call yields the identical ranking).
        let top = l.hottest(5);
        assert_eq!(top.len(), 5.min(l.used_links));
        assert_eq!(top[0].2, l.max());
        assert!(top.windows(2).all(|w| w[0].2 >= w[1].2));
        assert_eq!(top, l.hottest(5));
        assert_eq!(l.hottest(usize::MAX).len(), l.used_links);
    }

    #[test]
    fn custom_matrix_loads() {
        // The paper's Figure 11 scenario: gcpg(0,1) -> P(100). Four flows,
        // each upward link used at most once under MLID.
        let net = Network::mport_ntree(TreeParams::new(4, 3).unwrap());
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let flows: Vec<_> = (0..4).map(|s| (NodeId(s), NodeId(4))).collect();
        let l = loads_for_matrix(&net, &routing, &flows).unwrap();
        assert_eq!(l.max_up, 1, "paper's routes Q,R,S,T are upward-disjoint");
        // Under SLID the same four flows pile onto shared up-links.
        let slid = Routing::build(&net, RoutingKind::Slid);
        let ls = loads_for_matrix(&net, &slid, &flows).unwrap();
        assert!(ls.max_up >= 2);
    }

    #[test]
    fn dense_loads_match_a_hashmap_reference() {
        // The dense flat-vector analysis must agree, link for link and
        // stat for stat, with the straightforward HashMap accumulation it
        // replaced (reconstructed here as an in-test reference).
        for (m, n) in [(4, 2), (4, 3), (8, 3)] {
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let params = TreeParams::new(m, n).unwrap();
                let net = Network::mport_ntree(params);
                let routing = Routing::build(&net, kind);
                let dense = all_to_all_loads(&net, &routing).unwrap();

                let mut per_link: HashMap<(DeviceRef, PortNum), u32> = HashMap::new();
                for src in 0..params.num_nodes() {
                    for dst in 0..params.num_nodes() {
                        if src == dst {
                            continue;
                        }
                        let dlid = routing.select_dlid(NodeId(src), NodeId(dst));
                        let route = routing.trace(&net, NodeId(src), dlid).unwrap();
                        for link in route.directed_links() {
                            *per_link.entry(link).or_insert(0) += 1;
                        }
                    }
                }
                let (mut max_up, mut max_down) = (0, 0);
                for (&(device, port), &load) in &per_link {
                    if let DeviceRef::Switch(sw) = device {
                        let level = SwitchLabel::from_id(params, sw).level();
                        if level.0 > 0 && u32::from(port.0) > params.half() {
                            max_up = max_up.max(load);
                        } else {
                            max_down = max_down.max(load);
                        }
                    }
                }
                let tag = format!("FT({m},{n}) {kind:?}");
                assert_eq!(dense.used_links, per_link.len(), "{tag}");
                assert_eq!(dense.max_up, max_up, "{tag}");
                assert_eq!(dense.max_down, max_down, "{tag}");
                assert_eq!(
                    dense.max(),
                    per_link.values().copied().max().unwrap_or(0),
                    "{tag}"
                );
                for (device, port, load) in dense.iter() {
                    assert_eq!(per_link.get(&(device, port)), Some(&load), "{tag}");
                }
            }
        }
    }

    #[test]
    fn routable_loads_equal_all_to_all_loads_where_every_pair_routes() {
        for (m, n) in [(4, 3), (8, 2)] {
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let net = Network::mport_ntree(TreeParams::new(m, n).unwrap());
                let built = Routing::build(&net, kind);
                // One cut cable: repair keeps every pair routable.
                let cut = net.without(&[net.inter_switch_link_indices()[1]], &[]);
                let repaired = crate::build_fault_tolerant(&cut, kind);
                for (net, routing) in [(&net, &built), (&cut, &repaired)] {
                    assert_eq!(
                        routable_all_to_all_loads(net, routing),
                        all_to_all_loads(net, routing).unwrap(),
                        "FT({m},{n}) {kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn routable_loads_match_a_per_pair_reference_with_unroutable_pairs() {
        // FT(4,2) without link 8 (a node's cable) isolates a node, and
        // FT(4,3) without two of its links cuts pairs that only a
        // down-then-up walk could join: those pairs add no load, every
        // other pair adds its whole route.
        let ft42 = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
        let ft43 = Network::mport_ntree(TreeParams::new(4, 3).unwrap());
        let inter = ft43.inter_switch_link_indices();
        let degraded = (0..inter.len())
            .flat_map(|a| (a + 1..inter.len()).map(move |b| (a, b)))
            .map(|(a, b)| ft43.without(&[inter[a], inter[b]], &[]))
            .find(|net| {
                let routing = crate::build_fault_tolerant(net, RoutingKind::Mlid);
                all_to_all_loads(net, &routing).is_err()
            })
            .expect("some pair of FT(4,3) link failures leaves a pair unroutable");
        for net in [ft42.without(&[8], &[]), degraded] {
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let routing = crate::build_fault_tolerant(&net, kind);
                let mut per_link: HashMap<(DeviceRef, PortNum), u32> = HashMap::new();
                let mut unroutable = 0;
                for src in 0..net.num_nodes() as u32 {
                    for dst in (0..net.num_nodes() as u32).filter(|&d| d != src) {
                        let dlid = routing.select_dlid(NodeId(src), NodeId(dst));
                        let Ok(route) = routing.trace(&net, NodeId(src), dlid) else {
                            unroutable += 1;
                            continue;
                        };
                        for link in route.directed_links() {
                            *per_link.entry(link).or_insert(0) += 1;
                        }
                    }
                }
                assert!(unroutable > 0, "{kind:?}: the fabric must cut some pair");
                assert!(all_to_all_loads(&net, &routing).is_err());
                let loads = routable_all_to_all_loads(&net, &routing);
                assert_eq!(loads.used_links, per_link.len(), "{kind:?}");
                for (device, port, load) in loads.iter() {
                    assert_eq!(per_link.get(&(device, port)), Some(&load), "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn oracle_loads_match_table_walked_loads() {
        // A built routing streams the closed form; the same tables
        // assembled from parts walk the tables. The loads agree exactly.
        for (m, n) in [(4, 3), (8, 2)] {
            for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
                let params = TreeParams::new(m, n).unwrap();
                let net = Network::mport_ntree(params);
                let routing = Routing::build(&net, kind);
                let tables = Routing::assemble(
                    kind,
                    params,
                    routing.lid_space().clone(),
                    routing.lfts().to_vec(),
                );
                assert!(RouteOracle::for_fabric(&net, &routing).is_some());
                assert!(RouteOracle::for_fabric(&net, &tables).is_none());
                let oracle = all_to_all_loads(&net, &routing).unwrap();
                let table = all_to_all_loads(&net, &tables).unwrap();
                assert_eq!(oracle, table, "FT({m},{n}) {kind:?}");
            }
        }
    }
}
