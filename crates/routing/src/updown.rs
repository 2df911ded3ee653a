//! Generic up*/down* routing, the classical deadlock-free scheme for
//! *irregular* topologies that the paper contrasts with (Section 1: such
//! algorithms "may not take all the properties of a regular topology into
//! account").
//!
//! The implementation is topology-agnostic: it only reads the cabled graph.
//!
//! 1. Orient every inter-switch link by breadth-first depth from a root
//!    switch (ties broken by switch id): the end with the smaller
//!    `(depth, id)` is *up*. The up-link relation is then acyclic.
//! 2. A legal path climbs zero or more up-links, then descends zero or
//!    more down-links — never down-then-up, which makes the channel
//!    dependency graph acyclic.
//! 3. For each destination, every switch picks the first hop of a shortest
//!    legal path; ties are rotated by DLID so different destinations
//!    spread over equivalent ports.

use crate::{Lft, LidSpace, Routing, RoutingKind};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum, SwitchId};
use std::collections::VecDeque;

/// Precomputed orientation of the switch graph.
struct Orientation {
    /// BFS depth of each switch from the root.
    depth: Vec<u32>,
    /// For each switch: (peer switch, out port) of every inter-switch link.
    adj: Vec<Vec<(SwitchId, PortNum)>>,
}

impl Orientation {
    fn build(net: &Network) -> Orientation {
        let num = net.num_switches();
        let mut adj: Vec<Vec<(SwitchId, PortNum)>> = vec![Vec::new(); num];
        for (sw, list) in adj.iter_mut().enumerate() {
            for (port, peer) in net.switch(SwitchId(sw as u32)).peers() {
                if let DeviceRef::Switch(other) = peer.device {
                    list.push((other, port));
                }
            }
        }
        // BFS from switch 0 (for IBFT this is a root switch, but any
        // connected graph works).
        let mut depth = vec![u32::MAX; num];
        let mut queue = VecDeque::new();
        depth[0] = 0;
        queue.push_back(0usize);
        while let Some(s) = queue.pop_front() {
            for &(t, _) in &adj[s] {
                if depth[t.index()] == u32::MAX {
                    depth[t.index()] = depth[s] + 1;
                    queue.push_back(t.index());
                }
            }
        }
        assert!(
            depth.iter().all(|&d| d != u32::MAX),
            "switch graph is disconnected"
        );
        Orientation { depth, adj }
    }

    /// True if the link `from -> to` is an *up* step (toward the root).
    #[inline]
    fn is_up(&self, from: SwitchId, to: SwitchId) -> bool {
        let kf = (self.depth[from.index()], from.0);
        let kt = (self.depth[to.index()], to.0);
        kt < kf
    }
}

/// Up*/down* routing over the cabled graph: one LID per node, and every
/// switch's table derived from the orientation.
pub(crate) fn build(net: &Network) -> Routing {
    let space = LidSpace::new(net.params().num_nodes(), 0);
    let lfts = build_lfts(net, &space);
    Routing::assemble(RoutingKind::UpDown, net.params(), space, lfts)
}

fn build_lfts(net: &Network, space: &LidSpace) -> Vec<Lft> {
    let orient = Orientation::build(net);
    let num = net.num_switches();
    let mut lfts: Vec<Lft> = (0..num).map(|_| Lft::new(space.max_lid())).collect();

    // Process switches in ascending (depth, id) order when propagating
    // the up-then-down distance, so parents are final before children.
    let mut order: Vec<usize> = (0..num).collect();
    order.sort_by_key(|&s| (orient.depth[s], s));

    for node in 0..net.num_nodes() as u32 {
        let dst = NodeId(node);
        let lid = space.base_lid(dst);
        let attach = match net.peer_of(DeviceRef::Node(dst), PortNum(1)) {
            Some(p) => p,
            None => continue,
        };
        let (s_d, node_port) = match attach.device {
            DeviceRef::Switch(s) => (s, attach.port),
            _ => continue,
        };

        // d_down[s]: shortest all-down path s -> s_d; BFS from s_d
        // along *up* steps (the reverse of a down step).
        let mut d_down = vec![u32::MAX; num];
        let mut queue = VecDeque::new();
        d_down[s_d.index()] = 0;
        queue.push_back(s_d.index());
        while let Some(s) = queue.pop_front() {
            for &(t, _) in &orient.adj[s] {
                // Reverse edge t -> s must be a down step, i.e. s -> t
                // (the direction we walk) is an up step.
                if orient.is_up(SwitchId(s as u32), t) && d_down[t.index()] == u32::MAX {
                    d_down[t.index()] = d_down[s] + 1;
                    queue.push_back(t.index());
                }
            }
        }

        // d[s] = min(d_down[s], 1 + min over up-neighbors d[parent]).
        // Up-neighbors have strictly smaller (depth, id), so a single
        // pass in that order is exact.
        let mut d = d_down.clone();
        for &s in &order {
            let mut best = d[s];
            for &(t, _) in &orient.adj[s] {
                if orient.is_up(SwitchId(s as u32), t) && d[t.index()] != u32::MAX {
                    best = best.min(d[t.index()] + 1);
                }
            }
            d[s] = best;
        }

        // Program one out-port per switch.
        for s in 0..num {
            if s == s_d.index() {
                lfts[s].set(lid, node_port);
                continue;
            }
            debug_assert_ne!(d[s], u32::MAX, "unroutable destination");
            // Prefer descending when a pure down path is as short as
            // the best up-then-down alternative.
            let descending = d_down[s] == d[s];
            let mut candidates: Vec<PortNum> = Vec::new();
            for &(t, port) in &orient.adj[s] {
                let up = orient.is_up(SwitchId(s as u32), t);
                let ok = if descending {
                    !up && d_down[t.index()] != u32::MAX && d_down[t.index()] + 1 == d_down[s]
                } else {
                    up && d[t.index()] + 1 == d[s]
                };
                if ok {
                    candidates.push(port);
                }
            }
            debug_assert!(!candidates.is_empty(), "no legal next hop");
            candidates.sort_unstable_by_key(|p| p.0);
            // Rotate ties by destination so different LIDs spread.
            let pick = candidates[((lid.0 - 1) as usize) % candidates.len()];
            lfts[s].set(lid, pick);
        }
    }
    lfts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_all_lids_deliver, verify_deadlock_free, Routing, RoutingKind};
    use ibfat_topology::TreeParams;

    #[test]
    fn updown_delivers_and_is_deadlock_free() {
        for (m, n) in [(4, 2), (4, 3), (8, 2)] {
            let params = TreeParams::new(m, n).unwrap();
            let net = Network::mport_ntree(params);
            let routing = Routing::build(&net, RoutingKind::UpDown);
            verify_all_lids_deliver(&net, &routing)
                .unwrap_or_else(|e| panic!("IBFT({m},{n}): {e}"));
            verify_deadlock_free(&net, &routing).unwrap_or_else(|e| panic!("IBFT({m},{n}): {e}"));
        }
    }

    #[test]
    fn updown_routes_are_not_always_minimal_but_bounded() {
        // Up*/down* from a single BFS root cannot always use every LCA, so
        // some routes exceed the fat-tree minimum; they must still respect
        // the up*-then-down* bound of 2n links.
        let params = TreeParams::new(4, 3).unwrap();
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::UpDown);
        let mut max_links = 0;
        for src in 0..net.num_nodes() as u32 {
            for dst in 0..net.num_nodes() as u32 {
                if src == dst {
                    continue;
                }
                let dlid = routing.select_dlid(NodeId(src), NodeId(dst));
                let route = routing.trace(&net, NodeId(src), dlid).unwrap();
                max_links = max_links.max(route.num_links());
            }
        }
        assert!(max_links <= 2 * params.n() as usize);
    }
}
