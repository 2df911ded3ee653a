//! Structural analysis of `IBFT(m, n)`: hop distances, path multiplicity,
//! and graph-wide sanity measures used by tests, examples and EXPERIMENTS.md.

use crate::{gcp_len, DeviceRef, Network, NodeId, NodeLabel, Peer, TreeParams};
use std::collections::VecDeque;

/// The minimal number of *links* a packet traverses from node `a` to node
/// `b`, predicted analytically from the label algebra: with greatest common
/// prefix length `alpha`, the packet climbs to a level-`alpha` LCA and back:
/// `2 * (n - alpha)` links. Zero when `a == b`.
pub fn min_hops(params: TreeParams, a: NodeId, b: NodeId) -> u32 {
    if a == b {
        return 0;
    }
    let la = NodeLabel::from_id(params, a);
    let lb = NodeLabel::from_id(params, b);
    let alpha = gcp_len(&la, &lb);
    2 * (params.n() - alpha)
}

/// The number of distinct shortest paths between two distinct nodes:
/// `(m/2)^(n-1-alpha)` — one per least common ancestor (the descent from a
/// given LCA is unique).
pub fn num_shortest_paths(params: TreeParams, a: NodeId, b: NodeId) -> u32 {
    assert_ne!(a, b);
    let la = NodeLabel::from_id(params, a);
    let lb = NodeLabel::from_id(params, b);
    params.num_lcas(gcp_len(&la, &lb))
}

/// Breadth-first hop distance over the actual cabled graph, for verifying
/// [`min_hops`] against the construction. Distances are counted in links.
pub fn bfs_hops(net: &Network, from: NodeId) -> Vec<u32> {
    let params = net.params();
    let num_devices = net.num_nodes() + net.num_switches();
    let idx = |d: DeviceRef| -> usize {
        match d {
            DeviceRef::Node(n) => n.index(),
            DeviceRef::Switch(s) => net.num_nodes() + s.index(),
        }
    };
    let mut dist = vec![u32::MAX; num_devices];
    let mut queue = VecDeque::new();
    dist[idx(DeviceRef::Node(from))] = 0;
    queue.push_back(DeviceRef::Node(from));
    while let Some(d) = queue.pop_front() {
        let here = dist[idx(d)];
        for (_, Peer { device, .. }) in net.device(d).peers() {
            let slot = &mut dist[idx(device)];
            if *slot == u32::MAX {
                *slot = here + 1;
                queue.push_back(device);
            }
        }
    }
    (0..params.num_nodes())
        .map(|i| dist[idx(DeviceRef::Node(NodeId(i)))])
        .collect()
}

/// The average inter-node hop distance over all ordered pairs of distinct
/// nodes, computed analytically.
pub fn average_min_hops(params: TreeParams) -> f64 {
    let total_nodes = params.num_nodes() as u64;
    let mut weighted = 0u64;
    // Group pairs by alpha: the number of ordered pairs with gcp length
    // exactly alpha. A node has gcpg_size(alpha) - gcpg_size(alpha+1)
    // partners at exactly alpha (for alpha < n).
    for alpha in 0..params.n() {
        let at_least = params.gcpg_size(alpha) as u64;
        let deeper = if alpha < params.n() {
            params.gcpg_size(alpha + 1) as u64
        } else {
            1
        };
        let exactly = at_least - deeper;
        weighted += total_nodes * exactly * u64::from(2 * (params.n() - alpha));
    }
    weighted as f64 / (total_nodes * (total_nodes - 1)) as f64
}

/// Counts of up-going and down-going ports per switch level, a quick
/// digest of the wiring used in docs and examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelWiring {
    /// Tree level (0 = roots).
    pub level: u32,
    /// Switches at this level.
    pub switches: u32,
    /// Down-cables per switch.
    pub down_per_switch: u32,
    /// Up-cables per switch.
    pub up_per_switch: u32,
}

/// Per-level wiring digest.
pub fn level_wiring(params: TreeParams) -> Vec<LevelWiring> {
    (0..params.n())
        .map(|l| LevelWiring {
            level: l,
            switches: params.switches_at_level(l),
            down_per_switch: if l == 0 { params.m() } else { params.half() },
            up_per_switch: if l == 0 { 0 } else { params.half() },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_agrees_with_analytic_min_hops() {
        for (m, n) in [(4, 2), (4, 3), (8, 2)] {
            let params = TreeParams::new(m, n).unwrap();
            let net = Network::mport_ntree(params);
            for a in 0..params.num_nodes() {
                let dist = bfs_hops(&net, NodeId(a));
                for b in 0..params.num_nodes() {
                    assert_eq!(
                        dist[b as usize],
                        min_hops(params, NodeId(a), NodeId(b)),
                        "IBFT({m},{n}) {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn shortest_path_counts() {
        let params = TreeParams::new(4, 3).unwrap();
        // Distant nodes: 4 paths (through the 4 roots).
        assert_eq!(num_shortest_paths(params, NodeId(0), NodeId(15)), 4);
        // Leaf siblings: unique path through their leaf switch.
        assert_eq!(num_shortest_paths(params, NodeId(0), NodeId(1)), 1);
    }

    #[test]
    fn average_hops_matches_brute_force() {
        let params = TreeParams::new(4, 3).unwrap();
        let n = params.num_nodes();
        let mut total = 0u64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += u64::from(min_hops(params, NodeId(a), NodeId(b)));
                }
            }
        }
        let brute = total as f64 / (u64::from(n) * u64::from(n - 1)) as f64;
        let analytic = average_min_hops(params);
        assert!((brute - analytic).abs() < 1e-9, "{brute} vs {analytic}");
    }

    #[test]
    fn wiring_digest() {
        let params = TreeParams::new(4, 3).unwrap();
        let w = level_wiring(params);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].down_per_switch, 4);
        assert_eq!(w[0].up_per_switch, 0);
        assert_eq!(w[2].down_per_switch, 2);
        assert_eq!(w[2].up_per_switch, 2);
    }
}
