//! Deadlock-freedom verification via the channel dependency graph (CDG).
//!
//! A deterministic routing is deadlock-free iff the directed graph whose
//! vertices are network channels (directed links) and whose edges connect
//! channel `c1` to `c2` whenever some packet may hold `c1` while requesting
//! `c2` is acyclic (Dally & Seitz). Fat-tree up/down routing never turns
//! from a down channel back to an up channel, so its CDG is acyclic; this
//! module proves that mechanically for the programmed tables instead of
//! trusting the argument.

use crate::{Routing, RoutingError};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum};
use std::collections::HashMap;

/// A directed channel: traffic leaving `device` through `port`.
type Channel = (DeviceRef, u8);

/// Summary of a channel-dependency-graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdgReport {
    /// Number of distinct channels that appear in at least one route.
    pub channels: usize,
    /// Number of distinct dependency edges.
    pub dependencies: usize,
    /// Whether the graph is acyclic (deadlock-free routing).
    pub acyclic: bool,
}

/// Build the channel dependency graph induced by routing **every assigned
/// LID from every source** (the full reachable behaviour of the tables,
/// not just the path-selection pairs), and check it for cycles.
pub fn channel_dependency_graph(
    net: &Network,
    routing: &Routing,
) -> Result<CdgReport, RoutingError> {
    let space = routing.lid_space();
    let mut index: HashMap<Channel, usize> = HashMap::new();
    let mut edges: Vec<Vec<usize>> = Vec::new();
    let mut intern = |c: Channel, edges: &mut Vec<Vec<usize>>| -> usize {
        let next = index.len();
        let id = *index.entry(c).or_insert(next);
        if id == edges.len() {
            edges.push(Vec::new());
        }
        id
    };
    let mut edge_set: std::collections::HashSet<(usize, usize)> = Default::default();
    // One route's directed links, reused across routes.
    let mut links: Vec<Channel> = Vec::new();

    for src in 0..net.num_nodes() as u32 {
        for lid_raw in 1..=space.max_lid().0 {
            links.clear();
            links.push((DeviceRef::Node(NodeId(src)), 1));
            let walked = routing.walk(net, NodeId(src), crate::Lid(lid_raw), |hop| {
                links.push((DeviceRef::Switch(hop.switch), hop.out_port.0));
            });
            match walked {
                Ok(_) => {}
                // An unprogrammed entry means the switch *discards* the
                // packet (IBA semantics on degraded subnets) — it holds
                // no further channels, so it adds no dependencies.
                Err(crate::RoutingError::NoLftEntry { .. }) => continue,
                Err(e) => return Err(e),
            }
            for pair in links.windows(2) {
                let a = intern(pair[0], &mut edges);
                let b = intern(pair[1], &mut edges);
                if edge_set.insert((a, b)) {
                    edges[a].push(b);
                }
            }
        }
    }

    let acyclic = is_acyclic(&edges);
    Ok(CdgReport {
        channels: edges.len(),
        dependencies: edge_set.len(),
        acyclic,
    })
}

/// Verify a routing is deadlock-free; error with diagnostics otherwise.
pub fn verify_deadlock_free(net: &Network, routing: &Routing) -> Result<CdgReport, RoutingError> {
    let report = channel_dependency_graph(net, routing)?;
    if !report.acyclic {
        return Err(RoutingError::PropertyViolation(format!(
            "channel dependency graph has a cycle ({} channels, {} deps)",
            report.channels, report.dependencies
        )));
    }
    Ok(report)
}

/// Iterative three-color DFS cycle detection.
fn is_acyclic(adj: &[Vec<usize>]) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; adj.len()];
    for start in 0..adj.len() {
        if color[start] != Color::White {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack = vec![(start, 0usize)];
        color[start] = Color::Gray;
        while let Some(&(node, next)) = stack.last() {
            if next < adj[node].len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let child = adj[node][next];
                match color[child] {
                    Color::Gray => return false,
                    Color::White => {
                        color[child] = Color::Gray;
                        stack.push((child, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                stack.pop();
            }
        }
    }
    true
}

/// Expose the port-typed channel constructor for tests.
#[allow(dead_code)]
fn channel(device: DeviceRef, port: PortNum) -> Channel {
    (device, port.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingKind;
    use ibfat_topology::TreeParams;

    #[test]
    fn mlid_and_slid_are_deadlock_free() {
        for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
            for (m, n) in [(4, 2), (4, 3), (8, 2)] {
                let params = TreeParams::new(m, n).unwrap();
                let net = Network::mport_ntree(params);
                let routing = Routing::build(&net, kind);
                let report = verify_deadlock_free(&net, &routing)
                    .unwrap_or_else(|e| panic!("{kind} IBFT({m},{n}): {e}"));
                assert!(report.channels > 0);
                assert!(report.acyclic);
            }
        }
    }

    #[test]
    fn cycle_detector_finds_cycles() {
        // 0 -> 1 -> 2 -> 0
        assert!(!is_acyclic(&[vec![1], vec![2], vec![0]]));
        // 0 -> 1 -> 2
        assert!(is_acyclic(&[vec![1], vec![2], vec![]]));
        // self-loop
        assert!(!is_acyclic(&[vec![0]]));
        // empty
        assert!(is_acyclic(&[]));
        // diamond (acyclic)
        assert!(is_acyclic(&[vec![1, 2], vec![3], vec![3], vec![]]));
    }
}
