//! Whole-subnet verification passes over a programmed routing.
//!
//! These are the correctness obligations of any InfiniBand routing (every
//! DLID must be deliverable from everywhere) plus the structural claims the
//! paper makes for MLID (minimality; upward-phase exclusivity).

use crate::{Routing, RoutingError, RoutingKind};
use ibfat_topology::{analysis, Network, NodeId};
use std::collections::HashMap;

/// Verify that **every** assigned LID, injected from **every** source node,
/// is delivered to its owner. This is stronger than checking only the
/// path-selection pairs: IBA switches must forward any DLID a host chooses
/// to use.
pub fn verify_all_lids_deliver(net: &Network, routing: &Routing) -> Result<(), RoutingError> {
    let space = routing.lid_space();
    for src in 0..net.num_nodes() as u32 {
        for lid_raw in 1..=space.max_lid().0 {
            let lid = crate::Lid(lid_raw);
            routing.walk(net, NodeId(src), lid, |_| {})?;
        }
    }
    Ok(())
}

/// Verify that the route chosen by the scheme's path selection for every
/// ordered pair is *minimal*: `2 (n - alpha)` links.
pub fn verify_minimality(net: &Network, routing: &Routing) -> Result<(), RoutingError> {
    let params = net.params();
    for src in 0..net.num_nodes() as u32 {
        for dst in 0..net.num_nodes() as u32 {
            if src == dst {
                continue;
            }
            let (src, dst) = (NodeId(src), NodeId(dst));
            let dlid = routing.select_dlid(src, dst);
            // Links traversed: the injection link plus one per switch.
            let mut links = 1;
            routing.walk(net, src, dlid, |_| links += 1)?;
            let expect = analysis::min_hops(params, src, dst) as usize;
            if links != expect {
                return Err(RoutingError::PropertyViolation(format!(
                    "route {src}->{dst} uses {links} links, minimum is {expect}"
                )));
            }
        }
    }
    Ok(())
}

/// Verify the MLID scheme's headline property: across **all** ordered
/// (src, dst) pairs routed with the paper's path selection, each directed
/// *upward* link is used by at most one distinct source node. (Downward
/// links necessarily converge toward popular destinations; upward links
/// never do under MLID.)
///
/// For the SLID baseline this property fails by design, and the function
/// returns the number of conflicted upward links instead of an error so
/// callers can report the contrast.
pub fn verify_upward_link_exclusivity(
    net: &Network,
    routing: &Routing,
) -> Result<usize, RoutingError> {
    let params = net.params();
    // upward link -> set of sources seen
    let mut users: HashMap<(u32, u8), NodeId> = HashMap::new();
    let mut conflicts = 0usize;
    let mut conflicted: std::collections::HashSet<(u32, u8)> = std::collections::HashSet::new();
    for src in 0..net.num_nodes() as u32 {
        for dst in 0..net.num_nodes() as u32 {
            if src == dst {
                continue;
            }
            let (src, dst) = (NodeId(src), NodeId(dst));
            let dlid = routing.select_dlid(src, dst);
            routing.walk(net, src, dlid, |hop| {
                if !hop.is_upward(params) {
                    return;
                }
                let link = (hop.switch.0, hop.out_port.0);
                match users.insert(link, src) {
                    Some(prev) if prev != src && conflicted.insert(link) => conflicts += 1,
                    _ => {}
                }
            })?;
        }
    }
    if conflicts > 0 && routing.kind() == RoutingKind::Mlid {
        return Err(RoutingError::PropertyViolation(format!(
            "MLID upward-link exclusivity violated on {conflicts} links"
        )));
    }
    Ok(conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfat_topology::TreeParams;

    fn build(m: u32, n: u32, kind: RoutingKind) -> (Network, Routing) {
        let params = TreeParams::new(m, n).unwrap();
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, kind);
        (net, routing)
    }

    #[test]
    fn mlid_delivers_every_lid_everywhere() {
        for (m, n) in [(4, 2), (4, 3), (8, 2)] {
            let (net, routing) = build(m, n, RoutingKind::Mlid);
            verify_all_lids_deliver(&net, &routing)
                .unwrap_or_else(|e| panic!("IBFT({m},{n}): {e}"));
        }
    }

    #[test]
    fn slid_delivers_every_lid_everywhere() {
        for (m, n) in [(4, 2), (4, 3), (8, 2)] {
            let (net, routing) = build(m, n, RoutingKind::Slid);
            verify_all_lids_deliver(&net, &routing)
                .unwrap_or_else(|e| panic!("IBFT({m},{n}): {e}"));
        }
    }

    #[test]
    fn both_schemes_route_minimally() {
        for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
            let (net, routing) = build(4, 3, kind);
            verify_minimality(&net, &routing).unwrap();
        }
    }

    #[test]
    fn mlid_upward_links_are_exclusive_slid_ones_are_not() {
        let (net, mlid) = build(4, 3, RoutingKind::Mlid);
        assert_eq!(verify_upward_link_exclusivity(&net, &mlid).unwrap(), 0);

        let (net, slid) = build(4, 3, RoutingKind::Slid);
        let conflicts = verify_upward_link_exclusivity(&net, &slid).unwrap();
        assert!(conflicts > 0, "SLID should share upward links");
    }
}
