//! `Routing::walk` against `Routing::trace`: for every (source, LID) —
//! including LIDs outside the assigned range — the walk must deliver to
//! the same node over the same hops, or fail with the same error.

use ibfat_routing::{build_fault_tolerant, Hop, Lid, Routing, RoutingError, RoutingKind};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum, SwitchId, TreeParams};
use std::collections::BTreeSet;

fn variant(e: &RoutingError) -> &'static str {
    match e {
        RoutingError::UnknownLid(_) => "UnknownLid",
        RoutingError::NoLftEntry { .. } => "NoLftEntry",
        RoutingError::DanglingPort { .. } => "DanglingPort",
        RoutingError::DisconnectedSource(_) => "DisconnectedSource",
        RoutingError::LoopDetected { .. } => "LoopDetected",
        RoutingError::Misdelivered { .. } => "Misdelivered",
        RoutingError::PropertyViolation(_) => "PropertyViolation",
    }
}

/// Compare walk and trace for every source and every LID in
/// `0..=max_lid + 1`, recording the error variants met.
fn check(net: &Network, routing: &Routing, seen: &mut BTreeSet<&'static str>) {
    let max = routing.lid_space().max_lid().0;
    for src in 0..net.num_nodes() as u32 {
        for raw in 0..=max + 1 {
            let (src, lid) = (NodeId(src), Lid(raw));
            let mut hops: Vec<Hop> = Vec::new();
            let walked = routing.walk(net, src, lid, |hop| hops.push(hop));
            match routing.trace(net, src, lid) {
                Ok(route) => {
                    assert_eq!(walked, Ok(route.dst), "{src} {lid}");
                    assert_eq!(hops, route.hops, "{src} {lid}");
                }
                Err(e) => {
                    assert_eq!(walked, Err(e.clone()), "{src} {lid}");
                    seen.insert(variant(&e));
                }
            }
        }
    }
}

fn fabric(m: u32, n: u32) -> Network {
    Network::mport_ntree(TreeParams::new(m, n).expect("valid params"))
}

/// `net` without a few inter-switch links and every cable of one leaf
/// switch (whose nodes can then no longer inject).
fn degraded(net: &Network) -> Network {
    let params = net.params();
    let leaf = SwitchId(params.num_switches() - 1);
    assert_eq!(params.switch_level_of(leaf.0), params.n() - 1);
    let inter = net.inter_switch_link_indices();
    let mut dead: Vec<usize> = (0..3).map(|i| inter[(i * inter.len()) / 3]).collect();
    dead.extend(
        net.links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.a.device == DeviceRef::Switch(leaf) || l.b.device == DeviceRef::Switch(leaf)
            })
            .map(|(i, _)| i),
    );
    dead.sort_unstable();
    dead.dedup();
    let mut d = net.clone();
    for &i in dead.iter().rev() {
        d.remove_link(i);
    }
    d
}

#[test]
fn walk_matches_trace_on_pristine_and_degraded_fabrics() {
    let mut seen = BTreeSet::new();
    for (m, n) in [(4, 3), (4, 4), (8, 3)] {
        let net = fabric(m, n);
        let dnet = degraded(&net);
        for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
            let base = Routing::build(&net, kind);
            check(&net, &base, &mut seen);
            // Repaired tables leave unreachable entries unprogrammed.
            check(&dnet, &build_fault_tolerant(&dnet, kind), &mut seen);
            // Stale tables point at the dead cables.
            check(&dnet, &base, &mut seen);
        }
    }
    for v in [
        "UnknownLid",
        "NoLftEntry",
        "DanglingPort",
        "DisconnectedSource",
    ] {
        assert!(seen.contains(v), "no case produced {v}: {seen:?}");
    }
}

#[test]
fn walk_matches_trace_on_corrupted_rows() {
    let net = fabric(4, 3);
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let space = routing.lid_space().clone();
    let dst = NodeId(0);
    let lid = space.base_lid(dst);
    let far = NodeId(net.num_nodes() as u32 - 1);
    let leaf_of = |node: NodeId| {
        let peer = net
            .peer_of(DeviceRef::Node(node), PortNum(1))
            .expect("cabled");
        match peer.device {
            DeviceRef::Switch(sw) => (sw, peer.port),
            DeviceRef::Node(_) => unreachable!("nodes land on switches"),
        }
    };

    // A loop: the far source's leaf climbs toward `dst`, and the parent
    // it climbs to sends the LID straight back down.
    let mut lfts = routing.lfts().to_vec();
    let (leaf, _) = leaf_of(far);
    let up = lfts[leaf.index()].get(lid).expect("programmed");
    let parent = net.peer_of(DeviceRef::Switch(leaf), up).expect("cabled");
    let DeviceRef::Switch(p) = parent.device else {
        unreachable!("leaf up-ports lead to switches")
    };
    lfts[p.index()].set(lid, parent.port);
    let looping = Routing::assemble(RoutingKind::Mlid, net.params(), space.clone(), lfts);
    assert!(matches!(
        looping.walk(&net, far, lid, |_| {}),
        Err(RoutingError::LoopDetected { .. })
    ));

    // A misdelivery: `dst`'s leaf hands its LID to a sibling node.
    let mut lfts = routing.lfts().to_vec();
    let (leaf, port) = leaf_of(dst);
    let sibling = PortNum(if port.0 == 1 { 2 } else { 1 });
    lfts[leaf.index()].set(lid, sibling);
    let misdelivering = Routing::assemble(RoutingKind::Mlid, net.params(), space, lfts);
    assert!(matches!(
        misdelivering.walk(&net, far, lid, |_| {}),
        Err(RoutingError::Misdelivered { .. })
    ));

    let mut seen = BTreeSet::new();
    check(&net, &looping, &mut seen);
    check(&net, &misdelivering, &mut seen);
    for v in ["LoopDetected", "Misdelivered", "UnknownLid"] {
        assert!(seen.contains(v), "no case produced {v}: {seen:?}");
    }
}
