//! Property-based tests for the routing schemes.

use ibfat_routing::{
    build_fault_tolerant, repair_fault_tolerant, Lid, RepairState, Routing, RoutingKind,
};
use ibfat_topology::{analysis, gcp_len, Network, NodeId, NodeLabel, TreeParams};
use proptest::prelude::*;

fn params() -> impl Strategy<Value = TreeParams> {
    prop_oneof![
        Just(TreeParams::new(4, 2).unwrap()),
        Just(TreeParams::new(4, 3).unwrap()),
        Just(TreeParams::new(8, 2).unwrap()),
        Just(TreeParams::new(8, 3).unwrap()),
        Just(TreeParams::new(16, 2).unwrap()),
        Just(TreeParams::new(2, 3).unwrap()),
    ]
}

fn routed(kind: RoutingKind) -> impl Strategy<Value = (Network, Routing, u32, u32)> {
    params().prop_flat_map(move |p| {
        let nodes = p.num_nodes();
        (Just(p), 0..nodes, 0..nodes).prop_map(move |(p, a, b)| {
            let net = Network::mport_ntree(p);
            let routing = Routing::build(&net, kind);
            (net, routing, a, b)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mlid_every_lid_delivers_from_any_source((net, routing, src, _b) in routed(RoutingKind::Mlid)) {
        let space = routing.lid_space();
        for lid in 1..=space.max_lid().0 {
            let route = routing.trace(&net, NodeId(src), Lid(lid)).unwrap();
            let (owner, _) = space.resolve(Lid(lid)).unwrap();
            prop_assert_eq!(route.dst, owner);
        }
    }

    #[test]
    fn mlid_selected_routes_are_minimal((net, routing, a, b) in routed(RoutingKind::Mlid)) {
        prop_assume!(a != b);
        let dlid = routing.select_dlid(NodeId(a), NodeId(b));
        let route = routing.trace(&net, NodeId(a), dlid).unwrap();
        prop_assert_eq!(
            route.num_links() as u32,
            analysis::min_hops(net.params(), NodeId(a), NodeId(b))
        );
    }

    #[test]
    fn slid_selected_routes_are_minimal((net, routing, a, b) in routed(RoutingKind::Slid)) {
        prop_assume!(a != b);
        let dlid = routing.select_dlid(NodeId(a), NodeId(b));
        let route = routing.trace(&net, NodeId(a), dlid).unwrap();
        prop_assert_eq!(
            route.num_links() as u32,
            analysis::min_hops(net.params(), NodeId(a), NodeId(b))
        );
    }

    #[test]
    fn mlid_dlid_offset_equals_subgroup_rank((net, routing, a, b) in routed(RoutingKind::Mlid)) {
        prop_assume!(a != b);
        let params = net.params();
        let space = routing.lid_space();
        let dlid = routing.select_dlid(NodeId(a), NodeId(b));
        let (owner, offset) = space.resolve(dlid).unwrap();
        prop_assert_eq!(owner, NodeId(b));
        // Offset must be the source's rank one digit below the gcp.
        let la = NodeLabel::from_id(params, NodeId(a));
        let lb = NodeLabel::from_id(params, NodeId(b));
        let alpha = gcp_len(&la, &lb);
        let group = ibfat_topology::Gcpg::of(params, &la, alpha + 1);
        prop_assert_eq!(offset, ibfat_topology::rank_in(params, &group, &la));
        // And it must fit the LMC window with room for the whole subgroup.
        prop_assert!(offset < space.lids_per_node());
    }

    #[test]
    fn subgroup_senders_get_distinct_lcas((net, routing, _a, b) in routed(RoutingKind::Mlid)) {
        // All sources in one sibling subgroup of the destination reach the
        // destination through pairwise distinct first-descent switches.
        let params = net.params();
        prop_assume!(params.n() >= 2);
        let dst = NodeId(b);
        let ld = NodeLabel::from_id(params, dst);
        // The sibling subgroup: flip the destination's first digit.
        let flip = if ld.digit(0) == 0 { 1 } else { 0 };
        let group = ibfat_topology::Gcpg::new(params, &[flip]);
        let mut lca_entries = std::collections::HashSet::new();
        let mut count = 0usize;
        for member in group.members(params) {
            let src = member.id(params);
            if src == dst { continue; }
            let dlid = routing.select_dlid(src, dst);
            let route = routing.trace(&net, src, dlid).unwrap();
            // The "peak" switch of the route: the one reached at the gcp
            // level — for these pairs, alpha = 0, so it is the root hop,
            // the unique hop whose switch is at level 0.
            let peak: Vec<_> = route
                .hops
                .iter()
                .filter(|h| {
                    ibfat_topology::SwitchLabel::from_id(params, h.switch).level().0 == 0
                })
                .collect();
            prop_assert_eq!(peak.len(), 1);
            lca_entries.insert(peak[0].switch);
            count += 1;
        }
        // Distinct LCAs up to the number of roots.
        let roots = params.num_lcas(0) as usize;
        prop_assert_eq!(lca_entries.len(), count.min(roots));
    }

    #[test]
    fn mlid_and_slid_agree_on_descent((net, _r, a, b) in routed(RoutingKind::Mlid)) {
        // Equation (1) is shared: from any common ancestor the down path is
        // unique, so the last hop of any route to b enters b's leaf switch.
        prop_assume!(a != b);
        for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
            let routing = Routing::build(&net, kind);
            let dlid = routing.select_dlid(NodeId(a), NodeId(b));
            let route = routing.trace(&net, NodeId(a), dlid).unwrap();
            let last = route.hops.last().unwrap();
            let label = ibfat_topology::SwitchLabel::from_id(net.params(), last.switch);
            prop_assert_eq!(u32::from(label.level().0), net.params().n() - 1);
        }
    }
}

/// SplitMix64 — a tiny self-contained generator so the failure pick is
/// reproducible from the proptest-supplied seed without an RNG dep.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pick `k` distinct inter-switch links by partial Fisher–Yates.
fn pick_inter_links(net: &Network, k: usize, seed: u64) -> Vec<usize> {
    let mut pool = net.inter_switch_link_indices();
    let mut s = seed;
    for i in 0..k.min(pool.len()) {
        let j = i + (splitmix(&mut s) as usize) % (pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(k.min(pool.len()));
    pool
}

/// `net` minus the given link indices (removed high-to-low so the
/// indices stay valid mid-removal).
fn without_links(net: &Network, dead: &[usize]) -> Network {
    let mut degraded = net.clone();
    let mut order = dead.to_vec();
    order.sort_unstable_by(|a, b| b.cmp(a));
    for idxx in order {
        degraded.remove_link(idxx);
    }
    degraded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fault subsystem's control-plane contract: patch-level repair
    /// after `k` random inter-switch failures produces tables
    /// bit-identical to a from-scratch `build_fault_tolerant`, the
    /// reported switches and entry count are the *exact* delta, and
    /// repairs chain across successive failures.
    #[test]
    fn repair_after_random_failures_matches_from_scratch_rebuild(
        p in params(),
        seed in any::<u64>(),
        k in 1usize..=4,
        kind in prop_oneof![Just(RoutingKind::Mlid), Just(RoutingKind::Slid)],
    ) {
        let net = Network::mport_ntree(p);
        let dead = pick_inter_links(&net, k + 1, seed);
        prop_assume!(dead.len() == k + 1);
        let (first, extra) = (&dead[..k], dead[k]);

        let degraded = without_links(&net, first);
        let prev = Routing::build(&net, kind);
        let mut state = RepairState::new(&net);
        let (repaired, changed, stats) =
            repair_fault_tolerant(&degraded, kind, &prev, &mut state);

        // Bit-identical to rebuilding everything from the degraded graph.
        let scratch = build_fault_tolerant(&degraded, kind);
        prop_assert_eq!(repaired.lfts(), scratch.lfts());

        // The reported switches are exactly those with a differing
        // entry, in ascending id, and the entry count is the delta's.
        let mut differing = Vec::new();
        let mut entries = 0;
        for s in 0..net.num_switches() as u32 {
            let sw = ibfat_topology::SwitchId(s);
            let delta = repaired.lft(sw).changes_from(prev.lft(sw)).count();
            if delta > 0 {
                differing.push(sw);
                entries += delta;
            }
        }
        prop_assert_eq!(&changed, &differing);
        prop_assert_eq!(stats.switches_reprogrammed, changed.len());
        prop_assert_eq!(stats.entries_patched, entries);

        // A further failure repairs incrementally from the advanced state.
        let worse = without_links(&net, &dead);
        let (repaired2, _, _) = repair_fault_tolerant(&worse, kind, &repaired, &mut state);
        let scratch2 = build_fault_tolerant(&worse, kind);
        prop_assert_eq!(
            repaired2.lfts(),
            scratch2.lfts(),
            "chained repair diverged after also failing link {}",
            extra
        );
    }
}

#[test]
fn mlid_upward_exclusivity_on_all_eval_sizes() {
    for (m, n) in [(4, 2), (4, 3), (8, 2), (8, 3), (16, 2)] {
        let params = TreeParams::new(m, n).unwrap();
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let conflicts = ibfat_routing::verify_upward_link_exclusivity(&net, &routing).unwrap();
        assert_eq!(conflicts, 0, "IBFT({m},{n})");
    }
}

#[test]
fn scheme_names_are_stable() {
    assert_eq!(RoutingKind::Mlid.as_str(), "mlid");
    assert_eq!("MLID".parse::<RoutingKind>().unwrap(), RoutingKind::Mlid);
    assert!("bogus".parse::<RoutingKind>().is_err());
}
