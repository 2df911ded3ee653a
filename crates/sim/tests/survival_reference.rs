//! `disruption_report`'s surviving paths and tier loads against a
//! reference that traces every (source, destination, LID) and every
//! (source, destination) pair through `Routing::trace`, one `Route` at a
//! time. The library counts survival once per landing switch and walks
//! routes without allocating; both must give the same numbers.

use ibfat_routing::{build_fault_tolerant, Routing, RoutingKind};
use ibfat_sim::{
    disruption_report, FaultAction, FaultEvent, FaultPlan, LevelLoad, PathSurvival, SimReport,
};
use ibfat_topology::{DeviceRef, Network, NodeId, TreeParams};
use std::collections::BTreeSet;

/// Reference survival: trace every LID of every destination from every
/// source.
fn survival(net: &Network, routing: &Routing) -> PathSurvival {
    let space = routing.lid_space();
    let lids_per_node = space.lids_per_node();
    let n = net.num_nodes() as u32;
    let mut surviving = 0u64;
    let mut min_per_pair = lids_per_node;
    let mut disconnected = 0u64;
    for src in 0..n {
        for dst in (0..n).filter(|&dst| dst != src) {
            let live = space
                .lids(NodeId(dst))
                .filter(|&lid| routing.trace(net, NodeId(src), lid).is_ok())
                .count() as u32;
            surviving += u64::from(live);
            min_per_pair = min_per_pair.min(live);
            disconnected += u64::from(live == 0);
        }
    }
    PathSurvival {
        kind: routing.kind(),
        lids_per_node,
        pairs: u64::from(n) * u64::from(n - 1),
        surviving_paths: surviving,
        min_per_pair,
        disconnected_pairs: disconnected,
    }
}

/// Reference tier loads: trace every pair's selected route and count its
/// hops onto inter-switch channels. `(per-tier max, sum, channels)`.
fn tier_loads(net: &Network, routing: &Routing) -> (Vec<u32>, Vec<u64>, Vec<u64>) {
    let params = net.params();
    let m = params.m() as usize;
    let tiers = (params.n() as usize).saturating_sub(1).max(1);
    let mut chan = vec![0u32; net.num_switches() * m];
    let nodes = net.num_nodes() as u32;
    for src in 0..nodes {
        for dst in (0..nodes).filter(|&dst| dst != src) {
            let dlid = routing.select_dlid(NodeId(src), NodeId(dst));
            let Ok(route) = routing.trace(net, NodeId(src), dlid) else {
                continue;
            };
            for hop in &route.hops {
                let peer = net
                    .peer_of(DeviceRef::Switch(hop.switch), hop.out_port)
                    .expect("a traced hop leaves through a cabled port");
                if matches!(peer.device, DeviceRef::Switch(_)) {
                    chan[hop.switch.index() * m + hop.out_port.index() - 1] += 1;
                }
            }
        }
    }
    let (mut max, mut sum, mut count) = (vec![0u32; tiers], vec![0u64; tiers], vec![0u64; tiers]);
    for link in net.links() {
        for (a, b) in [(link.a, link.b), (link.b, link.a)] {
            let (DeviceRef::Switch(sa), DeviceRef::Switch(sb)) = (a.device, b.device) else {
                continue;
            };
            let tier = params
                .switch_level_of(sa.0)
                .min(params.switch_level_of(sb.0)) as usize;
            let load = chan[sa.index() * m + a.port.index() - 1];
            max[tier] = max[tier].max(load);
            sum[tier] += u64::from(load);
            count[tier] += 1;
        }
    }
    (max, sum, count)
}

fn mean(sum: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// The base net with every link the whole plan leaves dead removed:
/// killed links not revived, and every cable of a switch still off.
fn final_net(net: &Network, plan: &FaultPlan) -> Network {
    let (mut links, mut switches) = (BTreeSet::new(), BTreeSet::new());
    for ev in &plan.events {
        match ev.action {
            FaultAction::KillLink(l) => links.insert(l),
            FaultAction::ReviveLink(l) => links.remove(&l),
            FaultAction::KillSwitch(s) => switches.insert(s),
            FaultAction::ReviveSwitch(s) => switches.remove(&s),
        };
    }
    let dead: Vec<usize> = net
        .links()
        .iter()
        .enumerate()
        .filter(|&(i, l)| {
            links.contains(&(i as u32))
                || [l.a, l.b]
                    .iter()
                    .any(|p| matches!(p.device, DeviceRef::Switch(s) if switches.contains(&s.0)))
        })
        .map(|(i, _)| i)
        .collect();
    let mut d = net.clone();
    for &i in dead.iter().rev() {
        d.remove_link(i);
    }
    d
}

/// Compare one run's report with the reference; returns the report's
/// MLID-or-SLID survival.
fn check(m: u32, n: u32, kind: RoutingKind, plan: &FaultPlan) -> PathSurvival {
    let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid params"));
    let routing = Routing::build(&net, kind);
    let got = disruption_report(&net, &routing, plan, &SimReport::default());

    // A chained repair lands on the from-scratch tables for the final
    // fabric (pinned by the fault-compilation tests).
    let dnet = final_net(&net, plan);
    let degraded = build_fault_tolerant(&dnet, kind);
    let slid = build_fault_tolerant(&dnet, RoutingKind::Slid);
    let (h_max, h_sum, h_count) = tier_loads(&net, &routing);
    let (d_max, d_sum, d_count) = tier_loads(&dnet, &degraded);
    let level_loads: Vec<LevelLoad> = (0..h_max.len())
        .map(|t| LevelLoad {
            level: t as u32,
            healthy_max: h_max[t],
            healthy_mean: mean(h_sum[t], h_count[t]),
            degraded_max: d_max[t],
            degraded_mean: mean(d_sum[t], d_count[t]),
        })
        .collect();
    let label = format!("FT({m},{n}) {kind} {:?}", plan.events);
    assert_eq!(got.survival, survival(&dnet, &degraded), "{label}");
    assert_eq!(got.slid_survival, survival(&dnet, &slid), "{label}");
    assert_eq!(got.level_loads, level_loads, "{label}");
    got.survival
}

fn at(at_ns: u64, action: FaultAction) -> FaultEvent {
    FaultEvent { at_ns, action }
}

/// Seeded link kills; a leaf-switch kill, which disconnects its nodes;
/// and link kills with one revive.
fn plans(net: &Network) -> Vec<FaultPlan> {
    let leaf = net.num_switches() as u32 - 1;
    assert_eq!(net.params().switch_level_of(leaf), net.params().n() - 1);
    let kills = FaultPlan::pick_links(net, 3, 11);
    let mut revive = FaultPlan::kill_links_at(&kills, 1_000);
    revive
        .events
        .push(at(3_000, FaultAction::ReviveLink(kills[1])));
    let switch_kill = FaultPlan {
        events: vec![
            at(1_000, FaultAction::KillSwitch(leaf)),
            at(2_000, FaultAction::KillLink(kills[0])),
        ],
        ..FaultPlan::default()
    };
    vec![FaultPlan::kill_links_at(&kills, 1_000), switch_kill, revive]
}

fn check_all(m: u32, n: u32) {
    let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid params"));
    for (i, plan) in plans(&net).iter().enumerate() {
        for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
            let survival = check(m, n, kind, plan);
            // The leaf-switch kill leaves sources with no cable.
            if i == 1 {
                assert!(survival.disconnected_pairs > 0, "FT({m},{n}) {kind}");
            }
        }
    }
}

#[test]
fn ft43_matches_reference() {
    check_all(4, 3);
}

#[test]
fn ft44_matches_reference() {
    check_all(4, 4);
}

#[test]
fn ft83_matches_reference() {
    check_all(8, 3);
}
