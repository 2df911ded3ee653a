//! Bad input gets a typed error, never a panic. Random configurations,
//! loads, horizons, traffic patterns, fault plans and workloads on
//! pristine and degraded fabrics — with the routing built for the
//! network, for another tree, or for the same tree degraded another
//! way — go through `run` / `run_workload`.
//! Every case must return `Ok` or `Err` without unwinding, and every
//! check the engine makes before the first event (plus the stalled
//! workload after the last) must be met at least once.

use ibfat_routing::{build_fault_tolerant, Routing, RoutingKind};
use ibfat_sim::{
    generators, run, run_workload, FaultAction, FaultEvent, FaultPlan, FaultPolicy, NoopProbe,
    RunSpec, SimConfig, SimError, TrafficPattern, Workload,
};
use ibfat_topology::{Network, NodeId, TreeParams};
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u32 = 1000;
const TREES: [(u32, u32); 3] = [(4, 2), (4, 3), (2, 3)];
const KINDS: [RoutingKind; 3] = [RoutingKind::Mlid, RoutingKind::Slid, RoutingKind::UpDown];

/// Which check an error comes from.
fn check_of(e: &SimError) -> &'static str {
    let has = |msg: &str, needle: &str| msg.contains(needle);
    match e {
        SimError::InvalidConfig(m) if has(m, "offered load") => "load",
        SimError::InvalidConfig(m) if has(m, "warm-up") => "warm-up",
        SimError::InvalidConfig(m) if has(m, "routing was built for") => "routing-tree",
        SimError::InvalidConfig(m) if has(m, "does not cable") => "routing-uncabled",
        SimError::InvalidConfig(m) if has(m, "packet-id space") => "packet-bound",
        SimError::InvalidConfig(m) if has(m, "adaptive upward") => "adaptive-degraded",
        SimError::InvalidConfig(_) => "config",
        SimError::InvalidPattern(_) => "pattern",
        SimError::InvalidFaultPlan(m) if has(m, "MLID/SLID") => "fault-updown",
        SimError::InvalidFaultPlan(m) if has(m, "FaultPolicy::Stall") => "workload-drop",
        SimError::InvalidFaultPlan(m) if has(m, "link faults only") => "workload-switch-kill",
        SimError::InvalidFaultPlan(_) => "fault-plan",
        SimError::InvalidWorkload(m) if has(m, "endport is uncabled") => "uncabled",
        SimError::InvalidWorkload(m) if has(m, "workload stalled") => "stalled",
        SimError::InvalidWorkload(_) => "workload",
        SimError::EngineInvariant(_) => "engine-invariant",
    }
}

/// `true` with probability `1 / n`.
fn one_in(rng: &mut TestRng, n: u64) -> bool {
    rng.below(n) == 0
}

/// An index below `n`.
fn pick(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// The network, degraded by up to three failed cables a third of the
/// time, and a routing for it — or, one time in eight, for another tree,
/// and one time in eight for this tree with another cable failed.
/// Up*/down* fabrics stay pristine: its builder needs a connected switch
/// graph, and the degraded fabrics are there for the MLID/SLID repair.
fn fabric(rng: &mut TestRng) -> (Network, Routing, String) {
    let tree = pick(rng, TREES.len());
    let (m, n) = TREES[tree];
    let kind = KINDS[pick(rng, KINDS.len())];
    let mut net = Network::mport_ntree(TreeParams::new(m, n).unwrap());
    let mut failed = Vec::new();
    if kind != RoutingKind::UpDown && one_in(rng, 3) {
        for _ in 0..1 + rng.below(3) {
            let i = pick(rng, net.links().len());
            failed.push(i);
            net.remove_link(i);
        }
    }
    let mut routed_for = String::new();
    let routing = if one_in(rng, 8) {
        let (m, n) = TREES[(tree + 1) % TREES.len()];
        Routing::build(&Network::mport_ntree(TreeParams::new(m, n).unwrap()), kind)
    } else if kind != RoutingKind::UpDown && one_in(rng, 8) {
        let mut other = Network::mport_ntree(net.params());
        let i = pick(rng, other.links().len());
        routed_for = format!(" failed [{i}]");
        other.remove_link(i);
        build_fault_tolerant(&other, kind)
    } else if failed.is_empty() {
        Routing::build(&net, kind)
    } else {
        build_fault_tolerant(&net, kind)
    };
    let about = format!(
        "FT({m},{n}) failed {failed:?}, {} routing for {}{routed_for}",
        kind.as_str(),
        routing.params()
    );
    (net, routing, about)
}

/// Usually valid, sometimes out of range: VLs 0..=16, buffers 0..=2,
/// packets 0..=512 bytes, and adaptive climbing.
fn config(rng: &mut TestRng) -> SimConfig {
    let num_vls = if one_in(rng, 8) {
        rng.below(17) as u8
    } else {
        1 + rng.below(4) as u8
    };
    let buffer_packets = if one_in(rng, 8) {
        rng.below(3) as u8
    } else {
        1 + rng.below(2) as u8
    };
    let packet_bytes = if one_in(rng, 10) {
        0
    } else {
        32 + rng.below(481) as u32
    };
    SimConfig {
        num_vls,
        buffer_packets,
        packet_bytes,
        adaptive_up: one_in(rng, 6),
        seed: rng.next_u64(),
        ..SimConfig::default()
    }
}

/// Uniform, a centric hot spot that may not exist or may not be a
/// probability, or a permutation that may have the wrong length.
fn pattern(rng: &mut TestRng, nodes: u32) -> TrafficPattern {
    match rng.below(4) {
        0 => TrafficPattern::Centric {
            hotspot: NodeId(rng.below(u64::from(nodes) + 2) as u32),
            fraction: [0.5, 1.0, 1.5, f64::NAN][pick(rng, 4)],
        },
        1 => {
            let len = if one_in(rng, 4) { nodes + 1 } else { nodes };
            TrafficPattern::Permutation(
                (0..len)
                    .map(|i| NodeId((i + 1 + rng.below(2) as u32) % (nodes + 1)))
                    .collect(),
            )
        }
        _ => TrafficPattern::Uniform,
    }
}

/// Usually a positive load up to 2; sometimes zero, negative, NaN,
/// infinite, or finite but past any packet budget.
fn load(rng: &mut TestRng) -> f64 {
    if one_in(rng, 6) {
        [0.0, -0.5, f64::NAN, f64::INFINITY, 1e300][pick(rng, 5)]
    } else {
        0.05 + 1.95 * rng.below(1000) as f64 / 1000.0
    }
}

/// A horizon of at most 20 µs; the warm-up may reach past it.
fn spec(rng: &mut TestRng, offered_load: f64) -> RunSpec {
    let sim_time_ns = if one_in(rng, 10) {
        0
    } else {
        1_000 + rng.below(19_001)
    };
    let warmup_ns = if one_in(rng, 8) {
        rng.below(sim_time_ns + 2_000)
    } else {
        sim_time_ns / 5
    };
    RunSpec {
        offered_load,
        sim_time_ns,
        warmup_ns,
    }
}

/// Empty two times in three; otherwise a seeded link kill, a switch
/// kill, or random events that may be out of order, out of range, or
/// kill what is already dead.
fn faults(rng: &mut TestRng, net: &Network, horizon: u64) -> FaultPlan {
    let at = rng.below(horizon.max(1));
    let mut plan = match rng.below(9) {
        0 => FaultPlan::kill_links_at(&FaultPlan::pick_links(net, 1, rng.next_u64()), at),
        1 => FaultPlan {
            events: vec![FaultEvent {
                at_ns: at,
                action: FaultAction::KillSwitch(pick(rng, net.num_switches()) as u32),
            }],
            ..FaultPlan::default()
        },
        2 => FaultPlan {
            events: (0..1 + rng.below(3))
                .map(|_| {
                    let id = rng.below(net.links().len() as u64 + 2) as u32;
                    let action = match rng.below(4) {
                        0 => FaultAction::KillLink(id),
                        1 => FaultAction::ReviveLink(id),
                        2 => FaultAction::KillSwitch(id),
                        _ => FaultAction::ReviveSwitch(id),
                    };
                    FaultEvent {
                        at_ns: rng.below(horizon.max(1)),
                        action,
                    }
                })
                .collect(),
            ..FaultPlan::default()
        },
        _ => FaultPlan::default(),
    };
    plan.policy = if one_in(rng, 2) {
        FaultPolicy::Stall
    } else {
        FaultPolicy::Drop
    };
    plan.detect_ns = rng.below(2_000);
    plan.per_switch_ns = rng.below(100);
    plan
}

/// A collective over the fabric's nodes, sometimes over the wrong node
/// count, or empty.
fn workload(rng: &mut TestRng, nodes: u32) -> Workload {
    let bytes = 1 + rng.below(1024);
    match rng.below(6) {
        0 => Workload::new(nodes),
        1 => generators::all_to_all(nodes * 2, bytes),
        2 | 3 => generators::allreduce_ring(nodes, bytes),
        _ => generators::all_to_all(nodes, bytes),
    }
}

#[test]
fn random_inputs_return_typed_errors_and_meet_every_check() {
    let mut seen = BTreeSet::new();
    for case in 0..CASES {
        let mut rng = TestRng::for_case("bad_input", case);
        let (net, routing, about) = fabric(&mut rng);
        let nodes = net.num_nodes() as u32;
        let mut cfg = config(&mut rng);
        let offered_load = load(&mut rng);
        let spec = spec(&mut rng, offered_load);
        cfg.faults = faults(&mut rng, &net, spec.sim_time_ns);
        let outcome = if one_in(&mut rng, 2) {
            let wl = workload(&mut rng, nodes);
            let what = format!("case {case}: workload on {about}\n{cfg:?}");
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_workload(&net, &routing, cfg, &wl, NoopProbe).map(|_| ())
            }));
            result.unwrap_or_else(|_| panic!("{what}"))
        } else {
            let pattern = pattern(&mut rng, nodes);
            let what = format!("case {case}: {pattern:?} {spec:?} on {about}\n{cfg:?}");
            let result = catch_unwind(AssertUnwindSafe(|| {
                run(&net, &routing, cfg, pattern, spec, NoopProbe).map(|_| ())
            }));
            result.unwrap_or_else(|_| panic!("{what}"))
        };
        match outcome {
            Ok(()) => {
                seen.insert("ok");
            }
            Err(e) => {
                seen.insert(check_of(&e));
            }
        }
    }
    let want: BTreeSet<&str> = [
        "ok",
        "config",
        "load",
        "warm-up",
        "routing-tree",
        "routing-uncabled",
        "packet-bound",
        "adaptive-degraded",
        "pattern",
        "fault-plan",
        "fault-updown",
        "workload",
        "uncabled",
        "workload-drop",
        "workload-switch-kill",
        "stalled",
    ]
    .into_iter()
    .collect();
    let missed: Vec<_> = want.difference(&seen).collect();
    assert!(missed.is_empty(), "checks never met: {missed:?}");
    assert!(!seen.contains("engine-invariant"), "{seen:?}");
}
