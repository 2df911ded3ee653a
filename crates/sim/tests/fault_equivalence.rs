//! The fault subsystem's determinism contract.
//!
//! Mid-run fault injection must not cost the engine its headline
//! guarantee: a faulted run — link kills, switch kills, revives, under
//! either dead-port policy — is reproducible per seed, conserves
//! packets, and (for the pinned scenarios below) reports exactly the
//! numbers recorded when the fault subsystem was last verified against
//! an independent engine.

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{
    disruption_report, generators, run_once, run_workload, FaultAction, FaultEvent, FaultPlan,
    FaultPolicy, RunSpec, SimConfig, SimReport, TrafficPattern,
};
use ibfat_topology::{Network, TreeParams};
use proptest::prelude::*;

fn normalized(mut r: SimReport) -> SimReport {
    r.events_per_sec = 0.0;
    r.packets_per_sec = 0.0;
    r
}

/// The counters a pinned scenario fixes: `[total_generated,
/// total_delivered, delivered, dropped, fault_lost, fault_stalled,
/// fault_rerouted, events_processed]`.
const PIN_LINK_KILL: [u64; 8] = [2624, 1820, 1405, 33, 31, 0, 0, 51943];
const PIN_STALL: [u64; 8] = [2626, 2088, 1665, 11, 0, 14, 14, 59584];
const PIN_SWITCH_KILL: [u64; 8] = [2247, 1904, 1509, 21, 21, 0, 0, 52925];
/// `(makespan_ns, events)` of the workload-through-failure run.
const PIN_WORKLOAD: (u64, u64) = (13868, 3128);

fn pin(r: &SimReport) -> [u64; 8] {
    [
        r.total_generated,
        r.total_delivered,
        r.delivered,
        r.dropped,
        r.fault_lost,
        r.fault_stalled,
        r.fault_rerouted,
        r.events_processed,
    ]
}

/// Every generated packet is delivered, dropped, or still in flight.
fn assert_conserved(r: &SimReport) {
    assert_eq!(
        r.total_generated,
        r.total_delivered + r.dropped + r.in_flight_at_end,
        "packet conservation violated: {r:?}"
    );
    assert!(r.fault_lost <= r.dropped, "fault losses are drops");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded link kills mid-run, both policies, optional revival of
    /// the first casualty: the run carries traffic, conserves packets,
    /// loses none under the lossless policy, and reproduces its report
    /// bit for bit.
    #[test]
    fn faulted_runs_conserve_packets_and_reproduce(
        (m, n) in prop_oneof![Just((4u32, 2u32)), Just((4, 3)), Just((8, 2))],
        k in 1usize..=3,
        seed in any::<u64>(),
        policy in prop_oneof![Just(FaultPolicy::Drop), Just(FaultPolicy::Stall)],
        revive in any::<bool>(),
    ) {
        let params = TreeParams::new(m, n).expect("valid params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let kill = FaultPlan::pick_links(&net, k, seed);
        let mut plan = FaultPlan::kill_links_at(&kill, 8_000);
        plan.policy = policy;
        // Fast reconvergence, so the reprogram (patch + rescue) path
        // lands inside the horizon.
        plan.detect_ns = 1_000;
        plan.per_switch_ns = 50;
        if revive {
            plan.events.push(FaultEvent {
                at_ns: 20_000,
                action: FaultAction::ReviveLink(kill[0]),
            });
        }
        plan.validate(&net).expect("plan must be legal");
        let cfg = SimConfig {
            num_vls: 2,
            seed,
            faults: plan,
            ..SimConfig::default()
        };
        let spec = RunSpec::new(0.5, 30_000);
        let seq = normalized(run_once(
            &net, &routing, cfg.clone(), TrafficPattern::Uniform, spec,
        ));
        prop_assert!(seq.delivered > 0, "the faulted run must carry traffic");
        assert_conserved(&seq);
        if policy == FaultPolicy::Stall {
            prop_assert_eq!(seq.fault_lost, 0, "the lossless policy must not drop");
        }
        let again = normalized(run_once(
            &net, &routing, cfg, TrafficPattern::Uniform, spec,
        ));
        prop_assert_eq!(&again, &seq, "a faulted run must reproduce per seed");
    }
}

/// The acceptance fixed point, pinned: a mid-run double link kill on
/// FT(4,3) under the Drop policy actually loses packets, and the engine
/// counters and the derived `DisruptionReport` match the pinned run.
#[test]
fn pinned_link_kill_disruption() {
    let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let kill = FaultPlan::pick_links(&net, 2, 0xFA_017);
    let mut plan = FaultPlan::kill_links_at(&kill, 10_000);
    plan.detect_ns = 2_000;
    plan.per_switch_ns = 100;
    let cfg = SimConfig {
        num_vls: 2,
        seed: 0xFA_017,
        faults: plan.clone(),
        ..SimConfig::default()
    };
    let spec = RunSpec::new(0.7, 60_000);
    let seq = normalized(run_once(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
    ));
    assert!(
        seq.fault_lost > 0,
        "a dead cable under load must drop packets"
    );
    let seq_disruption = disruption_report(&net, &routing, &plan, &seq);
    assert_eq!(seq_disruption.packets_lost, seq.fault_lost);
    assert_eq!(seq_disruption.faults.len(), 2);
    assert!(seq_disruption.survival.surviving_paths > seq_disruption.slid_survival.surviving_paths);
    assert_conserved(&seq);
    assert_eq!(pin(&seq), PIN_LINK_KILL);
}

/// The Stall policy parks heads instead of dropping them, and SM
/// reprogramming rescues the parked heads — all deterministically.
#[test]
fn pinned_stall_policy_rescues_parked_heads() {
    let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let kill = FaultPlan::pick_links(&net, 2, 7);
    let mut plan = FaultPlan::kill_links_at(&kill, 10_000);
    plan.policy = FaultPolicy::Stall;
    plan.detect_ns = 2_000;
    plan.per_switch_ns = 100;
    let cfg = SimConfig {
        num_vls: 2,
        seed: 7,
        faults: plan,
        ..SimConfig::default()
    };
    let spec = RunSpec::new(0.7, 60_000);
    let seq = normalized(run_once(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
    ));
    assert_eq!(seq.fault_lost, 0, "the lossless policy must not drop");
    assert!(seq.fault_stalled > 0, "heads must park on the dead ports");
    assert!(
        seq.fault_rerouted > 0,
        "SM reprogramming must rescue parked heads"
    );
    assert_conserved(&seq);
    assert_eq!(pin(&seq), PIN_STALL);
}

/// Killing a whole switch mid-run (and powering it back on later) is
/// the harshest global event — every incident cable dies at once and
/// in-flight events at the switch are squelched.
#[test]
fn pinned_switch_kill_and_revive() {
    let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    // A root switch: no attached nodes, so injection is unaffected and
    // the damage is purely forwarding capacity.
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                at_ns: 10_000,
                action: FaultAction::KillSwitch(0),
            },
            FaultEvent {
                at_ns: 30_000,
                action: FaultAction::ReviveSwitch(0),
            },
        ],
        detect_ns: 2_000,
        per_switch_ns: 100,
        ..FaultPlan::default()
    };
    plan.validate(&net).expect("plan must be legal");
    let cfg = SimConfig {
        num_vls: 2,
        seed: 0xDEAD,
        faults: plan,
        ..SimConfig::default()
    };
    let spec = RunSpec::new(0.6, 60_000);
    let seq = normalized(run_once(
        &net,
        &routing,
        cfg.clone(),
        TrafficPattern::Uniform,
        spec,
    ));
    assert!(seq.delivered > 0);
    assert_conserved(&seq);
    assert_eq!(pin(&seq), PIN_SWITCH_KILL);
}

/// A collective running *through* a link failure: the Stall policy is
/// lossless, so the workload DAG completes on the repaired tables, at
/// the pinned makespan.
#[test]
fn workload_completes_through_link_failure() {
    let net = Network::mport_ntree(TreeParams::new(4, 2).expect("valid params"));
    let nodes = net.num_nodes() as u32;
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let kill = FaultPlan::pick_links(&net, 1, 3);
    let mut plan = FaultPlan::kill_links_at(&kill, 5_000);
    plan.policy = FaultPolicy::Stall;
    plan.detect_ns = 2_000;
    plan.per_switch_ns = 100;
    let cfg = SimConfig {
        num_vls: 2,
        seed: 3,
        faults: plan,
        ..SimConfig::default()
    };
    let wl = generators::allreduce_ring(nodes, 4096);
    let seq = run_workload(&net, &routing, cfg.clone(), &wl);
    assert_eq!(
        seq.messages as usize,
        wl.messages.len(),
        "the DAG must complete despite the mid-run failure"
    );
    assert_eq!(
        (seq.makespan_ns, seq.events),
        PIN_WORKLOAD,
        "pinned workload run moved"
    );
}

/// An empty plan is the engine's pre-fault fast path: a run with
/// `FaultPlan::default()` equals a run built before the subsystem
/// existed (no counters move, no events are scheduled).
#[test]
fn empty_plan_is_inert() {
    let net = Network::mport_ntree(TreeParams::new(4, 2).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let spec = RunSpec::new(0.4, 30_000);
    let base = SimConfig {
        seed: 11,
        ..SimConfig::default()
    };
    let plain = normalized(run_once(
        &net,
        &routing,
        base.clone(),
        TrafficPattern::Uniform,
        spec,
    ));
    let with_empty = normalized(run_once(
        &net,
        &routing,
        SimConfig {
            faults: FaultPlan::default(),
            ..base
        },
        TrafficPattern::Uniform,
        spec,
    ));
    assert_eq!(with_empty, plain);
    assert_eq!(plain.fault_lost, 0);
    assert_eq!(plain.fault_stalled, 0);
    assert_eq!(plain.fault_rerouted, 0);
}
