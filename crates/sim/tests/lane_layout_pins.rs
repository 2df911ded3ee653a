//! Exact FT(4,3) reports for the engine paths the cap-1 golden figure
//! CSVs never reach: deep buffers arbitrated over four VLs, adaptive
//! upward routing, and the Stall fault policy, whose SM
//! reprogramming removes parked heads from the middle of a waiter
//! queue.
//!
//! The numbers pin the behaviour of the per-(port, VL) buffer layout:
//! any change to how lanes are stored must reproduce them bit for bit.

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{
    run, FaultAction, FaultEvent, FaultPlan, FaultPolicy, NoopProbe, RunSpec, SimConfig, SimReport,
    TrafficPattern,
};
use ibfat_topology::{Network, TreeParams};

/// `(events_processed, delivered, total_delivered, out_of_order, mean
/// latency bits, fault_lost, fault_stalled, fault_rerouted)`.
type Pin = (u64, u64, u64, u64, u64, u64, u64, u64);

fn pin(r: &SimReport) -> Pin {
    (
        r.events_processed,
        r.delivered,
        r.total_delivered,
        r.out_of_order,
        r.latency.mean().to_bits(),
        r.fault_lost,
        r.fault_stalled,
        r.fault_rerouted,
    )
}

fn ft43_run(cfg: SimConfig, pattern: TrafficPattern, load: f64) -> SimReport {
    let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    run(
        &net,
        &routing,
        cfg,
        pattern,
        RunSpec::new(load, 40_000),
        NoopProbe,
    )
    .unwrap()
    .0
}

#[test]
fn deep_buffers_under_round_robin_vl4_arbitration() {
    let cfg = SimConfig {
        num_vls: 4,
        buffer_packets: 4,
        seed: 0xB0FF,
        ..SimConfig::default()
    };
    let got = pin(&ft43_run(cfg, TrafficPattern::Uniform, 0.8));
    assert_eq!(got, PIN_DEEP_VL4);
}

#[test]
fn adaptive_upward_routing() {
    let cfg = SimConfig {
        num_vls: 2,
        buffer_packets: 2,
        adaptive_up: true,
        seed: 0xADA,
        ..SimConfig::default()
    };
    let got = pin(&ft43_run(cfg, TrafficPattern::Uniform, 0.7));
    assert_eq!(got, PIN_ADAPTIVE);
}

#[test]
fn stall_policy_reprogram_rescues_parked_heads() {
    let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
    let kill = FaultPlan::pick_links(&net, 3, 5);
    let mut plan = FaultPlan::kill_links_at(&kill, 8_000);
    plan.policy = FaultPolicy::Stall;
    plan.detect_ns = 1_500;
    plan.per_switch_ns = 50;
    // Reviving a killed link makes its port grant from its waiter queue
    // again, so a rescued head left behind in that queue would show.
    for &link in &kill {
        plan.events.push(FaultEvent {
            at_ns: 20_000,
            action: FaultAction::ReviveLink(link),
        });
    }
    let cfg = SimConfig {
        num_vls: 2,
        buffer_packets: 2,
        seed: 5,
        faults: plan,
        ..SimConfig::default()
    };
    let got = pin(&ft43_run(cfg, TrafficPattern::Uniform, 0.9));
    assert!(
        got.6 > 0 && got.7 > 0,
        "the plan must park and rescue heads"
    );
    assert_eq!(got, PIN_STALL);
}

// Recorded on the engine whose arbiter walked a `(vl, weight)` table,
// at every weight one.
const PIN_DEEP_VL4: Pin = (51809, 1602, 1921, 0, 4654922002118887520, 0, 0, 0);
// Recorded on the `Vec<Vec<SwPort>>` / per-lane `VecDeque` engine that
// the flat lane arrays replaced.
const PIN_ADAPTIVE: Pin = (45805, 1400, 1687, 0, 4653621605567732572, 0, 0, 0);
const PIN_STALL: Pin = (51550, 1503, 1843, 10, 4662103602676846645, 0, 23, 23);
