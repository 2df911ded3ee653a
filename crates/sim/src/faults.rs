//! Live fault injection: failures as *events* inside the packet engine.
//!
//! The static path (`ib-fabric`'s `with_failed`) rebuilds tables before
//! a run; nothing breaks mid-simulation. This module makes failures part
//! of the event stream instead:
//!
//! * a [`FaultPlan`] — an ordered schedule of link/switch kill and
//!   revive events, with seeded selection helpers — travels inside
//!   [`crate::SimConfig`] and is compiled once per run;
//! * compilation replays the subnet manager's reaction
//!   ([`ibfat_sm::SubnetManager::reconverge`]) fault by fault on the
//!   degraded network [`Network::without`] builds, producing for each
//!   event the dead-port masks (the base network's cabled ports minus
//!   the degraded one's), the SM's repaired row of every switch the fault
//!   patched, and the modeled reconvergence latency (detection +
//!   per-switch reprogramming);
//! * the engine schedules one `FaultApply` event at each fault instant
//!   and one `SwReprogram` event per patched switch, in ascending switch
//!   id, at the fault's reprogram time; each installs its row whole. The
//!   run reads the routing's own tables until the first reprogram lands
//!   and copies them then. Between a fault and its reprogram, the fabric
//!   forwards with *stale* tables: packets routed onto a dead port are
//!   dropped ([`FaultPolicy::Drop`]) or parked ([`FaultPolicy::Stall`])
//!   until the reprogram rescues them.
//!
//! Everything here is a pure function of `(network, routing kind,
//! plan)` — no clocks, no RNG at runtime — so a faulted run is as
//! reproducible per seed as an unfaulted one.
//!
//! The post-run [`DisruptionReport`] quantifies the damage: packets
//! lost/stalled/rerouted, per-fault reconvergence cost, MLID-vs-SLID
//! surviving `2^LMC` LID paths per pair on the degraded fabric, and the
//! per-level load imbalance against the healthy baseline (the routing
//! crate's all-to-all walker, over the pairs that route).

use crate::engine::Time;
use crate::json::{enum_from, enum_name, Codec, Json, JsonBuf, Obj};
use crate::metrics::SimReport;
use crate::SimError;
use ibfat_routing::{
    build_fault_tolerant, routable_all_to_all_loads, Lft, RepairState, Routing, RoutingKind,
};
use ibfat_sm::{ReconvergenceModel, SubnetManager};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum, SwitchId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeSet;

/// One scheduled change to the fabric's cabling. Link ids are indices
/// into the *healthy* base network's [`Network::links`] array (they
/// never shift, no matter how many links are currently dead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Cut one inter-switch cable.
    KillLink(u32),
    /// Power off a whole switch: every cable incident to it dies, and
    /// events targeting it are squelched.
    KillSwitch(u32),
    /// Re-cable a previously killed link.
    ReviveLink(u32),
    /// Power a killed switch back on (its incident links revive unless
    /// the far endpoint is itself a killed switch). Nodes attached to a
    /// killed leaf switch stop generating permanently — a revive
    /// restores forwarding through the switch, not the lost injection.
    ReviveSwitch(u32),
}

/// A fault action pinned to a simulation instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the fault fires (ns).
    pub at_ns: Time,
    /// What breaks (or heals).
    pub action: FaultAction,
}

/// What happens to a packet that meets a dead port before the SM has
/// reprogrammed the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Lossy fabric: arrivals over a dead cable and heads routed onto a
    /// dead port are discarded (counted in `fault_lost`).
    #[default]
    Drop,
    /// Nothing is lost at a dead port: heads routed onto one park in the
    /// input buffer until reprogramming re-routes them, and in-flight
    /// wire traffic still lands; backpressure does the rest. The fabric
    /// is not lossless, though: a packet already past its turn when its
    /// switch is reprogrammed can meet a repaired row with no entry for
    /// it (up\*/down\* cannot climb back), and is discarded like any
    /// no-entry packet — counted in `dropped`, not `fault_lost`.
    Stall,
}

/// A deterministic schedule of mid-run fabric failures.
///
/// The empty plan (the [`Default`]) disables the subsystem entirely —
/// the engine takes the exact pre-fault code paths.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Fault events, nondecreasing in `at_ns`.
    pub events: Vec<FaultEvent>,
    /// Dead-port packet treatment during the stale-table window.
    pub policy: FaultPolicy,
    /// SM detection latency (trap/sweep), paid once per fault.
    pub detect_ns: Time,
    /// SM per-switch LFT reprogramming latency.
    pub per_switch_ns: Time,
}

impl Default for FaultPlan {
    fn default() -> Self {
        let model = ReconvergenceModel::default();
        FaultPlan {
            events: Vec::new(),
            policy: FaultPolicy::Drop,
            detect_ns: model.detect_ns,
            per_switch_ns: model.per_switch_ns,
        }
    }
}

impl FaultPlan {
    /// No events — the engine runs exactly as without the subsystem.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A plan that kills the given base-net link indices at one instant.
    pub fn kill_links_at(links: &[u32], at_ns: Time) -> FaultPlan {
        FaultPlan {
            events: links
                .iter()
                .map(|&l| FaultEvent {
                    at_ns,
                    action: FaultAction::KillLink(l),
                })
                .collect(),
            ..FaultPlan::default()
        }
    }

    /// Pick `k` distinct inter-switch links of `net` by seeded RNG
    /// (partial Fisher–Yates over the inter-switch index list), for
    /// reproducible fault-scenario construction.
    pub fn pick_links(net: &Network, k: usize, seed: u64) -> Vec<u32> {
        let mut pool = net.inter_switch_link_indices();
        let k = k.min(pool.len());
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
            out.push(pool[i] as u32);
        }
        out
    }

    /// Check the plan against the base network: events must be sorted
    /// by time, ids in range, kills must hit live components and
    /// revives dead ones, and only inter-switch cables may be killed
    /// (a node's single cable dying is modeled by killing its leaf
    /// switch instead).
    pub fn validate(&self, net: &Network) -> Result<(), String> {
        if u64::from(net.params().m()) > 64 {
            return Err("fault plans support at most 64 ports per switch".into());
        }
        let inter: BTreeSet<u32> = net
            .inter_switch_link_indices()
            .into_iter()
            .map(|i| i as u32)
            .collect();
        let num_sw = net.num_switches() as u32;
        let mut killed_links: BTreeSet<u32> = BTreeSet::new();
        let mut killed_sws: BTreeSet<u32> = BTreeSet::new();
        let mut prev_at = 0;
        for (i, ev) in self.events.iter().enumerate() {
            if ev.at_ns < prev_at {
                return Err(format!("event {i} at {} ns is out of order", ev.at_ns));
            }
            prev_at = ev.at_ns;
            match ev.action {
                FaultAction::KillLink(l) => {
                    if !inter.contains(&l) {
                        return Err(format!("event {i}: link {l} is not an inter-switch link"));
                    }
                    if !killed_links.insert(l) {
                        return Err(format!("event {i}: link {l} is already dead"));
                    }
                }
                FaultAction::ReviveLink(l) => {
                    if !killed_links.remove(&l) {
                        return Err(format!("event {i}: link {l} is not dead"));
                    }
                }
                FaultAction::KillSwitch(s) => {
                    if s >= num_sw {
                        return Err(format!("event {i}: no switch {s}"));
                    }
                    if !killed_sws.insert(s) {
                        return Err(format!("event {i}: switch {s} is already dead"));
                    }
                }
                FaultAction::ReviveSwitch(s) => {
                    if !killed_sws.remove(&s) {
                        return Err(format!("event {i}: switch {s} is not dead"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-node injection cut-off times implied by the plan: a node
    /// stops generating the moment its leaf switch is killed
    /// (`u64::MAX` = never). A pure function of plan + topology.
    pub(crate) fn node_kill_times(&self, net: &Network) -> Vec<Time> {
        let mut kill = vec![Time::MAX; net.num_nodes()];
        for ev in &self.events {
            if let FaultAction::KillSwitch(s) = ev.action {
                for n in 0..net.num_nodes() as u32 {
                    if let Some(peer) = net.peer_of(DeviceRef::Node(NodeId(n)), PortNum(1)) {
                        if peer.device == DeviceRef::Switch(ibfat_topology::SwitchId(s)) {
                            let slot = &mut kill[n as usize];
                            *slot = (*slot).min(ev.at_ns);
                        }
                    }
                }
            }
        }
        kill
    }
}

const POLICIES: [(FaultPolicy, &str); 2] =
    [(FaultPolicy::Drop, "drop"), (FaultPolicy::Stall, "stall")];

impl FaultPolicy {
    /// `"drop"` or `"stall"`.
    pub fn name(self) -> &'static str {
        enum_name(&POLICIES, &self)
    }
}

impl FaultAction {
    /// The action's name (`"kill_link"`, …) and the link or switch id.
    pub fn parts(self) -> (&'static str, u32) {
        match self {
            FaultAction::KillLink(id) => ("kill_link", id),
            FaultAction::KillSwitch(id) => ("kill_switch", id),
            FaultAction::ReviveLink(id) => ("revive_link", id),
            FaultAction::ReviveSwitch(id) => ("revive_switch", id),
        }
    }

    /// Write the action as the `"action"` and `"id"` fields of an open
    /// object: `"action":"kill_link","id":3`.
    pub fn encode_fields(&self, j: &mut JsonBuf) {
        let (name, id) = self.parts();
        j.field_str("action", name);
        j.field_u64("id", u64::from(id));
    }

    /// Read the fields [`encode_fields`](FaultAction::encode_fields) wrote.
    pub fn decode_fields(o: &Obj) -> Result<FaultAction, String> {
        let id = o.int("id")?;
        match o.str("action")? {
            "kill_link" => Ok(FaultAction::KillLink(id)),
            "kill_switch" => Ok(FaultAction::KillSwitch(id)),
            "revive_link" => Ok(FaultAction::ReviveLink(id)),
            "revive_switch" => Ok(FaultAction::ReviveSwitch(id)),
            other => Err(format!("unknown fault action \"{other}\"")),
        }
    }
}

/// `{"at_ns":…,"action":…,"id":…}`.
impl Codec for FaultEvent {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_u64("at_ns", self.at_ns);
        self.action.encode_fields(j);
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("fault event")?;
        Ok(FaultEvent {
            at_ns: o.int("at_ns")?,
            action: FaultAction::decode_fields(&o)?,
        })
    }
}

impl FaultPlan {
    /// Write the plan as the `policy`, `detect_ns`, `per_switch_ns` and
    /// `events` fields of an open object (`ibfat faults --json` prints
    /// them at its top level).
    pub fn encode_fields(&self, j: &mut JsonBuf) {
        j.field_str("policy", self.policy.name());
        j.field_u64("detect_ns", self.detect_ns);
        j.field_u64("per_switch_ns", self.per_switch_ns);
        j.field("events", &self.events);
    }
}

impl Codec for FaultPlan {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        self.encode_fields(j);
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("fault plan")?;
        Ok(FaultPlan {
            events: o.decode("events")?,
            policy: enum_from(&POLICIES, o.field("policy")?, "policy")?,
            detect_ns: o.int("detect_ns")?,
            per_switch_ns: o.int("per_switch_ns")?,
        })
    }
}

/// One compiled fault: the engine state to install at `at`, and the
/// reprogramming to perform at `reprogram_at`.
#[derive(Debug, Clone)]
pub(crate) struct CompiledFault {
    /// The fault instant.
    pub(crate) at: Time,
    /// When the SM finishes reprogramming (`at + latency`, clamped
    /// nondecreasing across faults so overlapping reconvergences keep a
    /// deterministic apply order).
    pub(crate) reprogram_at: Time,
    /// Per-switch dead-port bitmask after this fault (bit `k` = 0-based
    /// port `k` is dead).
    pub(crate) sw_dead: Vec<u64>,
    /// Switches that are powered off after this fault.
    pub(crate) sw_killed: Vec<bool>,
    /// The SM's repaired row of every switch this fault patched, in
    /// ascending switch id: the row the reprogram installs whole.
    pub(crate) rows: Vec<(u32, Lft)>,
    /// Repair cost counters (for the report).
    pub(crate) switches_reprogrammed: usize,
    pub(crate) entries_patched: usize,
    pub(crate) table_entries: usize,
    /// Modeled detection + reprogramming latency.
    pub(crate) latency_ns: Time,
}

/// Compile a plan against the base network and routing. Pure and
/// deterministic; fails on a plan that is invalid for `net` or a routing
/// scheme without patch-level repair.
pub(crate) fn compile(
    net: &Network,
    routing: &Routing,
    plan: &FaultPlan,
) -> Result<Vec<CompiledFault>, SimError> {
    Ok(compile_full(net, routing, plan)?.0)
}

/// [`compile`], also returning the final degraded network and the final
/// repaired routing (what the fabric forwards with after the last
/// reprogram) for post-run analysis.
pub(crate) fn compile_full(
    net: &Network,
    routing: &Routing,
    plan: &FaultPlan,
) -> Result<(Vec<CompiledFault>, Network, Routing), SimError> {
    plan.validate(net).map_err(SimError::InvalidFaultPlan)?;
    let kind = routing.kind();
    if kind == RoutingKind::UpDown {
        return Err(SimError::InvalidFaultPlan(
            "fault plans require the MLID/SLID schemes (up*/down* has no patch-level \
             repair; model its damage with a degraded network instead)"
                .into(),
        ));
    }
    let num_sw = net.num_switches();
    let sm = SubnetManager::new(kind, NodeId(0));
    let model = ReconvergenceModel {
        detect_ns: plan.detect_ns,
        per_switch_ns: plan.per_switch_ns,
    };
    let mut state = RepairState::new(net);
    let base_masks = net.cabled_port_masks();
    let mut prev: Option<Routing> = None;
    let mut killed_links: BTreeSet<usize> = BTreeSet::new();
    let mut killed_sws: BTreeSet<u32> = BTreeSet::new();
    let mut floor: Time = 0;
    let mut faults = Vec::with_capacity(plan.events.len());
    let mut final_net = net.clone();
    for ev in &plan.events {
        match ev.action {
            FaultAction::KillLink(l) => {
                killed_links.insert(l as usize);
            }
            FaultAction::ReviveLink(l) => {
                killed_links.remove(&(l as usize));
            }
            FaultAction::KillSwitch(s) => {
                killed_sws.insert(s);
            }
            FaultAction::ReviveSwitch(s) => {
                killed_sws.remove(&s);
            }
        }
        let links: Vec<usize> = killed_links.iter().copied().collect();
        let switches: Vec<u32> = killed_sws.iter().copied().collect();
        let dnet = net.without(&links, &switches);
        let sw_dead = base_masks
            .iter()
            .zip(dnet.cabled_port_masks())
            .map(|(base, live)| base & !live)
            .collect();
        let sw_killed: Vec<bool> = (0..num_sw as u32)
            .map(|s| killed_sws.contains(&s))
            .collect();
        let rc = sm
            .reconverge(&dnet, prev.as_ref().unwrap_or(routing), &mut state, model)
            .expect("fat-tree reconvergence cannot fail for MLID/SLID");
        let mut patched: Vec<SwitchId> = rc.patches.iter().map(|p| p.sw).collect();
        patched.sort_unstable();
        patched.dedup();
        let reprogram_at = floor.max(ev.at_ns.saturating_add(rc.latency_ns));
        floor = reprogram_at;
        faults.push(CompiledFault {
            at: ev.at_ns,
            reprogram_at,
            sw_dead,
            sw_killed,
            rows: patched
                .into_iter()
                .map(|sw| (sw.0, rc.routing.lft(sw).clone()))
                .collect(),
            switches_reprogrammed: rc.stats.switches_reprogrammed,
            entries_patched: rc.stats.entries_patched,
            table_entries: rc.stats.table_entries,
            latency_ns: rc.latency_ns,
        });
        final_net = dnet;
        prev = Some(rc.routing);
    }
    let final_routing = prev.unwrap_or_else(|| routing.clone());
    Ok((faults, final_net, final_routing))
}

/// The engine's live fault state. Present (boxed off the hot-struct
/// body) exactly when the run has a non-empty plan; every guard in the
/// packet engine is behind `faults.is_some()`.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Dead-port treatment.
    pub(crate) policy: FaultPolicy,
    /// Per-node injection cut-off (`u64::MAX` = never).
    pub(crate) node_kill: Vec<Time>,
    /// The compiled schedule.
    pub(crate) faults: Vec<CompiledFault>,
    /// Live dead-port masks (updated by `FaultApply`).
    pub(crate) sw_dead: Vec<u64>,
    /// Live killed-switch flags (updated by `FaultApply`).
    pub(crate) sw_killed: Vec<bool>,
    /// Packets discarded because of a fault (dead-port arrivals and
    /// dead-port routing under [`FaultPolicy::Drop`]).
    pub(crate) lost: u64,
    /// Heads parked on a dead port under [`FaultPolicy::Stall`].
    pub(crate) stalled: u64,
    /// Parked heads re-routed by an SM reprogram.
    pub(crate) rerouted: u64,
}

impl FaultState {
    pub(crate) fn new(net: &Network, plan: &FaultPlan, faults: Vec<CompiledFault>) -> Self {
        FaultState {
            policy: plan.policy,
            node_kill: plan.node_kill_times(net),
            faults,
            sw_dead: vec![0; net.num_switches()],
            sw_killed: vec![false; net.num_switches()],
            lost: 0,
            stalled: 0,
            rerouted: 0,
        }
    }
}

// ---------------------------------------------------------------------
// DisruptionReport: post-run damage assessment
// ---------------------------------------------------------------------

/// Per-fault reconvergence summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSummary {
    /// The fault instant (ns).
    pub at_ns: Time,
    /// What happened.
    pub action: FaultAction,
    /// When the SM finished reprogramming (ns).
    pub reprogram_at_ns: Time,
    /// Modeled detection + reprogramming latency (ns).
    pub reconvergence_ns: Time,
    /// Switches whose tables changed.
    pub switches_reprogrammed: usize,
    /// Individual `(switch, LID)` entries patched.
    pub entries_patched: usize,
    /// Total entry slots a full rebuild would reprogram.
    pub table_entries: usize,
}

/// Surviving `2^LMC` LID paths per ordered node pair on the degraded
/// fabric, under one scheme's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSurvival {
    /// Routing scheme the tables follow.
    pub kind: RoutingKind,
    /// LIDs per node (`2^LMC`).
    pub lids_per_node: u32,
    /// Ordered `(src, dst)` pairs examined (`N·(N−1)`).
    pub pairs: u64,
    /// Sum over pairs of the LIDs that still trace to delivery.
    pub surviving_paths: u64,
    /// The worst pair's surviving-path count.
    pub min_per_pair: u32,
    /// Pairs with zero surviving paths (disconnected under the scheme).
    pub disconnected_pairs: u64,
}

impl PathSurvival {
    /// Mean surviving paths per pair.
    pub fn avg_per_pair(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.surviving_paths as f64 / self.pairs as f64
        }
    }
}

/// All-to-all load of one inter-switch tier (links between levels
/// `level` and `level + 1`), healthy vs degraded. Loads count directed
/// traversals of an all-to-all trace under the scheme's paper path
/// selection; pairs left unroutable by the faults are skipped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelLoad {
    /// Upper level of the tier (0 = root tier).
    pub level: u32,
    /// Hottest directed channel on the healthy fabric.
    pub healthy_max: u32,
    /// Mean directed-channel load on the healthy fabric.
    pub healthy_mean: f64,
    /// Hottest directed channel on the degraded fabric.
    pub degraded_max: u32,
    /// Mean over the *surviving* directed channels of the tier.
    pub degraded_mean: f64,
}

/// What a faulted run did to the fabric: engine loss/stall counters,
/// per-fault reconvergence cost, surviving multipath (MLID's headline
/// claim vs the SLID baseline), and per-level load imbalance.
#[derive(Debug, Clone, PartialEq)]
pub struct DisruptionReport {
    /// Per-fault reconvergence summaries, in schedule order.
    pub faults: Vec<FaultSummary>,
    /// Packets discarded because of a fault.
    pub packets_lost: u64,
    /// Heads that parked on a dead port (Stall policy).
    pub packets_stalled: u64,
    /// Parked heads re-routed by SM reprogramming.
    pub packets_rerouted: u64,
    /// Sum of the per-fault reconvergence latencies (ns).
    pub total_reconvergence_ns: Time,
    /// Surviving LID paths under the run's scheme.
    pub survival: PathSurvival,
    /// Surviving LID paths under SLID tables on the same degraded
    /// fabric — the single-path baseline the paper argues against.
    pub slid_survival: PathSurvival,
    /// Per-tier load, healthy vs degraded.
    pub level_loads: Vec<LevelLoad>,
}

/// Count, for every ordered pair, how many of the destination's
/// `2^LMC` LIDs still trace to delivery on `net` under `routing`.
///
/// Forwarding ignores the in-port, so once a packet is past its
/// source's own cable its path depends only on the switch it lands on
/// and its DLID. Each DLID is therefore walked once per landing switch,
/// from one representative source; a source with no cable has no paths.
fn survival_of(net: &Network, routing: &Routing) -> PathSurvival {
    let space = routing.lid_space();
    let lids_per_node = space.lids_per_node();
    let n = net.num_nodes();
    // Per source, the index of its landing group; per group, a
    // representative source. A cable into another node (not cabled in a
    // fat tree) gets a group of its own.
    let mut group_of_switch: Vec<Option<usize>> = vec![None; net.num_switches()];
    let mut reps: Vec<NodeId> = Vec::new();
    let group_of: Vec<Option<usize>> = (0..n as u32)
        .map(|src| {
            let peer = net.peer_of(DeviceRef::Node(NodeId(src)), PortNum(1))?;
            let slot = match peer.device {
                DeviceRef::Switch(sw) => &mut group_of_switch[sw.index()],
                DeviceRef::Node(_) => &mut None,
            };
            Some(*slot.get_or_insert_with(|| {
                reps.push(NodeId(src));
                reps.len() - 1
            }))
        })
        .collect();
    // live[g * n + dst]: the LIDs of `dst` that deliver from group `g`.
    let mut live = vec![0u32; reps.len() * n];
    for (g, &rep) in reps.iter().enumerate() {
        for dst in 0..n {
            live[g * n + dst] = space
                .lids(NodeId(dst as u32))
                .filter(|&lid| routing.walk(net, rep, lid, |_| {}).is_ok())
                .count() as u32;
        }
    }
    let mut surviving = 0u64;
    let mut min_per_pair = lids_per_node;
    let mut disconnected = 0u64;
    for (src, group) in group_of.iter().enumerate() {
        for dst in (0..n).filter(|&dst| dst != src) {
            let paths = group.map_or(0, |g| live[g * n + dst]);
            surviving += u64::from(paths);
            min_per_pair = min_per_pair.min(paths);
            if paths == 0 {
                disconnected += 1;
            }
        }
    }
    let n = n as u64;
    PathSurvival {
        kind: routing.kind(),
        lids_per_node,
        pairs: n * n.saturating_sub(1),
        surviving_paths: surviving,
        min_per_pair,
        disconnected_pairs: disconnected,
    }
}

/// Directed per-channel all-to-all loads over the inter-switch links,
/// folded per tier: `(per-tier max, per-tier sum, per-tier channels)`.
/// Unroutable pairs are skipped (the degraded fabric may have them).
fn tier_loads(net: &Network, routing: &Routing) -> (Vec<u32>, Vec<u64>, Vec<u64>) {
    let params = net.params();
    let tiers = (params.n() as usize).saturating_sub(1).max(1);
    let loads = routable_all_to_all_loads(net, routing);
    let mut max = vec![0u32; tiers];
    let mut sum = vec![0u64; tiers];
    let mut count = vec![0u64; tiers];
    for link in net.links() {
        for (a, b) in [(link.a, link.b), (link.b, link.a)] {
            let (DeviceRef::Switch(sa), DeviceRef::Switch(sb)) = (a.device, b.device) else {
                continue;
            };
            let tier = params
                .switch_level_of(sa.0)
                .min(params.switch_level_of(sb.0)) as usize;
            let load = loads.load_of(a.device, a.port);
            max[tier] = max[tier].max(load);
            sum[tier] += u64::from(load);
            count[tier] += 1;
        }
    }
    (max, sum, count)
}

/// Assemble the post-run [`DisruptionReport`] for a faulted run: engine
/// counters come from `report`, everything else is recomputed from the
/// plan (compilation is cheap and pure, so this needs no state carried
/// out of the engine).
///
/// # Panics
/// Panics with the [`SimError::InvalidFaultPlan`] text if the plan is
/// invalid for `net` or `routing` is up*/down* — the conditions under
/// which [`crate::run`] already refused to run it.
pub fn disruption_report(
    net: &Network,
    routing: &Routing,
    plan: &FaultPlan,
    report: &SimReport,
) -> DisruptionReport {
    let (compiled, final_net, final_routing) =
        compile_full(net, routing, plan).unwrap_or_else(|e| panic!("{e}"));
    let faults: Vec<FaultSummary> = compiled
        .iter()
        .zip(&plan.events)
        .map(|(cf, ev)| FaultSummary {
            at_ns: cf.at,
            action: ev.action,
            reprogram_at_ns: cf.reprogram_at,
            reconvergence_ns: cf.latency_ns,
            switches_reprogrammed: cf.switches_reprogrammed,
            entries_patched: cf.entries_patched,
            table_entries: cf.table_entries,
        })
        .collect();
    let survival = survival_of(&final_net, &final_routing);
    let slid_survival = if routing.kind() == RoutingKind::Slid {
        survival.clone()
    } else {
        let slid = build_fault_tolerant(&final_net, RoutingKind::Slid);
        survival_of(&final_net, &slid)
    };
    let (h_max, h_sum, h_count) = tier_loads(net, routing);
    let (d_max, d_sum, d_count) = tier_loads(&final_net, &final_routing);
    let level_loads = (0..h_max.len())
        .map(|t| LevelLoad {
            level: t as u32,
            healthy_max: h_max[t],
            healthy_mean: if h_count[t] == 0 {
                0.0
            } else {
                h_sum[t] as f64 / h_count[t] as f64
            },
            degraded_max: d_max[t],
            degraded_mean: if d_count[t] == 0 {
                0.0
            } else {
                d_sum[t] as f64 / d_count[t] as f64
            },
        })
        .collect();
    DisruptionReport {
        faults,
        packets_lost: report.fault_lost,
        packets_stalled: report.fault_stalled,
        packets_rerouted: report.fault_rerouted,
        total_reconvergence_ns: compiled.iter().map(|f| f.latency_ns).sum(),
        survival,
        slid_survival,
        level_loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfat_topology::TreeParams;

    fn net(m: u32, n: u32) -> Network {
        Network::mport_ntree(TreeParams::new(m, n).unwrap())
    }

    #[test]
    fn pick_links_is_seed_stable_and_distinct() {
        let net = net(4, 3);
        let a = FaultPlan::pick_links(&net, 5, 42);
        let b = FaultPlan::pick_links(&net, 5, 42);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "picks must be distinct");
        let inter = net.inter_switch_link_indices();
        for l in &a {
            assert!(inter.contains(&(*l as usize)));
        }
        assert_ne!(a, FaultPlan::pick_links(&net, 5, 43));
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let net = net(4, 2);
        let node_link = (0..net.links().len() as u32)
            .find(|&i| {
                let l = net.links()[i as usize];
                matches!(l.a.device, DeviceRef::Node(_)) || matches!(l.b.device, DeviceRef::Node(_))
            })
            .unwrap();
        let inter = net.inter_switch_link_indices()[0] as u32;
        let cases: Vec<Vec<FaultEvent>> = vec![
            // node link
            vec![FaultEvent {
                at_ns: 10,
                action: FaultAction::KillLink(node_link),
            }],
            // out of order
            vec![
                FaultEvent {
                    at_ns: 20,
                    action: FaultAction::KillLink(inter),
                },
                FaultEvent {
                    at_ns: 10,
                    action: FaultAction::KillSwitch(0),
                },
            ],
            // double kill
            vec![
                FaultEvent {
                    at_ns: 10,
                    action: FaultAction::KillLink(inter),
                },
                FaultEvent {
                    at_ns: 20,
                    action: FaultAction::KillLink(inter),
                },
            ],
            // revive of a live link
            vec![FaultEvent {
                at_ns: 10,
                action: FaultAction::ReviveLink(inter),
            }],
            // bad switch id
            vec![FaultEvent {
                at_ns: 10,
                action: FaultAction::KillSwitch(10_000),
            }],
        ];
        for events in cases {
            let plan = FaultPlan {
                events: events.clone(),
                ..FaultPlan::default()
            };
            assert!(plan.validate(&net).is_err(), "{events:?} must be rejected");
        }
        let ok = FaultPlan {
            events: vec![
                FaultEvent {
                    at_ns: 10,
                    action: FaultAction::KillLink(inter),
                },
                FaultEvent {
                    at_ns: 30,
                    action: FaultAction::ReviveLink(inter),
                },
            ],
            ..FaultPlan::default()
        };
        ok.validate(&net).unwrap();
    }

    #[test]
    fn compile_matches_from_scratch_tables_including_revive() {
        let net = net(4, 3);
        let inter = net.inter_switch_link_indices();
        let (l0, l1) = (inter[2] as u32, inter[9] as u32);
        for kind in [RoutingKind::Mlid, RoutingKind::Slid] {
            let routing = Routing::build(&net, kind);
            let plan = FaultPlan {
                events: vec![
                    FaultEvent {
                        at_ns: 1_000,
                        action: FaultAction::KillLink(l0),
                    },
                    FaultEvent {
                        at_ns: 2_000,
                        action: FaultAction::KillLink(l1),
                    },
                    FaultEvent {
                        at_ns: 3_000,
                        action: FaultAction::ReviveLink(l0),
                    },
                ],
                ..FaultPlan::default()
            };
            let (rt, final_net, final_routing) = compile_full(&net, &routing, &plan).unwrap();
            assert_eq!(rt.len(), 3);
            // Final fabric: only l1 dead.
            let expect_net = net.without(&[l1 as usize], &[]);
            assert_eq!(final_net.links().len(), expect_net.links().len());
            let full = build_fault_tolerant(&expect_net, kind);
            assert_eq!(
                final_routing.lfts(),
                full.lfts(),
                "{kind}: chained repair after revive != from-scratch build"
            );
            // The revive restored table state: the last fault patched
            // something back, and its rows, ascending by switch, are the
            // final tables' rows.
            assert!(!rt[2].rows.is_empty());
            assert!(rt[2].rows.windows(2).all(|w| w[0].0 < w[1].0));
            for (sw, row) in &rt[2].rows {
                assert_eq!(row, final_routing.lft(SwitchId(*sw)), "{kind}: S{sw}");
            }
            // Reprogram times are nondecreasing and strictly after the fault.
            let mut prev = 0;
            for f in &rt {
                assert!(f.reprogram_at >= f.at + plan.detect_ns);
                assert!(f.reprogram_at >= prev);
                prev = f.reprogram_at;
            }
        }
    }

    #[test]
    fn switch_kill_deadens_incident_ports_and_nodes() {
        let net = net(4, 2);
        // Switch at the leaf level (level n-1 = 1) owns nodes.
        let leaf = (0..net.num_switches() as u32)
            .find(|&s| net.params().switch_level_of(s) == 1)
            .unwrap();
        let plan = FaultPlan {
            events: vec![FaultEvent {
                at_ns: 500,
                action: FaultAction::KillSwitch(leaf),
            }],
            ..FaultPlan::default()
        };
        let kills = plan.node_kill_times(&net);
        let killed_nodes = kills.iter().filter(|&&t| t == 500).count();
        assert_eq!(killed_nodes, net.params().half() as usize);
        assert!(kills.iter().all(|&t| t == 500 || t == Time::MAX));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let rt = compile(&net, &routing, &plan).unwrap();
        let cf = &rt[0];
        assert!(cf.sw_killed[leaf as usize]);
        // Every port of the killed switch is dead, and so is the
        // matching far-end port of each switch peer.
        assert_eq!(
            cf.sw_dead[leaf as usize].count_ones(),
            net.switch(ibfat_topology::SwitchId(leaf)).peers().count() as u32
        );
        for (port, peer) in net.switch(ibfat_topology::SwitchId(leaf)).peers() {
            let _ = port;
            if let DeviceRef::Switch(s) = peer.device {
                assert_ne!(cf.sw_dead[s.index()] & (1 << (peer.port.0 - 1)), 0);
            }
        }
    }

    #[test]
    fn disruption_report_contrasts_mlid_and_slid_survival() {
        let base = net(4, 3);
        let routing = Routing::build(&base, RoutingKind::Mlid);
        let kill = FaultPlan::pick_links(&base, 2, 7);
        let plan = FaultPlan::kill_links_at(&kill, 1_000);
        let report = SimReport::default();
        let d = disruption_report(&base, &routing, &plan, &report);
        assert_eq!(d.faults.len(), 2);
        assert_eq!(d.survival.kind, RoutingKind::Mlid);
        assert_eq!(d.slid_survival.kind, RoutingKind::Slid);
        let n = base.num_nodes() as u64;
        assert_eq!(d.survival.pairs, n * (n - 1));
        // MLID exposes 2^LMC paths per pair; SLID always exactly one.
        assert_eq!(d.survival.lids_per_node, base.params().lids_per_node());
        assert_eq!(d.slid_survival.lids_per_node, 1);
        assert!(d.survival.surviving_paths > d.slid_survival.surviving_paths);
        // Two dead links cannot disconnect FT(4,3) under repair.
        assert_eq!(d.survival.disconnected_pairs, 0);
        assert_eq!(d.slid_survival.disconnected_pairs, 0);
        assert!(d.survival.min_per_pair >= 1);
        // Tier loads: n-1 = 2 tiers, healthy means positive.
        assert_eq!(d.level_loads.len(), 2);
        for t in &d.level_loads {
            assert!(t.healthy_mean > 0.0);
            assert!(t.degraded_max >= 1);
        }
        assert_eq!(
            d.total_reconvergence_ns,
            d.faults.iter().map(|f| f.reconvergence_ns).sum()
        );
    }
}
