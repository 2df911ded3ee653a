//! The workload seam: driving a message DAG to completion.
//!
//! A [`Workload`] (from `ibfat-workload`) is a DAG of multi-packet
//! messages. This module owns its runtime state and the three hook
//! points the packet engine calls:
//!
//! * **Arm** — [`Ev::WlArm`](crate::sim::Ev) fires at a message's source
//!   node once per satisfied dependency (roots get one priming arm at
//!   t=0). When the last dependency lands, the message is *segmented*:
//!   `ceil(bytes / packet_bytes)` packets are materialized into the
//!   node's per-VL source queues and the normal injection machinery
//!   takes over.
//! * **Inject** — the first packet of a message leaving the endport
//!   stamps `injected_ns`.
//! * **Complete** — the delivery of a message's last packet stamps
//!   `completed_ns` and schedules a `WlArm` for every dependent, one
//!   wire flight later. The flight models the completion notification
//!   crossing the wire.
//!
//! Workload mode consumes **no runtime randomness**: closed-loop
//! destination draws happen at workload build time, and the per-packet
//! `Random` path/VL choices map to a deterministic hash of
//! `(seed, message, packet)`.

use crate::config::FLY_TIME_NS;
use crate::engine::Time;
use crate::packet::{Packet, PacketId};
use crate::probe::Probe;
use crate::sim::{Ev, Simulator};
use crate::{PathSelection, RunSpec, SimError, TrafficPattern, VlAssignment};
use ibfat_routing::Routing;
use ibfat_topology::Network;
pub use ibfat_workload::{MessageTiming, Workload, WorkloadReport};

/// The no-horizon sentinel for workload runs: the engine runs until the
/// calendar drains, so the horizon only needs to be unreachable (while
/// leaving headroom for `now + fly`-style arithmetic).
pub(crate) const WL_HORIZON: Time = u64::MAX / 4;

/// Runtime state of a workload being driven to completion.
#[derive(Debug)]
pub(crate) struct WlState {
    /// The message DAG being driven.
    wl: Workload,
    /// Unsatisfied arm count per message: dependency count, or 1 for
    /// roots (satisfied by the priming arm).
    pending: Vec<u32>,
    /// Undelivered packets per message.
    remaining: Vec<u32>,
    /// Packets each message segments into.
    pkts: Vec<u32>,
    /// `msg -> messages waiting on it`, ascending id order (the release
    /// order on completion).
    dependents: Vec<Vec<u32>>,
    /// Root messages per source node, ascending id order — the priming
    /// order (node-major).
    roots_by_node: Vec<Vec<u32>>,
    /// Lifecycle timestamps per message (`u64::MAX` = not yet).
    timings: Vec<MessageTiming>,
    /// Messages whose last packet has been delivered.
    completed: u64,
    /// Message id per live packet id — a side table that keeps the hot
    /// [`Packet`] at 32 bytes.
    wl_msg: Vec<u32>,
}

/// A deterministic per-(message, packet) hash stream — SplitMix64 over
/// the mixed key. Replaces the RNG for `Random` path/VL choices in
/// workload mode.
fn wl_hash(seed: u64, msg: u32, k: u32) -> u64 {
    let mut z = seed
        .wrapping_add((u64::from(msg) << 32) | u64::from(k))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct hash streams for the two independent per-packet choices.
const PATH_STREAM: u64 = 0x7061_7468; // "path"
const VL_STREAM: u64 = 0x766C_616E; // "vlan"

impl<'a, P: Probe> Simulator<'a, P> {
    /// Install a workload, checking it against the fabric, the
    /// configuration and the fault plan.
    fn wl_install(&mut self, wl: &Workload) -> Result<(), SimError> {
        wl.validate().map_err(SimError::InvalidWorkload)?;
        let num_nodes = self.nodes.len() as u32;
        if wl.num_nodes != num_nodes {
            return Err(SimError::InvalidWorkload(format!(
                "workload addresses {} nodes but the fabric has {num_nodes}",
                wl.num_nodes
            )));
        }
        for (id, m) in wl.messages.iter().enumerate() {
            for node in [m.src, m.dst] {
                if !self.nodes[node.index()].active {
                    return Err(SimError::InvalidWorkload(format!(
                        "message {id}: {node}'s endport is uncabled, so the message \
                         can never complete"
                    )));
                }
            }
        }
        // A workload must complete every message, so faults may only
        // stall traffic, never lose it: the drop policy and switch kills
        // (which drop on arrival and silence attached nodes) would leave
        // the DAG permanently incomplete.
        if !self.cfg.faults.is_empty() {
            if !matches!(self.cfg.faults.policy, crate::FaultPolicy::Stall) {
                return Err(SimError::InvalidFaultPlan(
                    "workload runs require FaultPolicy::Stall (drops would stall the DAG)".into(),
                ));
            }
            if self.cfg.faults.events.iter().any(|e| {
                matches!(
                    e.action,
                    crate::FaultAction::KillSwitch(_) | crate::FaultAction::ReviveSwitch(_)
                )
            }) {
                return Err(SimError::InvalidFaultPlan(
                    "workload runs support link faults only (switch kills lose packets)".into(),
                ));
            }
        }
        let n_msgs = wl.messages.len();
        let pkt_bytes = u64::from(self.cfg.packet_bytes).max(1);
        let mut pending = vec![0u32; n_msgs];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n_msgs];
        let mut roots_by_node: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
        let mut pkts = Vec::with_capacity(n_msgs);
        for (id, m) in wl.messages.iter().enumerate() {
            pkts.push(m.bytes.div_ceil(pkt_bytes) as u32);
            if m.deps.is_empty() {
                pending[id] = 1;
                roots_by_node[m.src.index()].push(id as u32);
            } else {
                pending[id] = m.deps.len() as u32;
                for &d in &m.deps {
                    dependents[d as usize].push(id as u32);
                }
            }
        }
        let remaining = pkts.clone();
        self.wl = Some(Box::new(WlState {
            wl: wl.clone(),
            pending,
            remaining,
            pkts,
            dependents,
            roots_by_node,
            timings: vec![
                MessageTiming {
                    armed_ns: u64::MAX,
                    injected_ns: u64::MAX,
                    completed_ns: u64::MAX,
                };
                n_msgs
            ],
            completed: 0,
            wl_msg: Vec::new(),
        }));
        Ok(())
    }

    /// One dependency of `msg` satisfied; on the last one, segment the
    /// message into the source queue and start the injection link.
    pub(crate) fn wl_arm(&mut self, node: u32, msg: u32) {
        let wl = self.wl.as_deref_mut().expect("WlArm without a workload");
        let i = msg as usize;
        debug_assert!(
            wl.pending[i] > 0,
            "message armed more often than it has deps"
        );
        wl.pending[i] -= 1;
        if wl.pending[i] > 0 {
            return;
        }
        wl.timings[i].armed_ns = self.now;
        let m = &wl.wl.messages[i];
        debug_assert_eq!(m.src.0, node, "arm fired at the wrong node");
        let (src, dst, npkts) = (m.src, m.dst, wl.pkts[i]);
        for k in 0..npkts {
            let dlid = match self.cfg.path_selection {
                PathSelection::Paper => self.routing.select_dlid(src, dst),
                PathSelection::RandomPerPacket => {
                    // Deterministic stand-in for the per-packet draw:
                    // workload mode keeps the engines RNG-free.
                    let space = self.routing.lid_space();
                    let offset = (wl_hash(self.cfg.seed ^ PATH_STREAM, msg, k)
                        % u64::from(space.lids_per_node())) as u32;
                    space.lid_with_offset(dst, offset)
                }
                PathSelection::RoundRobinPerSource => {
                    let space = self.routing.lid_space();
                    let st = &mut self.nodes[node as usize];
                    let offset = st.rr_offset % space.lids_per_node();
                    st.rr_offset = st.rr_offset.wrapping_add(1);
                    space.lid_with_offset(dst, offset)
                }
            };
            let vl = match self.cfg.vl_assignment {
                VlAssignment::Random => {
                    (wl_hash(self.cfg.seed ^ VL_STREAM, msg, k) % self.num_vls as u64) as u8
                }
                VlAssignment::DestinationHash => (dst.index() % self.num_vls) as u8,
                VlAssignment::SourceHash => (node as usize % self.num_vls) as u8,
            };
            let pkt = self.slab.insert(Packet {
                src: node,
                dlid,
                vl,
                t_gen: self.now,
                t_inject: 0,
                // Workload runs track no flow order.
                flow_seq: 0,
            });
            if P::PACKETS {
                self.probe
                    .packet_generated(self.now, pkt, node, dst.0, dlid.0, vl);
            }
            let slot = pkt as usize;
            if slot >= wl.wl_msg.len() {
                wl.wl_msg.resize(slot + 1, u32::MAX);
            }
            wl.wl_msg[slot] = msg;
            self.total_generated += 1;
            // `node_lane` inlined: `wl` still borrows `self.wl` here.
            self.inj_q[node as usize * self.num_vls + vl as usize].push_back(pkt);
        }
        self.try_node_send(node);
    }

    /// A packet of a workload message started transmitting; the first
    /// one stamps the message's injection time.
    pub(crate) fn wl_note_injected(&mut self, pkt: PacketId) {
        let wl = self.wl.as_deref_mut().expect("workload mode");
        let msg = wl.wl_msg[pkt as usize] as usize;
        let t = &mut wl.timings[msg];
        if t.injected_ns == u64::MAX {
            t.injected_ns = self.now;
        }
    }

    /// A packet of a workload message was delivered; the last one
    /// completes the message and releases its dependents, one wire
    /// flight later.
    pub(crate) fn wl_note_delivered(&mut self, pkt: PacketId) {
        let wl = self.wl.as_deref_mut().expect("workload mode");
        let i = wl.wl_msg[pkt as usize] as usize;
        debug_assert!(wl.remaining[i] > 0, "over-delivered message");
        wl.remaining[i] -= 1;
        if wl.remaining[i] > 0 {
            return;
        }
        wl.timings[i].completed_ns = self.now;
        wl.completed += 1;
        let at = self.now + FLY_TIME_NS;
        for idx in 0..wl.dependents[i].len() {
            let d = wl.dependents[i][idx];
            let node = wl.wl.messages[d as usize].src.0;
            self.queue.schedule(at, Ev::WlArm { node, msg: d });
        }
    }
}

impl<'a, P: Probe> Simulator<'a, P> {
    /// Build the engine for a workload run: [`Simulator::build`] with an
    /// unreachable horizon and no warm-up (every message's full
    /// lifecycle is measured), then the workload's own checks. A
    /// [`WorkloadReport`] has no `out_of_order`, so no path selection
    /// allocates per-flow state here.
    pub(crate) fn build_workload(
        net: &Network,
        routing: &'a Routing,
        cfg: crate::SimConfig,
        wl: &Workload,
        probe: P,
    ) -> Result<Simulator<'a, P>, SimError> {
        let spec = RunSpec {
            offered_load: 1.0,
            sim_time_ns: WL_HORIZON,
            warmup_ns: 0,
        };
        // The pattern is unused: workload mode never samples.
        let mut sim = Simulator::build(net, routing, cfg, TrafficPattern::Uniform, spec, probe)?;
        sim.wl_install(wl)?;
        Ok(sim)
    }

    /// Drive the installed workload until the calendar drains, which
    /// (absent drops) is exactly when the last message completes.
    pub(crate) fn run_to_completion(mut self) -> Result<(WorkloadReport, P), SimError> {
        self.wl_prime();
        self.schedule_fault_events();
        self.drive()?;
        self.wl_finish()
    }

    /// Prime the DAG roots node-major (per node, ascending id).
    pub(crate) fn wl_prime(&mut self) {
        let wl = self.wl.as_ref().expect("no workload installed");
        let mut prime: Vec<(u32, u32)> = Vec::new();
        for (node, roots) in wl.roots_by_node.iter().enumerate() {
            for &msg in roots {
                prime.push((node as u32, msg));
            }
        }
        for (node, msg) in prime {
            self.queue.schedule(0, Ev::WlArm { node, msg });
        }
    }

    /// Build a probed workload simulator; run it with
    /// [`run_workload_observed`](Simulator::run_workload_observed).
    ///
    /// # Panics
    /// Panics with the [`SimError`]'s text where [`crate::run_workload`]
    /// returns it.
    pub fn for_workload_observed(
        net: &Network,
        routing: &'a Routing,
        cfg: crate::SimConfig,
        wl: &Workload,
        probe: P,
    ) -> Simulator<'a, P> {
        Simulator::build_workload(net, routing, cfg, wl, probe).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Drive the workload to completion; return the report and the
    /// probe.
    ///
    /// # Panics
    /// Panics with the [`SimError`]'s text where [`crate::run_workload`]
    /// returns it.
    pub fn run_workload_observed(self) -> (WorkloadReport, P) {
        self.run_to_completion().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Close out a drained workload run: every message must have
    /// completed (a drained calendar with missing completions means the
    /// fabric dropped packets — unroutable under a degraded LFT).
    pub(crate) fn wl_finish(mut self) -> Result<(WorkloadReport, P), SimError> {
        let wl = self.wl.take().expect("no workload installed");
        if wl.completed != wl.wl.messages.len() as u64 {
            return Err(SimError::InvalidWorkload(format!(
                "workload stalled: {} of {} messages completed ({} packets dropped in the fabric)",
                wl.completed,
                wl.wl.messages.len(),
                self.dropped
            )));
        }
        let report = WorkloadReport::build(
            &wl.wl,
            wl.timings,
            u64::from(self.cfg.packet_bytes),
            self.events_processed,
        );
        Ok((report, self.probe))
    }
}
