//! The InfiniBand subnet simulator.
//!
//! ## Model (Section 5 of the paper)
//!
//! * **Switches** are `m`-port crossbars. Every port has one input and one
//!   output buffer *per virtual lane*, each holding `buffer_packets`
//!   packets (the paper: exactly one). The crossbar lets any number of
//!   disjoint input→output transfers proceed simultaneously; transfers to
//!   the same output buffer serialize through arbitration.
//! * **Virtual cut-through**: a packet begins leaving a switch as soon as
//!   its header has been routed and the output buffer is free — it never
//!   waits for its own tail. A buffer is held from the moment a packet is
//!   granted into it until the packet's tail has left it.
//! * **Credit-based link-level flow control**: a sender may start a packet
//!   on a link only while it holds a credit for the downstream input
//!   buffer of that VL; the credit returns (one wire flight later) when
//!   the packet's tail vacates that buffer.
//! * **Timing**: header routing costs `routing_time_ns` per switch; wire
//!   propagation costs `fly_time_ns` per link; serialization costs
//!   `packet_bytes * byte_time_ns` per link.
//! * **End nodes** generate packets at a constant (or Poisson) rate into
//!   an unbounded source queue, draining it in FIFO order onto their
//!   injection link; they consume arriving packets immediately.
//!
//! The simulation is single-threaded and fully deterministic for a given
//! seed: events at equal timestamps fire in scheduling order.
//!
//! ## Events per hop
//!
//! A switch hop costs four events: route-done, input departure, output
//! departure and the credit's return. Where it cannot change any report
//! (one-packet buffers, no fault plan, deterministic injection; see
//! [`arrival_fuses`]), a transmission lands its header in the next input
//! buffer at once and schedules the route-done one wire flight plus one
//! routing stage later. Other runs take a fifth event, `SwHeaderArrive`,
//! one wire flight after the transmission starts. No link schedules a
//! retry while busy: the departure that frees it re-arbitrates.

use crate::engine::{RingCalendar, Time};
use crate::lanes::LaneRings;
use crate::metrics::{LatencyStats, SimReport};
use crate::packet::{Packet, PacketId, PacketSlab};
use crate::probe::{NoopProbe, Phase, Probe};
use crate::trace::{DropCause, TraceEvent};
use crate::vlarb::VlArbiter;
use crate::{
    InjectionProcess, PathSelection, RunSpec, SimConfig, SimError, TrafficPattern, VlAssignment,
};
use ibfat_routing::{Lft, RouteOracle, Routing};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::borrow::Cow;
use std::collections::VecDeque;

/// What a switch port's output side is cabled to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PeerRef {
    SwitchPort {
        sw: u32,
        port: u8,
    },
    Node {
        node: u32,
    },
    /// Uncabled (failed) port — carries no traffic.
    Dead,
}

/// A packet held in an input buffer.
#[derive(Debug, Clone, Copy)]
struct InEntry {
    pkt: PacketId,
    state: InState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InState {
    /// Header is being routed (the `routing_time_ns` pipeline stage).
    Routing,
    /// Routed, waiting for space in the output buffer `out_port`.
    Waiting(u8),
    /// Granted to the output buffer; tail is streaming out.
    Departing,
}

/// A packet held in an output buffer.
#[derive(Debug, Clone, Copy)]
struct OutEntry {
    pkt: PacketId,
    transmitting: bool,
}

/// One switch port's link state. Its per-VL buffers live in
/// [`SwLanes`].
#[derive(Debug)]
pub(crate) struct SwPort {
    peer: PeerRef,
    /// Link output direction is serialized until this time; the port's
    /// own `SwOutputDeparted` re-arbitrates it then.
    busy_until: Time,
    /// Bit `vl` is set iff lane `vl` holds a credit and an output head
    /// that is not yet transmitting ([`SwLanes::ready_mask`], kept
    /// current by every credit, grant, output push and output pop).
    ready: u16,
    /// Egress VL arbitration state (table lives on the simulator).
    arb: VlArbiter,
    /// Accumulated transmission time on the outgoing direction (ns).
    pub(crate) busy_ns: u64,
}

/// Every switch port's per-VL state, one entry per lane `(sw * m +
/// port) * num_vls + vl` (see [`Simulator::lane`]).
#[derive(Debug)]
pub(crate) struct SwLanes {
    /// Credits held for the downstream input buffer.
    credits: Vec<u8>,
    /// Input buffers (`buffer_packets` deep).
    in_q: LaneRings<InEntry>,
    /// Output buffers (`buffer_packets` deep).
    out_q: LaneRings<OutEntry>,
    /// Input ports whose routed head waits for space in this output: at
    /// most one per input port, so `m` deep.
    waiters: LaneRings<u8>,
}

impl SwLanes {
    /// Whether `lane` can start a transmission: it holds a credit and
    /// its output head is not yet transmitting.
    #[inline]
    fn ready(&self, lane: usize) -> bool {
        self.credits[lane] > 0
            && self
                .out_q
                .front(lane)
                .is_some_and(|head| !head.transmitting)
    }

    /// The ready mask of the `num_vls` lanes from `base`, recomputed from
    /// credits and output heads ([`SwPort::ready`] caches it).
    fn ready_mask(&self, base: usize, num_vls: usize) -> u16 {
        (0..num_vls)
            .filter(|&vl| self.ready(base + vl))
            .fold(0, |m, vl| m | (1 << vl))
    }
}

/// One end node. Its per-VL source queues and credits live on the
/// simulator, lane `node * num_vls + vl`.
#[derive(Debug)]
pub(crate) struct NodeSt {
    pub(crate) peer_sw: u32,
    peer_port: u8,
    /// Egress VL arbitration state for the injection link.
    arb: VlArbiter,
    /// The injection link is serialized until this time; the
    /// `TryNodeSend` chained at the end of every injection re-arbitrates
    /// it then.
    busy_until: Time,
    /// Next generation instant (f64 to carry fractional inter-arrivals).
    pub(crate) next_gen: f64,
    /// Whether this node generates traffic at all (permutation patterns
    /// may silence self-mapped nodes).
    pub(crate) active: bool,
    /// Round-robin offset cursor for `PathSelection::RoundRobinPerSource`.
    pub(crate) rr_offset: u32,
    pub(crate) busy_ns: u64,
}

/// How the data plane resolves `(switch, dlid) → output port`, chosen
/// per run by [`RouteOracle::for_fabric`]. Both answer identically.
#[derive(Debug)]
pub(crate) enum RouteState<'a> {
    /// The routing's block-compressed forwarding tables, indexed by
    /// switch: borrowed until a fault plan's first SM reprogram lands,
    /// which gives the run its own copy. The lookup reads the raw entry
    /// and subtracts one with wrapping, so a hole reads as the `u8::MAX`
    /// drop sentinel.
    Table(Cow<'a, [Lft]>),
    /// Closed-form per-hop lookup (the paper's Eq. 1/Eq. 2) — no table
    /// copy in the engine. `route_hop` returns `None` exactly where a
    /// pristine table has no entry, so the drop semantics line up
    /// bit-for-bit with the table's hole.
    Oracle(RouteOracle),
}

/// Simulator events.
///
/// A switch hop costs `SwRouteDone`, `SwInputDeparted`,
/// `SwOutputDeparted` and `CreditToSwitch`, plus `SwHeaderArrive` in a
/// run that does not fuse arrivals (the module docs, "Events per hop").
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Generate the next packet at a node.
    Inject { node: u32 },
    /// Arbitrate the node's injection link: chained at the end of every
    /// injection, and the link-free wake-up of its source queues.
    TryNodeSend { node: u32 },
    /// A packet header reached a switch input buffer (arrival path only;
    /// a fused run lands the header at transmit time).
    SwHeaderArrive {
        sw: u32,
        port: u8,
        vl: u8,
        pkt: PacketId,
    },
    /// Routing of the input-buffer head finished.
    SwRouteDone { sw: u32, port: u8, vl: u8 },
    /// The tail of the input-buffer head left through the crossbar.
    SwInputDeparted { sw: u32, port: u8, vl: u8 },
    /// The tail of a transmitting packet left the output buffer; the
    /// port re-arbitrates.
    SwOutputDeparted { sw: u32, port: u8, vl: u8 },
    /// A credit came back to a switch output port.
    CreditToSwitch { sw: u32, port: u8, vl: u8 },
    /// A credit came back to a node's injection side.
    CreditToNode { node: u32, vl: u8 },
    /// A packet's tail arrived at its destination endport.
    Deliver { node: u32, vl: u8, pkt: PacketId },
    /// A discarded (unroutable) packet finished draining into its input
    /// buffer; free the buffer.
    SwDiscardDone { sw: u32, port: u8, vl: u8 },
    /// Workload mode: one dependency of message `msg` completed (or the
    /// priming pseudo-dependency of a root). Fires at the message's
    /// source node one wire flight after the completing delivery.
    WlArm { node: u32, msg: u32 },
    /// A scheduled fault fires: swap the live dead-port masks and
    /// killed-switch flags to the compiled post-fault state.
    FaultApply { fault: u32 },
    /// The subnet manager finishes reprogramming one switch's forwarding
    /// table with the patch set of fault `fault`, then re-routes input
    /// heads that were parked on a dead output.
    SwReprogram { fault: u32, sw: u32 },
}

/// The discrete-event simulator for one (network, routing, traffic, load)
/// operating point.
///
/// Borrows the routing for its whole lifetime. A run the closed form
/// answers ([`RouteOracle::for_fabric`], no fault plan) reads none of
/// its tables, so a SLID/MLID routing from `Routing::build` never builds
/// them; any other run reads them in place, and copies them only when a
/// fault plan's first reprogram lands. Sweeps and replications share one
/// `Routing` across threads.
///
/// Generic over a [`Probe`] observability sink (default: the free
/// [`NoopProbe`]). Every probe hook site is guarded by the probe's
/// associated consts, so the unprobed simulator monomorphizes to exactly
/// the pre-observability hot path.
pub struct Simulator<'a, P: Probe = NoopProbe> {
    pub(crate) cfg: SimConfig,
    pub(crate) pattern: TrafficPattern,
    pub(crate) offered_load: f64,
    pub(crate) interarrival_ns: f64,
    pub(crate) sim_time_ns: Time,
    pub(crate) warmup_ns: Time,

    pub(crate) pkt_ns: u64,
    pub(crate) fly: u64,
    pub(crate) route_ns: u64,
    pub(crate) num_vls: usize,
    pub(crate) cap: u8,
    /// Shared VL arbitration entry table.
    pub(crate) arb_table: Vec<(u8, u8)>,

    pub(crate) routing: &'a Routing,
    /// Per-hop route lookup state (the tables or the closed-form
    /// oracle).
    pub(crate) route: RouteState<'a>,
    /// Per-switch 0-based first up-port (= m/2), or `u8::MAX` for roots
    /// (which have no up-ports). Used by adaptive upward routing.
    pub(crate) up_ports_from: Vec<u8>,

    /// Ports per switch: port `(sw, port)` is `ports[sw * m + port]`.
    pub(crate) m: usize,
    pub(crate) ports: Vec<SwPort>,
    pub(crate) lanes: SwLanes,
    pub(crate) nodes: Vec<NodeSt>,
    /// Per-(node, VL) credits for the leaf switch's input buffers.
    pub(crate) node_credits: Vec<u8>,
    /// Per-(node, VL) unbounded FIFO source queues. Real HCAs arbitrate
    /// VLs at the egress port, so a lane stalled on credits never blocks
    /// the others (per-VL queues avoid cross-VL head-of-line blocking).
    pub(crate) inj_q: Vec<VecDeque<PacketId>>,

    pub(crate) queue: RingCalendar<Ev>,
    pub(crate) slab: PacketSlab,
    pub(crate) rng: ChaCha12Rng,
    pub(crate) now: Time,

    // measurement
    /// Next sequence number per (src, dst, vl) flow. InfiniBand only
    /// orders traffic within a lane, so the flow key includes the VL.
    /// Empty unless the run can reorder a flow
    /// ([`build_pattern`](Simulator::build_pattern)); packets then carry
    /// sequence number 0.
    pub(crate) flow_next_seq: Vec<u32>,
    /// Highest delivered sequence per (src, dst, vl) flow (u32::MAX =
    /// none). Allocated together with `flow_next_seq`.
    pub(crate) flow_delivered: Vec<u32>,
    pub(crate) out_of_order: u64,
    pub(crate) dropped: u64,
    pub(crate) total_generated: u64,
    pub(crate) total_delivered: u64,
    pub(crate) generated_in_window: u64,
    pub(crate) delivered_in_window: u64,
    pub(crate) delivered_bytes_in_window: u64,
    pub(crate) latency: LatencyStats,
    pub(crate) network_latency: LatencyStats,
    pub(crate) events_processed: u64,
    /// Workload-mode state (message DAG, dependency counters, timings);
    /// `None` in pattern mode — the hot-path hooks cost one branch.
    pub(crate) wl: Option<Box<crate::workload::WlState>>,
    /// First engine-invariant violation observed during dispatch (release
    /// builds; debug builds assert instead). Checked by the event loop,
    /// which aborts the run and returns it.
    pub(crate) invariant_err: Option<SimError>,
    /// Live fault-injection state; `None` when the config carries no
    /// fault plan, so the subsystem costs one branch on the hot paths.
    pub(crate) faults: Option<Box<crate::faults::FaultState>>,
    /// Whether a transmission into a switch lands its header in the input
    /// buffer at once and schedules the route-done one wire flight plus
    /// one routing stage later, instead of a `SwHeaderArrive` one flight
    /// later. Decided once per run by [`arrival_fuses`]; the reports of
    /// both paths are identical except `events_processed`.
    pub(crate) fuse_arrival: bool,

    pub(crate) probe: P,
}

impl<'a, P: Probe> Simulator<'a, P> {
    /// Build the engine for one run, observed by `probe`. Every caller
    /// input is checked here, before anything is allocated or
    /// scheduled: the configuration, the offered load and horizon, the
    /// routing's fit to the network, the traffic pattern and the fault
    /// plan. A rejection is a [`SimError`], never a panic.
    pub(crate) fn build(
        net: &Network,
        routing: &'a Routing,
        cfg: SimConfig,
        pattern: TrafficPattern,
        spec: RunSpec,
        probe: P,
    ) -> Result<Simulator<'a, P>, SimError> {
        let RunSpec {
            offered_load,
            sim_time_ns,
            warmup_ns,
        } = spec;
        let invalid = |msg: String| Err(SimError::InvalidConfig(msg));
        cfg.validate()?;
        if !(offered_load > 0.0 && offered_load.is_finite()) {
            return invalid(format!(
                "offered load must be positive and finite, got {offered_load}"
            ));
        }
        if warmup_ns >= sim_time_ns {
            return invalid(format!(
                "warm-up ({warmup_ns} ns) must end before the run ({sim_time_ns} ns)"
            ));
        }
        let params = net.params();
        let mismatch = || {
            invalid(format!(
                "the routing was built for {} but the network is {params}",
                routing.params()
            ))
        };
        if routing.params() != params {
            return mismatch();
        }
        // The closed form answers where it matches the tables exactly and
        // the run has no fault plan (reprogramming acts on tables). It
        // needs an intact tree with the routing's own parameters, where
        // every port Equations (1) and (2) name is cabled, so such a run
        // neither checks nor builds the tables.
        let oracle = if cfg.faults.is_empty() {
            RouteOracle::for_fabric(net, routing)
        } else {
            None
        };
        if oracle.is_none() {
            // Every table must span the LID space and forward only into
            // ports this network cables: a routing for another degraded
            // network may name a port that has no peer here. The check
            // reads each switch's distinct blocks, not its entries.
            if routing.lfts().len() != net.num_switches() {
                return mismatch();
            }
            let slots = routing.lid_space().max_lid().index() + 1;
            for (sw, lft) in routing.lfts().iter().enumerate() {
                if lft.len() != slots {
                    return invalid(format!("LFT {sw} does not span the LID space"));
                }
                let here = DeviceRef::Switch(ibfat_topology::SwitchId(sw as u32));
                let uncabled =
                    |p: PortNum| u32::from(p.0) > params.m() || net.peer_of(here, p).is_none();
                if let Some(port) = lft.ports_used().find(|&p| uncabled(p)) {
                    return invalid(format!(
                        "the routing forwards out of port {port} of switch {sw}, which this \
                         network does not cable (a routing built for another network?)"
                    ));
                }
            }
        }
        if cfg.adaptive_up && !net.is_intact() {
            return invalid("adaptive upward routing requires an intact fabric".into());
        }
        pattern.validate(net.num_nodes() as u32)?;
        // Fault-injection state: the plan compiles eagerly against the
        // full tables.
        let faults = if cfg.faults.is_empty() {
            None
        } else {
            let (compiled, _, _) = crate::faults::compile(net, routing, &cfg.faults)?;
            Some(Box::new(crate::faults::FaultState::new(
                net,
                &cfg.faults,
                compiled,
            )))
        };

        let num_vls = cfg.num_vls as usize;
        let cap = cfg.buffer_packets;
        let arb_table = cfg.vl_arbitration.table(cfg.num_vls);
        let interarrival_ns = cfg.interarrival_ns(offered_load);
        let fuse_arrival = arrival_fuses(&cfg, interarrival_ns);

        // Without the closed form the run reads the routing's tables in
        // place; the first SM reprogram makes the run its own copy.
        let route = match oracle {
            Some(oracle) => RouteState::Oracle(oracle),
            None => RouteState::Table(Cow::Borrowed(routing.lfts())),
        };

        let up_ports_from: Vec<u8> = (0..net.num_switches())
            .map(|sw| {
                let label = ibfat_topology::SwitchLabel::from_id(
                    params,
                    ibfat_topology::SwitchId(sw as u32),
                );
                if label.level().0 == 0 {
                    u8::MAX
                } else {
                    params.half() as u8
                }
            })
            .collect();

        // Every per-(port, VL) ring is sized from the topology: buffers
        // hold at most `cap` packets, and at most `m` inputs can wait on
        // one output — so the hot path never reallocates.
        let m = net.params().m() as usize;
        let ports: Vec<SwPort> = (0..net.num_switches() * m)
            .map(|i| {
                let sw = ibfat_topology::SwitchId((i / m) as u32);
                let port = PortNum((i % m) as u8 + 1);
                // Degraded subnets may have uncabled (failed) ports; the
                // routing check above keeps every table out of them.
                let peer = net
                    .peer_of(DeviceRef::Switch(sw), port)
                    .map(|peer| match peer.device {
                        DeviceRef::Switch(s) => PeerRef::SwitchPort {
                            sw: s.0,
                            port: peer.port.0 - 1,
                        },
                        DeviceRef::Node(n) => PeerRef::Node { node: n.0 },
                    })
                    .unwrap_or(PeerRef::Dead);
                SwPort {
                    peer,
                    busy_until: 0,
                    ready: 0,
                    arb: VlArbiter::new(&arb_table),
                    busy_ns: 0,
                }
            })
            .collect();
        let sw_lanes = ports.len() * num_vls;
        let lanes = SwLanes {
            credits: vec![cap; sw_lanes],
            in_q: LaneRings::new(
                sw_lanes,
                cap as usize,
                InEntry {
                    pkt: 0,
                    state: InState::Routing,
                },
            ),
            out_q: LaneRings::new(
                sw_lanes,
                cap as usize,
                OutEntry {
                    pkt: 0,
                    transmitting: false,
                },
            ),
            waiters: LaneRings::new(sw_lanes, m, 0),
        };

        let nodes: Vec<NodeSt> = (0..net.num_nodes())
            .map(|n| {
                // An isolated node (failed endport cable) neither sends
                // nor receives; peers may still address it, and those
                // packets are dropped at the first unprogrammed LFT entry.
                let peer = net.peer_of(DeviceRef::Node(NodeId(n as u32)), PortNum(1));
                let (peer_sw, peer_port, active) = match peer {
                    Some(p) => match p.device {
                        DeviceRef::Switch(s) => (s.0, p.port.0 - 1, true),
                        DeviceRef::Node(_) => unreachable!("endports attach to switches"),
                    },
                    None => (u32::MAX, u8::MAX, false),
                };
                NodeSt {
                    peer_sw,
                    peer_port,
                    arb: VlArbiter::new(&arb_table),
                    busy_until: 0,
                    next_gen: 0.0,
                    active,
                    rr_offset: 0,
                    busy_ns: 0,
                }
            })
            .collect();
        let node_lanes = nodes.len() * num_vls;

        Ok(Simulator {
            pkt_ns: cfg.packet_time_ns(),
            fly: cfg.fly_time_ns,
            route_ns: cfg.routing_time_ns,
            num_vls,
            cap,
            arb_table,
            interarrival_ns,
            offered_load,
            sim_time_ns,
            warmup_ns,
            pattern,
            routing,
            route,
            up_ports_from,
            m,
            ports,
            lanes,
            nodes,
            node_credits: vec![cap; node_lanes],
            inj_q: vec![VecDeque::new(); node_lanes],
            // The ring spans the longest fixed delay a handler schedules:
            // tail delivery `F + S` or a fused route-done `F + R` (a wire
            // flight, a serialization and the discard drain are shorter).
            queue: RingCalendar::new(
                cfg.fly_time_ns
                    .saturating_add(cfg.packet_time_ns().max(cfg.routing_time_ns)),
            ),
            slab: PacketSlab::new(),
            rng: ChaCha12Rng::seed_from_u64(cfg.seed),
            now: 0,
            flow_next_seq: Vec::new(),
            flow_delivered: Vec::new(),
            out_of_order: 0,
            dropped: 0,
            total_generated: 0,
            total_delivered: 0,
            generated_in_window: 0,
            delivered_in_window: 0,
            delivered_bytes_in_window: 0,
            latency: LatencyStats::new(),
            network_latency: LatencyStats::new(),
            events_processed: 0,
            wl: None,
            invariant_err: None,
            faults,
            fuse_arrival,
            cfg,
            probe,
        })
    }

    /// Build the engine for a pattern-mode run: [`Simulator::build`],
    /// plus the per-flow state that counts `out_of_order` when a flow
    /// can be reordered at all.
    ///
    /// Lanes are FIFO from source queue to delivery, so a flow (source,
    /// destination, VL) arrives in order along any single path. It has
    /// one path when the paper's path selection gives it one DLID and
    /// the tables stay fixed. Only per-packet or round-robin DLIDs,
    /// adaptive climbing or a fault plan (which reprograms tables
    /// mid-run) can reorder it; every other run allocates no per-flow
    /// state, nodes² × VLs × 8 bytes, and reports `out_of_order` 0.
    pub(crate) fn build_pattern(
        net: &Network,
        routing: &'a Routing,
        cfg: SimConfig,
        pattern: TrafficPattern,
        spec: RunSpec,
        probe: P,
    ) -> Result<Simulator<'a, P>, SimError> {
        let can_reorder =
            cfg.path_selection != PathSelection::Paper || cfg.adaptive_up || !cfg.faults.is_empty();
        let mut sim = Simulator::build(net, routing, cfg, pattern, spec, probe)?;
        if can_reorder {
            sim.track_flow_order();
        }
        Ok(sim)
    }

    /// Allocate the per-flow sequence state: from here on every packet
    /// is numbered within its flow and `deliver` counts late arrivals.
    pub(crate) fn track_flow_order(&mut self) {
        let flows = self.nodes.len() * self.nodes.len() * self.num_vls;
        self.flow_next_seq = vec![0; flows];
        self.flow_delivered = vec![u32::MAX; flows];
    }
}

/// Whether a run may fuse each switch arrival into its transmission
/// ([`Simulator::fuse_arrival`]) and still produce the arrival path's
/// reports. Fusing moves two things: the header enters the input buffer
/// at transmit time `t` instead of at its arrival `a = t + F`, and its
/// route-done at `a + R` takes its tie-break place at `t` instead of `a`.
/// Both are invisible when
///
/// * buffers hold one packet: a sender holding a credit means the
///   downstream lane is empty, and no handler reads a lane whose head is
///   still routing;
/// * there is no fault plan: a kill or a dead-port drop acts at the
///   arrival, and a reprogram rescue schedules routing at that instant;
/// * injection is deterministic and no fixed delay other than the fused
///   route-done's own `F + R` lies in `[R, F + R]`: then the only events
///   at `a + R` scheduled inside `[t, a]` are other fused route-dones,
///   which keep their relative order. The delays are the wire flight
///   `F`, serialization `S`, tail delivery `F + S`, the discard drain
///   `S − R` and the injection gap (`S / load`, rounded either way).
///
/// A switch hop then costs four events instead of five.
fn arrival_fuses(cfg: &SimConfig, interarrival_ns: f64) -> bool {
    let (f, r, s) = (cfg.fly_time_ns, cfg.routing_time_ns, cfg.packet_time_ns());
    let window = r..=f + r;
    let gap = (interarrival_ns.floor() as u64)..=(interarrival_ns.ceil() as u64);
    let gap_clear = *gap.end() < *window.start() || *gap.start() > *window.end();
    cfg.buffer_packets == 1
        && cfg.faults.is_empty()
        && cfg.injection == InjectionProcess::Deterministic
        && gap_clear
        && [f, s, f + s, s.saturating_sub(r)]
            .iter()
            .all(|d| !window.contains(d))
}

/// Hand out the next sequence number of `flow`, or 0 when the run does
/// not track flow order (`next_seq` is empty).
#[inline]
pub(crate) fn take_flow_seq(next_seq: &mut [u32], flow: usize) -> u32 {
    next_seq.get_mut(flow).map_or(0, |seq| {
        *seq += 1;
        *seq - 1
    })
}

impl<'a, P: Probe> Simulator<'a, P> {
    /// Run a pattern-mode simulator to its horizon and produce the
    /// report and the probe.
    ///
    /// A run that could generate more packets than [`PacketId`] can
    /// number, `nodes × ⌈sim_time / interarrival⌉ > u32::MAX`, is
    /// rejected before the first event.
    pub(crate) fn run_pattern(mut self) -> Result<(SimReport, P), SimError> {
        let per_node = (self.sim_time_ns as f64 / self.interarrival_ns).ceil();
        if per_node * self.nodes.len() as f64 > f64::from(u32::MAX) {
            return Err(SimError::InvalidConfig(format!(
                "a {} ns run at load {:e} could generate more than {} packets \
                 (the packet-id space)",
                self.sim_time_ns,
                self.offered_load,
                u32::MAX
            )));
        }
        let wall_start = std::time::Instant::now();
        self.prime_injections();
        self.schedule_fault_events();
        self.drive()?;
        let wall = wall_start.elapsed().as_secs_f64();
        Ok(self.report(wall))
    }

    /// The event loop of both run modes: dispatch events in time order
    /// until the calendar drains or reaches the horizon (workload runs
    /// set an unreachable one), stopping at the first engine-invariant
    /// violation.
    pub(crate) fn drive(&mut self) -> Result<(), SimError> {
        while let Some((t, ev)) = self.queue.pop() {
            if t >= self.sim_time_ns {
                break;
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.events_processed += 1;
            if P::COUNTERS {
                self.probe.tick(t, self.slab.live());
            }
            if P::TIMING {
                let phase = phase_of(&ev);
                let t0 = std::time::Instant::now();
                self.dispatch(ev);
                self.probe.phase_time(phase, t0.elapsed().as_nanos() as u64);
            } else {
                self.dispatch(ev);
            }
            if let Some(err) = self.invariant_err.take() {
                return Err(err);
            }
        }
        if P::COUNTERS || P::TIMING {
            // A pattern run ends at its horizon, whatever its last event;
            // a workload run drains, so it ends at its last event.
            let end = if self.wl.is_some() {
                self.now
            } else {
                self.sim_time_ns
            };
            self.probe.finish(end, self.slab.live());
        }
        Ok(())
    }

    /// Prime every node with a randomly phased first injection so the
    /// deterministic process does not fire in lockstep across nodes.
    fn prime_injections(&mut self) {
        for node in 0..self.nodes.len() as u32 {
            if !self.nodes[node as usize].active {
                continue;
            }
            let phase = self.rng.gen_range(0.0..self.interarrival_ns);
            self.nodes[node as usize].next_gen = phase;
            self.queue.schedule(phase as Time, Ev::Inject { node });
        }
    }

    /// Index of switch port `(sw, port)` in [`ports`](Self::ports).
    #[inline]
    fn port_ix(&self, sw: u32, port: u8) -> usize {
        sw as usize * self.m + port as usize
    }

    /// Index of lane `(sw, port, vl)` in [`SwLanes`].
    #[inline]
    fn lane(&self, sw: u32, port: u8, vl: u8) -> usize {
        self.port_ix(sw, port) * self.num_vls + vl as usize
    }

    /// Index of lane `(node, vl)` in [`node_credits`](Self::node_credits)
    /// and [`inj_q`](Self::inj_q).
    #[inline]
    pub(crate) fn node_lane(&self, node: u32, vl: u8) -> usize {
        node as usize * self.num_vls + vl as usize
    }

    /// Recompute bit `vl` of port `pi`'s cached ready mask from its lane.
    #[inline]
    fn refresh_ready(&mut self, pi: usize, vl: u8) {
        let ready = self.lanes.ready(pi * self.num_vls + vl as usize);
        let p = &mut self.ports[pi];
        p.ready = (p.ready & !(1 << vl)) | (u16::from(ready) << vl);
    }

    pub(crate) fn dispatch(&mut self, ev: Ev) {
        if let Some(f) = &self.faults {
            // A powered-off switch neither buffers, routes, arbitrates
            // nor returns credits: its in-flight events dissolve here.
            // SM reprogramming still lands (a later revive must see
            // fresh tables) and `FaultApply` is global, so neither is
            // filtered.
            match ev {
                Ev::SwHeaderArrive { sw, pkt, .. } if f.sw_killed[sw as usize] => {
                    self.drop_packet(sw, pkt, DropCause::DeadPort);
                    return;
                }
                Ev::SwRouteDone { sw, .. }
                | Ev::SwInputDeparted { sw, .. }
                | Ev::SwOutputDeparted { sw, .. }
                | Ev::CreditToSwitch { sw, .. }
                | Ev::SwDiscardDone { sw, .. }
                    if f.sw_killed[sw as usize] =>
                {
                    return;
                }
                _ => {}
            }
        }
        match ev {
            Ev::Inject { node } => self.inject(node),
            Ev::TryNodeSend { node } => self.try_node_send(node),
            Ev::SwHeaderArrive { sw, port, vl, pkt } => self.sw_header_arrive(sw, port, vl, pkt),
            Ev::SwRouteDone { sw, port, vl } => self.sw_route_done(sw, port, vl),
            Ev::SwInputDeparted { sw, port, vl } => self.sw_input_departed(sw, port, vl),
            Ev::SwOutputDeparted { sw, port, vl } => self.sw_output_departed(sw, port, vl),
            Ev::CreditToSwitch { sw, port, vl } => {
                let lane = self.lane(sw, port, vl);
                self.lanes.credits[lane] += 1;
                debug_assert!(self.lanes.credits[lane] <= self.cap);
                // Only the first credit can make the lane ready.
                if self.lanes.credits[lane] == 1 {
                    self.refresh_ready(self.port_ix(sw, port), vl);
                }
                if P::COUNTERS {
                    self.probe.credit_stall_end(self.now, sw, port, vl);
                }
                self.sw_try_output(sw, port);
            }
            Ev::CreditToNode { node, vl } => {
                let lane = self.node_lane(node, vl);
                self.node_credits[lane] += 1;
                debug_assert!(self.node_credits[lane] <= self.cap);
                self.try_node_send(node);
            }
            Ev::Deliver { node, vl, pkt } => self.deliver(node, vl, pkt),
            Ev::SwDiscardDone { sw, port, vl } => self.sw_discard_done(sw, port, vl),
            Ev::WlArm { node, msg } => self.wl_arm(node, msg),
            Ev::FaultApply { fault } => self.fault_apply(fault),
            Ev::SwReprogram { fault, sw } => self.sw_reprogram(fault, sw),
        }
    }

    // ----- fault injection ---------------------------------------------

    /// Schedule the compiled fault plan into the event queue: per fault,
    /// one `FaultApply` at the fault instant and one `SwReprogram` per
    /// patched switch at the reprogram instant. Called once, right after
    /// injection priming, by both run loops.
    pub(crate) fn schedule_fault_events(&mut self) {
        let Some(f) = &self.faults else {
            return;
        };
        for (fi, cf) in f.faults.iter().enumerate() {
            let fault = fi as u32;
            self.queue
                .schedule(cf.summary.at_ns, Ev::FaultApply { fault });
            for &(sw, _) in &cf.rows {
                self.queue
                    .schedule(cf.summary.reprogram_at_ns, Ev::SwReprogram { fault, sw });
            }
        }
    }

    /// Discard packet `pkt` at switch `sw` for `cause`; a dead-port
    /// discard is a fault loss. Called directly for a header that arrives
    /// through a dead port (or at a powered-off switch): it never
    /// occupies an input buffer, so no credit returns — the upstream
    /// sender leaks that credit, which is exactly as deterministic as the
    /// wire it lost. A buffered head goes through `discard_head`.
    fn drop_packet(&mut self, sw: u32, pkt: PacketId, cause: DropCause) {
        self.dropped += 1;
        if P::COUNTERS {
            self.probe.sw_drop(self.now, sw);
        }
        if P::PACKETS {
            self.probe
                .packet_event(self.now, pkt, TraceEvent::Dropped { sw, cause });
        }
        self.slab.remove(pkt);
        if cause == DropCause::DeadPort {
            self.faults
                .as_mut()
                .expect("dead port without fault state")
                .lost += 1;
        }
    }

    /// A scheduled fault fires: copy the compiled post-fault dead-port
    /// masks into the live state. Packets already buffered or in flight
    /// are untouched here — the guards on the arrival/routing/departure
    /// paths react to the new masks as those packets progress.
    fn fault_apply(&mut self, fault: u32) {
        // Fault events are control-plane bookkeeping, not packet work:
        // they stay out of `events_processed`.
        self.events_processed -= 1;
        let f = &mut **self.faults.as_mut().expect("fault event without state");
        let cf = &f.faults[fault as usize];
        f.sw_dead.copy_from_slice(&cf.sw_dead);
        f.sw_killed.copy_from_slice(&cf.sw_killed);
    }

    /// The SM's reprogramming of one switch lands: install the fault's
    /// repaired row in place of the switch's table (the first reprogram
    /// of a run copies the borrowed tables), then rescue input heads
    /// parked on an output that is dead (or whose grant signal — an
    /// output departure — can never come because the output buffer
    /// drained while the port was dead): reset them to the routing stage
    /// so they look up the fresh row.
    fn sw_reprogram(&mut self, fault: u32, sw: u32) {
        self.events_processed -= 1;
        let st = self.faults.as_ref().expect("fault event without state");
        let rows = &st.faults[fault as usize].rows;
        let row = rows
            .binary_search_by_key(&sw, |&(s, _)| s)
            .map(|i| rows[i].1.clone())
            .expect("a reprogram is scheduled for each patched switch");
        match &mut self.route {
            RouteState::Table(lfts) => lfts.to_mut()[sw as usize] = row,
            RouteState::Oracle(_) => unreachable!("fault plans run on the tables"),
        }
        let st = self.faults.as_ref().expect("checked above");
        if st.sw_killed[sw as usize] {
            return; // tables updated for a later revive; nothing to rescue
        }
        let dead_mask = st.sw_dead[sw as usize];
        let mut rescued = 0u64;
        for in_port in 0..self.m as u8 {
            for vl in 0..self.num_vls as u8 {
                let in_lane = self.lane(sw, in_port, vl);
                let Some(head) = self.lanes.in_q.front(in_lane) else {
                    continue;
                };
                let InState::Waiting(out) = head.state else {
                    continue;
                };
                let out_lane = self.lane(sw, out, vl);
                let out_dead = dead_mask & (1u64 << out) != 0;
                let out_idle = self.lanes.out_q.is_empty(out_lane);
                if !(out_dead || out_idle) {
                    continue; // a live departure on `out` will grant it
                }
                self.lanes.waiters.remove_item(out_lane, in_port);
                self.lanes
                    .in_q
                    .front_mut(in_lane)
                    .expect("checked nonempty")
                    .state = InState::Routing;
                if P::COUNTERS {
                    self.probe.xmit_wait_end(self.now, sw, in_port, vl);
                }
                self.queue.schedule(
                    self.now + self.route_ns,
                    Ev::SwRouteDone {
                        sw,
                        port: in_port,
                        vl,
                    },
                );
                rescued += 1;
            }
        }
        self.faults.as_mut().expect("checked above").rerouted += rescued;
    }

    // ----- end-node behaviour ------------------------------------------

    /// Generate one packet at `node`: sample the pattern, pick the DLID
    /// and VL, assign the flow sequence number, draw the next generation
    /// instant (the injection-side draws are the simulator's only RNG
    /// consumers), then queue the packet and schedule the next `Inject`.
    fn inject(&mut self, node: u32) {
        let num_nodes = self.nodes.len() as u32;
        let src = NodeId(node);
        let dst = self.pattern.sample(src, num_nodes, &mut self.rng);
        let Some(dst) = dst else {
            // Silent under this pattern: stop generating.
            self.nodes[node as usize].active = false;
            return;
        };
        let dlid = match self.cfg.path_selection {
            PathSelection::Paper => self.routing.select_dlid(src, dst),
            PathSelection::RandomPerPacket => {
                let space = self.routing.lid_space();
                let offset = self.rng.gen_range(0..space.lids_per_node());
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
            VlAssignment::Random => self.rng.gen_range(0..self.num_vls) as u8,
            VlAssignment::DestinationHash => (dst.0 as usize % self.num_vls) as u8,
            VlAssignment::SourceHash => (node as usize % self.num_vls) as u8,
        };
        let flow = (node as usize * self.nodes.len() + dst.index()) * self.num_vls + vl as usize;
        let flow_seq = take_flow_seq(&mut self.flow_next_seq, flow);

        // Draw the next generation instant.
        let next = match self.cfg.injection {
            InjectionProcess::Deterministic => {
                self.nodes[node as usize].next_gen + self.interarrival_ns
            }
            InjectionProcess::Poisson => {
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                self.now as f64 - self.interarrival_ns * u.ln()
            }
        };
        self.nodes[node as usize].next_gen = next;
        let at = next as Time;
        // A node whose leaf switch is scheduled to die stops generating
        // at the kill instant.
        let horizon = self.faults.as_ref().map_or(self.sim_time_ns, |f| {
            self.sim_time_ns.min(f.node_kill[node as usize])
        });
        let next_at = (at < horizon).then(|| at.max(self.now));

        let pkt = self.slab.insert(Packet {
            src: node,
            dlid,
            vl,
            t_gen: self.now,
            t_inject: 0,
            flow_seq,
        });
        if P::PACKETS {
            self.probe
                .packet_generated(self.now, pkt, node, dst.0, dlid.0, vl);
        }
        self.total_generated += 1;
        if self.now >= self.warmup_ns {
            self.generated_in_window += 1;
        }
        let lane = self.node_lane(node, vl);
        self.inj_q[lane].push_back(pkt);
        self.try_node_send(node);
        if let Some(at) = next_at {
            self.queue.schedule(at, Ev::Inject { node });
        }
    }

    pub(crate) fn try_node_send(&mut self, node: u32) {
        let num_vls = self.num_vls;
        let base = self.node_lane(node, 0);
        let inj_q = &mut self.inj_q[base..base + num_vls];
        let credits = &mut self.node_credits[base..base + num_vls];
        let sendable = |vl: usize| !inj_q[vl].is_empty() && credits[vl] > 0;
        let n = &mut self.nodes[node as usize];
        if n.busy_until > self.now {
            // An injection is in progress; the `TryNodeSend` chained at
            // its end re-arbitrates the link.
            debug_assert!(
                n.busy_until <= self.now + self.pkt_ns,
                "node {node} busy past its current injection"
            );
            return;
        }
        // VL arbitration on the injection link, mirroring the switches'
        // egress arbitration (weighted tables included).
        let mask: u16 = (0..num_vls)
            .filter(|&vl| sendable(vl))
            .fold(0, |m, vl| m | (1 << vl));
        let Some(vl) = n.arb.grant_mask(&self.arb_table, mask).map(usize::from) else {
            return; // woken by CreditToNode or the next Inject
        };
        // Start transmission.
        let head = inj_q[vl].pop_front().expect("checked nonempty");
        credits[vl] -= 1;
        let tx_end = self.now + self.pkt_ns;
        n.busy_until = tx_end;
        n.busy_ns += self.pkt_ns.min(self.sim_time_ns - self.now);
        let (sw, port) = (n.peer_sw, n.peer_port);
        self.slab.get_mut(head).t_inject = self.now;
        if P::PACKETS {
            self.probe
                .packet_event(self.now, head, TraceEvent::InjectionStart);
        }
        if self.wl.is_some() {
            self.wl_note_injected(head);
        }
        if P::COUNTERS {
            self.probe
                .node_xmit(self.now, node, vl as u8, self.cfg.packet_bytes);
        }
        self.send_header(sw, port, vl as u8, head);
        // The next queued packet can follow once the link is clear.
        self.queue.schedule(tx_end, Ev::TryNodeSend { node });
    }

    fn deliver(&mut self, node: u32, vl: u8, pkt: PacketId) {
        if P::PACKETS {
            self.probe
                .packet_event(self.now, pkt, TraceEvent::Delivered);
        }
        let p = self.slab.remove(pkt);
        debug_assert_eq!(
            self.routing.lid_space().resolve(p.dlid).map(|(n, _)| n.0),
            Some(node),
            "packet delivered to a node that does not own its DLID"
        );
        let flow = (p.src as usize * self.nodes.len() + node as usize) * self.num_vls + vl as usize;
        if let Some(last) = self.flow_delivered.get_mut(flow) {
            if *last != u32::MAX && p.flow_seq < *last {
                self.out_of_order += 1;
            } else {
                *last = p.flow_seq;
            }
        }
        self.total_delivered += 1;
        if self.now >= self.warmup_ns {
            self.delivered_in_window += 1;
            self.delivered_bytes_in_window += u64::from(self.cfg.packet_bytes);
            if p.t_gen >= self.warmup_ns {
                self.latency.record(self.now - p.t_gen);
                self.network_latency.record(self.now - p.t_inject);
            }
        }
        if P::COUNTERS {
            self.probe.node_rcv(
                self.now,
                node,
                vl,
                self.cfg.packet_bytes,
                self.now - p.t_gen,
            );
        }
        // Immediate consumption: the endport buffer frees now; the credit
        // flies back to the leaf switch.
        let n = &self.nodes[node as usize];
        self.queue.schedule(
            self.now + self.fly,
            Ev::CreditToSwitch {
                sw: n.peer_sw,
                port: n.peer_port,
                vl,
            },
        );
        if self.wl.is_some() {
            self.wl_note_delivered(pkt);
        }
    }

    // ----- switch behaviour --------------------------------------------

    /// A transmission into input `(sw, port, vl)` starts now: its header
    /// arrives one wire flight later. On the arrival path that is a
    /// `SwHeaderArrive` event. A fused run ([`Simulator::fuse_arrival`])
    /// lands the header in the input buffer now and schedules its
    /// route-done for the arrival plus one routing stage; the probes see
    /// the arrival at its own instant.
    fn send_header(&mut self, sw: u32, port: u8, vl: u8, pkt: PacketId) {
        let arrive = self.now + self.fly;
        if !self.fuse_arrival {
            self.queue
                .schedule(arrive, Ev::SwHeaderArrive { sw, port, vl, pkt });
            return;
        }
        let lane = self.lane(sw, port, vl);
        // The sender held this lane's only credit, so the lane is empty.
        debug_assert!(
            self.lanes.in_q.is_empty(lane),
            "fused arrival into an occupied input buffer"
        );
        self.lanes.in_q.push_back(
            lane,
            InEntry {
                pkt,
                state: InState::Routing,
            },
        );
        self.queue
            .schedule(arrive + self.route_ns, Ev::SwRouteDone { sw, port, vl });
        // An arrival past the horizon is never observed.
        if arrive < self.sim_time_ns {
            if P::PACKETS {
                self.probe
                    .packet_event(arrive, pkt, TraceEvent::HeaderArrive { sw, port });
            }
            if P::COUNTERS {
                self.probe
                    .sw_rcv(arrive, sw, port, vl, self.cfg.packet_bytes, 1);
            }
        }
    }

    fn sw_header_arrive(&mut self, sw: u32, port: u8, vl: u8, pkt: PacketId) {
        if let Some(f) = &self.faults {
            // Under the drop policy a packet that was mid-wire when its
            // link died is lost on arrival. Under the stall policy the
            // wire is lossless: the packet buffers normally and only
            // the (repaired) tables steer future traffic away.
            if f.sw_dead[sw as usize] & (1u64 << port) != 0
                && matches!(f.policy, crate::FaultPolicy::Drop)
            {
                self.drop_packet(sw, pkt, DropCause::DeadPort);
                return;
            }
        }
        if P::PACKETS {
            self.probe
                .packet_event(self.now, pkt, TraceEvent::HeaderArrive { sw, port });
        }
        let lane = self.lane(sw, port, vl);
        let q = &mut self.lanes.in_q;
        debug_assert!(
            q.len(lane) < self.cap as usize,
            "credit protocol overflowed an input buffer"
        );
        q.push_back(
            lane,
            InEntry {
                pkt,
                state: InState::Routing,
            },
        );
        let depth = q.len(lane);
        if P::COUNTERS {
            self.probe
                .sw_rcv(self.now, sw, port, vl, self.cfg.packet_bytes, depth as u8);
        }
        if depth == 1 {
            self.queue
                .schedule(self.now + self.route_ns, Ev::SwRouteDone { sw, port, vl });
        }
    }

    fn sw_route_done(&mut self, sw: u32, port: u8, vl: u8) {
        let lane = self.lane(sw, port, vl);
        let Some(head) = self.lanes.in_q.front(lane) else {
            debug_assert!(false, "route-done with empty input buffer");
            self.invariant_err = Some(SimError::EngineInvariant(format!(
                "route-done with empty input buffer (switch {sw}, port {port}, \
                 vl {vl}, t={})",
                self.now
            )));
            return;
        };
        debug_assert_eq!(head.state, InState::Routing);
        let dlid = self.slab.get(head.pkt).dlid;
        let out_port = match &self.route {
            RouteState::Table(lfts) => lfts[sw as usize].port_byte(dlid).wrapping_sub(1),
            RouteState::Oracle(o) => o
                .route_hop(ibfat_topology::SwitchId(sw), dlid)
                .map_or(u8::MAX, |p| p.0 - 1),
        };
        if out_port == u8::MAX {
            // No LFT entry (possible on degraded fabrics): the switch
            // discards the packet, per IBA semantics.
            self.discard_head(sw, port, vl, head.pkt, DropCause::NoEntry);
            return;
        }
        // Adaptive upward routing: any parent reaches every destination
        // that is not below this switch, so a climbing packet may take the
        // least-occupied up-port instead of the designated one.
        let out_port = if self.cfg.adaptive_up {
            self.adaptive_out_port(sw, vl, out_port)
        } else {
            out_port
        };
        // The table still names a dead output in the window between a
        // fault and the SM's reprogram of this switch. Drop policy:
        // discard it as a dead-port loss. Stall policy: park the head;
        // `sw_reprogram` re-routes it against the patched table.
        if let Some(f) = &self.faults {
            if f.sw_dead[sw as usize] & (1u64 << out_port) != 0 {
                let drop = matches!(f.policy, crate::FaultPolicy::Drop);
                if drop {
                    self.discard_head(sw, port, vl, head.pkt, DropCause::DeadPort);
                } else {
                    let head_mut = self.lanes.in_q.front_mut(lane).expect("checked nonempty");
                    head_mut.state = InState::Waiting(out_port);
                    let out_lane = self.lane(sw, out_port, vl);
                    self.lanes.waiters.push_back(out_lane, port);
                    if P::COUNTERS {
                        self.probe.xmit_wait_start(self.now, sw, port, vl, out_port);
                    }
                    self.faults.as_mut().expect("checked above").stalled += 1;
                }
                return;
            }
        }
        if P::PACKETS {
            self.probe
                .packet_event(self.now, head.pkt, TraceEvent::Routed { sw, out_port });
        }
        self.sw_request_output(sw, port, vl, out_port);
    }

    /// Discard the routed head of input lane `(sw, port, vl)` for
    /// `cause`. The input buffer frees once the tail has fully arrived;
    /// model that as the remaining serialization time from now (the
    /// header has been in the buffer for exactly `route_ns`).
    fn discard_head(&mut self, sw: u32, port: u8, vl: u8, pkt: PacketId, cause: DropCause) {
        self.drop_packet(sw, pkt, cause);
        let lane = self.lane(sw, port, vl);
        let head = self.lanes.in_q.front_mut(lane).expect("a routed head");
        head.state = InState::Departing;
        let drain = self.pkt_ns.saturating_sub(self.route_ns);
        self.queue
            .schedule(self.now + drain, Ev::SwDiscardDone { sw, port, vl });
    }

    /// Pick the best up-port for a climbing packet: prefer output buffers
    /// with space, then fewer queued packets, then available credits; the
    /// scan starts at the designated port so ties keep the table's choice.
    fn adaptive_out_port(&self, sw: u32, vl: u8, designated: u8) -> u8 {
        let first_up = self.up_ports_from[sw as usize];
        if first_up == u8::MAX || designated < first_up {
            return designated; // descending (or a root): the path is forced
        }
        let m = self.m as u8;
        let score = |port: u8| -> u32 {
            let lane = self.lane(sw, port, vl);
            let q = self.lanes.out_q.len(lane) as u32;
            let no_space = u32::from(q >= self.cap as u32);
            let no_credit = u32::from(self.lanes.credits[lane] == 0);
            (no_space << 16) + (q << 1) + no_credit
        };
        let span = m - first_up;
        let mut best = designated;
        let mut best_score = score(designated);
        for i in 1..span {
            let port = first_up + (designated - first_up + i) % span;
            let s = score(port);
            if s < best_score {
                best = port;
                best_score = s;
            }
        }
        best
    }

    /// A discarded packet's tail has fully arrived; free the buffer and
    /// return the credit, then route the next head if any.
    fn sw_discard_done(&mut self, sw: u32, port: u8, vl: u8) {
        // Identical bookkeeping to a departure, except the packet is gone.
        self.sw_input_departed(sw, port, vl);
    }

    /// The routed head of input `(port, vl)` requests output `out_port`.
    fn sw_request_output(&mut self, sw: u32, in_port: u8, vl: u8, out_port: u8) {
        let (in_lane, out_lane) = (self.lane(sw, in_port, vl), self.lane(sw, out_port, vl));
        let lanes = &mut self.lanes;
        let has_space = lanes.out_q.len(out_lane) < self.cap as usize;
        if has_space {
            let head = lanes
                .in_q
                .front_mut(in_lane)
                .expect("granting an empty input");
            let was_waiting = matches!(head.state, InState::Waiting(_));
            head.state = InState::Departing;
            let pkt = head.pkt;
            lanes.out_q.push_back(
                out_lane,
                OutEntry {
                    pkt,
                    transmitting: false,
                },
            );
            // A fresh head is not transmitting: it is ready iff the lane
            // holds a credit.
            let ready_head = lanes.out_q.len(out_lane) == 1 && lanes.credits[out_lane] > 0;
            if P::COUNTERS {
                let depth = lanes.out_q.len(out_lane) as u8;
                if was_waiting {
                    self.probe.xmit_wait_end(self.now, sw, in_port, vl);
                }
                self.probe.out_buffer_depth(sw, out_port, vl, depth);
            }
            if ready_head {
                let pi = self.port_ix(sw, out_port);
                self.ports[pi].ready |= 1 << vl;
            }
            if P::PACKETS {
                self.probe
                    .packet_event(self.now, pkt, TraceEvent::Granted { sw, out_port });
            }
            self.queue.schedule(
                self.now + self.pkt_ns,
                Ev::SwInputDeparted {
                    sw,
                    port: in_port,
                    vl,
                },
            );
            self.sw_try_output(sw, out_port);
        } else {
            let head = lanes
                .in_q
                .front_mut(in_lane)
                .expect("blocking an empty input");
            head.state = InState::Waiting(out_port);
            lanes.waiters.push_back(out_lane, in_port);
            if P::COUNTERS {
                self.probe
                    .xmit_wait_start(self.now, sw, in_port, vl, out_port);
            }
        }
    }

    fn sw_input_departed(&mut self, sw: u32, port: u8, vl: u8) {
        let lane = self.lane(sw, port, vl);
        let gone = self
            .lanes
            .in_q
            .pop_front(lane)
            .expect("departed from empty");
        debug_assert_eq!(gone.state, InState::Departing);
        let upstream = self.ports[self.port_ix(sw, port)].peer;
        let next_head = self.lanes.in_q.front(lane);
        // The freed buffer's credit flies back to whoever feeds this port.
        match upstream {
            PeerRef::SwitchPort {
                sw: usw,
                port: uport,
            } => self.queue.schedule(
                self.now + self.fly,
                Ev::CreditToSwitch {
                    sw: usw,
                    port: uport,
                    vl,
                },
            ),
            PeerRef::Node { node } => self
                .queue
                .schedule(self.now + self.fly, Ev::CreditToNode { node, vl }),
            PeerRef::Dead => unreachable!("packets never arrive through a failed port"),
        }
        // The next buffered packet (fully or partially arrived) becomes
        // head and enters the routing stage.
        if let Some(entry) = next_head {
            debug_assert_eq!(entry.state, InState::Routing);
            self.queue
                .schedule(self.now + self.route_ns, Ev::SwRouteDone { sw, port, vl });
        }
    }

    fn sw_try_output(&mut self, sw: u32, port: u8) {
        let num_vls = self.num_vls;
        let pi = self.port_ix(sw, port);
        let base = pi * num_vls;
        let lanes = &mut self.lanes;
        let p = &mut self.ports[pi];
        let mask = p.ready;
        debug_assert_eq!(
            mask,
            lanes.ready_mask(base, num_vls),
            "stale ready mask at switch {sw} port {port}"
        );
        if p.busy_until > self.now {
            // The port's own `SwOutputDeparted` at `busy_until`
            // re-arbitrates; a change that readies a lane after it
            // calls here itself.
            return;
        }
        // VL arbitration (round-robin or weighted table). An empty mask
        // still goes through `grant_mask`: that call refills the current
        // entry's weight, and the reports depend on it.
        let granted = p.arb.grant_mask(&self.arb_table, mask).map(usize::from);
        if let Some(vl) = granted {
            let head = lanes.out_q.front_mut(base + vl).expect("checked nonempty");
            head.transmitting = true;
            let pkt = head.pkt;
            lanes.credits[base + vl] -= 1;
            // The head is transmitting now, so the lane is not ready
            // whatever credits remain.
            p.ready &= !(1 << vl);
            let tx_end = self.now + self.pkt_ns;
            p.busy_until = tx_end;
            p.busy_ns += self.pkt_ns.min(self.sim_time_ns - self.now);
            let peer = p.peer;
            self.queue.schedule(
                tx_end,
                Ev::SwOutputDeparted {
                    sw,
                    port,
                    vl: vl as u8,
                },
            );
            if P::PACKETS {
                self.probe.packet_event(
                    self.now,
                    pkt,
                    TraceEvent::TransmitStart { sw, out_port: port },
                );
            }
            if P::COUNTERS {
                self.probe
                    .sw_xmit(self.now, sw, port, vl as u8, self.cfg.packet_bytes);
            }
            match peer {
                PeerRef::SwitchPort {
                    sw: dsw,
                    port: dport,
                } => self.send_header(dsw, dport, vl as u8, pkt),
                PeerRef::Node { node } => self.queue.schedule(
                    self.now + self.fly + self.pkt_ns,
                    Ev::Deliver {
                        node,
                        vl: vl as u8,
                        pkt,
                    },
                ),
                // `build` rejects a routing that forwards into an
                // uncabled port, and fault repair routes around dead ones.
                PeerRef::Dead => unreachable!("routing forwarded a packet into an uncabled port"),
            }
        }
        if P::COUNTERS || P::PACKETS {
            // Credit-stall detection at this arbitration instant: a VL
            // whose head is ready but holds no credits is stalled on
            // link-level flow control (ended by `CreditToSwitch`). The
            // counters see the port stall and the packet hooks the
            // stalled head; neither changes engine state.
            let lanes = &self.lanes;
            let mut stalled: u16 = 0;
            let mut heads: [PacketId; 16] = [0; 16];
            for (vl, head) in heads.iter_mut().enumerate().take(num_vls) {
                if lanes.credits[base + vl] == 0 {
                    if let Some(h) = lanes.out_q.front(base + vl) {
                        if !h.transmitting {
                            stalled |= 1 << vl;
                            *head = h.pkt;
                        }
                    }
                }
            }
            for (vl, &head) in heads.iter().enumerate().take(num_vls) {
                if stalled & (1 << vl) != 0 {
                    if P::COUNTERS {
                        self.probe.credit_stall_start(self.now, sw, port, vl as u8);
                    }
                    if P::PACKETS {
                        self.probe.packet_event(
                            self.now,
                            head,
                            TraceEvent::CreditStalled { sw, out_port: port },
                        );
                    }
                }
            }
        }
    }

    fn sw_output_departed(&mut self, sw: u32, port: u8, vl: u8) {
        // While the port is dead, parked heads must not be granted into
        // it — they stay in the waiter queue for `sw_reprogram` to
        // re-route.
        let fault_dead = self
            .faults
            .as_ref()
            .is_some_and(|f| f.sw_dead[sw as usize] & (1u64 << port) != 0);
        let lane = self.lane(sw, port, vl);
        let gone = self
            .lanes
            .out_q
            .pop_front(lane)
            .expect("departed from empty");
        debug_assert!(gone.transmitting);
        // The departed head was transmitting, so the lane was not ready;
        // only a successor head can make it ready again.
        if !self.lanes.out_q.is_empty(lane) {
            self.refresh_ready(self.port_ix(sw, port), vl);
        }
        // Space freed: grant the oldest waiter for this (port, vl), if any.
        if fault_dead {
            // The link is still free for other buffered VLs to drain.
            self.sw_try_output(sw, port);
            return;
        }
        if let Some(in_port) = self.lanes.waiters.pop_front(lane) {
            let head = self
                .lanes
                .in_q
                .front(self.lane(sw, in_port, vl))
                .expect("waiter with empty input");
            debug_assert_eq!(head.state, InState::Waiting(port));
            self.sw_request_output(sw, in_port, vl, port);
        }
        // The link is free exactly now; another VL may proceed.
        self.sw_try_output(sw, port);
    }

    // ----- reporting ----------------------------------------------------

    fn report(self, wall_secs: f64) -> (SimReport, P) {
        let window = (self.sim_time_ns - self.warmup_ns) as f64;
        let nodes = self.nodes.len() as f64;
        let accepted = self.delivered_bytes_in_window as f64 / window / nodes;
        let offered = self.cfg.packet_bytes as f64 / self.interarrival_ns;

        // Every cabled direction is one link: a switch port with a peer,
        // and a node's injection side when its cable is there.
        let mut total_busy = 0u64;
        let mut max_busy = 0u64;
        let mut links = 0u64;
        let cabled_ports = self
            .ports
            .iter()
            .filter(|p| !matches!(p.peer, PeerRef::Dead));
        let cabled_nodes = self.nodes.iter().filter(|n| n.peer_sw != u32::MAX);
        for busy in cabled_ports
            .map(|p| p.busy_ns)
            .chain(cabled_nodes.map(|n| n.busy_ns))
        {
            total_busy += busy;
            max_busy = max_busy.max(busy);
            links += 1;
        }
        let span = self.sim_time_ns as f64;

        let report = SimReport {
            offered_load: self.offered_load,
            sim_time_ns: self.sim_time_ns,
            warmup_ns: self.warmup_ns,
            generated: self.generated_in_window,
            dropped: self.dropped,
            total_generated: self.total_generated,
            total_delivered: self.total_delivered,
            delivered: self.delivered_in_window,
            delivered_bytes: self.delivered_bytes_in_window,
            in_flight_at_end: self.slab.live() as u64,
            accepted_bytes_per_ns_per_node: accepted,
            offered_bytes_per_ns_per_node: offered,
            latency: self.latency,
            network_latency: self.network_latency,
            events_processed: self.events_processed,
            events_per_sec: if wall_secs > 0.0 {
                self.events_processed as f64 / wall_secs
            } else {
                0.0
            },
            packets_per_sec: if wall_secs > 0.0 {
                self.total_delivered as f64 / wall_secs
            } else {
                0.0
            },
            mean_link_utilization: total_busy as f64 / (links.max(1) as f64 * span),
            max_link_utilization: max_busy as f64 / span,
            out_of_order: self.out_of_order,
            fault_lost: self.faults.as_ref().map_or(0, |f| f.lost),
            fault_stalled: self.faults.as_ref().map_or(0, |f| f.stalled),
            fault_rerouted: self.faults.as_ref().map_or(0, |f| f.rerouted),
        };
        (report, self.probe)
    }
}

/// Classify an event by the pipeline stage it advances (self-profiling).
fn phase_of(ev: &Ev) -> Phase {
    match ev {
        Ev::Inject { .. } | Ev::TryNodeSend { .. } | Ev::CreditToNode { .. } | Ev::WlArm { .. } => {
            Phase::Generation
        }
        Ev::SwHeaderArrive { .. }
        | Ev::SwRouteDone { .. }
        | Ev::SwInputDeparted { .. }
        | Ev::SwDiscardDone { .. }
        | Ev::FaultApply { .. }
        | Ev::SwReprogram { .. } => Phase::Routing,
        Ev::SwOutputDeparted { .. } | Ev::CreditToSwitch { .. } => Phase::Arbitration,
        Ev::Deliver { .. } => Phase::Delivery,
    }
}

// The checks under test are `debug_assert!`s.
#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use ibfat_routing::{Lid, RoutingKind};
    use ibfat_topology::TreeParams;

    /// A header landing in a full input buffer means the credit protocol
    /// broke. With `buffer_packets = 3` the lane's ring block holds four
    /// slots, so only the credit check (not the ring) can catch the
    /// fourth arrival.
    #[test]
    #[should_panic(expected = "credit protocol overflowed an input buffer")]
    fn input_buffer_overflow_trips_the_credit_check() {
        let net = Network::mport_ntree(TreeParams::new(4, 2).expect("valid params"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let cfg = SimConfig {
            buffer_packets: 3,
            ..SimConfig::default()
        };
        let spec = RunSpec {
            offered_load: 0.1,
            sim_time_ns: 1_000,
            warmup_ns: 0,
        };
        let mut sim = Simulator::build(
            &net,
            &routing,
            cfg,
            TrafficPattern::Uniform,
            spec,
            NoopProbe,
        )
        .unwrap();
        for _ in 0..4 {
            let pkt = sim.slab.insert(Packet {
                src: 0,
                dlid: Lid(1),
                vl: 0,
                t_gen: 0,
                t_inject: 0,
                flow_seq: 0,
            });
            sim.dispatch(Ev::SwHeaderArrive {
                sw: 0,
                port: 0,
                vl: 0,
                pkt,
            });
        }
    }

    /// A built MLID routing on its intact tree runs on the closed form.
    /// Other routings read the routing's own tables, and so does a run
    /// with a fault plan until the first SM reprogram lands: that one
    /// gives the run its copy, which then holds the routing's tables
    /// with the repaired rows installed.
    #[test]
    fn tables_are_borrowed_unless_a_fault_plan_patches_them() {
        let params = TreeParams::new(4, 3).expect("valid params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let assembled = Routing::assemble(
            RoutingKind::Mlid,
            params,
            routing.lid_space().clone(),
            routing.lfts().to_vec(),
        );
        let spec = RunSpec::new(0.3, 5_000);
        let build = |routing, faults| {
            let cfg = SimConfig {
                faults,
                ..SimConfig::default()
            };
            Simulator::build(&net, routing, cfg, TrafficPattern::Uniform, spec, NoopProbe).unwrap()
        };
        let sim = build(&routing, crate::FaultPlan::default());
        assert!(
            matches!(sim.route, RouteState::Oracle(_)),
            "expected the closed form, got {:?}",
            sim.route
        );
        let sim = build(&assembled, crate::FaultPlan::default());
        let RouteState::Table(Cow::Borrowed(lfts)) = &sim.route else {
            panic!("expected borrowed tables, got {:?}", sim.route);
        };
        assert!(std::ptr::eq(*lfts, assembled.lfts()));
        let link = crate::FaultPlan::pick_links(&net, 1, 7);
        let plan = crate::FaultPlan {
            detect_ns: 500,
            per_switch_ns: 10,
            ..crate::FaultPlan::kill_links_at(&link, 1_000)
        };
        let mut sim = build(&routing, plan);
        let rows = sim.faults.as_ref().unwrap().faults[0].rows.clone();
        assert!(!rows.is_empty());
        sim.prime_injections();
        sim.schedule_fault_events();
        let mut reprogrammed = false;
        while let Some((t, ev)) = sim.queue.pop() {
            if t >= sim.sim_time_ns {
                break;
            }
            match &sim.route {
                RouteState::Table(Cow::Borrowed(lfts)) => {
                    assert!(!reprogrammed, "a reprogram left the tables borrowed");
                    assert!(std::ptr::eq(*lfts, routing.lfts()));
                }
                RouteState::Table(Cow::Owned(_)) => assert!(reprogrammed, "copied early"),
                RouteState::Oracle(_) => panic!("a fault plan runs on the tables"),
            }
            reprogrammed |= matches!(ev, Ev::SwReprogram { .. });
            sim.now = t;
            sim.events_processed += 1;
            sim.dispatch(ev);
        }
        assert!(reprogrammed, "the reprogram must land before the horizon");
        let RouteState::Table(Cow::Owned(lfts)) = &sim.route else {
            panic!("expected owned tables, got {:?}", sim.route);
        };
        let mut expect = routing.lfts().to_vec();
        for (sw, row) in rows {
            expect[sw as usize] = row;
        }
        assert_eq!(lfts, &expect);
        let repaired = ibfat_routing::build_fault_tolerant(
            &net.without(&[link[0] as usize], &[]),
            routing.kind(),
        );
        assert_eq!(lfts.as_slice(), repaired.lfts());
    }

    /// Every switch port's cached ready mask equals the one recomputed
    /// from credits and output heads after every event of a saturated
    /// VL4 hot-spot run, and lanes really go through credit starvation
    /// (a waiting head, no credit) and come back ready on the return.
    /// Two-deep buffers give output pops a successor head to expose.
    #[test]
    fn ready_mask_tracks_credit_starvation_and_return() {
        let net = Network::mport_ntree(TreeParams::new(4, 2).expect("valid params"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        for buffer_packets in [1, 2] {
            let cfg = SimConfig {
                buffer_packets,
                ..SimConfig::paper(4)
            };
            let pattern = TrafficPattern::paper_centric();
            let spec = RunSpec {
                offered_load: 1.0,
                sim_time_ns: 20_000,
                warmup_ns: 0,
            };
            let mut sim = Simulator::build(&net, &routing, cfg, pattern, spec, NoopProbe).unwrap();
            let num_vls = sim.num_vls;
            let mut starved = vec![false; sim.ports.len() * num_vls];
            let (mut starvations, mut returns) = (0, 0);
            sim.prime_injections();
            while let Some((t, ev)) = sim.queue.pop() {
                if t >= sim.sim_time_ns {
                    break;
                }
                sim.now = t;
                sim.dispatch(ev);
                for (pi, p) in sim.ports.iter().enumerate() {
                    let base = pi * num_vls;
                    assert_eq!(
                        p.ready,
                        sim.lanes.ready_mask(base, num_vls),
                        "port {pi} after {ev:?} at t={t}, {buffer_packets}-deep buffers"
                    );
                    for (vl, starved) in starved[base..base + num_vls].iter_mut().enumerate() {
                        let lane = base + vl;
                        let waiting = sim
                            .lanes
                            .out_q
                            .front(lane)
                            .is_some_and(|head| !head.transmitting);
                        if waiting && sim.lanes.credits[lane] == 0 && !*starved {
                            *starved = true;
                            starvations += 1;
                        } else if *starved && p.ready & (1 << vl) != 0 {
                            *starved = false;
                            returns += 1;
                        }
                    }
                }
            }
            assert!(
                returns > 0 && starvations > 0,
                "{buffer_packets}-deep: {starvations} starvations, {returns} returns"
            );
        }
    }
}

/// Skipping the per-flow order state is safe: on every configuration
/// that cannot reorder a flow, forcing the state on counts no late
/// packet and changes no other report field.
#[cfg(test)]
mod flow_order_tests {
    use super::*;
    use ibfat_routing::RoutingKind;
    use ibfat_topology::TreeParams;

    fn tracks_order(sim: &Simulator<'_>) -> bool {
        !sim.flow_next_seq.is_empty() && !sim.flow_delivered.is_empty()
    }

    #[test]
    fn untracked_pattern_runs_match_tracked_ones() {
        let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
        let spec = RunSpec::new(0.9, 20_000);
        for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
            let routing = Routing::build(&net, kind);
            for num_vls in [1, 2, 4] {
                for pattern in [TrafficPattern::Uniform, TrafficPattern::paper_centric()] {
                    for buffer_packets in [1, 2] {
                        let cfg = SimConfig {
                            buffer_packets,
                            ..SimConfig::paper(num_vls)
                        };
                        let build = || {
                            Simulator::build_pattern(
                                &net,
                                &routing,
                                cfg.clone(),
                                pattern.clone(),
                                spec,
                                NoopProbe,
                            )
                            .unwrap()
                        };
                        let plain = build();
                        assert!(!tracks_order(&plain), "{kind} VL{num_vls}: tracked");
                        let mut tracked = build();
                        tracked.track_flow_order();
                        let (mut plain, _) = plain.run_pattern().unwrap();
                        let (mut tracked, _) = tracked.run_pattern().unwrap();
                        let at = format!("{kind} VL{num_vls} {pattern:?} {buffer_packets}-deep");
                        assert!(tracked.delivered > 0, "{at}: nothing delivered");
                        assert_eq!(tracked.out_of_order, 0, "{at}: reordered");
                        for r in [&mut plain, &mut tracked] {
                            r.events_per_sec = 0.0;
                            r.packets_per_sec = 0.0;
                        }
                        assert_eq!(plain, tracked, "{at}: reports differ");
                    }
                }
            }
        }
    }

    #[test]
    fn untracked_alltoall_workload_matches_a_tracked_one() {
        let net = Network::mport_ntree(TreeParams::new(8, 3).expect("valid params"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let wl = ibfat_workload::generators::all_to_all(net.num_nodes() as u32, 4096);
        let build = || {
            Simulator::build_workload(&net, &routing, SimConfig::default(), &wl, NoopProbe).unwrap()
        };
        let plain = build();
        assert!(!tracks_order(&plain));
        let (plain, _) = plain.run_to_completion().unwrap();
        let mut tracked = build();
        tracked.track_flow_order();
        tracked.wl_prime();
        tracked.drive().unwrap();
        assert_eq!(tracked.out_of_order, 0, "the all-to-all reordered a flow");
        let (tracked, _) = tracked.wl_finish().unwrap();
        assert_eq!(plain, tracked);
    }

    #[test]
    fn only_configs_that_can_reorder_allocate_flow_state() {
        let params = TreeParams::new(4, 3).expect("valid params");
        let net = Network::mport_ntree(params);
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let spec = RunSpec::new(0.3, 5_000);
        let link = crate::FaultPlan::pick_links(&net, 1, 7);
        let reorders = [
            SimConfig {
                path_selection: PathSelection::RandomPerPacket,
                ..SimConfig::default()
            },
            SimConfig {
                path_selection: PathSelection::RoundRobinPerSource,
                ..SimConfig::default()
            },
            SimConfig {
                adaptive_up: true,
                ..SimConfig::default()
            },
            SimConfig {
                faults: crate::FaultPlan {
                    policy: crate::FaultPolicy::Stall,
                    ..crate::FaultPlan::kill_links_at(&link, 1_000)
                },
                ..SimConfig::default()
            },
        ];
        let wl = ibfat_workload::generators::all_to_all(net.num_nodes() as u32, 256);
        for cfg in reorders {
            let sim = Simulator::build_pattern(
                &net,
                &routing,
                cfg.clone(),
                TrafficPattern::Uniform,
                spec,
                NoopProbe,
            )
            .unwrap();
            assert!(tracks_order(&sim), "{cfg:?}");
            let sim =
                Simulator::build_workload(&net, &routing, cfg.clone(), &wl, NoopProbe).unwrap();
            assert!(!tracks_order(&sim), "workload {cfg:?}");
        }
    }
}

/// Fusing each switch arrival into its transmission changes no report:
/// every run that qualifies produces, with the flag forced off, the same
/// `SimReport` (except `events_processed`), the same flight-recorder
/// spans and the same fabric counters.
#[cfg(test)]
mod arrival_fusion_tests {
    use super::*;
    use crate::{FabricCounters, FlightRecorder, TraceSampling};
    use ibfat_routing::RoutingKind;
    use ibfat_topology::TreeParams;

    type Observed = (SimReport, FlightRecorder, FabricCounters);

    fn observe(sim: Simulator<'_, (FlightRecorder, FabricCounters)>) -> Observed {
        let (mut report, (recorder, counters)) = sim.run_pattern().unwrap();
        report.events_per_sec = 0.0;
        report.packets_per_sec = 0.0;
        (report, recorder, counters)
    }

    /// Run `cfg` fused and on the arrival path; assert they agree.
    fn assert_fusion_exact(
        net: &Network,
        routing: &Routing,
        cfg: &SimConfig,
        pattern: &TrafficPattern,
        spec: RunSpec,
    ) {
        let at = format!(
            "{} {cfg:?} {pattern:?} load {}",
            net.params(),
            spec.offered_load
        );
        let build = |fuse| {
            let probe = (
                FlightRecorder::new(64, TraceSampling::FirstN, cfg.seed),
                FabricCounters::new(net, cfg.num_vls),
            );
            let mut sim =
                Simulator::build_pattern(net, routing, cfg.clone(), pattern.clone(), spec, probe)
                    .unwrap();
            assert!(sim.fuse_arrival, "{at}: does not qualify for the fusion");
            sim.fuse_arrival = fuse;
            observe(sim)
        };
        let (mut fused, fused_trace, fused_counters) = build(true);
        let (arrival, arrival_trace, arrival_counters) = build(false);
        assert!(fused.delivered > 0, "{at}: nothing delivered");
        assert!(
            fused.events_processed < arrival.events_processed,
            "{at}: fusing saved no events"
        );
        fused.events_processed = arrival.events_processed;
        assert_eq!(fused, arrival, "{at}: reports differ");
        assert_eq!(
            fused_trace.traces(),
            arrival_trace.traces(),
            "{at}: spans differ"
        );
        assert_eq!(
            fused_counters.to_json(),
            arrival_counters.to_json(),
            "{at}: counters differ"
        );
    }

    #[test]
    fn fused_pattern_runs_match_the_arrival_path() {
        for (m, n) in [(4, 2), (4, 3), (8, 2)] {
            let net = Network::mport_ntree(TreeParams::new(m, n).expect("valid params"));
            for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
                let routing = Routing::build(&net, kind);
                for num_vls in [1, 2, 4] {
                    let cfg = SimConfig::paper(num_vls);
                    for (pattern, load) in [
                        (TrafficPattern::Uniform, 0.3),
                        (TrafficPattern::Uniform, 0.8),
                        (TrafficPattern::paper_centric(), 1.0),
                    ] {
                        let spec = RunSpec::new(load, 20_000);
                        assert_fusion_exact(&net, &routing, &cfg, &pattern, spec);
                    }
                }
            }
        }
    }

    /// Adaptive climbing reads output buffers and credits, never an
    /// input lane, so it fuses too.
    #[test]
    fn fused_adaptive_run_matches_the_arrival_path() {
        let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let cfg = SimConfig {
            adaptive_up: true,
            ..SimConfig::paper(2)
        };
        let spec = RunSpec::new(0.9, 20_000);
        assert_fusion_exact(&net, &routing, &cfg, &TrafficPattern::Uniform, spec);
    }

    #[test]
    fn fused_alltoall_workload_matches_the_arrival_path() {
        let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let wl = ibfat_workload::generators::all_to_all(net.num_nodes() as u32, 1024);
        let run = |fuse| {
            let mut sim =
                Simulator::build_workload(&net, &routing, SimConfig::paper(2), &wl, NoopProbe)
                    .unwrap();
            assert!(sim.fuse_arrival);
            sim.fuse_arrival = fuse;
            sim.run_to_completion().unwrap().0
        };
        let (mut fused, arrival) = (run(true), run(false));
        assert!(fused.events < arrival.events, "fusing saved no events");
        fused.events = arrival.events;
        assert_eq!(fused, arrival);
    }

    /// The fusion is chosen from the run's inputs: deeper buffers, a
    /// fault plan, Poisson injection and an injection gap inside the
    /// fused window `[R, F + R]` each keep the arrival path.
    #[test]
    fn only_qualifying_runs_fuse() {
        let net = Network::mport_ntree(TreeParams::new(4, 2).expect("valid params"));
        let routing = Routing::build(&net, RoutingKind::Mlid);
        let fuses = |cfg: SimConfig, load: f64| {
            Simulator::build(
                &net,
                &routing,
                cfg,
                TrafficPattern::Uniform,
                RunSpec::new(load, 5_000),
                NoopProbe,
            )
            .unwrap()
            .fuse_arrival
        };
        assert!(fuses(SimConfig::default(), 0.5));
        // Loads just outside the window: gaps of 98.5 and 121.9 ns.
        assert!(fuses(SimConfig::default(), 2.6));
        assert!(fuses(SimConfig::default(), 2.1));
        let link = crate::FaultPlan::pick_links(&net, 1, 7);
        let keeps_arrival = [
            (
                SimConfig {
                    buffer_packets: 2,
                    ..SimConfig::default()
                },
                0.5,
            ),
            (
                SimConfig {
                    faults: crate::FaultPlan::kill_links_at(&link, 1_000),
                    ..SimConfig::default()
                },
                0.5,
            ),
            (
                SimConfig {
                    injection: InjectionProcess::Poisson,
                    ..SimConfig::default()
                },
                0.5,
            ),
            // A 110 ns gap: an injection lands inside the window.
            (SimConfig::default(), 256.0 / 110.0),
            // Routing no slower than the wire: `F` is in the window.
            (
                SimConfig {
                    routing_time_ns: 20,
                    ..SimConfig::default()
                },
                0.5,
            ),
        ];
        for (cfg, load) in keeps_arrival {
            assert!(!fuses(cfg.clone(), load), "{cfg:?} at load {load} fused");
        }
    }
}
