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

use crate::engine::{ChainClass, ChainQueue, Time};
use crate::lanes::LaneRings;
use crate::metrics::{LatencyStats, SimReport};
use crate::packet::{Packet, PacketId, PacketSlab};
use crate::probe::{NoopProbe, Phase, Probe};
use crate::trace::{PacketTrace, TraceEvent};
use crate::vlarb::VlArbiter;
use crate::{
    InjectionProcess, PathSelection, RouteBackend, SimConfig, SimError, TrafficPattern,
    VlAssignment,
};
use ibfat_routing::{RouteOracle, Routing};
use ibfat_topology::{DeviceRef, Network, NodeId, PortNum};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
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
    /// Link output direction is serialized until this time.
    busy_until: Time,
    /// A `SwTryOutput` retry is already scheduled for `busy_until`.
    retry_pending: bool,
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

/// One end node. Its per-VL source queues and credits live on the
/// simulator, lane `node * num_vls + vl`.
#[derive(Debug)]
pub(crate) struct NodeSt {
    pub(crate) peer_sw: u32,
    peer_port: u8,
    /// Egress VL arbitration state for the injection link.
    arb: VlArbiter,
    busy_until: Time,
    retry_pending: bool,
    /// Next generation instant (f64 to carry fractional inter-arrivals).
    pub(crate) next_gen: f64,
    /// Whether this node generates traffic at all (permutation patterns
    /// may silence self-mapped nodes).
    pub(crate) active: bool,
    /// Round-robin offset cursor for `PathSelection::RoundRobinPerSource`.
    pub(crate) rr_offset: u32,
    pub(crate) busy_ns: u64,
}

/// How the data plane resolves `(switch, dlid) → output port` — the
/// materialization behind [`RouteBackend`].
#[derive(Debug)]
pub(crate) enum RouteState {
    /// All forwarding tables in one contiguous buffer, each switch's
    /// [`Lft`](ibfat_routing::Lft) bytes copied verbatim:
    /// `lft[sw * stride + lid]` is the 1-based output port (`0` = no
    /// entry). The lookup subtracts one with wrapping, so a hole reads
    /// as the `u8::MAX` drop sentinel.
    Table { lft: Vec<u8>, stride: usize },
    /// Closed-form per-hop lookup (the paper's Eq. 1/Eq. 2) — no tables
    /// in memory. `route_hop` returns `None` exactly where a pristine
    /// table has no entry, so the drop semantics line up bit-for-bit
    /// with the table's hole.
    Oracle(RouteOracle),
}

/// Simulator events.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Generate the next packet at a node.
    Inject { node: u32 },
    /// Attempt to start transmitting the node's queue head.
    TryNodeSend { node: u32 },
    /// A packet header reached a switch input buffer.
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
    /// Attempt to start a transmission on a switch output port.
    SwTryOutput { sw: u32, port: u8 },
    /// The tail of a transmitting packet left the output buffer.
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
/// Borrows the routing for its whole lifetime — building a simulator
/// copies nothing heavier than its forwarding tables (one `memcpy` per
/// switch), so sweeps and replications share one `Routing` across
/// threads.
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
    /// Per-hop route lookup state (copied tables or the closed-form
    /// oracle), per `cfg.route_backend`.
    pub(crate) route: RouteState,
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

    pub(crate) queue: ChainQueue<Ev>,
    pub(crate) slab: PacketSlab,
    pub(crate) rng: ChaCha12Rng,
    pub(crate) now: Time,

    // measurement
    /// Next sequence number per (src, dst, vl) flow. InfiniBand only
    /// orders traffic within a lane, so the flow key includes the VL.
    pub(crate) flow_next_seq: Vec<u32>,
    /// Highest delivered sequence per (src, dst, vl) flow (u32::MAX = none).
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
    pub(crate) traces: Vec<PacketTrace>,
    /// Flight-recorder slot per live packet id (`u32::MAX` = untraced) —
    /// the side table that keeps the slot out of the 32-byte hot
    /// [`Packet`]. Maintained only when tracing is enabled.
    pub(crate) trace_slots: Vec<u32>,
    /// Workload-mode state (message DAG, dependency counters, timings);
    /// `None` in pattern mode — the hot-path hooks cost one branch.
    pub(crate) wl: Option<Box<crate::workload::WlState>>,
    /// First engine-invariant violation observed during dispatch (release
    /// builds; debug builds assert instead). Checked by the run loops,
    /// which abort and surface it through the `try_run_*` entry points.
    pub(crate) invariant_err: Option<SimError>,
    /// Live fault-injection state; `None` when the config carries no
    /// fault plan, so the subsystem costs one branch on the hot paths.
    pub(crate) faults: Option<Box<crate::faults::FaultState>>,

    pub(crate) probe: P,
}

impl<'a> Simulator<'a> {
    /// Build an unprobed simulator. `offered_load` is normalized to the
    /// injection link bandwidth (`1.0` = one packet every
    /// `packet_time_ns`).
    ///
    /// # Panics
    /// Panics on invalid configuration or a subnet with fewer than two
    /// nodes.
    pub fn new(
        net: &Network,
        routing: &'a Routing,
        cfg: SimConfig,
        pattern: TrafficPattern,
        offered_load: f64,
        sim_time_ns: Time,
        warmup_ns: Time,
    ) -> Simulator<'a> {
        Simulator::with_probe(
            net,
            routing,
            cfg,
            pattern,
            offered_load,
            sim_time_ns,
            warmup_ns,
            NoopProbe,
        )
    }
}

impl<'a, P: Probe> Simulator<'a, P> {
    /// Build a simulator observed by `probe` (see [`Probe`]); retrieve
    /// the probe with [`run_observed`](Simulator::run_observed).
    #[allow(clippy::too_many_arguments)]
    pub fn with_probe(
        net: &Network,
        routing: &'a Routing,
        cfg: SimConfig,
        pattern: TrafficPattern,
        offered_load: f64,
        sim_time_ns: Time,
        warmup_ns: Time,
        probe: P,
    ) -> Simulator<'a, P> {
        cfg.validate().expect("invalid simulator configuration");
        if let Err(e) = pattern.validate(net.num_nodes() as u32) {
            panic!("{e}");
        }
        assert!(net.num_nodes() >= 2, "need at least two nodes");
        assert!(warmup_ns < sim_time_ns, "warm-up must end before the run");
        let num_vls = cfg.num_vls as usize;
        let cap = cfg.buffer_packets;
        let arb_table = cfg.vl_arbitration.table(cfg.num_vls);

        let route = match cfg.route_backend {
            RouteBackend::Table => {
                assert!(
                    routing.has_tables(),
                    "table route backend needs materialized forwarding tables; \
                     this routing was built table-free"
                );
                // One contiguous stride-indexed buffer across all
                // switches, each row a verbatim copy of the switch's LFT.
                let stride = routing.lid_space().max_lid().index() + 1;
                let mut lft = Vec::with_capacity(net.num_switches() * stride);
                for sw in 0..net.num_switches() {
                    let row = routing.lft(ibfat_topology::SwitchId(sw as u32)).as_bytes();
                    assert_eq!(row.len(), stride, "LFT {sw} does not span the LID space");
                    lft.extend_from_slice(row);
                }
                RouteState::Table { lft, stride }
            }
            RouteBackend::Oracle => RouteState::Oracle(
                RouteOracle::for_routing(routing)
                    .expect("oracle route backend supports only the SLID/MLID schemes"),
            ),
        };

        let params = net.params();
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
        if cfg.adaptive_up || cfg.route_backend == RouteBackend::Oracle {
            let intact = (0..net.num_switches()).all(|sw| {
                net.switch(ibfat_topology::SwitchId(sw as u32))
                    .peers()
                    .count()
                    == params.m() as usize
            });
            if cfg.adaptive_up {
                assert!(intact, "adaptive upward routing requires an intact fabric");
            }
            if cfg.route_backend == RouteBackend::Oracle {
                // The oracle reproduces *pristine* tables; fault-repaired
                // routings deviate from the closed form, so degraded
                // fabrics must use the table backend.
                assert!(
                    intact,
                    "oracle route backend requires an intact fabric (repaired \
                     routings deviate from the closed-form tables)"
                );
            }
        }

        // Every per-(port, VL) ring is sized from the topology: buffers
        // hold at most `cap` packets, and at most `m` inputs can wait on
        // one output — so the hot path never reallocates.
        let m = net.params().m() as usize;
        let ports: Vec<SwPort> = (0..net.num_switches() * m)
            .map(|i| {
                let sw = ibfat_topology::SwitchId((i / m) as u32);
                let port = PortNum((i % m) as u8 + 1);
                // Degraded subnets may have uncabled (failed) ports; a
                // repaired routing never forwards into them, which
                // `sw_try_output` asserts.
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
                    retry_pending: false,
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
                    retry_pending: false,
                    next_gen: 0.0,
                    active,
                    rr_offset: 0,
                    busy_ns: 0,
                }
            })
            .collect();
        let node_lanes = nodes.len() * num_vls;

        // Fault-injection state: the plan compiles eagerly against the
        // full tables (`validate` already demanded the table backend).
        let faults = (!cfg.faults.is_empty()).then(|| {
            let runtime = std::sync::Arc::new(crate::faults::compile(net, routing, &cfg.faults));
            Box::new(crate::faults::FaultState::new(net, &cfg.faults, runtime))
        });

        Simulator {
            pkt_ns: cfg.packet_time_ns(),
            fly: cfg.fly_time_ns,
            route_ns: cfg.routing_time_ns,
            num_vls,
            cap,
            arb_table,
            interarrival_ns: cfg.interarrival_ns(offered_load),
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
            queue: ChainQueue::new(),
            slab: PacketSlab::new(),
            rng: ChaCha12Rng::seed_from_u64(cfg.seed),
            now: 0,
            flow_next_seq: vec![0; net.num_nodes() * net.num_nodes() * num_vls],
            flow_delivered: vec![u32::MAX; net.num_nodes() * net.num_nodes() * num_vls],
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
            // Pre-size the flight recorder; clamp huge trace requests so
            // an accidental `u32::MAX` does not reserve gigabytes.
            traces: Vec::with_capacity(cfg.trace_first_packets.min(65_536) as usize),
            trace_slots: Vec::new(),
            wl: None,
            invariant_err: None,
            faults,
            cfg,
            probe,
        }
    }
}

impl<'a, P: Probe> Simulator<'a, P> {
    /// Run to completion and produce the report.
    ///
    /// # Panics
    /// Panics if an engine invariant is violated mid-run; use
    /// [`try_run`](Simulator::try_run) to get a [`SimError`] instead.
    pub fn run(self) -> SimReport {
        self.run_observed().0
    }

    /// Run to completion; return the report and the probe with whatever
    /// it observed. Panics like [`run`](Simulator::run).
    pub fn run_observed(self) -> (SimReport, P) {
        self.try_run_observed().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run to completion, surfacing engine-invariant violations as a
    /// [`SimError::EngineInvariant`] instead of panicking.
    pub fn try_run(self) -> Result<SimReport, SimError> {
        Ok(self.try_run_observed()?.0)
    }

    /// Fallible twin of [`run_observed`](Simulator::run_observed).
    pub fn try_run_observed(mut self) -> Result<(SimReport, P), SimError> {
        let wall_start = std::time::Instant::now();
        // Prime every node with a randomly phased first injection so the
        // deterministic process does not fire in lockstep across nodes.
        for node in 0..self.nodes.len() as u32 {
            if !self.nodes[node as usize].active {
                continue;
            }
            let phase = self.rng.gen_range(0.0..self.interarrival_ns);
            self.nodes[node as usize].next_gen = phase;
            self.queue.schedule(phase as Time, Ev::Inject { node });
        }
        self.schedule_fault_events();

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
            self.probe.finish(self.now);
        }
        let wall = wall_start.elapsed().as_secs_f64();
        Ok(self.report(wall))
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

    pub(crate) fn dispatch(&mut self, ev: Ev) {
        if let Some(f) = &self.faults {
            // A powered-off switch neither buffers, routes, arbitrates
            // nor returns credits: its in-flight events dissolve here.
            // SM reprogramming still lands (a later revive must see
            // fresh tables) and `FaultApply` is global, so neither is
            // filtered.
            match ev {
                Ev::SwHeaderArrive { sw, pkt, .. } if f.sw_killed[sw as usize] => {
                    self.fault_drop_arrival(sw, pkt);
                    return;
                }
                Ev::SwRouteDone { sw, .. }
                | Ev::SwInputDeparted { sw, .. }
                | Ev::SwTryOutput { sw, .. }
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
            Ev::TryNodeSend { node } => {
                self.nodes[node as usize].retry_pending = false;
                self.try_node_send(node);
            }
            Ev::SwHeaderArrive { sw, port, vl, pkt } => self.sw_header_arrive(sw, port, vl, pkt),
            Ev::SwRouteDone { sw, port, vl } => self.sw_route_done(sw, port, vl),
            Ev::SwInputDeparted { sw, port, vl } => self.sw_input_departed(sw, port, vl),
            Ev::SwTryOutput { sw, port } => {
                let i = self.port_ix(sw, port);
                self.ports[i].retry_pending = false;
                self.sw_try_output(sw, port);
            }
            Ev::SwOutputDeparted { sw, port, vl } => self.sw_output_departed(sw, port, vl),
            Ev::CreditToSwitch { sw, port, vl } => {
                let lane = self.lane(sw, port, vl);
                self.lanes.credits[lane] += 1;
                debug_assert!(self.lanes.credits[lane] <= self.cap);
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
        let Some(rt) = self.faults.as_ref().map(|f| f.runtime.clone()) else {
            return;
        };
        for (fi, cf) in rt.faults.iter().enumerate() {
            let fault = fi as u32;
            self.queue.schedule(cf.at, Ev::FaultApply { fault });
            for &(sw, _) in &cf.patches {
                self.queue
                    .schedule(cf.reprogram_at, Ev::SwReprogram { fault, sw });
            }
        }
    }

    /// Discard a packet whose header arrived through a dead port (or at a
    /// powered-off switch): it never occupies an input buffer, so no
    /// credit returns — the upstream sender leaks that credit, which is
    /// exactly as deterministic as the wire it lost.
    fn fault_drop_arrival(&mut self, sw: u32, pkt: PacketId) {
        self.dropped += 1;
        if P::COUNTERS {
            self.probe.sw_drop(self.now, sw);
        }
        self.record(pkt, TraceEvent::Dropped { sw });
        self.slab.remove(pkt);
        self.faults.as_mut().expect("fault drop without state").lost += 1;
    }

    /// A scheduled fault fires: copy the compiled post-fault dead-port
    /// masks into the live state. Packets already buffered or in flight
    /// are untouched here — the guards on the arrival/routing/departure
    /// paths react to the new masks as those packets progress.
    fn fault_apply(&mut self, fault: u32) {
        // Fault events are control-plane bookkeeping, not packet work:
        // they stay out of `events_processed`.
        self.events_processed -= 1;
        let f = self.faults.as_mut().expect("fault event without state");
        let rt = f.runtime.clone();
        let cf = &rt.faults[fault as usize];
        f.sw_dead.copy_from_slice(&cf.sw_dead);
        f.sw_killed.copy_from_slice(&cf.sw_killed);
    }

    /// The SM's reprogramming of one switch lands: apply the fault's LFT
    /// patches to the forwarding buffer, then rescue input heads parked on
    /// an output that is dead (or whose grant signal — an output
    /// departure — can never come because the output buffer drained while
    /// the port was dead): reset them to the routing stage so they look
    /// up the freshly patched table.
    fn sw_reprogram(&mut self, fault: u32, sw: u32) {
        self.events_processed -= 1;
        let st = self.faults.as_ref().expect("fault event without state");
        let rt = st.runtime.clone();
        let cf = &rt.faults[fault as usize];
        let patches = cf
            .patches
            .iter()
            .find(|(s, _)| *s == sw)
            .map(|(_, p)| p.as_slice())
            .unwrap_or(&[]);
        match &mut self.route {
            RouteState::Table { lft, stride } => {
                let row = &mut lft[sw as usize * *stride..(sw as usize + 1) * *stride];
                for &(lid, port) in patches {
                    // 0-based patch port to 1-based table byte; the
                    // `u8::MAX` "no entry" patch wraps to the `0` hole.
                    row[lid as usize] = port.wrapping_add(1);
                }
            }
            RouteState::Oracle(_) => unreachable!("fault plans require the table backend"),
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
                self.queue.schedule_chain(
                    ChainClass::Route,
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

    /// Append a flight-recorder event for a traced packet.
    #[inline]
    fn record(&mut self, pkt: PacketId, ev: TraceEvent) {
        if self.cfg.trace_first_packets == 0 {
            return;
        }
        let slot = self.trace_slots[pkt as usize];
        if slot != u32::MAX {
            self.traces[slot as usize].events.push((self.now, ev));
        }
    }

    /// Bind a packet id to a flight-recorder slot (`u32::MAX` = untraced).
    /// Must be called at every slab insert while tracing, because slab ids
    /// are reused and the side table would otherwise go stale.
    #[inline]
    fn set_trace_slot(&mut self, pkt: PacketId, slot: u32) {
        if self.cfg.trace_first_packets == 0 {
            return;
        }
        let i = pkt as usize;
        if i >= self.trace_slots.len() {
            self.trace_slots.resize(i + 1, u32::MAX);
        }
        self.trace_slots[i] = slot;
    }

    // ----- end-node behaviour ------------------------------------------

    /// Generate one packet at `node`: sample the pattern, pick the DLID
    /// and VL, assign the flight-recorder slot and flow sequence number,
    /// draw the next generation instant (the injection-side draws are the
    /// simulator's only RNG consumers), then queue the packet and
    /// schedule the next `Inject`.
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
        // Slot assignment is a pure function of (pattern draw, sampling
        // policy, slots already taken) — no RNG, no time.
        let trace_slot = if (self.traces.len() as u32) < self.cfg.trace_first_packets
            && self.cfg.trace_sampling.samples(node, dst.0, self.cfg.seed)
        {
            self.traces.push(PacketTrace {
                src: node,
                dst: dst.0,
                dlid: dlid.0,
                vl,
                events: Vec::new(),
            });
            (self.traces.len() - 1) as u32
        } else {
            u32::MAX
        };
        let flow = (node as usize * self.nodes.len() + dst.index()) * self.num_vls + vl as usize;
        let flow_seq = self.flow_next_seq[flow];
        self.flow_next_seq[flow] += 1;

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
        self.set_trace_slot(pkt, trace_slot);
        self.record(pkt, TraceEvent::Generated);
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
            if !n.retry_pending && (0..num_vls).any(sendable) {
                n.retry_pending = true;
                self.queue.schedule(n.busy_until, Ev::TryNodeSend { node });
            }
            return;
        }
        // VL arbitration on the injection link, mirroring the switches'
        // egress arbitration (weighted tables included).
        let mask: u16 = (0..num_vls)
            .filter(|&vl| sendable(vl))
            .fold(0, |m, vl| m | (1 << vl));
        let Some(vl) = n
            .arb
            .grant(&self.arb_table, |vl| mask & (1 << vl) != 0)
            .map(usize::from)
        else {
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
        self.record(head, TraceEvent::InjectionStart);
        if self.wl.is_some() {
            self.wl_note_injected(head);
        }
        if P::COUNTERS {
            self.probe
                .node_xmit(self.now, node, vl as u8, self.cfg.packet_bytes);
        }
        self.queue.schedule_chain(
            ChainClass::Fly,
            self.now + self.fly,
            Ev::SwHeaderArrive {
                sw,
                port,
                vl: vl as u8,
                pkt: head,
            },
        );
        // The next queued packet can follow once the link is clear.
        self.queue
            .schedule_chain(ChainClass::Pkt, tx_end, Ev::TryNodeSend { node });
        self.nodes[node as usize].retry_pending = true;
    }

    fn deliver(&mut self, node: u32, vl: u8, pkt: PacketId) {
        self.record(pkt, TraceEvent::Delivered);
        let p = self.slab.remove(pkt);
        debug_assert_eq!(
            self.routing.lid_space().resolve(p.dlid).map(|(n, _)| n.0),
            Some(node),
            "packet delivered to a node that does not own its DLID"
        );
        {
            let flow =
                (p.src as usize * self.nodes.len() + node as usize) * self.num_vls + vl as usize;
            let last = &mut self.flow_delivered[flow];
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
        self.queue.schedule_chain(
            ChainClass::Fly,
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

    fn sw_header_arrive(&mut self, sw: u32, port: u8, vl: u8, pkt: PacketId) {
        if let Some(f) = &self.faults {
            // Under the drop policy a packet that was mid-wire when its
            // link died is lost on arrival. Under the stall policy the
            // wire is lossless: the packet buffers normally and only
            // the (repaired) tables steer future traffic away.
            if f.sw_dead[sw as usize] & (1u64 << port) != 0
                && matches!(f.policy, crate::FaultPolicy::Drop)
            {
                self.fault_drop_arrival(sw, pkt);
                return;
            }
        }
        self.record(pkt, TraceEvent::HeaderArrive { sw, port });
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
            self.queue.schedule_chain(
                ChainClass::Route,
                self.now + self.route_ns,
                Ev::SwRouteDone { sw, port, vl },
            );
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
            RouteState::Table { lft, stride } => {
                lft[sw as usize * stride + dlid.index()].wrapping_sub(1)
            }
            RouteState::Oracle(o) => o
                .route_hop(ibfat_topology::SwitchId(sw), dlid)
                .map_or(u8::MAX, |p| p.0 - 1),
        };
        if out_port == u8::MAX {
            // No LFT entry (possible on degraded fabrics): the switch
            // discards the packet, per IBA semantics. The input buffer
            // frees once the tail has fully arrived; model that as the
            // remaining serialization time from now (the header has been
            // in the buffer for exactly `route_ns`).
            self.dropped += 1;
            if P::COUNTERS {
                self.probe.sw_drop(self.now, sw);
            }
            self.record(head.pkt, TraceEvent::Dropped { sw });
            self.slab.remove(head.pkt);
            let head_mut = self.lanes.in_q.front_mut(lane).expect("checked nonempty");
            head_mut.state = InState::Departing;
            let drain = self.pkt_ns.saturating_sub(self.route_ns);
            self.queue
                .schedule(self.now + drain, Ev::SwDiscardDone { sw, port, vl });
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
        // discard exactly like a missing LFT entry. Stall policy: park
        // the head; `sw_reprogram` re-routes it against the patched
        // table.
        if let Some(f) = &self.faults {
            if f.sw_dead[sw as usize] & (1u64 << out_port) != 0 {
                let drop = matches!(f.policy, crate::FaultPolicy::Drop);
                if drop {
                    self.dropped += 1;
                    if P::COUNTERS {
                        self.probe.sw_drop(self.now, sw);
                    }
                    self.record(head.pkt, TraceEvent::Dropped { sw });
                    self.slab.remove(head.pkt);
                    let head_mut = self.lanes.in_q.front_mut(lane).expect("checked nonempty");
                    head_mut.state = InState::Departing;
                    let drain = self.pkt_ns.saturating_sub(self.route_ns);
                    self.queue
                        .schedule(self.now + drain, Ev::SwDiscardDone { sw, port, vl });
                    self.faults.as_mut().expect("checked above").lost += 1;
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
        self.record(head.pkt, TraceEvent::Routed { sw, out_port });
        self.sw_request_output(sw, port, vl, out_port);
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
            if P::COUNTERS {
                let depth = lanes.out_q.len(out_lane) as u8;
                if was_waiting {
                    self.probe.xmit_wait_end(self.now, sw, in_port, vl);
                }
                self.probe.out_buffer_depth(sw, out_port, vl, depth);
            }
            self.record(pkt, TraceEvent::Granted { sw, out_port });
            self.queue.schedule_chain(
                ChainClass::Pkt,
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
            } => self.queue.schedule_chain(
                ChainClass::Fly,
                self.now + self.fly,
                Ev::CreditToSwitch {
                    sw: usw,
                    port: uport,
                    vl,
                },
            ),
            PeerRef::Node { node } => self.queue.schedule_chain(
                ChainClass::Fly,
                self.now + self.fly,
                Ev::CreditToNode { node, vl },
            ),
            PeerRef::Dead => unreachable!("packets never arrive through a failed port"),
        }
        // The next buffered packet (fully or partially arrived) becomes
        // head and enters the routing stage.
        if let Some(entry) = next_head {
            debug_assert_eq!(entry.state, InState::Routing);
            self.queue.schedule_chain(
                ChainClass::Route,
                self.now + self.route_ns,
                Ev::SwRouteDone { sw, port, vl },
            );
        }
    }

    fn sw_try_output(&mut self, sw: u32, port: u8) {
        let num_vls = self.num_vls;
        let pi = self.port_ix(sw, port);
        let base = pi * num_vls;
        let lanes = &mut self.lanes;
        let p = &mut self.ports[pi];
        // Anything eligible at all?
        let eligible = |lanes: &SwLanes, vl: usize| {
            lanes.credits[base + vl] > 0
                && lanes
                    .out_q
                    .front(base + vl)
                    .is_some_and(|head| !head.transmitting)
        };
        if p.busy_until > self.now {
            if !p.retry_pending && (0..num_vls).any(|vl| eligible(lanes, vl)) {
                p.retry_pending = true;
                self.queue
                    .schedule(p.busy_until, Ev::SwTryOutput { sw, port });
            }
            return;
        }
        // VL arbitration (round-robin or weighted table).
        let mask: u16 = (0..num_vls)
            .filter(|&vl| eligible(lanes, vl))
            .fold(0, |m, vl| m | (1 << vl));
        let granted = p
            .arb
            .grant(&self.arb_table, |vl| mask & (1 << vl) != 0)
            .map(usize::from);
        if let Some(vl) = granted {
            let head = lanes.out_q.front_mut(base + vl).expect("checked nonempty");
            head.transmitting = true;
            let pkt = head.pkt;
            lanes.credits[base + vl] -= 1;
            let tx_end = self.now + self.pkt_ns;
            let tx_record = pkt;
            p.busy_until = tx_end;
            p.busy_ns += self.pkt_ns.min(self.sim_time_ns - self.now);
            let peer = p.peer;
            self.queue.schedule_chain(
                ChainClass::Pkt,
                tx_end,
                Ev::SwOutputDeparted {
                    sw,
                    port,
                    vl: vl as u8,
                },
            );
            match peer {
                PeerRef::SwitchPort {
                    sw: dsw,
                    port: dport,
                } => self.queue.schedule_chain(
                    ChainClass::Fly,
                    self.now + self.fly,
                    Ev::SwHeaderArrive {
                        sw: dsw,
                        port: dport,
                        vl: vl as u8,
                        pkt,
                    },
                ),
                PeerRef::Node { node } => self.queue.schedule_chain(
                    ChainClass::FlyPkt,
                    self.now + self.fly + self.pkt_ns,
                    Ev::Deliver {
                        node,
                        vl: vl as u8,
                        pkt,
                    },
                ),
                PeerRef::Dead => panic!("routing forwarded a packet into a failed port"),
            }
            self.record(tx_record, TraceEvent::TransmitStart { sw, out_port: port });
            if P::COUNTERS {
                self.probe
                    .sw_xmit(self.now, sw, port, vl as u8, self.cfg.packet_bytes);
            }
        }
        if P::COUNTERS || self.cfg.trace_first_packets > 0 {
            // Credit-stall detection at this arbitration instant: a VL
            // whose head is ready but holds no credits is stalled on
            // link-level flow control (ended by `CreditToSwitch`). Both
            // the probe and the flight recorder observe it; recording
            // mutates nothing but the trace buffer, so a recorded run
            // stays bit-identical to an unrecorded one.
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
                    self.record(head, TraceEvent::CreditStalled { sw, out_port: port });
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

        let mut total_busy = 0u64;
        let mut max_busy = 0u64;
        let mut links = 0u64;
        for p in &self.ports {
            total_busy += p.busy_ns;
            max_busy = max_busy.max(p.busy_ns);
            links += 1;
        }
        for n in &self.nodes {
            total_busy += n.busy_ns;
            max_busy = max_busy.max(n.busy_ns);
            links += 1;
        }
        let span = self.sim_time_ns as f64;

        let link_utilization = self.cfg.collect_link_stats.then(|| {
            let mut out = Vec::new();
            for (i, p) in self.ports.iter().enumerate() {
                out.push(crate::metrics::LinkUse {
                    from: format!("S{}", i / self.m),
                    port: (i % self.m) as u8 + 1,
                    utilization: p.busy_ns as f64 / span,
                });
            }
            for (n, node) in self.nodes.iter().enumerate() {
                out.push(crate::metrics::LinkUse {
                    from: format!("N{n}"),
                    port: 1,
                    utilization: node.busy_ns as f64 / span,
                });
            }
            out
        });

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
            mean_link_utilization: total_busy as f64 / (links as f64 * span),
            max_link_utilization: max_busy as f64 / span,
            link_utilization,
            traces: (self.cfg.trace_first_packets > 0).then_some(self.traces),
            out_of_order: self.out_of_order,
            fault_lost: self.faults.as_ref().map_or(0, |f| f.lost),
            fault_stalled: self.faults.as_ref().map_or(0, |f| f.stalled),
            fault_rerouted: self.faults.as_ref().map_or(0, |f| f.rerouted),
        };
        (report, self.probe)
    }
}

/// Classify an event by the pipeline stage it advances (self-profiling).
pub(crate) fn phase_of(ev: &Ev) -> Phase {
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
        Ev::SwTryOutput { .. } | Ev::SwOutputDeparted { .. } | Ev::CreditToSwitch { .. } => {
            Phase::Arbitration
        }
        Ev::Deliver { .. } => Phase::Delivery,
    }
}

// The credit check under test is a `debug_assert!`.
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
        let mut sim = Simulator::new(&net, &routing, cfg, TrafficPattern::Uniform, 0.1, 1_000, 0);
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
}
