//! # ibfat-sim
//!
//! A discrete-event simulator for InfiniBand subnets, built to reproduce
//! the evaluation methodology of Lin, Chung and Huang's MLID paper
//! (IPDPS 2004). It models:
//!
//! * `m`-port crossbar switches with per-(port, VL) input/output buffers,
//! * up to 15 data virtual lanes, served round-robin at every egress
//!   port,
//! * credit-based link-level flow control (IBA-style),
//! * virtual cut-through switching,
//! * forwarding purely by linear-forwarding-table lookup on the DLID
//!   (plus an optional adaptive-climbing comparator that is *not*
//!   achievable with real tables — see [`SimConfig::adaptive_up`]),
//! * per-packet path-selection policies over the destination LID window
//!   and VL-assignment policies at the source,
//! * constant-rate (or Poisson) traffic under uniform, hot-spot, and
//!   permutation patterns,
//! * mean and peak link utilization, out-of-order accounting, analytic
//!   bounds ([`bounds`]), and multi-seed replication ([`replicate`]),
//! * observation from outside the model through [`Probe`]s: per-port
//!   [`FabricCounters`], the per-packet [`FlightRecorder`] and the
//!   [`PhaseProfile`] self-profiler. A report holds only the run's
//!   statistics, whatever observes it.
//!
//! The full event semantics are specified in `docs/MODEL.md`.
//!
//! The timing is the paper's: 20 ns wire flight ([`FLY_TIME_NS`]), 100 ns
//! switch routing ([`ROUTING_TIME_NS`]) and 1 ns/byte on a 4X link
//! ([`BYTE_TIME_NS`]). The configuration defaults to its 256-byte packets
//! and one-packet buffers per VL. Runs are bit-for-bit deterministic per
//! seed.
//!
//! ## Example
//!
//! ```
//! use ibfat_topology::{Network, TreeParams};
//! use ibfat_routing::{Routing, RoutingKind};
//! use ibfat_sim::{run, NoopProbe, RunSpec, SimConfig, TrafficPattern};
//!
//! let net = Network::mport_ntree(TreeParams::new(4, 2).unwrap());
//! let routing = Routing::build(&net, RoutingKind::Mlid);
//! let (report, NoopProbe) = run(
//!     &net,
//!     &routing,
//!     SimConfig::paper(1),
//!     TrafficPattern::Uniform,
//!     RunSpec::new(0.2, 100_000),
//!     NoopProbe,
//! )
//! .unwrap();
//! assert!(report.delivered > 0);
//! assert!(report.avg_latency_ns() > 0.0);
//! ```

pub mod bounds;
mod config;
mod counters;
mod engine;
mod error;
mod faults;
mod lanes;
mod metrics;
mod packet;
mod probe;
mod runner;
mod sim;
mod trace;
mod traffic;
mod vlarb;
mod workload;

pub use config::{
    InjectionProcess, PathSelection, SimConfig, VlAssignment, BYTE_TIME_NS, FLY_TIME_NS,
    ROUTING_TIME_NS,
};
pub use counters::{
    FabricCounters, HotPort, NodeCounters, PortVlCounters, Sample, COUNTERS_SCHEMA_VERSION,
};
pub use engine::{HeapCalendar, RingCalendar, Time};
pub use error::SimError;
pub use faults::{
    disruption_report, DisruptionReport, FaultAction, FaultEvent, FaultPlan, FaultPolicy,
    FaultSummary, LevelLoad, PathSurvival,
};
/// The workspace's JSON codec, from `ibfat-topology`.
pub use ibfat_topology::json;
pub use metrics::{LatencyStats, Percentiles, SimReport};
pub use packet::{Packet, PacketId, PacketSlab};
pub use probe::{NoopProbe, Phase, PhaseProfile, Probe, NUM_PHASES};
pub use runner::{
    aggregate, par_map_indexed, replicate, run, run_workload, sweep, Aggregate, RunSpec,
};
pub use sim::Simulator;
pub use trace::{
    traces_to_jsonl, DropCause, FlightRecorder, PacketTrace, TraceEvent, TraceSampling,
};
pub use traffic::TrafficPattern;
// The message-level workload layer: the data model re-exported from
// `ibfat-workload`; the engine entry point is `run_workload`.
pub use ibfat_workload::{
    generators, trace as workload_trace, ClosedLoopKind, GroupReport, Message, MessageTiming,
    MsgId, MsgLatency, Workload, WorkloadReport,
};
