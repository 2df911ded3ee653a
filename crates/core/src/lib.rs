//! # ib-fabric
//!
//! High-level API for building fat-tree InfiniBand fabrics, programming
//! their forwarding tables with the MLID or SLID schemes of Lin, Chung and
//! Huang (IPDPS 2004), and running discrete-event simulations of the
//! result.
//!
//! The crate stitches together the three substrates:
//!
//! * [`ibfat_topology`] — the m-port n-tree construction `IBFT(m, n)`;
//! * [`ibfat_routing`] — LID addressing, path selection and forwarding
//!   tables (MLID / SLID / up*/down*), plus verification passes;
//! * [`ibfat_sim`] — the IBA subnet simulator (virtual lanes, credit-based
//!   flow control, virtual cut-through).
//!
//! ## Quickstart
//!
//! ```
//! use ib_fabric::prelude::*;
//!
//! // A 64-node fat tree of 8-port switches, routed with multiple LIDs.
//! let fabric = Fabric::builder(8, 3)
//!     .routing(RoutingKind::Mlid)
//!     .build()
//!     .unwrap();
//! assert_eq!(fabric.num_nodes(), 128);
//!
//! // Where does a packet go?
//! let route = fabric.route(NodeId(0), NodeId(100)).unwrap();
//! assert_eq!(route.num_links(), 6);
//!
//! // Simulate uniform traffic at 30% load with 2 virtual lanes.
//! let report = fabric
//!     .experiment()
//!     .virtual_lanes(2)
//!     .traffic(TrafficPattern::Uniform)
//!     .offered_load(0.3)
//!     .duration_ns(100_000)
//!     .run();
//! assert!(report.delivered > 0);
//! ```

mod builder;
mod experiment;

pub use builder::{Fabric, FabricBuilder, FabricError};
pub use experiment::ExperimentBuilder;

// Re-export the substrate crates wholesale for advanced use…
pub use ibfat_routing as routing;
pub use ibfat_sim as sim;
pub use ibfat_sm as sm;
pub use ibfat_topology as topology;

// …and the everyday names at the top level.
pub use ibfat_routing::{
    all_to_all_loads, build_fault_tolerant, loads_for_matrix, ChannelLoads, Lft, Lid, LidSpace,
    Route, RouteOracle, Routing, RoutingError, RoutingKind,
};
pub use ibfat_sim::{
    aggregate, disruption_report, generators, json, traces_to_jsonl, workload_trace, Aggregate,
    ClosedLoopKind, DisruptionReport, FabricCounters, FaultAction, FaultEvent, FaultPlan,
    FaultPolicy, FaultSummary, FlightRecorder, HotPort, InjectionProcess, LevelLoad, NoopProbe,
    PacketTrace, PathSelection, PathSurvival, Phase, PhaseProfile, Probe, RunSpec, SimConfig,
    SimReport, TraceEvent, TraceSampling, TrafficPattern, VlArbitration, VlAssignment, Workload,
    WorkloadReport,
};
pub use ibfat_sm::SubnetManager;
pub use ibfat_topology::{
    Network, NodeId, NodeLabel, PortNum, SwitchId, SwitchLabel, TopologyError, TreeParams,
};

/// The exit code of a binary that wrote its report to stdout: success,
/// also when the reader closed the pipe early (`table1 | head -2`,
/// `ibfat run … | head -1`); any other write error is an `error:` line
/// and exit code 1.
pub fn exit_after_stdout(written: std::io::Result<()>) -> std::process::ExitCode {
    match written {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("error: writing stdout: {e}");
            std::process::ExitCode::FAILURE
        }
        _ => std::process::ExitCode::SUCCESS,
    }
}

/// Convenient glob import: `use ib_fabric::prelude::*;`.
pub mod prelude {
    pub use crate::{
        json::Codec, ChannelLoads, Fabric, FabricBuilder, FabricCounters, FabricError,
        InjectionProcess, Lid, Network, NodeId, NodeLabel, PathSelection, PhaseProfile, Probe,
        RouteOracle, Routing, RoutingKind, SimConfig, SimReport, SubnetManager, SwitchLabel,
        TrafficPattern, TreeParams, VlArbitration, VlAssignment, Workload, WorkloadReport,
    };
}
