//! # ibfat-sm
//!
//! A software **subnet manager** (SM) for fat-tree InfiniBand subnets.
//!
//! In InfiniBand, switches boot with empty forwarding tables; the subnet
//! manager sweeps the fabric with management datagrams, learns the
//! topology port by port, assigns every endport its LIDs, and installs a
//! linear forwarding table into every switch. The paper assumes this role
//! ("the SM is responsible for the configuration and the control of a
//! subnet"); this crate implements it:
//!
//! 1. [`discover`] — breadth-first sweep over cables, producing an
//!    anonymized port-accurate [`DiscoveredTopology`] (devices are known
//!    only by discovery order and their port wiring, exactly what SMP
//!    `NodeInfo`/`PortInfo` sweeps yield).
//! 2. [`recognize`] — decide whether the discovered graph *is* an
//!    `IBFT(m, n)` and, if so, recover every switch's digit label and
//!    every node's `P(p)` label purely from port numbers (the labels are
//!    uniquely determined; see the module docs of [`recognize`]).
//! 3. [`SubnetManager`] — put it together: discover, recognize, assign
//!    the LID space from the recovered PIDs, compute the MLID or SLID
//!    tables from the recovered labels, and hand back a programmed
//!    [`ibfat_routing::Routing`]. On a degraded fabric it falls back to
//!    fault-repaired tables.
//!
//! Initialization is the whole of it. Repairing the tables after a
//! mid-run fault is not an SM step here: the simulator's fault compiler
//! calls [`ibfat_routing::repair_fault_tolerant`] itself and prices the
//! reprogram from its fault plan.

mod discovery;
mod mad;
mod manager;
mod recognize;

pub use discovery::{discover, DiscoveredDevice, DiscoveredTopology, Edge};
pub use mad::{directed_routes, time_bring_up, BringUpReport, DirectedRoute, MadCosts};
pub use manager::{SmError, SmOutcome, SubnetManager};
pub use recognize::{recognize, RecognitionError, RecoveredFatTree};
