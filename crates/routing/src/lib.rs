//! # ibfat-routing
//!
//! LID addressing and deterministic routing for fat-tree-based InfiniBand
//! subnets, implementing the paper's **MLID** (Multiple LID) scheme — node
//! addressing, path selection, and forwarding-table assignment — together
//! with the **SLID** (Single LID) baseline it is evaluated against, plus a
//! generic **up\*/down\*** engine representative of the irregular-topology
//! algorithms the paper contrasts with.
//!
//! Routing in an InfiniBand subnet is deterministic: each switch holds a
//! linear forwarding table (LFT) mapping the `DLID` field of a packet to an
//! output port. Multipathing is achieved through the LID Mask Control (LMC)
//! mechanism: an endport owns `2^LMC` consecutive LIDs, and the choice of
//! DLID selects the path.
//!
//! ## The MLID scheme in one paragraph
//!
//! Every node `P(p)` receives `2^LMC` LIDs starting at
//! `BaseLID(P(p)) = PID(P(p)) * 2^LMC + 1` with `LMC = (n-1)·log2(m/2)`.
//! A source with rank `r` in its greatest-common-prefix subgroup (relative
//! to the destination) sends to `BaseLID(dst) + r`. Switches forward by two
//! rules: if the LID's owner lies below the switch, descend toward it
//! (Equation 1, `k = p_l + 1`); otherwise climb, choosing the up-port from a
//! digit of the LID's offset (Equation 2,
//! `k = (⌊(lid-1)/(m/2)^(n-1-l)⌋ mod m/2) + m/2 + 1`). The offset digits
//! encode the *source* label, which gives the scheme its headline property:
//! **every upward link carries the traffic of exactly one source node**, so
//! concurrent senders to a common hot spot fan out over all available least
//! common ancestors instead of colliding (the paper's Figure 9).
//!
//! SLID is the same rule set with `LMC = 0`. [`RouteOracle`] holds it
//! once — the LID space of each kind, both equations, path selection and
//! the table builder — and [`Routing`], fault repair and the subnet
//! manager call it; up\*/down\* derives its tables from the cabled graph.
//!
//! ## Example
//!
//! ```
//! use ibfat_topology::{Network, NodeId, TreeParams};
//! use ibfat_routing::{Routing, RoutingKind};
//!
//! let params = TreeParams::new(4, 3).unwrap();
//! let net = Network::mport_ntree(params);
//! let routing = Routing::build(&net, RoutingKind::Mlid);
//!
//! let dlid = routing.select_dlid(NodeId(0), NodeId(4));
//! let route = routing.trace(&net, NodeId(0), dlid).unwrap();
//! assert_eq!(route.num_links(), 6); // up 3, down 3 in FT(4, 3)
//! ```

mod deadlock;
mod error;
mod fault;
mod lft;
mod lid;
mod load;
mod oracle;
mod path;
mod scheme;
mod updown;
mod verify;

pub use deadlock::{channel_dependency_graph, verify_deadlock_free, CdgReport};
pub use error::RoutingError;
pub use fault::{build_fault_tolerant, repair_fault_tolerant, LftPatch, RepairState, RepairStats};
pub use lft::{Lft, BLOCK_LIDS};
pub use lid::{Lid, LidSpace};
pub use load::{all_to_all_loads, loads_for_matrix, routable_all_to_all_loads, ChannelLoads};
pub use oracle::RouteOracle;
pub use path::{Hop, Route};
pub use scheme::{Routing, RoutingKind};
pub use verify::{verify_all_lids_deliver, verify_minimality, verify_upward_link_exclusivity};
