//! # ibfat-topology
//!
//! Topology substrate for fat-tree-based InfiniBand subnets, implementing the
//! *m-port n-tree* construction `FT(m, n)` of Lin, Chung and Huang
//! ("A Multiple LID Routing Scheme for Fat-Tree-Based InfiniBand Networks",
//! IPDPS 2004) and its InfiniBand realization `IBFT(m, n)`.
//!
//! An `FT(m, n)` is a fixed-arity fat tree built entirely from `m`-port
//! switches. It has
//!
//! * `2 * (m/2)^n` processing nodes,
//! * `(2n - 1) * (m/2)^(n-1)` switches arranged in `n` levels
//!   (level 0 holds the roots, level `n-1` the leaf switches),
//! * height `n + 1`.
//!
//! This crate provides:
//!
//! * [`TreeParams`] — validated `(m, n)` parameters and all derived counts;
//! * [`NodeLabel`] / [`SwitchLabel`] — the digit-string labels of the paper,
//!   with conversions to and from dense integer ids;
//! * prefix algebra ([`gcp_len`], [`lca_switches`], [`Gcpg`], [`rank_in`],
//!   [`pid`]) used by the MLID routing scheme;
//! * [`Network`] — a port-accurate subnet graph (switch port 0 is the
//!   InfiniBand management port; external ports are 1-based) built by
//!   [`Network::mport_ntree`];
//! * structural analysis and invariant checking ([`analysis`]).
//!
//! ## Example
//!
//! ```
//! use ibfat_topology::{Network, TreeParams};
//!
//! let params = TreeParams::new(4, 3).unwrap();
//! assert_eq!(params.num_nodes(), 16);
//! assert_eq!(params.num_switches(), 20);
//!
//! let net = Network::mport_ntree(params);
//! net.validate().unwrap();
//! ```

mod analysis_impl;
mod build;
mod digits;
mod error;
mod graph;
mod ids;
pub mod json;
mod label;
mod par;
mod params;
mod prefix;
mod stride;

pub use digits::Digits;
pub use error::TopologyError;
pub use graph::{Device, DeviceKind, DeviceRef, Link, Network, Peer, Port};
pub use ids::{Level, NodeId, PortNum, SwitchId};
pub use label::{NodeLabel, SwitchLabel};
pub use par::par_map_indexed;
pub use params::TreeParams;
pub use prefix::{gcp_len, lca_switches, pid, rank_in, Gcpg};
pub use stride::PortSlots;

/// Structural analysis utilities (path counts, hop distances, bisection).
pub mod analysis {
    pub use crate::analysis_impl::*;
}
