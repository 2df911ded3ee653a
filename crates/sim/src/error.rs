//! Simulator error type.
//!
//! Every check on caller input — the configuration, the offered load
//! and horizon, the routing's fit to the network, the traffic pattern,
//! the fault plan and the workload — runs when [`crate::run`] or
//! [`crate::run_workload`] builds the engine, before the first event,
//! and fails with a [`SimError`]. The engine still panics (or, in
//! release builds, reports [`SimError::EngineInvariant`]) on its own
//! bugs: mis-wired events and credit-protocol violations.

use std::fmt;

/// A run that could not be built or did not finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration, offered load or horizon is invalid, or does
    /// not fit the network and routing (uncabled ports, adaptive
    /// climbing, tree parameters).
    InvalidConfig(String),
    /// The traffic pattern is inconsistent with the fabric (permutation
    /// length, out-of-range destination, …).
    InvalidPattern(String),
    /// The workload DAG is inconsistent with the fabric or the
    /// simulator configuration, or it could not complete on the fabric.
    InvalidWorkload(String),
    /// The fault plan is invalid for the network, or for the routing
    /// scheme or run mode it is combined with.
    InvalidFaultPlan(String),
    /// An engine invariant was violated mid-run (e.g. a route-done event
    /// fired against an empty input buffer). Debug builds assert instead;
    /// release builds abort the run and return this rather than
    /// panicking deep in a handler.
    EngineInvariant(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid simulator configuration: {msg}"),
            SimError::InvalidPattern(msg) => write!(f, "invalid traffic pattern: {msg}"),
            SimError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            SimError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            SimError::EngineInvariant(msg) => write!(f, "engine invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}
