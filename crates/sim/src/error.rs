//! Simulator error type for config-time validation.
//!
//! The engines themselves panic on programmer error (mis-wired events,
//! credit protocol violations), but everything a *user* can get wrong —
//! a malformed traffic pattern, an inconsistent workload — is validated
//! up front and reported as a [`SimError`], so callers like the CLI and
//! the experiment builder can print a real diagnostic instead of
//! surfacing an index panic from deep inside a handler.

use std::fmt;

/// A configuration-time validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The traffic pattern is inconsistent with the fabric (permutation
    /// length, out-of-range destination, …).
    InvalidPattern(String),
    /// The workload DAG is inconsistent with the fabric or the
    /// simulator configuration.
    InvalidWorkload(String),
    /// A parallel worker thread panicked. The run was aborted (every
    /// other worker released from the window barrier and unwound
    /// cleanly) and the panic payload captured here.
    WorkerPanicked(String),
    /// An engine invariant was violated mid-run (e.g. a route-done event
    /// fired against an empty input buffer). Debug builds assert instead;
    /// release builds abort the run and surface this through the
    /// `try_run_*` entry points rather than panicking deep in a handler.
    EngineInvariant(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidPattern(msg) => write!(f, "invalid traffic pattern: {msg}"),
            SimError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            SimError::WorkerPanicked(msg) => write!(f, "parallel worker panicked: {msg}"),
            SimError::EngineInvariant(msg) => write!(f, "engine invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}
