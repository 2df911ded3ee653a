use std::fmt;

/// Errors produced while constructing or validating topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// `m` must be an even power of two, at least 2 (the paper requires `m`
    /// to be a power of 2 so that `(m/2)^(n-1)` is a power of two and fits
    /// the LMC mechanism) and at most 128 (port numbers are bytes, and
    /// port 0 is the management port).
    InvalidPortCount { m: u32 },
    /// `n` must be at least 1 and small enough that the subnet fits the
    /// 16-bit unicast LID space.
    InvalidTreeHeight { n: u32 },
    /// The `(m, n)` combination overflows a dense-id type or the LID space.
    TooLarge {
        m: u32,
        n: u32,
        detail: &'static str,
    },
    /// A digit-string label is malformed for the given parameters.
    InvalidLabel(String),
    /// Graph validation failed (wiring, port, or count inconsistency).
    Invariant(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidPortCount { m } => {
                write!(
                    f,
                    "switch port count m={m} must be a power of two in 2..=128"
                )
            }
            TopologyError::InvalidTreeHeight { n } => {
                write!(f, "tree parameter n={n} must be >= 1")
            }
            TopologyError::TooLarge { m, n, detail } => {
                write!(f, "FT({m}, {n}) is too large: {detail}")
            }
            TopologyError::InvalidLabel(s) => write!(f, "invalid label: {s}"),
            TopologyError::Invariant(s) => write!(f, "topology invariant violated: {s}"),
        }
    }
}

impl std::error::Error for TopologyError {}
