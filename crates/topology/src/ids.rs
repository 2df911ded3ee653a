use std::fmt;

/// Dense id of a processing node (end node). Node ids coincide with the
/// paper's `PID` ordering: `NodeId(i)` is the node whose rank in
/// `gcpg(ε, 0)` — the group of all processing nodes — is `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Dense id of a switch, level-major: all level-0 switches first (roots),
/// then level 1, and so on down to the leaf level `n-1`. Within a level,
/// switches are ordered by their digit string read as a mixed-radix number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

/// An InfiniBand switch port number. Port 0 is the management port and never
/// carries subnet traffic here; external ports are numbered `1..=m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNum(pub u8);

/// A level in the tree: 0 for the roots, `n-1` for the leaf switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Level(pub u8);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SwitchId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PortNum {
    /// The port number as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Level {
    /// The level as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for PortNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(SwitchId(7).to_string(), "S7");
        assert_eq!(PortNum(1).to_string(), "p1");
        assert_eq!(Level(0).to_string(), "L0");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert!(SwitchId(0) < SwitchId(10));
    }
}
