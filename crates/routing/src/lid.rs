use ibfat_topology::json::{Codec, Json, JsonBuf};
use ibfat_topology::NodeId;
use std::fmt;

/// A Local Identifier — the InfiniBand subnet-local address of an endport.
/// IBA unicast LIDs are `0x0001..=0xBFFF`; LID 0 is reserved (and used here
/// as "none" in packed tables). Scale-out configurations (FT(16, 3) and up)
/// exceed the 16-bit range, so LIDs carry a 32-bit payload and the modeled
/// *extended* unicast space tops out at `2^21` — see [`Lid::MAX_EXTENDED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lid(pub u32);

impl Lid {
    /// First valid unicast LID.
    pub const MIN_UNICAST: Lid = Lid(1);
    /// Last valid unicast LID per the IBA spec.
    pub const MAX_UNICAST: Lid = Lid(0xBFFF);
    /// Last LID admitted under the modeled extended-LID regime, sized for
    /// FT(32, 3)'s `2^21`-LID MLID assignment.
    pub const MAX_EXTENDED: Lid = Lid(1 << 21);

    /// The LID as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LID{}", self.0)
    }
}

/// The subnet's LID assignment: every node owns a window of `2^lmc`
/// consecutive LIDs starting at its base LID, exactly as an InfiniBand
/// subnet manager partitions the LID space under the LMC mechanism.
///
/// Base LIDs are laid out densely in node-id (PID) order starting at LID 1:
/// `base(P) = PID(P) * 2^lmc + 1`. This is the paper's `BaseLID` formula
/// (for `lmc = 0` it degenerates to the SLID scheme's `PID + 1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LidSpace {
    lmc: u32,
    num_nodes: u32,
}

impl LidSpace {
    /// Assign `2^lmc` LIDs to each of `num_nodes` nodes.
    ///
    /// # Panics
    /// Panics if the assignment would exceed the extended LID space
    /// (`2^21` LIDs) or an `lmc` above 16 bits. The IBA cap of `lmc <= 7`
    /// is deliberately not enforced: the extended-LID regime models
    /// fabrics (e.g. FT(32, 3), `lmc = 8`) past that limit.
    pub fn new(num_nodes: u32, lmc: u32) -> Self {
        LidSpace::checked(num_nodes, lmc).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`LidSpace::new`] with the two limits as an error.
    fn checked(num_nodes: u32, lmc: u32) -> Result<Self, String> {
        if lmc > 16 {
            return Err(format!("LMC beyond 16 bits is unsupported, got {lmc}"));
        }
        if u64::from(num_nodes) << lmc > u64::from(Lid::MAX_EXTENDED.0) {
            return Err(format!(
                "{num_nodes} nodes x 2^{lmc} LIDs exceeds the extended LID space"
            ));
        }
        Ok(LidSpace { lmc, num_nodes })
    }

    /// The LID Mask Control value.
    #[inline]
    pub fn lmc(&self) -> u32 {
        self.lmc
    }

    /// LIDs owned by each node, `2^lmc`.
    #[inline]
    pub fn lids_per_node(&self) -> u32 {
        1 << self.lmc
    }

    /// Number of addressed nodes.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// The base LID of a node.
    #[inline]
    pub fn base_lid(&self, node: NodeId) -> Lid {
        debug_assert!(node.0 < self.num_nodes);
        Lid((node.0 << self.lmc) + 1)
    }

    /// All LIDs owned by a node, ascending.
    pub fn lids(&self, node: NodeId) -> impl Iterator<Item = Lid> {
        let base = self.base_lid(node).0;
        (base..base + self.lids_per_node()).map(Lid)
    }

    /// A specific LID of a node: `base + offset`.
    ///
    /// # Panics
    /// Panics (debug) if `offset >= 2^lmc`.
    #[inline]
    pub fn lid_with_offset(&self, node: NodeId, offset: u32) -> Lid {
        debug_assert!(
            offset < self.lids_per_node(),
            "offset {offset} out of range"
        );
        Lid(self.base_lid(node).0 + offset)
    }

    /// The highest assigned LID (tables are sized `max_lid + 1`).
    #[inline]
    pub fn max_lid(&self) -> Lid {
        Lid(self.num_nodes << self.lmc)
    }

    /// Resolve a LID to its owning node and the offset within the node's
    /// window, or `None` for unassigned LIDs.
    #[inline]
    pub fn resolve(&self, lid: Lid) -> Option<(NodeId, u32)> {
        if lid.0 == 0 || lid > self.max_lid() {
            return None;
        }
        let linear = lid.0 - 1;
        Some((
            NodeId(linear >> self.lmc),
            linear & (self.lids_per_node() - 1),
        ))
    }
}

/// `{"lmc":2,"num_nodes":16}`.
impl Codec for LidSpace {
    fn encode(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_u64("lmc", u64::from(self.lmc));
        j.field_u64("num_nodes", u64::from(self.num_nodes));
        j.end_obj();
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let o = v.as_object("LID space")?;
        LidSpace::checked(o.int("num_nodes")?, o.int("lmc")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_lid_example() {
        // FT(4, 3): LMC = 2, BaseLID(P(010)) = 9 with LIDset {9, 10, 11, 12}
        // (PID(P(010)) = 2).
        let space = LidSpace::new(16, 2);
        assert_eq!(space.base_lid(NodeId(2)), Lid(9));
        let lids: Vec<u32> = space.lids(NodeId(2)).map(|l| l.0).collect();
        assert_eq!(lids, vec![9, 10, 11, 12]);
    }

    #[test]
    fn resolve_inverts_assignment() {
        let space = LidSpace::new(37, 3);
        for node in 0..37 {
            for (off, lid) in space.lids(NodeId(node)).enumerate() {
                assert_eq!(space.resolve(lid), Some((NodeId(node), off as u32)));
            }
        }
        assert_eq!(space.resolve(Lid(0)), None);
        assert_eq!(space.resolve(Lid(space.max_lid().0 + 1)), None);
    }

    #[test]
    fn slid_degenerate_case() {
        let space = LidSpace::new(16, 0);
        assert_eq!(space.base_lid(NodeId(0)), Lid(1));
        assert_eq!(space.base_lid(NodeId(15)), Lid(16));
        assert_eq!(space.lids_per_node(), 1);
        assert_eq!(space.max_lid(), Lid(16));
    }

    #[test]
    fn windows_are_disjoint_and_dense() {
        let space = LidSpace::new(8, 2);
        let mut seen = vec![false; space.max_lid().index() + 1];
        for node in 0..8 {
            for lid in space.lids(NodeId(node)) {
                assert!(!seen[lid.index()], "LID {lid} assigned twice");
                seen[lid.index()] = true;
            }
        }
        assert!(seen[1..].iter().all(|&s| s), "gap in the LID space");
    }

    #[test]
    fn extended_regime_admits_large_fabrics() {
        // FT(32, 3): 8192 nodes, lmc 8 — past the IBA 16-bit range but
        // exactly the extended budget.
        let space = LidSpace::new(8192, 8);
        assert_eq!(space.max_lid(), Lid::MAX_EXTENDED);
        assert_eq!(space.base_lid(NodeId(8191)), Lid(8191 * 256 + 1));
        assert_eq!(space.resolve(Lid::MAX_EXTENDED), Some((NodeId(8191), 255)));
    }

    #[test]
    #[should_panic(expected = "extended LID space")]
    fn overflow_panics() {
        // 50_000 x 2^7 = 6.4M LIDs: beyond even the extended budget.
        LidSpace::new(50_000, 7);
    }

    #[test]
    #[should_panic(expected = "LMC beyond 16 bits")]
    fn lmc_cap_panics() {
        LidSpace::new(4, 17);
    }
}
