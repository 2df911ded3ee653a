use crate::Lid;
use ibfat_topology::PortNum;
use serde::{Deserialize, Serialize};

/// A Linear Forwarding Table: the per-switch map from DLID to output port
/// that makes InfiniBand routing deterministic.
///
/// Entries are stored packed (`0` = no entry) and indexed directly by LID,
/// mirroring the LFT block a subnet manager would program into a switch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lft {
    /// `ports[lid]` is the output port for `lid`, or 0 for "unassigned".
    ports: Vec<u8>,
}

impl Lft {
    /// An empty table covering LIDs `0..=max_lid`.
    pub fn new(max_lid: Lid) -> Self {
        Lft {
            ports: vec![0; max_lid.index() + 1],
        }
    }

    /// Set the output port for a DLID.
    ///
    /// # Panics
    /// Panics if the LID is out of table range or the port is 0 (the
    /// management port cannot appear in an LFT here).
    #[inline]
    pub fn set(&mut self, lid: Lid, port: PortNum) {
        assert!(port.0 >= 1, "LFT cannot route out of the management port");
        self.ports[lid.index()] = port.0;
    }

    /// Look up the output port for a DLID.
    #[inline]
    pub fn get(&self, lid: Lid) -> Option<PortNum> {
        match self.ports.get(lid.index()).copied().unwrap_or(0) {
            0 => None,
            p => Some(PortNum(p)),
        }
    }

    /// Number of table slots (max LID + 1).
    #[inline]
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the table has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Fill the `len` consecutive entries starting at `start` with one port.
    ///
    /// Dense LFT builders use this for Eq. 1 down-port runs, where whole
    /// contiguous LID blocks share an output port.
    ///
    /// # Panics
    /// Panics if the run leaves the table or `port` is 0.
    #[inline]
    pub fn fill(&mut self, start: Lid, len: usize, port: PortNum) {
        assert!(port.0 >= 1, "LFT cannot route out of the management port");
        self.ports[start.index()..start.index() + len].fill(port.0);
    }

    /// Copy a precomputed port pattern into the entries starting at `start`.
    ///
    /// Dense LFT builders use this for Eq. 2 up-port windows: the pattern
    /// is a pure function of the offset within a node's LID window, so one
    /// pattern serves every climbing destination of a switch.
    ///
    /// # Panics
    /// Panics if the block leaves the table or the pattern contains port 0.
    #[inline]
    pub fn copy_block(&mut self, start: Lid, pattern: &[u8]) {
        debug_assert!(
            pattern.iter().all(|&p| p >= 1),
            "LFT cannot route out of the management port"
        );
        self.ports[start.index()..start.index() + pattern.len()].copy_from_slice(pattern);
    }

    /// The raw table, indexed by LID: each byte is the 1-based output
    /// port, or `0` for "no entry". The data plane copies it verbatim.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.ports
    }

    /// Count of populated entries.
    pub fn populated(&self) -> usize {
        self.ports.iter().filter(|&&p| p != 0).count()
    }

    /// Iterate `(lid, port)` over populated entries.
    pub fn entries(&self) -> impl Iterator<Item = (Lid, PortNum)> + '_ {
        self.ports
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != 0)
            .map(|(i, &p)| (Lid(i as u32), PortNum(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut lft = Lft::new(Lid(16));
        assert_eq!(lft.get(Lid(5)), None);
        lft.set(Lid(5), PortNum(3));
        assert_eq!(lft.get(Lid(5)), Some(PortNum(3)));
        assert_eq!(lft.populated(), 1);
    }

    #[test]
    fn out_of_range_lookup_is_none() {
        let lft = Lft::new(Lid(4));
        assert_eq!(lft.get(Lid(100)), None);
    }

    #[test]
    fn entries_iterates_in_lid_order() {
        let mut lft = Lft::new(Lid(10));
        lft.set(Lid(7), PortNum(1));
        lft.set(Lid(2), PortNum(4));
        let got: Vec<_> = lft.entries().collect();
        assert_eq!(got, vec![(Lid(2), PortNum(4)), (Lid(7), PortNum(1))]);
    }

    #[test]
    fn raw_bytes_are_one_based_with_zero_holes() {
        let mut lft = Lft::new(Lid(4));
        lft.set(Lid(1), PortNum(3));
        lft.set(Lid(4), PortNum(1));
        assert_eq!(lft.as_bytes(), &[0, 3, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "management port")]
    fn port_zero_rejected() {
        let mut lft = Lft::new(Lid(4));
        lft.set(Lid(1), PortNum(0));
    }

    #[test]
    fn block_fills_match_per_entry_sets() {
        let mut dense = Lft::new(Lid(12));
        let mut slow = Lft::new(Lid(12));
        dense.fill(Lid(1), 4, PortNum(2));
        for lid in 1..=4 {
            slow.set(Lid(lid), PortNum(2));
        }
        dense.copy_block(Lid(5), &[3, 4, 3, 4]);
        for (i, &p) in [3u8, 4, 3, 4].iter().enumerate() {
            slow.set(Lid(5 + i as u32), PortNum(p));
        }
        assert_eq!(dense, slow);
        assert_eq!(dense.populated(), 8);
    }
}
