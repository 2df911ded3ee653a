//! Virtual-lane arbitration (IBA VLArbitration tables, simplified to
//! packet granularity).
//!
//! Every egress port (switch output or HCA injection side) cycles through
//! a table of `(vl, weight)` entries: while the current entry's VL has an
//! eligible packet and remaining weight, it transmits; otherwise the
//! arbiter advances to the next entry, replenishing its weight. Plain
//! round-robin is the all-weights-one table. Weights are counted in
//! packets (IBA counts 64-byte units; with fixed-size packets the two are
//! proportional).

use crate::json::{Codec, Json, JsonBuf};

/// Arbitration policy for a port's egress.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum VlArbitration {
    /// One packet per VL in cyclic order (the paper's implicit policy).
    #[default]
    RoundRobin,
    /// A weighted table of `(vl, weight)` entries, serviced cyclically.
    /// VLs may appear multiple times; entries with weight 0 are skipped.
    Weighted(Vec<(u8, u8)>),
}

impl VlArbitration {
    /// Materialize the entry table for `num_vls` lanes.
    pub fn table(&self, num_vls: u8) -> Vec<(u8, u8)> {
        match self {
            VlArbitration::RoundRobin => (0..num_vls).map(|vl| (vl, 1)).collect(),
            VlArbitration::Weighted(entries) => entries
                .iter()
                .copied()
                .filter(|&(vl, w)| vl < num_vls && w > 0)
                .collect(),
        }
    }

    /// Validate against a VL count.
    pub fn validate(&self, num_vls: u8) -> Result<(), String> {
        let table = self.table(num_vls);
        if table.is_empty() {
            return Err("VL arbitration table has no usable entries".into());
        }
        for vl in 0..num_vls {
            if !table.iter().any(|&(v, _)| v == vl) {
                return Err(format!("VL {vl} never serviced by the arbitration table"));
            }
        }
        Ok(())
    }
}

/// `"round_robin"` or `{"weighted":[[vl,weight],…]}`.
impl Codec for VlArbitration {
    fn encode(&self, j: &mut JsonBuf) {
        match self {
            VlArbitration::RoundRobin => j.str_value("round_robin"),
            VlArbitration::Weighted(entries) => {
                j.begin_obj();
                j.field("weighted", entries);
                j.end_obj();
            }
        }
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::String(name) if name == "round_robin" => Ok(VlArbitration::RoundRobin),
            Json::Object(_) => Ok(VlArbitration::Weighted(
                v.as_object("vl_arbitration")?.decode("weighted")?,
            )),
            _ => Err("expected \"round_robin\" or {\"weighted\":[…]}".into()),
        }
    }
}

/// Per-port arbiter state over a shared entry table.
#[derive(Debug, Clone)]
pub struct VlArbiter {
    /// Index of the current entry.
    idx: usize,
    /// Packets the current entry may still send before yielding.
    remaining: u8,
}

impl VlArbiter {
    /// Fresh state positioned at the first entry.
    pub fn new(table: &[(u8, u8)]) -> Self {
        VlArbiter {
            idx: 0,
            remaining: table.first().map(|&(_, w)| w).unwrap_or(0),
        }
    }

    /// Pick the VL to transmit next among those for which `eligible`
    /// holds, honouring weights; `None` if nothing is eligible. The
    /// arbiter state advances only when a grant is made or an entry is
    /// exhausted/ineligible and skipped.
    ///
    /// A call with nothing eligible is not a no-op: it walks the whole
    /// table back to the current entry and refills that entry's weight.
    /// So with round-robin, a grant of VL0, an empty call, then a call
    /// with every VL eligible grants VL0 again. The engine makes that
    /// empty call (through [`grant_mask`](VlArbiter::grant_mask)) on
    /// every idle arbitration and its pinned reports depend on the
    /// refill: callers must not skip it when their eligibility mask is
    /// empty.
    pub fn grant<F: Fn(u8) -> bool>(&mut self, table: &[(u8, u8)], eligible: F) -> Option<u8> {
        let len = table.len();
        if len == 0 {
            return None;
        }
        // At most one full cycle of the table plus the current entry.
        for step in 0..=len {
            let vl = table[self.idx].0;
            if self.remaining > 0 && eligible(vl) {
                self.remaining -= 1;
                return Some(vl);
            }
            // Exhausted or ineligible: advance (but never spin forever).
            if step == len {
                break;
            }
            self.idx += 1;
            if self.idx == len {
                self.idx = 0;
            }
            self.remaining = table[self.idx].1;
        }
        None
    }

    /// [`grant`](VlArbiter::grant) over a bitmask of eligible VLs (bit
    /// `vl` set = eligible). An empty mask goes straight to the state a
    /// fruitless walk of the whole table ends in: the current entry
    /// refilled.
    #[inline]
    pub fn grant_mask(&mut self, table: &[(u8, u8)], mask: u16) -> Option<u8> {
        if mask == 0 {
            if let Some(&(_, weight)) = table.get(self.idx) {
                self.remaining = weight;
            }
            return None;
        }
        self.grant(table, |vl| mask & (1 << vl) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(arb: &mut VlArbiter, table: &[(u8, u8)], n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| arb.grant(table, |_| true).expect("always eligible"))
            .collect()
    }

    #[test]
    fn round_robin_alternates() {
        let table = VlArbitration::RoundRobin.table(3);
        let mut arb = VlArbiter::new(&table);
        assert_eq!(drain(&mut arb, &table, 6), vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn weights_are_respected() {
        let table = VlArbitration::Weighted(vec![(0, 3), (1, 1)]).table(2);
        let mut arb = VlArbiter::new(&table);
        assert_eq!(drain(&mut arb, &table, 8), vec![0, 0, 0, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn ineligible_vls_are_skipped_without_starvation() {
        let table = VlArbitration::Weighted(vec![(0, 2), (1, 2)]).table(2);
        let mut arb = VlArbiter::new(&table);
        // Only VL 1 has traffic.
        assert_eq!(arb.grant(&table, |vl| vl == 1), Some(1));
        assert_eq!(arb.grant(&table, |vl| vl == 1), Some(1));
        // Then VL 0 becomes eligible again.
        assert_eq!(arb.grant(&table, |_| true), Some(0));
    }

    #[test]
    fn nothing_eligible_returns_none_without_state_loss() {
        let table = VlArbitration::RoundRobin.table(2);
        let mut arb = VlArbiter::new(&table);
        assert_eq!(arb.grant(&table, |_| false), None);
        assert_eq!(arb.grant(&table, |_| true), Some(0));
    }

    #[test]
    fn empty_grant_refills_the_current_entry() {
        let table = VlArbitration::RoundRobin.table(4);
        let mut arb = VlArbiter::new(&table);
        assert_eq!(arb.grant(&table, |_| true), Some(0));
        // VL0's weight is spent; skipping the empty call would grant VL1
        // next.
        assert_eq!(arb.grant(&table, |_| false), None);
        assert_eq!(arb.grant(&table, |_| true), Some(0));
        assert_eq!(arb.grant(&table, |_| true), Some(1));
    }

    #[test]
    fn grant_mask_matches_grant() {
        // A scrambled sequence of 512 masks over three VLs, empty ones
        // included: both arbiters grant the same VLs and keep the same
        // state.
        let tables = [
            VlArbitration::RoundRobin.table(3),
            VlArbitration::Weighted(vec![(0, 3), (2, 1), (1, 2), (0, 1)]).table(3),
        ];
        for table in &tables {
            let (mut by_fn, mut by_mask) = (VlArbiter::new(table), VlArbiter::new(table));
            for step in 0u32..512 {
                let mask = (step.wrapping_mul(2_654_435_761) >> 13) as u16 & 0b111;
                assert_eq!(
                    by_fn.grant(table, |vl| mask & (1 << vl) != 0),
                    by_mask.grant_mask(table, mask),
                    "step {step}, mask {mask:03b}"
                );
                assert_eq!(
                    (by_fn.idx, by_fn.remaining),
                    (by_mask.idx, by_mask.remaining)
                );
            }
        }
    }

    #[test]
    fn validation_requires_full_coverage() {
        assert!(VlArbitration::RoundRobin.validate(4).is_ok());
        assert!(VlArbitration::Weighted(vec![(0, 1)]).validate(2).is_err());
        assert!(VlArbitration::Weighted(vec![(0, 0)]).validate(1).is_err());
        assert!(VlArbitration::Weighted(vec![(0, 2), (1, 1)])
            .validate(2)
            .is_ok());
        // Out-of-range VLs are filtered, leaving coverage incomplete.
        assert!(VlArbitration::Weighted(vec![(0, 1), (5, 1)])
            .validate(2)
            .is_err());
    }

    #[test]
    fn zero_weight_entries_are_dropped() {
        let table = VlArbitration::Weighted(vec![(0, 0), (1, 2)]).table(2);
        assert_eq!(table, vec![(1, 2)]);
    }
}
