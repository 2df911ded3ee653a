//! Virtual-lane arbitration: one packet per VL in cyclic order, the
//! paper's implicit policy (IBA's VLArbitration table with every weight
//! one, at packet granularity).

/// Per-port round-robin arbiter over a mask of ready VLs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VlArbiter {
    /// The VL granted last (VL 0 before the first grant).
    cur: u8,
    /// Whether `cur` may be granted again before the others: set at the
    /// start and by every arbitration that finds nothing ready.
    fresh: bool,
}

impl VlArbiter {
    /// Fresh state positioned at VL 0.
    pub(crate) fn new() -> Self {
        VlArbiter {
            cur: 0,
            fresh: true,
        }
    }

    /// Grant a VL among those whose bit is set in `mask` (bit `vl` set =
    /// ready; bits at or above the port's VL count are never set): `cur`
    /// if the arbiter is fresh and `cur` is ready, otherwise the next
    /// ready VL after `cur`, cyclically. `None` if the mask is empty.
    ///
    /// An empty mask is not a no-op: it makes the arbiter fresh. So a
    /// grant of VL0, an empty call, then a call with every VL ready
    /// grants VL0 again. The engine arbitrates on every idle wake-up
    /// and its pinned reports depend on that refill: callers must not
    /// skip the call when their mask is empty.
    #[inline]
    pub(crate) fn grant(&mut self, mask: u16) -> Option<u8> {
        if mask == 0 {
            self.fresh = true;
            return None;
        }
        // Search from `cur` when fresh, from the VL after it otherwise;
        // the VLs past the port's count hold no bits, so cycling over
        // all 16 positions is cycling over the port's VLs.
        let start = u32::from(self.cur) + u32::from(!self.fresh);
        let vl = (start + mask.rotate_right(start).trailing_zeros()) % 16;
        self.cur = vl as u8;
        self.fresh = false;
        Some(self.cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_alternates() {
        let mut arb = VlArbiter::new();
        let grants: Vec<_> = (0..6).map(|_| arb.grant(0b111).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn unready_vls_are_skipped_and_a_lone_vl_repeats() {
        let mut arb = VlArbiter::new();
        assert_eq!(arb.grant(0b010), Some(1));
        assert_eq!(arb.grant(0b010), Some(1));
        assert_eq!(arb.grant(0b111), Some(2));
        assert_eq!(arb.grant(0b111), Some(0));
    }

    #[test]
    fn empty_grant_refills_the_current_vl() {
        let mut arb = VlArbiter::new();
        assert_eq!(arb.grant(0b1111), Some(0));
        // VL0 is spent; skipping the empty call would grant VL1 next.
        assert_eq!(arb.grant(0), None);
        assert_eq!(arb.grant(0b1111), Some(0));
        assert_eq!(arb.grant(0b1111), Some(1));
    }

    /// The IBA table walk this arbiter replaced, at every weight one:
    /// entry `i` serves VL `i`, and `remaining` is the current entry's
    /// unspent weight.
    struct TableWalk {
        num_vls: usize,
        idx: usize,
        remaining: u8,
    }

    impl TableWalk {
        fn new(num_vls: usize) -> Self {
            TableWalk {
                num_vls,
                idx: 0,
                remaining: 1,
            }
        }

        fn grant_mask(&mut self, mask: u16) -> Option<u8> {
            if mask == 0 {
                // A fruitless walk of the whole table ends with the
                // current entry refilled.
                self.remaining = 1;
                return None;
            }
            for step in 0..=self.num_vls {
                if self.remaining > 0 && mask & (1 << self.idx) != 0 {
                    self.remaining -= 1;
                    return Some(self.idx as u8);
                }
                if step == self.num_vls {
                    break;
                }
                self.idx = (self.idx + 1) % self.num_vls;
                self.remaining = 1;
            }
            None
        }
    }

    #[test]
    fn matches_the_all_ones_table_walk() {
        // A scrambled sequence of masks over 1..=15 VLs, with empty
        // masks and one-VL masks frequent: both arbiters grant the same
        // VLs and keep the same state.
        for num_vls in 1..=15u32 {
            let (mut walk, mut arb) = (TableWalk::new(num_vls as usize), VlArbiter::new());
            for step in 0u32..4096 {
                let h = step.wrapping_mul(2_654_435_761).rotate_left(step % 29);
                let mask = match h % 5 {
                    0 => 0,
                    1 => 1 << ((h >> 8) % num_vls),
                    _ => (h >> 5) & ((1 << num_vls) - 1),
                };
                let (want, got) = (walk.grant_mask(mask as u16), arb.grant(mask as u16));
                assert_eq!(got, want, "{num_vls} VLs, step {step}, mask {mask:b}");
                assert_eq!(
                    (usize::from(arb.cur), arb.fresh),
                    (walk.idx, walk.remaining == 1)
                );
            }
        }
    }
}
