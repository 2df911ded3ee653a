//! Fixed-capacity FIFO rings for the engine's per-(port, VL) buffers.
//!
//! Every lane of a [`LaneRings`] is one bounded FIFO, and all lanes share
//! two allocations: each lane's cursor sits beside its first slot, so a
//! one-packet lane is a single small record, and the other slots of
//! lane `i` fill the block `i * (cap - 1) .. (i + 1) * (cap - 1)` of a
//! second array, where `cap` is the requested capacity rounded up to a
//! power of two. Reaching a lane's head is one record load when the head
//! is the first slot, with no per-lane allocation.

/// Head index and length of one lane's ring.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    head: u16,
    len: u16,
}

/// A lane's cursor and its first slot, kept together.
#[derive(Debug, Clone, Copy)]
struct Lane<T> {
    cursor: Cursor,
    first: T,
}

/// `lanes` bounded FIFOs of `Copy` entries.
#[derive(Debug)]
pub(crate) struct LaneRings<T> {
    lanes: Vec<Lane<T>>,
    /// Slots `1..cap` of every lane, `mask` per lane.
    rest: Vec<T>,
    /// `cap - 1`: the ring-position mask and the per-lane block of
    /// [`rest`](Self::rest).
    mask: usize,
}

impl<T: Copy> LaneRings<T> {
    /// `lanes` empty rings holding at least `capacity` entries each;
    /// `fill` initializes the unused slots.
    pub(crate) fn new(lanes: usize, capacity: usize, fill: T) -> Self {
        assert!(
            (1..=1 << 15).contains(&capacity),
            "lane capacity {capacity} out of range"
        );
        let mask = capacity.next_power_of_two() - 1;
        let lane = Lane {
            cursor: Cursor::default(),
            first: fill,
        };
        LaneRings {
            lanes: vec![lane; lanes],
            rest: vec![fill; lanes * mask],
            mask,
        }
    }

    /// The slot at ring position `pos` of `lane`.
    #[inline]
    fn slot(&self, lane: usize, pos: usize) -> &T {
        if pos == 0 {
            &self.lanes[lane].first
        } else {
            &self.rest[lane * self.mask + pos - 1]
        }
    }

    #[inline]
    fn slot_mut(&mut self, lane: usize, pos: usize) -> &mut T {
        if pos == 0 {
            &mut self.lanes[lane].first
        } else {
            &mut self.rest[lane * self.mask + pos - 1]
        }
    }

    /// Ring position of the `i`-th entry of `lane` (0 = head).
    #[inline]
    fn pos(&self, lane: usize, i: usize) -> usize {
        (self.lanes[lane].cursor.head as usize + i) & self.mask
    }

    /// The `i`-th entry of `lane` (0 = head).
    #[inline]
    fn get(&self, lane: usize, i: usize) -> T {
        *self.slot(lane, self.pos(lane, i))
    }

    #[inline]
    pub(crate) fn len(&self, lane: usize) -> usize {
        self.lanes[lane].cursor.len as usize
    }

    #[inline]
    pub(crate) fn is_empty(&self, lane: usize) -> bool {
        self.lanes[lane].cursor.len == 0
    }

    #[inline]
    pub(crate) fn front(&self, lane: usize) -> Option<T> {
        (!self.is_empty(lane)).then(|| self.get(lane, 0))
    }

    #[inline]
    pub(crate) fn front_mut(&mut self, lane: usize) -> Option<&mut T> {
        if self.is_empty(lane) {
            return None;
        }
        let pos = self.pos(lane, 0);
        Some(self.slot_mut(lane, pos))
    }

    /// Append to `lane`.
    ///
    /// # Panics
    /// Panics if the lane's slot block is full: the credit protocol and
    /// the waiter bound keep every lane within its capacity, so a full
    /// block is an engine bug, never a reason to overwrite the head.
    #[inline]
    pub(crate) fn push_back(&mut self, lane: usize, v: T) {
        let len = self.len(lane);
        assert!(len <= self.mask, "lane ring overflow");
        let pos = self.pos(lane, len);
        *self.slot_mut(lane, pos) = v;
        self.lanes[lane].cursor.len += 1;
    }

    #[inline]
    pub(crate) fn pop_front(&mut self, lane: usize) -> Option<T> {
        let v = self.front(lane)?;
        let mask = self.mask;
        let c = &mut self.lanes[lane].cursor;
        c.head = ((c.head as usize + 1) & mask) as u16;
        c.len -= 1;
        Some(v)
    }

    /// Iterate `lane` from head to tail.
    pub(crate) fn iter(&self, lane: usize) -> impl Iterator<Item = T> + '_ {
        (0..self.len(lane)).map(move |i| self.get(lane, i))
    }
}

impl<T: Copy + PartialEq> LaneRings<T> {
    /// Remove the first entry equal to `v` from `lane`, keeping the order
    /// of the rest; `false` if there is none.
    pub(crate) fn remove_item(&mut self, lane: usize, v: T) -> bool {
        let Some(pos) = self.iter(lane).position(|x| x == v) else {
            return false;
        };
        for i in pos..self.len(lane) - 1 {
            let (to, next) = (self.pos(lane, i), self.get(lane, i + 1));
            *self.slot_mut(lane, to) = next;
        }
        self.lanes[lane].cursor.len -= 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Drive a ring and a `VecDeque` reference through the same
    /// operations, many times around the ring.
    fn wraps_like_a_deque(capacity: usize) {
        let mut ring = LaneRings::new(3, capacity, 0u32);
        let mut refs = vec![VecDeque::new(); 3];
        let mut next = 1u32;
        for round in 0..50usize {
            for (lane, r) in refs.iter_mut().enumerate() {
                // Fill a varying amount, then drain part of it, so head
                // positions drift across the slot block.
                let fill = (round + lane) % (capacity + 1);
                while r.len() < capacity && r.len() < fill {
                    ring.push_back(lane, next);
                    r.push_back(next);
                    next += 1;
                }
                assert_eq!(ring.len(lane), r.len());
                assert_eq!(ring.front(lane), r.front().copied());
                let drain = (round * 7 + lane) % (r.len() + 1);
                for _ in 0..drain {
                    assert_eq!(ring.pop_front(lane), r.pop_front());
                }
                assert!(ring.iter(lane).eq(r.iter().copied()));
            }
        }
        for (lane, r) in refs.iter_mut().enumerate() {
            while let Some(v) = r.pop_front() {
                assert_eq!(ring.pop_front(lane), Some(v));
            }
            assert!(ring.is_empty(lane));
            assert_eq!(ring.pop_front(lane), None);
            assert_eq!(ring.front(lane), None);
        }
    }

    #[test]
    fn wrap_around_at_capacity_1_2_4() {
        for capacity in [1, 2, 4] {
            wraps_like_a_deque(capacity);
        }
    }

    #[test]
    fn non_power_of_two_capacity_rounds_up_its_block() {
        wraps_like_a_deque(3);
        let mut ring = LaneRings::new(1, 3, 0u8);
        for v in 0..4 {
            ring.push_back(0, v);
        }
        assert_eq!(ring.iter(0).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn lanes_are_independent() {
        let mut ring = LaneRings::new(4, 2, 0u8);
        ring.push_back(1, 10);
        ring.push_back(2, 20);
        ring.push_back(2, 21);
        assert!(ring.is_empty(0) && ring.is_empty(3));
        assert_eq!(ring.pop_front(2), Some(20));
        assert_eq!(ring.front(1), Some(10));
        assert_eq!(ring.front(2), Some(21));
    }

    #[test]
    fn front_mut_edits_the_head_in_place() {
        let mut ring = LaneRings::new(1, 2, 0u8);
        assert!(ring.front_mut(0).is_none());
        ring.push_back(0, 1);
        ring.push_back(0, 2);
        *ring.front_mut(0).expect("nonempty") = 9;
        assert_eq!(ring.iter(0).collect::<Vec<_>>(), [9, 2]);
    }

    /// `sw_reprogram` pulls a rescued input port out of the middle of a
    /// waiter queue; the entries behind it must keep their order, also
    /// when the live entries straddle the end of the slot block.
    #[test]
    fn mid_ring_removal_keeps_order_across_the_wrap() {
        for skew in 0..4 {
            let mut ring = LaneRings::new(2, 4, 0u8);
            for _ in 0..skew {
                ring.push_back(1, 99);
                ring.pop_front(1);
            }
            for v in [1, 2, 3, 4] {
                ring.push_back(1, v);
            }
            assert!(ring.remove_item(1, 2));
            assert_eq!(ring.iter(1).collect::<Vec<_>>(), [1, 3, 4]);
            assert!(!ring.remove_item(1, 2), "already removed");
            assert!(ring.remove_item(1, 4), "tail removal");
            assert!(ring.remove_item(1, 1), "head removal");
            assert_eq!(ring.iter(1).collect::<Vec<_>>(), [3]);
            ring.push_back(1, 5);
            assert_eq!(ring.pop_front(1), Some(3));
            assert_eq!(ring.pop_front(1), Some(5));
            assert!(ring.is_empty(1) && ring.is_empty(0));
        }
    }

    #[test]
    #[should_panic(expected = "lane ring overflow")]
    fn pushing_past_the_slot_block_panics() {
        let mut ring = LaneRings::new(2, 2, 0u8);
        for v in 0..3 {
            ring.push_back(0, v);
        }
    }
}
