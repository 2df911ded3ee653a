//! The discrete-event core: a monotonically ordered event calendar.
//!
//! Events at equal timestamps are processed in insertion order, so a
//! simulation is a pure function of its inputs and seed. Two types share
//! that contract:
//!
//! * [`HeapCalendar`] — a `BinaryHeap` ordered by one packed `(time, seq)`
//!   key.
//! * [`RingCalendar`] — the engine's calendar: a ring of one-nanosecond
//!   FIFO buckets spanning the run's largest fixed delay, with a
//!   [`HeapCalendar`] for the events beyond it.
//!
//! Tie-break order is part of the determinism contract (see
//! `docs/MODEL.md` § Performance & determinism): both pop equal
//! timestamps strictly in scheduling order.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Simulation time in nanoseconds.
pub type Time = u64;

/// An event's calendar key, `(time << 64) | seq`: ordering keys orders
/// by time, then by scheduling order. Sequence numbers are unique per
/// calendar, so no two pending events share a key.
type Key = u128;

#[inline]
fn key(at: Time, seq: u64) -> Key {
    (Key::from(at) << 64) | Key::from(seq)
}

#[inline]
fn time_of(key: Key) -> Time {
    (key >> 64) as Time
}

/// One scheduled event. Ordering is decided entirely by the unique key,
/// so the payload never participates in comparisons.
#[derive(Debug)]
struct Keyed<E> {
    key: Key,
    event: E,
}

impl<E> PartialEq for Keyed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Keyed<E> {}
impl<E> PartialOrd for Keyed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Keyed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Binary-heap calendar ordered by the unique `(time, seq)` key.
#[derive(Debug)]
pub struct HeapCalendar<E> {
    heap: BinaryHeap<Reverse<Keyed<E>>>,
    seq: u64,
}

impl<E> HeapCalendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        HeapCalendar {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Keyed {
            key: key(at, seq),
            event,
        }));
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (time_of(e.key), e.event))
    }

    /// Timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| time_of(e.key))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the calendar is drained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for HeapCalendar<E> {
    fn default() -> Self {
        HeapCalendar::new()
    }
}

/// Fewest ring slots: one occupancy word.
const MIN_SLOTS: usize = 64;

/// Most ring slots. A configuration whose fixed delays run past it (a
/// microsecond wire, say) keeps its order through the far calendar; it
/// costs speed, not memory.
const MAX_SLOTS: usize = 1 << 12;

/// The span of a [`RingCalendar::default`]: the largest fixed delay at
/// the paper's constants, wire flight plus serialization, 20 + 256 ns.
const DEFAULT_SPAN: Time = 276;

/// The engine's calendar: a ring of one-nanosecond FIFO buckets over the
/// window `[now, now + slots)`, where `now` is the time of the last pop.
///
/// * An event within the window is pushed onto its instant's bucket, `at
///   & mask`; a bucket holds one instant only, so its FIFO order is the
///   scheduling order.
/// * An event beyond the window goes to a [`HeapCalendar`], the *far*
///   calendar: low-load injections, the priming round, fault events.
///   Each time `now` advances, every far event the window now covers is
///   moved into its bucket, in `(time, seq)` order, before any handler
///   runs. A near event can only be scheduled at an instant once the
///   window covers it, so it lands behind every far event of that
///   instant, which was scheduled earlier.
/// * An occupancy bitmap lets `pop` skip empty buckets a word at a time,
///   and a ring with nothing in it jumps straight to the far calendar's
///   first instant.
/// * A drained bucket gives its buffer to a spare list, and the next
///   bucket to fill takes it from there, so the ring holds about as many
///   buffers as it has busy instants, not one per slot.
///
/// The result pops exactly what a single [`HeapCalendar`] pops: same
/// events, same `(time, insertion order)`. Scheduling before the last
/// popped time panics, since such an event would alias an instant one
/// ring ahead.
#[derive(Debug)]
pub struct RingCalendar<E> {
    /// Bucket `t & mask` holds the events at instant `t` of the window.
    buckets: Vec<Vec<E>>,
    /// Bit `i` is set iff bucket `i` is nonempty.
    occupied: Vec<u64>,
    /// Cleared buffers of drained buckets.
    spare: Vec<Vec<E>>,
    /// Events beyond the window.
    far: HeapCalendar<E>,
    /// `slots - 1`: the longest delay the ring holds.
    mask: Time,
    /// The time of the last pop; the current bucket is `now & mask`.
    now: Time,
    /// Events of the current bucket already popped.
    head: usize,
    len: usize,
}

impl<E: Copy> RingCalendar<E> {
    /// An empty calendar whose ring holds every event up to `span` ns
    /// ahead of the last pop: `next_power_of_two(span + 1)` slots,
    /// clamped to `64..=4096`.
    pub fn new(span: Time) -> Self {
        let slots = usize::try_from(span.saturating_add(1))
            .unwrap_or(usize::MAX)
            .clamp(MIN_SLOTS, MAX_SLOTS)
            .next_power_of_two();
        RingCalendar {
            buckets: (0..slots).map(|_| Vec::new()).collect(),
            occupied: vec![0; slots / 64],
            spare: Vec::new(),
            far: HeapCalendar::new(),
            mask: slots as Time - 1,
            now: 0,
            head: 0,
            len: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the time of the last pop.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "event scheduled at {at} ns, before the calendar's time {} ns",
            self.now
        );
        self.len += 1;
        if at - self.now > self.mask {
            self.far.schedule(at, event);
        } else {
            self.push_near(at, event);
        }
    }

    /// Append to the bucket of instant `at`, which the window covers.
    #[inline]
    fn push_near(&mut self, at: Time, event: E) {
        let i = (at & self.mask) as usize;
        let bucket = &mut self.buckets[i];
        if bucket.is_empty() {
            self.occupied[i >> 6] |= 1 << (i & 63);
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        bucket.push(event);
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            let i = (self.now & self.mask) as usize;
            if let Some(&event) = self.buckets[i].get(self.head) {
                self.head += 1;
                self.len -= 1;
                return Some((self.now, event));
            }
            if self.len == 0 {
                return None;
            }
            self.advance(i);
        }
    }

    /// Retire the drained current bucket `i`, move `now` to the next
    /// nonempty instant, and pull in the far events the window reaches.
    fn advance(&mut self, i: usize) {
        if !self.buckets[i].is_empty() {
            let mut buf = std::mem::take(&mut self.buckets[i]);
            buf.clear();
            self.spare.push(buf);
            self.occupied[i >> 6] &= !(1 << (i & 63));
        }
        self.head = 0;
        self.now = match self.next_occupied(i) {
            Some(j) => self.now + (j.wrapping_sub(i) as Time & self.mask),
            None => self.far.peek_time().expect("a pending event is far"),
        };
        while self
            .far
            .peek_time()
            .is_some_and(|t| t - self.now <= self.mask)
        {
            let (t, event) = self.far.pop().expect("peeked");
            self.push_near(t, event);
        }
    }

    /// The first nonempty bucket after `i`, going round the ring.
    #[inline]
    fn next_occupied(&self, i: usize) -> Option<usize> {
        let (w0, words) = (i >> 6, self.occupied.len());
        let above = self.occupied[w0] & (!1 << (i & 63));
        if above != 0 {
            return Some((w0 << 6) | above.trailing_zeros() as usize);
        }
        (1..=words).find_map(|k| {
            let w = (w0 + k) & (words - 1);
            let bits = self.occupied[w];
            (bits != 0).then(|| (w << 6) | bits.trailing_zeros() as usize)
        })
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the calendar is drained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A ring sized for the paper's constants (512 slots).
impl<E: Copy> Default for RingCalendar<E> {
    fn default() -> Self {
        RingCalendar::new(DEFAULT_SPAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = HeapCalendar::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = HeapCalendar::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = HeapCalendar::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(42, "x");
        assert_eq!(q.peek_time(), Some(42));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_schedule_pop_keeps_order() {
        // Schedule-while-popping at the current timestamp: the new event
        // must pop after everything already queued at that time.
        let mut q = HeapCalendar::new();
        q.schedule(7, 1u32);
        q.schedule(7, 2);
        assert_eq!(q.pop(), Some((7, 1)));
        q.schedule(7, 3); // "now" insert during dispatch
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((7, 3)));
    }

    fn drain(q: &mut RingCalendar<u32>) -> Vec<(Time, u32)> {
        let popped = std::iter::from_fn(|| q.pop()).collect();
        assert!(q.is_empty());
        popped
    }

    #[test]
    fn ring_sizes_from_its_span() {
        let slots = |span| RingCalendar::<u32>::new(span).buckets.len();
        assert_eq!(slots(DEFAULT_SPAN), 512);
        assert_eq!(slots(511), 512);
        assert_eq!(slots(512), 1024);
        assert_eq!(slots(0), MIN_SLOTS);
        assert_eq!(slots(Time::MAX), MAX_SLOTS);
    }

    /// A far event whose instant the window reaches exactly when a near
    /// event can first be scheduled there must pop first: it was
    /// scheduled first.
    #[test]
    fn a_migrated_far_event_keeps_its_place_before_later_near_ones() {
        let mut q = RingCalendar::new(63);
        q.schedule(100, 0); // 100 ns ahead of a 64-slot window: far
        q.schedule(37, 1);
        assert_eq!(q.pop(), Some((37, 1)));
        // The window is now [37, 101): 100 is a near instant, 63 ns out.
        q.schedule(100, 2);
        q.schedule(100, 3);
        q.schedule(40, 4);
        assert_eq!(q.pop(), Some((40, 4)));
        q.schedule(100, 5);
        assert_eq!(drain(&mut q), [(100, 0), (100, 2), (100, 3), (100, 5)]);
    }

    #[test]
    fn delay_zero_schedules_join_the_draining_bucket() {
        let mut q = RingCalendar::new(63);
        q.schedule(5, 1u32);
        q.schedule(5, 2);
        q.schedule(6, 9);
        assert_eq!(q.pop(), Some((5, 1)));
        q.schedule(5, 3);
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
        // The bucket is drained but still current: a delay-0 schedule
        // pops before anything later.
        q.schedule(5, 4);
        assert_eq!(q.pop(), Some((5, 4)));
        assert_eq!(drain(&mut q), [(6, 9)]);
    }

    #[test]
    fn a_gap_longer_than_the_ring_jumps_to_the_far_instant() {
        let mut q = RingCalendar::new(63);
        q.schedule(10_000, 1u32);
        q.schedule(10_000, 2);
        q.schedule(50_000, 3);
        assert_eq!(q.pop(), Some((10_000, 1)));
        q.schedule(10_000, 4);
        q.schedule(10_010, 5);
        q.schedule(10_064, 6); // just past the window from 10,000: far
        q.schedule(10_063, 7);
        assert_eq!(
            drain(&mut q),
            [
                (10_000, 2),
                (10_000, 4),
                (10_010, 5),
                (10_063, 7),
                (10_064, 6),
                (50_000, 3)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "before the calendar's time")]
    fn scheduling_before_the_last_pop_panics() {
        let mut q = RingCalendar::new(63);
        q.schedule(10, 1u32);
        assert_eq!(q.pop(), Some((10, 1)));
        q.schedule(9, 2);
    }

    /// Drive a `RingCalendar` and a `HeapCalendar` through the same
    /// stream, built only from `schedule` and `pop`, and assert they pop
    /// exactly the same sequence. Each step schedules a few events at
    /// `now + delay(r)` and pops a few; `now` follows the pops, as the
    /// engine's clock does.
    fn assert_matches_heap(span: Time, steps: usize, delay: impl Fn(u64) -> u64) {
        let mut ring = RingCalendar::new(span);
        let mut heap = HeapCalendar::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut now, mut id, mut max_len) = (0u64, 0u32, 0);
        for _ in 0..steps {
            for _ in 0..next() % 6 {
                id += 1;
                let at = now + delay(next());
                ring.schedule(at, id);
                heap.schedule(at, id);
            }
            max_len = max_len.max(ring.len());
            assert_eq!(ring.len(), heap.len());
            for _ in 0..next() % 6 {
                let a = ring.pop();
                assert_eq!(a, heap.pop());
                if let Some((t, _)) = a {
                    now = t;
                }
            }
        }
        assert!(max_len > 8, "the stream never built up a backlog");
        loop {
            let a = ring.pop();
            assert_eq!(a, heap.pop(), "drain");
            if a.is_none() {
                break;
            }
        }
        assert!(ring.is_empty());
        assert!(
            now > 50 * (ring.mask + 1),
            "the stream went round the ring only {} times",
            now / (ring.mask + 1)
        );
    }

    #[test]
    fn ring_matches_the_heap_on_fixed_delays_and_far_jumps() {
        // The engine's mix at the paper's constants: the five fixed
        // delays, delay 0, and injections near and past the 512-slot
        // ring.
        assert_matches_heap(DEFAULT_SPAN, 20_000, |r| {
            [0, 20, 100, 256, 276, 120, 511, 512, 513, 300 + r % 2_000][(r % 10) as usize]
        });
    }

    #[test]
    fn ring_matches_the_heap_at_the_window_edge() {
        // On a 64-slot ring, delays cluster on both sides of the window
        // edge, so far events keep migrating into buckets that near
        // schedules then join; the odd long gap empties the ring.
        assert_matches_heap(63, 20_000, |r| match r % 16 {
            0 => 0,
            1..=5 => 60 + r % 8,
            6..=11 => r % 64,
            12..=14 => 64 + r % 200,
            _ => 1_000 + r % 5_000,
        });
    }
}
