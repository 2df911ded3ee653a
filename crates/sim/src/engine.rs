//! The discrete-event core: a monotonically ordered event calendar.
//!
//! Events at equal timestamps are processed in insertion order, so a
//! simulation is a pure function of its inputs and seed. Two types share
//! that contract:
//!
//! * [`HeapCalendar`] — a `BinaryHeap` ordered by one packed `(time, seq)`
//!   key.
//! * [`ChainQueue`] — the sequential engine's calendar: five
//!   constant-delay FIFO delay lines plus a residual calendar (a sorted
//!   FIFO run beside a [`HeapCalendar`]).
//!
//! Tie-break order is part of the determinism contract (see
//! `docs/MODEL.md` § Performance & determinism): both pop equal
//! timestamps strictly in scheduling order.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

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
        self.push_keyed(key(at, seq), event);
    }

    /// Push an event under a key stamped by the caller (the residual
    /// heap of [`ChainQueue`], whose sequence spans all its sources).
    #[inline]
    fn push_keyed(&mut self, key: Key, event: E) {
        self.heap.push(Reverse(Keyed { key, event }));
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (time_of(e.key), e.event))
    }

    /// Key of the earliest pending event.
    #[inline]
    fn peek_key(&self) -> Option<Key> {
        self.heap.peek().map(|Reverse(e)| e.key)
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

/// The fixed-latency event classes of the simulator's hot path. Every
/// event a handler schedules at one of these five constant delays goes
/// into a dedicated FIFO delay line instead of the general calendar —
/// see [`ChainQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainClass {
    /// One wire flight (`fly_time_ns`): header arrivals, credit returns,
    /// workload arm notifications.
    Fly,
    /// One routing stage (`routing_time_ns`): route-done completions of
    /// heads that reach the front of a buffer after their arrival.
    Route,
    /// One packet serialization (`packet_time_ns`): transmit completions
    /// and input-buffer departures.
    Pkt,
    /// Wire flight plus serialization: tail delivery at an endport.
    FlyPkt,
    /// Wire flight plus one routing stage: the route-done a fused run
    /// schedules when a transmission into a switch starts.
    FlyRoute,
}

/// Number of [`ChainClass`] delay lines.
const CHAINS: usize = 5;

/// A calendar specialized for the simulator's event mix: five constant-
/// delay FIFO delay lines (one per [`ChainClass`]) beside a residual
/// calendar for everything else (injections, discard drains, fault and
/// workload priming events).
///
/// Because dispatch time is monotone and each chain's delay is a run
/// constant, every chain is `(time, seq)`-sorted by construction — a
/// `schedule_chain` is a plain `push_back`. The residual calendar is a
/// FIFO *run* beside a [`HeapCalendar`]: a residual event whose key is
/// at least the run's tail is appended to the run, which therefore stays
/// sorted too; only out-of-order events (the randomly phased priming
/// round, Poisson draws, discard drains) pay for the heap.
///
/// The earliest event is the minimum over at most seven sorted heads:
/// the five chain fronts, the run's front and the heap's top. A single
/// global sequence number, stamped at schedule time across all sources,
/// reproduces the exact `(time, insertion order)` pop contract of a
/// single [`HeapCalendar`] — same events, same order, same
/// `events_processed`; only the per-event calendar cost changes. The
/// calendar-equivalence suite pins exactly that.
#[derive(Debug)]
pub struct ChainQueue<E> {
    chains: [VecDeque<Keyed<E>>; CHAINS],
    /// Residual events scheduled in key order: sorted by construction.
    run: VecDeque<Keyed<E>>,
    /// Residual events that arrived below the run's tail.
    heap: HeapCalendar<E>,
    seq: u64,
}

/// Index of the run among the FIFO sources popped by [`ChainQueue::pop`],
/// after the chains.
const RUN: usize = CHAINS;

impl<E> ChainQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        ChainQueue {
            chains: std::array::from_fn(|_| VecDeque::with_capacity(64)),
            run: VecDeque::with_capacity(64),
            heap: HeapCalendar::new(),
            seq: 0,
        }
    }

    #[inline]
    fn next_key(&mut self, at: Time) -> Key {
        let k = key(at, self.seq);
        self.seq += 1;
        k
    }

    /// Schedule into the residual calendar (non-constant delays).
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        let key = self.next_key(at);
        if self.run.back().is_none_or(|tail| tail.key <= key) {
            self.run.push_back(Keyed { key, event });
        } else {
            self.heap.push_keyed(key, event);
        }
    }

    /// Schedule onto a constant-delay chain. The caller must pass the
    /// chain matching the event's delay class: within a chain,
    /// timestamps must be non-decreasing (dispatch time is monotone and
    /// the delay constant, so this holds by construction; debug builds
    /// assert it).
    #[inline]
    pub fn schedule_chain(&mut self, class: ChainClass, at: Time, event: E) {
        let key = self.next_key(at);
        let chain = &mut self.chains[class as usize];
        debug_assert!(
            chain.back().is_none_or(|tail| tail.key <= key),
            "chain {class:?} scheduled out of order"
        );
        chain.push_back(Keyed { key, event });
    }

    /// Pop the earliest event: the minimum key over the chain fronts,
    /// the run's front and the heap's top.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        // Reading the fronts measured faster than caching each source's
        // head key (EXPERIMENTS.md, "Engine hot path").
        let mut best: Option<(Key, usize)> = None;
        for (i, chain) in self.chains.iter().enumerate() {
            if let Some(e) = chain.front() {
                if best.is_none_or(|(b, _)| e.key < b) {
                    best = Some((e.key, i));
                }
            }
        }
        if let Some(e) = self.run.front() {
            if best.is_none_or(|(b, _)| e.key < b) {
                best = Some((e.key, RUN));
            }
        }
        if let Some(k) = self.heap.peek_key() {
            if best.is_none_or(|(b, _)| k < b) {
                return self.heap.pop();
            }
        }
        best.map(|(_, i)| {
            let fifo = if i < RUN {
                &mut self.chains[i]
            } else {
                &mut self.run
            };
            let e = fifo.pop_front().expect("checked nonempty");
            (time_of(e.key), e.event)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.chains.iter().map(|c| c.len()).sum::<usize>() + self.run.len() + self.heap.len()
    }

    /// Whether every chain and the residual calendar are drained.
    pub fn is_empty(&self) -> bool {
        self.chains.iter().all(|c| c.is_empty()) && self.run.is_empty() && self.heap.is_empty()
    }
}

impl<E> Default for ChainQueue<E> {
    fn default() -> Self {
        ChainQueue::new()
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

    /// Drive a `ChainQueue` and one shared `HeapCalendar` through the same
    /// interleaved mix of chain and residual schedules (with a monotone
    /// dispatch clock, as the simulator guarantees) and assert they pop
    /// exactly the same sequence — same times, same tie-breaks.
    /// `residual(now, r, k)` gives the time of the `k`-th residual event
    /// of a step from a random draw `r`.
    fn assert_matches_single_calendar(residual: impl Fn(u64, u64, u64) -> u64) {
        let classes = [
            ChainClass::Fly,
            ChainClass::Route,
            ChainClass::Pkt,
            ChainClass::FlyPkt,
            ChainClass::FlyRoute,
        ];
        let delays = [20u64, 100, 256, 276, 120];
        let mut cq = ChainQueue::new();
        let mut hq = HeapCalendar::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut id = 0u32;
        let mut max_len = 0;
        for _ in 0..500 {
            let mut k = 0;
            for _ in 0..next() % 6 {
                id += 1;
                if next() % 3 == 0 {
                    let at = residual(now, next(), k);
                    k += 1;
                    cq.schedule(at, id);
                    hq.schedule(at, id);
                } else {
                    let c = (next() % 5) as usize;
                    cq.schedule_chain(classes[c], now + delays[c], id);
                    hq.schedule(now + delays[c], id);
                }
            }
            max_len = max_len.max(cq.len());
            assert_eq!(cq.len(), hq.len());
            for _ in 0..next() % 5 {
                let a = cq.pop();
                assert_eq!(a, hq.pop());
                if let Some((t, _)) = a {
                    now = t;
                }
            }
        }
        assert!(max_len > 8, "the stream never built up a backlog");
        loop {
            let a = cq.pop();
            assert_eq!(a, hq.pop(), "drain");
            if a.is_none() {
                break;
            }
        }
        assert!(cq.is_empty());
        assert_eq!(cq.len(), 0);
    }

    #[test]
    fn chain_queue_matches_single_calendar_pop_order() {
        // Residual: arbitrary future delay (injections, retries).
        assert_matches_single_calendar(|now, r, _| now + r % 8192);
    }

    #[test]
    fn chain_queue_matches_single_calendar_on_decreasing_residuals() {
        // Each step's residual events land ever earlier (every one after
        // the first falls below the run's tail, into the heap), with
        // frequent ties on the chain delays and on each other.
        assert_matches_single_calendar(|now, r, k| {
            let base = [276u64, 256, 100, 20][(r % 4) as usize];
            now + base.saturating_sub(k * 20 * (r % 2))
        });
        assert_matches_single_calendar(|now, r, k| now + 2_000 - 400 * k.min(4) - r % 2);
    }

    #[test]
    fn residual_events_at_equal_times_pop_in_scheduling_order() {
        // 1 and 2 are in order (the run); 3 and 4 fall below the run's
        // tail (the heap) yet tie with 1 and 2, so the run must win the
        // ties; 5 ties with the chain event 0 scheduled before it.
        let mut q = ChainQueue::new();
        q.schedule_chain(ChainClass::Fly, 20, 0);
        q.schedule(10, 1);
        q.schedule(30, 2);
        q.schedule(10, 3);
        q.schedule(30, 4);
        q.schedule(20, 5);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            [(10, 1), (10, 3), (20, 0), (20, 5), (30, 2), (30, 4)]
        );
    }
}
