//! The discrete-event core: a monotonically ordered event calendar.
//!
//! Events at equal timestamps are processed in insertion order, so a
//! simulation is a pure function of its inputs and seed. Two types share
//! that contract:
//!
//! * [`HeapCalendar`] — a `BinaryHeap` ordered by `(time, seq)`.
//! * [`ChainQueue`] — the sequential engine's calendar: four
//!   constant-delay FIFO delay lines in front of a residual
//!   [`HeapCalendar`].
//!
//! Tie-break order is part of the determinism contract (see
//! `docs/MODEL.md` § Performance & determinism): both pop equal
//! timestamps strictly in scheduling order.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Simulation time in nanoseconds.
pub type Time = u64;

/// Binary-heap calendar ordered by the unique `(time, seq)` key.
#[derive(Debug)]
pub struct HeapCalendar<E> {
    heap: BinaryHeap<Reverse<HeapEntry<E>>>,
    seq: u64,
}

/// One scheduled event. Ordering is decided entirely by the `(at, seq)`
/// key, which is unique per entry (`seq` strictly increases), so the
/// payload never participates in comparisons.
#[derive(Debug)]
struct HeapEntry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
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
        self.seq += 1;
        self.heap.push(Reverse(HeapEntry {
            at,
            seq: self.seq,
            event,
        }));
    }

    /// Pop the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// Timestamp of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// The earliest pending event without removing it.
    #[inline]
    pub fn peek_head(&self) -> Option<(Time, &E)> {
        self.heap.peek().map(|Reverse(e)| (e.at, &e.event))
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
/// event a handler schedules at one of these four constant delays goes
/// into a dedicated FIFO delay line instead of the general calendar —
/// see [`ChainQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainClass {
    /// One wire flight (`fly_time_ns`): header arrivals, credit returns,
    /// workload arm notifications.
    Fly,
    /// One routing stage (`routing_time_ns`): route-done completions.
    Route,
    /// One packet serialization (`packet_time_ns`): transmit completions
    /// and input-buffer departures.
    Pkt,
    /// Wire flight plus serialization: tail delivery at an endport.
    FlyPkt,
}

/// A calendar specialized for the simulator's event mix: four constant-
/// delay FIFO delay lines (one per [`ChainClass`]) in front of a residual
/// [`HeapCalendar`] for everything else (injections, busy-link retries,
/// discard drains).
///
/// Because dispatch time is monotone and each chain's delay is a run
/// constant, every chain is `(time, seq)`-sorted by construction — a
/// `schedule` is a plain `push_back` and the earliest event is one of at
/// most five heads. A single global sequence number, stamped at schedule
/// time across chains *and* the residual calendar, reproduces the exact
/// `(time, insertion order)` pop contract of a single [`HeapCalendar`] —
/// same events, same order, same `events_processed`; only the per-event
/// calendar cost changes. The calendar-equivalence suite pins exactly
/// that.
#[derive(Debug)]
pub struct ChainQueue<E> {
    chains: [VecDeque<(Time, u64, E)>; 4],
    rest: HeapCalendar<(u64, E)>,
    seq: u64,
}

impl<E> ChainQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        ChainQueue {
            chains: std::array::from_fn(|_| VecDeque::with_capacity(64)),
            rest: HeapCalendar::new(),
            seq: 0,
        }
    }

    /// Schedule into the residual calendar (non-constant delays).
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.rest.schedule(at, (seq, event));
    }

    /// Schedule onto a constant-delay chain. The caller must pass the
    /// chain matching the event's delay class: within a chain,
    /// timestamps must be non-decreasing (dispatch time is monotone and
    /// the delay constant, so this holds by construction; debug builds
    /// assert it).
    #[inline]
    pub fn schedule_chain(&mut self, class: ChainClass, at: Time, event: E) {
        let chain = &mut self.chains[class as usize];
        debug_assert!(
            chain.back().is_none_or(|&(t, _, _)| t <= at),
            "chain {class:?} scheduled out of order"
        );
        let seq = self.seq;
        self.seq += 1;
        chain.push_back((at, seq, event));
    }

    /// Pop the earliest event: the minimum `(time, seq)` over the four
    /// chain heads and the residual head.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let mut best: Option<(Time, u64, usize)> = None;
        for (i, chain) in self.chains.iter().enumerate() {
            if let Some(&(t, s, _)) = chain.front() {
                if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, i));
                }
            }
        }
        if let Some((t, &(s, _))) = self.rest.peek_head() {
            if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                return self.rest.pop().map(|(t, (_, event))| (t, event));
            }
        }
        best.map(|(_, _, i)| {
            let (t, _, event) = self.chains[i].pop_front().expect("checked nonempty");
            (t, event)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.chains.iter().map(|c| c.len()).sum::<usize>() + self.rest.len()
    }

    /// Whether every chain and the residual calendar are drained.
    pub fn is_empty(&self) -> bool {
        self.chains.iter().all(|c| c.is_empty()) && self.rest.is_empty()
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
        assert_eq!(q.peek_head(), Some((42, &"x")));
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

    #[test]
    fn chain_queue_matches_single_calendar_pop_order() {
        // Differential: an interleaved mix of chain and residual
        // schedules (with a monotone dispatch clock, as the simulator
        // guarantees) must pop in exactly the order one shared
        // `HeapCalendar` would produce — same times, same tie-breaks.
        let classes = [
            ChainClass::Fly,
            ChainClass::Route,
            ChainClass::Pkt,
            ChainClass::FlyPkt,
        ];
        let delays = [20u64, 100, 256, 276];
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
        for _ in 0..500 {
            for _ in 0..next() % 4 {
                id += 1;
                if next() % 3 == 0 {
                    // Residual: arbitrary future delay (injections,
                    // retries).
                    let at = now + next() % 8192;
                    cq.schedule(at, id);
                    hq.schedule(at, id);
                } else {
                    let c = (next() % 4) as usize;
                    cq.schedule_chain(classes[c], now + delays[c], id);
                    hq.schedule(now + delays[c], id);
                }
            }
            for _ in 0..next() % 4 {
                let a = cq.pop();
                assert_eq!(a, hq.pop());
                if let Some((t, _)) = a {
                    now = t;
                }
            }
        }
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
}
