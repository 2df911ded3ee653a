//! The calendar contract: pop by ascending time, ties in scheduling
//! order.
//!
//! `HeapCalendar` and the sequential engine's `RingCalendar` must pop
//! exactly what a stable sort of the scheduled events by time produces,
//! for any legal schedule/pop interleaving. The pinned FT(4,3) report
//! guards the simulator built on top of them.

use ibfat_routing::{Routing, RoutingKind};
use ibfat_sim::{
    run, FlightRecorder, HeapCalendar, RingCalendar, RunSpec, SimConfig, TraceSampling,
    TrafficPattern,
};
use ibfat_topology::{Network, TreeParams};
use proptest::prelude::*;

/// A popped `(time, payload)` sequence.
type Popped = Vec<(u64, u32)>;

/// The five chains and their fixed delays at the paper's constants.
const CHAINS: [u64; 5] = [20, 100, 256, 276, 120];

/// One step of a stream: events to schedule, then how many to pop. An
/// event is `(lane, delta)`: lanes `0..5` are the constant-delay chains
/// (the delta is ignored), any other lane schedules `now + delta` on the
/// residual calendar.
type Step = (Vec<(u8, u64)>, usize);

/// The reference calendar: a plain `Vec`, popped through a stable sort
/// by time, so equal times keep their scheduling order.
#[derive(Default)]
struct SortedVec(Vec<(u64, u32)>);

impl SortedVec {
    fn pop(&mut self) -> Option<(u64, u32)> {
        self.0.sort_by_key(|&(t, _)| t);
        (!self.0.is_empty()).then(|| self.0.remove(0))
    }
}

/// The three calendars under one stream, and what each has popped.
#[derive(Default)]
struct Calendars {
    heap: HeapCalendar<u32>,
    chain: RingCalendar<u32>,
    reference: SortedVec,
    popped: [Popped; 3],
}

impl Calendars {
    fn schedule(&mut self, now: u64, (lane, delta): (u8, u64), tag: u32) {
        let at = match CHAINS.get(lane as usize) {
            Some(&delay) => {
                self.chain.schedule(now + delay, tag);
                now + delay
            }
            None => {
                self.chain.schedule(now + delta, tag);
                now + delta
            }
        };
        self.heap.schedule(at, tag);
        self.reference.0.push((at, tag));
    }

    /// Pop once from each calendar; the reference's time, if any.
    fn pop(&mut self) -> Option<u64> {
        let got = [self.heap.pop(), self.chain.pop(), self.reference.pop()];
        for (seq, e) in self.popped.iter_mut().zip(got) {
            seq.extend(e);
        }
        got[2].map(|(t, _)| t)
    }
}

/// Drive `HeapCalendar`, `RingCalendar` and the reference through the same
/// stream; return their pop sequences in that order. Times never go
/// backwards, mirroring how the simulator uses its calendar.
fn pop_sequences(steps: &[Step]) -> [Popped; 3] {
    let mut cals = Calendars::default();
    let mut now = 0u64;
    let mut tag = 0u32;
    for (events, pops) in steps {
        for &event in events {
            cals.schedule(now, event, tag);
            tag += 1;
        }
        for _ in 0..*pops {
            let Some(t) = cals.pop() else { break };
            assert!(t >= now, "popped into the past");
            now = t;
        }
    }
    while let Some(t) = cals.pop() {
        assert!(t >= now, "popped into the past");
        now = t;
    }
    assert!(cals.heap.is_empty() && cals.chain.is_empty());
    cals.popped
}

#[test]
fn tie_heavy_stream_pops_in_stable_time_order() {
    // Duplicate timestamps everywhere: residual events landing on chain
    // times, zero-delay schedules, and far-future jumps.
    let steps = vec![
        (vec![(9, 20), (0, 0), (9, 20), (9, 0), (1, 0), (9, 100)], 3),
        (
            vec![(9, 0), (9, 0), (2, 0), (9, 256), (3, 0), (9, 100_000)],
            4,
        ),
        (vec![], 2),
        (
            vec![(0, 0), (0, 0), (9, 20), (9, 20), (9, 9_000), (9, 0)],
            0,
        ),
    ];
    let [heap, chain, reference] = pop_sequences(&steps);
    assert_eq!(reference.len(), 18);
    assert_eq!(heap, reference);
    assert_eq!(chain, reference);
}

#[test]
fn residual_ties_across_run_and_heap_pop_in_scheduling_order() {
    // `ChainQueue` appends a residual event to its sorted run when it is
    // not below the run's tail and sends it to the heap otherwise. Here
    // the 100s and 300s scheduled after the 500 fall into the heap and
    // tie with earlier run events (and with chain events at 100 and
    // 376): a wrong run/heap tie-break reorders them.
    let steps = vec![
        (
            vec![
                (9, 100),
                (9, 300),
                (9, 500),
                (9, 300),
                (9, 100),
                (9, 500),
                (1, 0),
                (9, 100),
            ],
            2,
        ),
        (
            vec![(9, 200), (9, 400), (9, 200), (3, 0), (9, 276), (9, 276)],
            3,
        ),
        (vec![(9, 0), (9, 0), (0, 0), (9, 20)], 0),
    ];
    let [heap, chain, reference] = pop_sequences(&steps);
    assert_eq!(reference.len(), 18);
    assert_eq!(heap, reference);
    assert_eq!(chain, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_streams_pop_in_stable_time_order(
        steps in prop::collection::vec(
            (
                // Half chain traffic, half residual; residual deltas
                // biased toward ties (0, the chain delays) with
                // occasional far-future jumps.
                prop::collection::vec(
                    (
                        0u8..10,
                        prop_oneof![
                            Just(0u64),
                            Just(20u64),
                            Just(100u64),
                            Just(256u64),
                            1u64..5000,
                            4000u64..200_000,
                        ],
                    ),
                    0..12,
                ),
                0usize..8,
            ),
            1..20,
        ),
    ) {
        let [heap, chain, reference] = pop_sequences(&steps);
        prop_assert_eq!(&heap, &reference);
        prop_assert_eq!(&chain, &reference);
    }
}

/// `(events_processed, total_generated, total_delivered, delivered,
/// latency samples, mean latency ns)` of the FT(4,3) run below — the
/// numbers the timing wheel and the binary heap both produced before the
/// heap became the only calendar. `events_processed` has since dropped
/// from 39,751 to 32,439: the run fuses each switch arrival into its
/// transmission and schedules no busy-link retries.
const PINNED: (u64, u64, u64, u64, u64, f64) = (32439, 1501, 1477, 1206, 1176, 1022.6360544217687);

#[test]
fn ft43_uniform_report_is_pinned() {
    let net = Network::mport_ntree(TreeParams::new(4, 3).expect("valid params"));
    let routing = Routing::build(&net, RoutingKind::Mlid);
    let cfg = SimConfig {
        num_vls: 2,
        seed: 0xDEC0DE,
        ..SimConfig::default()
    };
    let recorder = FlightRecorder::new(32, TraceSampling::FirstN, cfg.seed);
    let report = run(
        &net,
        &routing,
        cfg,
        TrafficPattern::Uniform,
        RunSpec::new(0.4, 60_000),
        recorder,
    )
    .unwrap()
    .0;
    let got = (
        report.events_processed,
        report.total_generated,
        report.total_delivered,
        report.delivered,
        report.latency.count(),
        report.latency.mean(),
    );
    assert_eq!(got, PINNED);
}
