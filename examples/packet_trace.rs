//! The flight recorder: watch individual packets move through the fabric,
//! first on a quiet network (textbook pipeline timing), then under a hot
//! spot (where the waits happen), and finally through the sampled JSONL
//! export the `ibfat trace` subcommand is built on.
//!
//! ```text
//! cargo run --release --example packet_trace
//! ```

use ib_fabric::prelude::*;
use ib_fabric::{traces_to_jsonl, TraceSampling};

fn main() {
    let fabric = Fabric::builder(4, 3).build().expect("valid");

    println!("=== quiet network (0.01 load): the textbook pipeline ===\n");
    let report = fabric
        .experiment()
        .traffic(TrafficPattern::bit_complement(16))
        .offered_load(0.01)
        .duration_ns(100_000)
        .trace_first_packets(1)
        .run();
    for t in report.traces.expect("tracing on") {
        print!("{}", t.render());
        println!(
            "  => {} ns end to end: 6 links x 20 ns flight + 5 switches x 100 ns\n     routing + 256 ns serialization\n",
            t.latency_ns().expect("delivered")
        );
    }

    println!("=== 50% hot spot (0.5 load): where time actually goes ===\n");
    let report = fabric
        .experiment()
        .traffic(TrafficPattern::paper_centric())
        .offered_load(0.5)
        .duration_ns(100_000)
        .trace_first_packets(40)
        .run();
    let traces = report.traces.expect("tracing on");
    // Show the slowest delivered packet of the sample.
    let slowest = traces
        .iter()
        .filter(|t| t.latency_ns().is_some())
        .max_by_key(|t| t.latency_ns().expect("filtered"))
        .expect("some delivered");
    print!("{}", slowest.render());
    println!(
        "  => {} ns — the gaps between 'routed' and 'granted'/'leaving' are\n     output-buffer and credit waits behind the congested hot flows.",
        slowest.latency_ns().expect("delivered")
    );

    // The same recorder, driven the way the `ibfat trace` subcommand
    // drives it: sample 1-in-4 flows instead of the first N packets,
    // export the spans as JSONL, and count the credit-stall spans — the
    // per-hop congestion signal. The sampling decision is a pure
    // function of (src, dst, seed), so the slots (and the bytes below)
    // are identical from run to run.
    println!("\n=== sampled JSONL export (1-in-4 flows, credit stalls) ===\n");
    let report = fabric
        .experiment()
        .traffic(TrafficPattern::paper_centric())
        .offered_load(0.5)
        .duration_ns(100_000)
        .trace_first_packets(8)
        .trace_sampling(TraceSampling::OneInN(4))
        .run();
    let traces = report.traces.expect("tracing on");
    let jsonl = traces_to_jsonl(&traces);
    for line in jsonl.lines().take(2) {
        println!("{line}");
    }
    let stalls = jsonl.matches("\"ev\":\"credit_stalled\"").count();
    println!(
        "  => {} spans exported ({} shown), {} credit-stall events among them",
        traces.len(),
        jsonl.lines().count().min(2),
        stalls
    );
}
