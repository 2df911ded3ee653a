//! The flight recorder: watch individual packets move through the fabric,
//! first on a quiet network (textbook pipeline timing), then under a hot
//! spot (where the waits happen), and finally through the sampled JSONL
//! export the `ibfat trace` subcommand is built on.
//!
//! ```text
//! cargo run --release --example packet_trace
//! ```

use ib_fabric::prelude::*;
use ib_fabric::{traces_to_jsonl, FlightRecorder, PacketTrace, RunSpec, TraceSampling};
use std::error::Error;

/// Run 100 µs of `pattern` at `load` on `fabric` with the flight recorder
/// attached, and return what it recorded.
fn record(
    fabric: &Fabric,
    pattern: TrafficPattern,
    load: f64,
    slots: u32,
    sampling: TraceSampling,
) -> Result<Vec<PacketTrace>, Box<dyn Error>> {
    let cfg = SimConfig::default();
    let recorder = FlightRecorder::new(slots, sampling, cfg.seed);
    let (_, recorder) = ib_fabric::sim::run(
        fabric.network(),
        fabric.routing(),
        cfg,
        pattern,
        RunSpec::new(load, 100_000),
        recorder,
    )?;
    Ok(recorder.traces().to_vec())
}

fn main() -> Result<(), Box<dyn Error>> {
    let fabric = Fabric::builder(4, 3).build()?;

    println!("=== quiet network (0.01 load): the textbook pipeline ===\n");
    let quiet = TrafficPattern::bit_complement(16);
    for t in record(&fabric, quiet, 0.01, 1, TraceSampling::FirstN)? {
        print!("{}", t.render());
        println!(
            "  => {} ns end to end: 6 links x 20 ns flight + 5 switches x 100 ns\n     routing + 256 ns serialization\n",
            t.latency_ns().expect("delivered")
        );
    }

    println!("=== 50% hot spot (0.5 load): where time actually goes ===\n");
    let hot = TrafficPattern::paper_centric();
    let traces = record(&fabric, hot.clone(), 0.5, 40, TraceSampling::FirstN)?;
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
    let traces = record(&fabric, hot, 0.5, 8, TraceSampling::OneInN(4))?;
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
    Ok(())
}
