//! The paper's motivating scenario: many nodes hammering one destination.
//!
//! With a single LID per node (SLID), every switch forwards all packets
//! bound for the hot node through the same ports, so the traffic collides
//! long before the destination (the paper's Figure 9a). MLID gives the hot
//! node one LID per path; sources pick different LIDs and the traffic fans
//! out over every least common ancestor (Figure 9b).
//!
//! ```text
//! cargo run --release --example hotspot_study
//! ```

use ib_fabric::prelude::*;
use ib_fabric::{NoopProbe, RunSpec};
use std::error::Error;

/// 300 µs of the paper's 50%-centric traffic at `load` with `vls` lanes,
/// observed by `probe`.
fn hot_spot_run<P: Probe>(
    fabric: &Fabric,
    vls: u8,
    load: f64,
    probe: P,
) -> Result<(SimReport, P), Box<dyn Error>> {
    Ok(ib_fabric::sim::run(
        fabric.network(),
        fabric.routing(),
        SimConfig::paper(vls),
        TrafficPattern::paper_centric(),
        RunSpec::new(load, 300_000),
        probe,
    )?)
}

fn main() -> Result<(), Box<dyn Error>> {
    let (m, n) = (8, 2);
    println!("50%-centric traffic on an {m}-port {n}-tree (paper's hot-spot pattern)\n");
    println!(
        "{:<6} {:>4} {:>10} {:>20} {:>14}",
        "scheme", "VLs", "offered", "accepted(B/ns/node)", "avg-lat(ns)"
    );

    for kind in [RoutingKind::Slid, RoutingKind::Mlid] {
        let fabric = Fabric::builder(m, n).routing(kind).build()?;
        for vls in [1u8, 2, 4] {
            for load in [0.2, 0.6, 1.0] {
                let (report, NoopProbe) = hot_spot_run(&fabric, vls, load, NoopProbe)?;
                println!(
                    "{:<6} {:>4} {:>10.2} {:>20.4} {:>14.0}",
                    kind.as_str().to_uppercase(),
                    vls,
                    load,
                    report.accepted_bytes_per_ns_per_node,
                    report.avg_latency_ns(),
                );
            }
        }
        println!();
    }

    // Show *why*: the upward links used by the hot flows.
    let slid = Fabric::builder(m, n).routing(RoutingKind::Slid).build()?;
    let mlid = Fabric::builder(m, n).routing(RoutingKind::Mlid).build()?;
    let hot = NodeId(0);
    for (name, fabric) in [("SLID", &slid), ("MLID", &mlid)] {
        let mut up_links = std::collections::HashSet::new();
        for src in 1..fabric.num_nodes() {
            let route = fabric.route(NodeId(src), hot)?;
            for link in route.upward_links(fabric.params()) {
                up_links.insert(link);
            }
        }
        println!(
            "{name}: all-to-one traffic toward {hot} crosses {} distinct upward links",
            up_links.len()
        );
    }

    // And quantify the Figure 9 contrast with measured link utilization:
    // the spread of traffic over the switch output ports, each port's
    // transmitted bytes over the run read from the fabric counters.
    println!("\nmeasured inter-switch link utilization at offered load 0.3 (1 VL):");
    for (name, fabric) in [("SLID", &slid), ("MLID", &mlid)] {
        let counters = FabricCounters::new(fabric.network(), 1);
        let (report, counters) = hot_spot_run(fabric, 1, 0.3, counters)?;
        let byte_ns = ib_fabric::sim::BYTE_TIME_NS as f64;
        let mut switch_links: Vec<f64> = (0..counters.num_switches() as u32)
            .flat_map(|sw| (0..counters.ports_per_switch() as u8).map(move |port| (sw, port)))
            .map(|(sw, port)| {
                counters.port(sw, port).xmit_bytes as f64 * byte_ns / report.sim_time_ns as f64
            })
            .collect();
        switch_links.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let busy = switch_links.iter().filter(|&&u| u > 0.05).count();
        let gini_top =
            switch_links.iter().take(5).sum::<f64>() / switch_links.iter().sum::<f64>().max(1e-12);
        println!(
            "  {name}: {busy}/{} links above 5% utilization; top-5 links carry {:.0}% of switch traffic",
            switch_links.len(),
            100.0 * gini_top
        );
    }
    Ok(())
}
