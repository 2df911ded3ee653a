//! Regenerates **Table 1** of the paper: the simulated network sizes.
//!
//! ```text
//! cargo run --release -p bench --bin table1
//! ```

fn main() {
    let rows = bench::table1();
    println!("Table 1: simulated m-port n-tree InfiniBand networks");
    println!(
        "{:>6} {:>4} {:>7} {:>9} {:>7} {:>5} {:>14} {:>10}",
        "ports", "n", "nodes", "switches", "links", "LMC", "LIDs/node", "max paths"
    );
    for r in &rows {
        println!(
            "{:>6} {:>4} {:>7} {:>9} {:>7} {:>5} {:>14} {:>10}",
            r.m, r.n, r.nodes, r.switches, r.links, r.lmc, r.lids_per_node, r.max_paths
        );
    }
    println!("\n(machine-readable: {})", bench::table1_to_json(&rows));

    // Extension: the subnet-manager bring-up cost per size (directed-route
    // SMPs, serial timing per docs/MODEL.md constants).
    println!("\nSubnet bring-up (SM sweep + LID assignment + LFT install, serial SMPs):");
    println!(
        "{:>6} {:>4} {:>10} {:>12} {:>12}",
        "ports", "n", "SMPs", "time(ms)", "max hops"
    );
    for r in &rows {
        let params = ib_fabric::TreeParams::new(r.m, r.n).expect("valid");
        let net = ib_fabric::Network::mport_ntree(params);
        let (report, _) = ib_fabric::sm::time_bring_up(
            &net,
            ib_fabric::NodeId(0),
            ib_fabric::sm::MadCosts::default(),
        );
        println!(
            "{:>6} {:>4} {:>10} {:>12.2} {:>12}",
            r.m,
            r.n,
            report.total_smps(),
            report.total_time_ns as f64 / 1e6,
            report.max_route_hops
        );
    }
}
