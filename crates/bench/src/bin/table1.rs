//! Regenerates **Table 1** of the paper: the simulated network sizes.
//!
//! ```text
//! cargo run --release -p bench --bin table1
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    ib_fabric::exit_after_stdout(write_tables(&mut io::stdout().lock()))
}

fn write_tables(out: &mut impl Write) -> io::Result<()> {
    let rows = bench::table1();
    writeln!(out, "Table 1: simulated m-port n-tree InfiniBand networks")?;
    writeln!(
        out,
        "{:>6} {:>4} {:>7} {:>9} {:>7} {:>5} {:>14} {:>10}",
        "ports", "n", "nodes", "switches", "links", "LMC", "LIDs/node", "max paths"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:>6} {:>4} {:>7} {:>9} {:>7} {:>5} {:>14} {:>10}",
            r.m, r.n, r.nodes, r.switches, r.links, r.lmc, r.lids_per_node, r.max_paths
        )?;
    }
    writeln!(
        out,
        "\n(machine-readable: {})",
        bench::table1_to_json(&rows)
    )?;

    // Extension: the subnet-manager bring-up cost per size (directed-route
    // SMPs, serial timing per docs/MODEL.md constants).
    writeln!(
        out,
        "\nSubnet bring-up (SM sweep + LID assignment + LFT install, serial SMPs):"
    )?;
    writeln!(
        out,
        "{:>6} {:>4} {:>10} {:>12} {:>12}",
        "ports", "n", "SMPs", "time(ms)", "max hops"
    )?;
    for r in &rows {
        let params = ib_fabric::TreeParams::new(r.m, r.n).expect("valid");
        let net = ib_fabric::Network::mport_ntree(params);
        let (report, _) = ib_fabric::sm::time_bring_up(
            &net,
            ib_fabric::NodeId(0),
            ib_fabric::sm::MadCosts::default(),
        );
        writeln!(
            out,
            "{:>6} {:>4} {:>10} {:>12.2} {:>12}",
            r.m,
            r.n,
            report.total_smps(),
            report.total_time_ns as f64 / 1e6,
            report.max_route_hops
        )?;
    }
    out.flush()
}
