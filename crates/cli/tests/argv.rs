//! Random command lines from the usage grammar — every subcommand with
//! random flags at their boundary values, on FT(4,2) with at most 30 µs
//! of simulated time — are parsed and run in process. Each must return
//! `Ok` or `Err`; none may unwind.

use ibfat_cli::{args, commands};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const COMMANDS: &[&str] = &[
    "info 4x2",
    "route 4x2 0 7",
    "route 4x2 P(00) P(11)",
    "verify 4x2",
    "discover 4x2",
    "simulate 4x2",
    "run 4x2",
    "sweep 4x2",
    "counters 4x2",
    "loads 4x2",
    "workload 4x2",
    "trace 4x2",
    "faults 4x2",
];

/// Every option with values at and past its boundaries.
const FLAGS: &[&str] = &[
    "--scheme mlid",
    "--scheme slid",
    "--scheme updown",
    "--scheme bogus",
    "--pattern uniform",
    "--pattern centric",
    "--pattern bitcomp",
    "--load 0.001",
    "--load 1",
    "--load 2",
    "--load 0",
    "--load -1",
    "--load nan",
    "--loads 0.5,2",
    "--loads 0",
    "--vls 1",
    "--vls 4",
    "--vls 15",
    "--vls 0",
    "--vls 16",
    "--time-us 0",
    "--time-us 1",
    "--seed 0",
    "--seed 18446744073709551615",
    "--fail-links 0",
    "--fail-links 3",
    "--fail-links 8",
    "--fail-links 3,9",
    "--fail-links 15",
    "--fail-links 16",
    "--kill 1",
    "--kill 8",
    "--kill 9",
    "--kill 0",
    "--at 0",
    "--at 29999",
    "--at 30000",
    "--policy drop",
    "--policy stall",
    "--detect-ns 0",
    "--per-switch-ns 0",
    "--sample-interval-ns 1",
    "--sample-interval-ns 0",
    "--top 0",
    "--top 100",
    "--hotspot 0",
    "--hotspot 7",
    "--hotspot 8",
    "--hotspot P(11)",
    "--kind allreduce-ring",
    "--kind allreduce-rd",
    "--kind alltoall",
    "--kind bcast",
    "--kind closed-loop",
    "--kind replay",
    "--bytes 1",
    "--bytes 4096",
    "--in-flight 1",
    "--in-flight 3",
    "--messages 1",
    "--messages 3",
    "--trace /nonexistent.jsonl",
    "--packets 1",
    "--packets 4294967295",
    "--one-in 1",
    "--one-in 3",
    "--pairs 0:1",
    "--pairs 0:99",
    "--pairs 5:5",
    "--profile",
    "--json",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn random_command_lines_never_unwind(
        command in 0..COMMANDS.len(),
        time_us in 1u64..=30,
        flags in prop::collection::vec(0..FLAGS.len(), 0..6),
    ) {
        let mut line = format!("{} --time-us {time_us}", COMMANDS[command]);
        for &flag in &flags {
            line.push(' ');
            line.push_str(FLAGS[flag]);
        }
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            args::parse(&argv)
                .and_then(|cmd| commands::run(cmd, &mut std::io::sink()).map_err(|e| e.to_string()))
        }));
        prop_assert!(outcome.is_ok(), "`ibfat {}` unwound", line);
    }
}
