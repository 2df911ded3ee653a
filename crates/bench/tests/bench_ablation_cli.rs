//! The `bench` and `ablation` binaries' argument handling: `--help`
//! prints the usage and succeeds, and bad input is an `error:` line with
//! exit code 2, never a panic (exit 101). No case here runs a workload.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("binary runs")
}

fn assert_help(exe: &str, option: &str) {
    for flag in ["--help", "-h"] {
        let out = run(exe, &[flag]);
        assert_eq!(out.status.code(), Some(0), "{exe} {flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("Usage:"), "{exe} {flag}: {stdout}");
        assert!(stdout.contains(option), "{exe} {flag}: {stdout}");
    }
}

fn assert_clean_errors(exe: &str, cases: &[&[&str]]) {
    for args in cases {
        let out = run(exe, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{exe} {args:?}: {stderr}");
    }
}

#[test]
fn bench_help_and_bad_input() {
    let exe = env!("CARGO_BIN_EXE_bench");
    assert_help(exe, "--filter <substr>");
    assert_clean_errors(
        exe,
        &[
            &["--bogus"],
            &["--out"],
            &["--baseline"],
            &["--filter"],
            &["--iters"],
            &["--iters", "0"],
            &["--iters", "many"],
            &["--threshold", "abc"],
            &["--threshold", "-0.5"],
            &["--threshold", "nan"],
        ],
    );
}

#[test]
fn ablation_help_and_bad_input() {
    let exe = env!("CARGO_BIN_EXE_ablation");
    assert_help(exe, "--config MxN");
    assert_clean_errors(
        exe,
        &[
            &["--bogus"],
            &["--config"],
            &["--config", "8"],
            &["--config", "3x2"],
            &["--config", "axb"],
            &["--load"],
            &["--load", "0"],
            &["--load", "-1"],
            &["--load", "nan"],
            &["--load", "inf"],
        ],
    );
}
