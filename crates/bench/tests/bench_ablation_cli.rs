//! The `ablation` binary's argument handling: `--help` prints the usage
//! and succeeds, and bad input is an `error:` line with exit code 2,
//! never a panic (exit 101). Only the closed-pipe case runs a workload,
//! and only until its first row.

use std::io::Read;
use std::process::{Command, Output, Stdio};

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

/// A reader that stops after the first chunk (`table1 | head -2`) ends
/// the run quietly: exit code 0 and no panic text, although the binary
/// still has rows to write.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let cases: [(&str, &[&str]); 2] = [
        (env!("CARGO_BIN_EXE_table1"), &[]),
        (env!("CARGO_BIN_EXE_ablation"), &["--config", "4x3"]),
    ];
    for (exe, args) in cases {
        let mut child = Command::new(exe)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let mut first = [0u8; 64];
        assert!(stdout.read(&mut first).expect("first chunk") > 0, "{exe}");
        drop(stdout);
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{exe} {args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{exe} {args:?}: {stderr}");
    }
}
