//! The `figures` binary's argument handling: `--help` prints the usage
//! and succeeds, and bad input is an `error:` line with exit code 2,
//! never a panic (exit 101).

use std::process::Command;

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = figures(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("Usage:"), "{flag}: {stdout}");
        assert!(stdout.contains("--config MxN"), "{flag}: {stdout}");
    }
}

#[test]
fn bad_input_is_a_clean_error() {
    let cases: &[&[&str]] = &[
        &["--bogus"],
        &["--config"],
        &["--config", "8"],
        &["--config", "3x2"],
        &["--config", "axb"],
        &["--pattern", "zipf"],
        &["--sim-time-us", "0"],
        &["--sim-time-us", "-5"],
        &["--loads", "0.1,nan"],
        &["--loads", "0.1,0"],
        &["--vls", "0"],
        &["--vls", "16"],
        &["--vls", "1,x"],
        &["--out"],
    ];
    for args in cases {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}
