//! The `serve` binary's flag validation: a bad flag value or a flag the
//! binary does not know exits with status 2 and names the flag on stderr,
//! before any stream is generated or served.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("the serve binary runs")
}

fn assert_rejected(args: &[&str], names: &str) {
    let out = serve(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(names), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} served something");
}

#[test]
fn load_outside_the_unit_interval_is_rejected() {
    for load in [
        "nan", "NaN", "inf", "-inf", "7", "-1", "1.0001", "-0.5", "x",
    ] {
        assert_rejected(&["--load", load, "--events", "16"], "--load");
    }
}

#[test]
fn load_bounds_are_accepted() {
    for load in ["0", "1", "0.7"] {
        let out = serve(&["--net", "omega8", "--load", load, "--events", "16"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "--load {load}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with("0 "), "--load {load}: {stdout}");
        assert!(
            stdout.contains("served 16 decisions (0 errors)"),
            "{stdout}"
        );
    }
}

#[test]
fn the_removed_workers_flag_is_rejected() {
    assert_rejected(&["--workers", "8", "--events", "16"], "--workers");
}

#[test]
fn unknown_flags_and_missing_values_are_rejected() {
    assert_rejected(&["--bogus"], "--bogus");
    assert_rejected(&["--load"], "--load");
}
