//! The analyzer binary rejects unknown flags, flags without a value and
//! malformed flag values with a one-line `error:` and exit code 1 — no
//! panic, no backtrace, and no silent run over an empty universe. So does a bad environment: a `--filter` that
//! matches nothing, an unwritable `--out`/`--diag-out` (caught before the
//! analysis runs), a full stdout device and a closed stdout pipe.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn analyze(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_svckit-analyze"))
        .args(args)
        .output()
        .expect("the analyzer binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], expected: &str) {
    let (code, stderr) = analyze(args);
    assert_eq!(code, Some(1), "{args:?}: exit code (stderr: {stderr})");
    assert_eq!(stderr.trim_end(), expected, "{args:?}: stderr");
}

#[test]
fn non_numeric_users_is_an_error_not_a_panic() {
    assert_rejected(
        &["--users", "abc"],
        r#"error: --users expects a positive integer, got "abc""#,
    );
}

#[test]
fn zero_users_is_rejected_instead_of_analyzing_an_empty_universe() {
    assert_rejected(
        &["--users", "0"],
        r#"error: --users expects a positive integer, got "0""#,
    );
}

#[test]
fn malformed_max_states_is_an_error_not_a_panic() {
    assert_rejected(
        &["--max-states", "x"],
        r#"error: --max-states expects a positive integer, got "x""#,
    );
    assert_rejected(
        &["--max-states", "-5", "--users", "4"],
        r#"error: --max-states expects a positive integer, got "-5""#,
    );
}

#[test]
fn unknown_engine_and_backend_are_errors_not_panics() {
    assert_rejected(
        &["--engine", "bogus"],
        r#"error: --engine: unknown engine "bogus" (expected dfa|interp)"#,
    );
    assert_rejected(
        &["--backend", "bogus"],
        r#"error: --backend: unknown backend "bogus" (expected explicit|symbolic)"#,
    );
}

#[test]
fn unknown_por_and_symmetry_settings_carry_the_error_prefix() {
    assert_rejected(
        &["--por", "maybe"],
        "error: --por: unknown POR setting `maybe` (on|off)",
    );
    assert_rejected(
        &["--symmetry", "maybe"],
        "error: --symmetry: unknown symmetry setting `maybe` (on|off)",
    );
}

#[test]
fn unknown_flags_and_flags_without_a_value_are_errors() {
    assert_rejected(
        &["--bogus", "1", "--filter", "mw-callback"],
        "error: unexpected argument `--bogus`",
    );
    assert_rejected(
        &["--target", "mw-callback"],
        "error: unexpected argument `--target`",
    );
    assert_rejected(
        &["--filter", "mw-callback", "--out"],
        "error: --out needs a value",
    );
}

#[test]
fn deny_takes_only_warnings() {
    assert_rejected(
        &["--deny", "errors", "--filter", "mw-callback"],
        r#"error: --deny expects `warnings`, got "errors""#,
    );
}

#[test]
fn a_filter_matching_nothing_carries_the_error_prefix() {
    assert_rejected(
        &["--filter", "no-such-target"],
        r#"error: --filter "no-such-target" matches no target"#,
    );
}

#[test]
fn unwritable_outputs_are_errors_before_the_analysis() {
    let missing = "/nonexistent-dir/ANALYZE.json";
    for flag in ["--out", "--diag-out"] {
        let start = Instant::now();
        // `--users 6` makes the analysis itself take far longer than the
        // bound below, so passing it shows the probe came first.
        let (code, stderr) = analyze(&[flag, missing, "--users", "6"]);
        let wall = start.elapsed();
        assert_eq!(code, Some(1), "{flag}: exit code (stderr: {stderr})");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{flag}: stderr: {stderr}");
        let prefix = format!("error: cannot write {missing}: ");
        assert!(lines[0].starts_with(&prefix), "{flag}: stderr: {stderr}");
        assert!(wall < Duration::from_secs(2), "{flag}: took {wall:?}");
    }
}

/// Runs the analyzer on one target with stdout set to `stdout`; returns
/// its exit code and stderr.
fn analyze_into(stdout: Stdio, close_pipe: bool) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_svckit-analyze"))
        .args(["--filter", "mw-callback"])
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("the analyzer binary runs");
    if close_pipe {
        drop(child.stdout.take());
    }
    let output = child.wait_with_output().expect("the analyzer exits");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn a_full_stdout_device_is_an_error_not_a_panic() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // no /dev/full on this platform
    };
    let (code, stderr) = analyze_into(Stdio::from(full), false);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        "error: cannot write to stdout: No space left on device (os error 28)"
    );
}

#[test]
fn a_closed_stdout_pipe_is_an_error_not_a_panic() {
    let (code, stderr) = analyze_into(Stdio::piped(), true);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(
        lines[0].starts_with("error: cannot write to stdout: "),
        "stderr: {stderr}"
    );
}
