//! The analyzer binary rejects malformed flags with a one-line
//! `error:` and exit code 1 — no panic, no backtrace, and no silent run
//! over an empty universe.

use std::process::Command;

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
