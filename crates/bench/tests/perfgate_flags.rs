//! The perfgate binary rejects a malformed `--tolerance`, a missing
//! `--fresh` and an unreadable input with a one-line `error:` and exit
//! code 1 — no panic, no backtrace — and still passes two identical
//! result files.

use std::path::PathBuf;
use std::process::Command;

fn perfgate(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(args)
        .output()
        .expect("the perfgate binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Asserts exit code 1 and a single stderr line starting with `prefix`.
fn assert_rejected(args: &[&str], prefix: &str) {
    let (code, stderr) = perfgate(args);
    assert_eq!(code, Some(1), "{args:?}: exit code (stderr: {stderr})");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{args:?}: stderr: {stderr}");
    assert!(lines[0].starts_with(prefix), "{args:?}: stderr: {stderr}");
}

/// A small flat result file, unique to this test process and `name`.
fn results_file(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("perfgate_flags_{}_{name}.json", std::process::id()));
    std::fs::write(&path, "{\n  \"netsim/pingpong_2000\": 1000.0\n}\n").unwrap();
    path
}

#[test]
fn malformed_tolerances_are_errors_not_panics() {
    let file = results_file("tolerance");
    let path = file.to_str().unwrap();
    for bad in ["x", "-0.1", "inf", "NaN"] {
        assert_rejected(
            &["--baseline", path, "--fresh", path, "--tolerance", bad],
            &format!("error: --tolerance expects a non-negative number, got {bad:?}"),
        );
    }
    std::fs::remove_file(file).unwrap();
}

#[test]
fn a_missing_fresh_flag_is_an_error() {
    assert_rejected(
        &["--baseline", "BENCH_hotpath.json"],
        "error: --fresh is required",
    );
}

#[test]
fn unreadable_inputs_are_errors() {
    let file = results_file("unreadable");
    let path = file.to_str().unwrap();
    let missing = "/nonexistent-dir/BENCH_hotpath.json";
    assert_rejected(
        &["--baseline", path, "--fresh", missing],
        &format!("error: cannot read {missing}: "),
    );
    assert_rejected(
        &["--baseline", missing, "--fresh", path],
        &format!("error: cannot read {missing}: "),
    );
    std::fs::remove_file(file).unwrap();
}

#[test]
fn identical_results_pass_the_gate() {
    let file = results_file("identical");
    let path = file.to_str().unwrap();
    let (code, stderr) = perfgate(&["--baseline", path, "--fresh", path, "--tolerance", "0"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    std::fs::remove_file(file).unwrap();
}
