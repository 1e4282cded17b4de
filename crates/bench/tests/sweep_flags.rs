//! The five sweep-based experiment binaries reject a malformed
//! `--threads`, an unknown `--obs-format` and an unwritable `--out` with
//! one `error:` line and exit code 1 — no panic, and no sweep run first.

use std::process::Command;

const BINARIES: [&str; 5] = [
    env!("CARGO_BIN_EXE_exp_fig4_middleware"),
    env!("CARGO_BIN_EXE_exp_fig6_protocol"),
    env!("CARGO_BIN_EXE_exp_fig7_scattering"),
    env!("CARGO_BIN_EXE_exp_paradigms"),
    env!("CARGO_BIN_EXE_exp_platform_selection"),
];

/// Runs every binary with `args`; each must exit 1 with exactly one
/// stderr line starting with `expected`.
fn assert_each_rejects(args: &[&str], expected: &str) {
    for binary in BINARIES {
        let output = Command::new(binary)
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{binary} {args:?}: {stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{binary} {args:?}: {stderr}");
        assert!(
            lines[0].starts_with(expected),
            "{binary} {args:?}: {stderr}"
        );
    }
}

#[test]
fn a_non_numeric_thread_count_is_an_error_not_a_panic() {
    assert_each_rejects(
        &["--threads", "x"],
        r#"error: --threads expects a number, got "x""#,
    );
}

#[test]
fn an_unknown_obs_format_is_an_error_not_a_panic() {
    let obs = std::env::temp_dir().join(format!("sweep_flags_{}.jsonl", std::process::id()));
    assert_each_rejects(
        &["--obs-out", obs.to_str().unwrap(), "--obs-format", "bogus"],
        r#"error: --obs-format expects `jsonl` or `chrome`, got "bogus""#,
    );
    assert!(!obs.exists(), "nothing is written on a usage error");
}

#[test]
fn an_unwritable_out_is_an_error_before_the_sweep() {
    assert_each_rejects(
        &["--out", "/nonexistent-dir/x.json"],
        "error: cannot write /nonexistent-dir/x.json: ",
    );
}
