//! The soak binary's `--clients` mode rejects malformed flags and an
//! unwritable `--out` with a one-line `error:` and exit code 1 — no
//! panic, no backtrace. So does a bad `--shards` count, in the soak grid
//! and in the sweep-based `exp_fig4_middleware`.

use std::process::Command;

fn run(binary: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("the binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn soak(args: &[&str]) -> (Option<i32>, String) {
    run(env!("CARGO_BIN_EXE_soak"), args)
}

fn assert_rejected_by(binary: &str, args: &[&str], expected: &str) {
    let (code, stderr) = run(binary, args);
    assert_eq!(code, Some(1), "{args:?}: exit code (stderr: {stderr})");
    assert_eq!(stderr.trim_end(), expected, "{args:?}: stderr");
}

fn assert_rejected(args: &[&str], expected: &str) {
    assert_rejected_by(env!("CARGO_BIN_EXE_soak"), args, expected);
}

#[test]
fn non_numeric_clients_is_an_error_not_a_panic() {
    assert_rejected(
        &["--clients", "abc"],
        r#"error: --clients expects an integer >= 2, got "abc""#,
    );
}

#[test]
fn a_single_client_is_rejected() {
    assert_rejected(
        &["--clients", "1"],
        r#"error: --clients expects an integer >= 2, got "1""#,
    );
}

#[test]
fn zero_servers_is_rejected() {
    assert_rejected(
        &["--clients", "8", "--servers", "0"],
        r#"error: --servers expects an integer >= 1, got "0""#,
    );
}

#[test]
fn unwritable_out_is_an_error_not_a_panic() {
    let (code, stderr) = soak(&[
        "--clients",
        "8",
        "--out",
        "/nonexistent-dir/SOAK_scale.json",
    ]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(
        lines[0].starts_with("error: cannot write /nonexistent-dir/SOAK_scale.json: "),
        "stderr: {stderr}"
    );
}

#[test]
fn a_small_scale_soak_writes_its_json() {
    let dir = std::env::temp_dir().join(format!("soak_flags_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("SOAK_scale.json");
    let (code, stderr) = soak(&[
        "--clients",
        "8",
        "--servers",
        "2",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains(r#""quiescent": true"#), "{json}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_bad_shard_count_is_an_error_not_a_panic() {
    assert_rejected(
        &["--shards", "x"],
        r#"error: --shards expects an integer >= 1, got "x""#,
    );
    assert_rejected(
        &["--shards", "0"],
        r#"error: --shards expects an integer >= 1, got "0""#,
    );
    assert_rejected_by(
        env!("CARGO_BIN_EXE_exp_fig4_middleware"),
        &["--shards", "0"],
        r#"error: --shards expects an integer >= 1, got "0""#,
    );
}
