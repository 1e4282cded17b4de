//! The hotpath binary checks every output path before it benchmarks
//! anything: an unwritable `--out` or sidecar path is a one-line `error:`
//! and exit code 1 within moments, not a panic after minutes of work.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Runs hotpath with `--out <out>`; returns its exit code, stderr and
/// wall time.
fn hotpath(out: &Path) -> (Option<i32>, String, Duration) {
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_hotpath"))
        .args(["--out", out.to_str().expect("utf-8 path")])
        .output()
        .expect("the hotpath binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        start.elapsed(),
    )
}

fn assert_rejected_early(out: &Path, unwritable: &Path) {
    let (code, stderr, wall) = hotpath(out);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    let prefix = format!("error: cannot write {}: ", unwritable.display());
    assert!(lines[0].starts_with(&prefix), "stderr: {stderr}");
    // The full bench takes minutes; the check comes before any of it.
    assert!(wall < Duration::from_secs(20), "took {wall:?}");
}

#[test]
fn unwritable_out_is_an_error_before_any_bench() {
    let out = Path::new("/nonexistent-dir/BENCH_hotpath.json");
    assert_rejected_early(out, out);
}

#[test]
fn unwritable_sidecar_is_an_error_before_any_bench() {
    let dir = std::env::temp_dir().join(format!("hotpath_flags_{}", std::process::id()));
    // A directory squatting on the statistics sidecar's name makes that
    // one path unwritable while `--out` itself is fine.
    let squatter = dir.join("BENCH.stats.json");
    std::fs::create_dir_all(&squatter).unwrap();
    let out = dir.join("BENCH.json");
    assert_rejected_early(&out, &squatter);
    // The probe leaves no empty file behind for the path it could open.
    assert!(!out.exists(), "probe left {} behind", out.display());
    std::fs::remove_dir_all(&dir).unwrap();
}
