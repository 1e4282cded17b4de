//! Experiment harness for svckit: the per-figure experiment binaries
//! (`src/bin/exp_*.rs`), the `soak` fault-campaign binary, and the
//! `hotpath` micro-benchmark harness with its `perfgate` gate.
//!
//! The sweep/table/JSON machinery lives in `svckit-sweep`; the helpers the
//! binaries use are re-exported here so existing imports keep working.
//! That includes the shared obs/verbosity CLI helpers: every binary
//! parses `--obs-out <path>`, `--obs-format {jsonl,chrome}`, `--quiet`
//! and `-v` the same way. `--obs-format chrome` writes the one Chrome
//! form, each timeline in canonical order (the sweep binaries'
//! `--trace-out` writes the same). Build with `--features obs` to turn
//! the workspace's instrumentation sites live.

pub mod scale;

pub use svckit_sweep::{
    fmt_f, obs_flags, print_header, print_row, verbosity, ObsFormat, PorStats, Recorder, Verbosity,
};
