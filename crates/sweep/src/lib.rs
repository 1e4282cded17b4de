//! # svckit-sweep — deterministic parallel experiment sweeps
//!
//! Every "result" in this reproduction is a measured experiment over the
//! floor-control service: a grid of solutions (or MDA platform targets) ×
//! workload variations × seeds × optional fault campaigns. This crate is
//! the harness that runs such grids:
//!
//! - [`SweepSpec`] declares the grid (builder-style, no I/O);
//! - [`run_sweep`] executes the cells on `std::thread::scope` workers —
//!   one RNG per cell, results merged in spec order, so the output for
//!   `threads = N` is **byte-identical** to `threads = 1`;
//! - [`aggregate`] rolls cell outcomes into per-group summaries
//!   (completion/conformance rollups, pooled latency percentiles,
//!   fairness, transport cost, Figure 7 scattering);
//! - [`SweepReport::print_table`] / [`SweepReport::write_json`] emit the
//!   human and machine forms (`SWEEP_*.json` via the shared dependency-free
//!   [`JsonWriter`]).
//!
//! The experiment binaries in `svckit-bench` (`exp_fig4_middleware`,
//! `exp_fig6_protocol`, `exp_fig7_scattering`, `exp_paradigms`,
//! `exp_platform_selection`, `soak`) all run through this harness.
//!
//! # Example
//!
//! ```
//! use svckit::floorctl::{RunParams, Solution};
//! use svckit_sweep::{run_sweep, SweepSpec};
//!
//! let spec = SweepSpec::new("doc")
//!     .solutions([Solution::MwCallback, Solution::ProtoCallback])
//!     .variation("tiny", RunParams::default().subscribers(2).rounds(1))
//!     .seeds([1, 2]);
//! let report = run_sweep(&spec, 2);
//! assert_eq!(report.results.len(), 4);
//! assert!(report.groups.iter().all(|g| g.conformant == g.cells));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod exec;
pub mod json;
pub mod report;
pub mod spec;

pub use agg::{aggregate, GroupSummary};
pub use exec::{default_threads, run_sweep, CellResult, SweepReport};
pub use json::{parse_flat_numbers, write_outcome, JsonWriter};
pub use report::{
    check_flags, ensure_writable, fail, flag_usize, flag_value, fmt_f, obs_flags, output_flags,
    print_header, print_row, shards_flag, trace_flags, verbosity, write_file, ObsFormat,
    TraceFlags, Verbosity, VERBOSITY_SWITCHES,
};
pub use spec::{Cell, CellTarget, FaultCampaign, SweepSpec, Variation};
pub use svckit_obs::{chrome_trace, LddStats, PorStats, Recorder, SymStats};
