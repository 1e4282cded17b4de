//! # svckit-obs — zero-cost-when-disabled instrumentation
//!
//! The observability layer of the workspace: counters, fixed-bucket
//! histograms, per-link transport statistics, and timeline events/spans
//! stamped with **virtual (simulated) time**, exported through one writer
//! per format — an in-memory [`Recorder`], JSONL ([`Recorder::jsonl`]),
//! Chrome trace-event JSON loadable in Perfetto ([`chrome_trace`]), and
//! the span trees behind the critical-path summary ([`trace_trees`]).
//!
//! ## The two-gear design
//!
//! - **Feature `enabled` off (the default):** every `obs_*!` macro site
//!   expands to an *unevaluated closure* — the arguments typecheck but no
//!   code runs and nothing is captured. The perfgated
//!   `obs_disabled_overhead` benchmark pins this at ≤ 3% overhead.
//! - **Feature `enabled` on (`--features obs` on `svckit`/`svckit-bench`):**
//!   sites record into the thread-local [`Recorder`] installed by
//!   [`with_recorder`]. No recorder installed ⇒ sites early-return.
//!
//! The feature lives on *this* crate, so downstream crates instrument
//! unconditionally and Cargo's feature unification flips every site in
//! the build at once.
//!
//! ## Determinism
//!
//! Recorders carry virtual time only, store everything in `BTreeMap`s or
//! recording-order `Vec`s, and are installed per worker thread — one per
//! sweep cell — then merged in spec order. Every sink is therefore
//! byte-identical across `--threads` values and across repeated runs of
//! the same seed (golden-tested in `svckit-sweep`, `cmp`'d in CI). The
//! Chrome writer and the tree walker also sort each timeline
//! canonically, so they are identical across `--shards` values too.
//!
//! ```
//! use svckit_obs::{with_recorder, Recorder};
//!
//! let ((), rec) = with_recorder(Recorder::new(), || {
//!     svckit_obs::obs_count!("demo.hits");
//!     svckit_obs::obs_span!("demo.span", "net", 1, 100, 250);
//! });
//! // With the `enabled` feature off (the default) the sites vanish:
//! assert_eq!(rec.counter("demo.hits"), u64::from(svckit_obs::sites_enabled()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod json;
pub mod recorder;
pub mod stats;
pub mod trace;

pub use ctx::{absorb_into_current, active, sites_enabled, with_recorder};
pub use json::{parse_flat_numbers, JsonWriter};
pub use recorder::{chrome_trace, Event, Hist, LinkStat, Recorder};
pub use stats::{LddStats, PorStats, SymStats};
pub use trace::{
    mint_id, percentile_us, trace_trees, RequestBreakdown, SpanNode, TraceCtx, TraceTree,
};

/// Adds 1 (or `n`) to a named counter on the installed recorder.
///
/// `obs_count!("net.events")` / `obs_count!("net.bytes", n)`. Compiles to
/// nothing without feature `enabled`.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! obs_count {
    ($name:expr) => {
        $crate::ctx::count($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::ctx::count($name, $n as u64)
    };
}

/// Adds 1 (or `n`) to a named counter on the installed recorder.
///
/// `obs_count!("net.events")` / `obs_count!("net.bytes", n)`. Compiles to
/// nothing without feature `enabled`.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! obs_count {
    ($name:expr) => {{
        let _ = || $name;
    }};
    ($name:expr, $n:expr) => {{
        let _ = || ($name, $n);
    }};
}

/// Records a sample into a named histogram: `obs_record!("net.queue_depth",
/// depth)`. Compiles to nothing without feature `enabled`.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! obs_record {
    ($name:expr, $value:expr) => {
        $crate::ctx::record($name, $value as u64)
    };
}

/// Records a sample into a named histogram: `obs_record!("net.queue_depth",
/// depth)`. Compiles to nothing without feature `enabled`.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! obs_record {
    ($name:expr, $value:expr) => {{
        let _ = || ($name, $value);
    }};
}

/// Records a completed message transit on a directed link:
/// `obs_link!(src, dst, bytes, latency_us)`. Compiles to nothing without
/// feature `enabled`.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! obs_link {
    ($src:expr, $dst:expr, $bytes:expr, $latency_us:expr) => {
        $crate::ctx::link($src as u64, $dst as u64, $bytes as u64, $latency_us as u64)
    };
}

/// Records a completed message transit on a directed link:
/// `obs_link!(src, dst, bytes, latency_us)`. Compiles to nothing without
/// feature `enabled`.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! obs_link {
    ($src:expr, $dst:expr, $bytes:expr, $latency_us:expr) => {{
        let _ = || ($src, $dst, $bytes, $latency_us);
    }};
}

/// Appends an instant timeline event at a virtual timestamp:
/// `obs_event!("proto.decode_error", "proto", node, ts_us)` — or, with
/// three extra arguments, a *traced* instant nested under span
/// `parent` of trace `trace`:
/// `obs_event!("mw.dispatch", "mw", node, ts_us, trace, 0, parent)`.
/// Compiles to nothing without feature `enabled`.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! obs_event {
    ($name:expr, $cat:expr, $tid:expr, $ts_us:expr) => {
        $crate::ctx::event($name, $cat, $tid as u64, $ts_us as u64, 0)
    };
    ($name:expr, $cat:expr, $tid:expr, $ts_us:expr, $trace:expr, $span:expr, $parent:expr) => {
        $crate::ctx::event_traced(
            $name,
            $cat,
            $tid as u64,
            0,
            $ts_us as u64,
            0,
            $trace as u64,
            $span as u64,
            $parent as u64,
        )
    };
}

/// Appends an instant timeline event at a virtual timestamp:
/// `obs_event!("proto.decode_error", "proto", node, ts_us)` — or, with
/// three extra arguments, a *traced* instant nested under span
/// `parent` of trace `trace`:
/// `obs_event!("mw.dispatch", "mw", node, ts_us, trace, 0, parent)`.
/// Compiles to nothing without feature `enabled`.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! obs_event {
    ($name:expr, $cat:expr, $tid:expr, $ts_us:expr) => {{
        let _ = || ($name, $cat, $tid, $ts_us);
    }};
    ($name:expr, $cat:expr, $tid:expr, $ts_us:expr, $trace:expr, $span:expr, $parent:expr) => {{
        let _ = || ($name, $cat, $tid, $ts_us, $trace, $span, $parent);
    }};
}

/// Appends a completed span over virtual time `[start_us, end_us]`:
/// `obs_span!("net.transit", "net", node, depart_us, arrive_us)` — or,
/// with four extra arguments, a *traced* span with its own identity in
/// a request tree (`tid2` is the source track for cross-node spans, 0
/// otherwise):
/// `obs_span!(name, cat, tid, tid2, start_us, end_us, trace, span,
/// parent)`. Compiles to nothing without feature `enabled`.
#[cfg(feature = "enabled")]
#[macro_export]
macro_rules! obs_span {
    ($name:expr, $cat:expr, $tid:expr, $start_us:expr, $end_us:expr) => {{
        let start = $start_us as u64;
        let end = $end_us as u64;
        $crate::ctx::event($name, $cat, $tid as u64, start, end.saturating_sub(start))
    }};
    ($name:expr, $cat:expr, $tid:expr, $tid2:expr, $start_us:expr, $end_us:expr, $trace:expr, $span:expr, $parent:expr) => {{
        let start = $start_us as u64;
        let end = $end_us as u64;
        $crate::ctx::event_traced(
            $name,
            $cat,
            $tid as u64,
            $tid2 as u64,
            start,
            end.saturating_sub(start),
            $trace as u64,
            $span as u64,
            $parent as u64,
        )
    }};
}

/// Appends a completed span over virtual time `[start_us, end_us]`:
/// `obs_span!("net.transit", "net", node, depart_us, arrive_us)` — or,
/// with four extra arguments, a *traced* span with its own identity in
/// a request tree (`tid2` is the source track for cross-node spans, 0
/// otherwise):
/// `obs_span!(name, cat, tid, tid2, start_us, end_us, trace, span,
/// parent)`. Compiles to nothing without feature `enabled`.
#[cfg(not(feature = "enabled"))]
#[macro_export]
macro_rules! obs_span {
    ($name:expr, $cat:expr, $tid:expr, $start_us:expr, $end_us:expr) => {{
        let _ = || ($name, $cat, $tid, $start_us, $end_us);
    }};
    ($name:expr, $cat:expr, $tid:expr, $tid2:expr, $start_us:expr, $end_us:expr, $trace:expr, $span:expr, $parent:expr) => {{
        let _ = || {
            (
                $name, $cat, $tid, $tid2, $start_us, $end_us, $trace, $span, $parent,
            )
        };
    }};
}

#[cfg(test)]
mod tests {
    use crate::{with_recorder, Recorder};

    #[test]
    fn macro_sites_follow_the_feature_gate() {
        let ((), rec) = with_recorder(Recorder::new(), || {
            obs_count!("hits");
            obs_count!("bytes", 64);
            obs_record!("depth", 3);
            obs_link!(1, 2, 100, 250);
            obs_event!("mark", "net", 1, 10);
            obs_span!("span", "net", 1, 10, 30);
        });
        if crate::sites_enabled() {
            assert_eq!(rec.counter("hits"), 1);
            assert_eq!(rec.counter("bytes"), 64);
            assert_eq!(rec.hist("depth").unwrap().count, 1);
            assert_eq!(rec.links().len(), 1);
            assert_eq!(rec.events().len(), 2);
            assert_eq!(rec.events()[1].dur_us, 20);
        } else {
            assert!(rec.is_empty(), "disabled sites must record nothing");
        }
    }

    #[test]
    fn disabled_macro_arguments_are_not_evaluated() {
        // The closure trick: arguments typecheck but never run when the
        // feature is off. With the feature on they do run — count() then
        // observes the side effect exactly once.
        let mut calls = 0u64;
        let mut bump = || {
            calls += 1;
            7u64
        };
        let ((), _rec) = with_recorder(Recorder::new(), || {
            obs_count!("side", bump());
        });
        assert_eq!(calls, u64::from(crate::sites_enabled()));
    }
}
