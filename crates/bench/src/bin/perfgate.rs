//! Perf-regression gate: compares a freshly-run `BENCH_hotpath.json`
//! against the committed baseline and fails (exit 1) when any benchmark's
//! median regressed beyond the tolerance band.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p svckit-bench --bin perfgate -- \
//!     --baseline BENCH_hotpath.json --fresh /tmp/BENCH_hotpath.json \
//!     [--tolerance 0.30]
//! ```
//!
//! Every baseline entry must be present in the fresh results (a silently
//! dropped benchmark would otherwise hide a regression forever); fresh
//! entries with no baseline are reported but never fail the gate, so new
//! benchmarks can land before their baseline is committed. Improvements
//! beyond the band are flagged as a reminder to re-baseline.
//!
//! A missing `--fresh`, an unreadable file, an argument other than the
//! three flags above or a `--tolerance` that is not a finite non-negative
//! number prints one `error:` line and exits 1 before anything is
//! compared.
//!
//! The obs keys are special-cased: `obs_disabled_overhead` is an
//! in-process A/B *percentage* (machine-independent), so instead of the
//! ratio band it is held to an absolute bound — at most 3% when
//! `obs_sites_enabled` is 0 (instrumentation compiled out). When sites
//! are compiled in the overhead is real by design and the bound is
//! skipped. `obs_sites_enabled` itself is a flag, not a timing.
//!
//! Three cross-key gates ride along, all computed entirely from the
//! *fresh* run so the ratios are machine-independent and immune to
//! baseline staleness: `netsim/timer_churn` (timer wheel) must beat
//! `netsim/timer_churn_heap` (same workload on the reference binary
//! heap) by at least [`MIN_CHURN_SPEEDUP`]×, `explorer/dfa_allowed`
//! (compiled DFA tables) must beat `explorer/allowed_2k_steps` (the same
//! walk on the interpreter's `ProductEngine`) by at least
//! [`MIN_DFA_SPEEDUP`]×,
//! and the symmetry quotient must shrink the 3×4 floor-control product
//! space by at least [`MIN_SYM_REDUCTION`]× beyond ample sets alone
//! (`explorer/sym_states_full / explorer/sym_states_quotient` — exact
//! state counts, not timings, so the floor is deterministic). A fourth
//! absolute gate bounds `ldd_nodes_peak`, the symbolic backend's interned
//! node high-water mark on the 6×2 floor fixpoint, to
//! [`MAX_LDD_PEAK_NODES`] — also an exact count.
//!
//! [`FLOOR_KEYS`] are throughput keys (events per second — higher is
//! better): the band is applied *inverted*, so a fresh value below
//! `baseline × (1 − tolerance)` is the regression and one above
//! `baseline × (1 + tolerance)` the re-baselining reminder.

use svckit_sweep::{check_flags, fail, flag_value, outln, parse_flat_numbers};

/// Keys that are not nanosecond medians and must skip the ratio band.
/// The two `sym_states` keys are exact state counts gated by the
/// [`MIN_SYM_REDUCTION`] cross-key floor instead; `ldd_nodes_peak` is an
/// exact node count gated absolutely by [`MAX_LDD_PEAK_NODES`].
const SPECIAL_KEYS: [&str; 5] = [
    "obs_disabled_overhead",
    "obs_sites_enabled",
    "explorer/sym_states_full",
    "explorer/sym_states_quotient",
    "ldd_nodes_peak",
];

/// Throughput keys: higher is better, gated as a floor, not a ceiling.
const FLOOR_KEYS: [&str; 3] = [
    "netsim/soak_100k_evps",
    "mw_admission_evps",
    "mw_admission_evps_96x8",
];

/// Largest tolerated `obs_disabled_overhead` percentage with obs off.
const MAX_DISABLED_OVERHEAD_PCT: f64 = 3.0;

/// Minimum required `timer_churn_heap / timer_churn` speedup: the wheel
/// exists for exactly this workload, so losing the margin is a
/// regression even if both absolute numbers sit inside the band.
const MIN_CHURN_SPEEDUP: f64 = 3.0;

/// Minimum required `allowed_2k_steps / dfa_allowed` speedup: the gate
/// holds the DFA walk on its tables. The interpreter side is the
/// memoizing `ProductEngine`; a DFA walk that fell off the tables onto
/// interpreted stepping would read about 1×. Eleven fresh `hotpath` runs
/// on a shared 2-vCPU host read 2.19–4.38× (median 3.90×), so the floor
/// sits below the lowest run with room for host noise, and well above 1×.
const MIN_DFA_SPEEDUP: f64 = 1.5;

/// Minimum required `sym_states_full / sym_states_quotient` reduction on
/// the 3×4 floor-control exploration: the symmetry quotient exists to
/// collapse the per-user explosion, so exploring fewer than 5× fewer
/// states than ample sets alone is a regression. State counts are exact,
/// so this floor carries no machine noise at all.
const MIN_SYM_REDUCTION: f64 = 5.0;

/// Largest tolerated `ldd_nodes_peak` on the 6-user × 2-resource floor
/// fixpoint (~26 M concrete states). The measured peak is ~750 k interned
/// nodes; the bound leaves headroom for cache-shape drift while still
/// catching a broken normalization or a leaked intern (which blows the
/// table up by orders of magnitude, not percent). Node counts are exact,
/// so this gate carries no machine noise.
const MAX_LDD_PEAK_NODES: f64 = 2_000_000.0;

const USAGE: &str = "usage: perfgate --baseline <json> --fresh <json> [--tolerance 0.30]";

/// Parses `--tolerance` (default 0.30): a finite, non-negative fraction.
fn tolerance_flag(args: &[String]) -> Result<f64, String> {
    let Some(value) = flag_value(args, "tolerance") else {
        return Ok(0.30);
    };
    match value.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
        _ => Err(format!(
            "--tolerance expects a non-negative number, got {value:?}"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, &["baseline", "fresh", "tolerance"], &[]).unwrap_or_else(|e| fail(&e));
    let baseline_path =
        flag_value(&args, "baseline").unwrap_or_else(|| "BENCH_hotpath.json".to_owned());
    let fresh_path = flag_value(&args, "fresh")
        .unwrap_or_else(|| fail(&format!("--fresh is required ({USAGE})")));
    let tolerance = tolerance_flag(&args).unwrap_or_else(|err| fail(&err));

    let read = |path: &str| -> Vec<(String, f64)> {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        parse_flat_numbers(&text)
    };
    let baseline = read(&baseline_path);
    let fresh = read(&fresh_path);

    let band = tolerance * 100.0;
    outln!("perfgate: {fresh_path} vs {baseline_path} (tolerance +/-{band:.0}%)\n");
    let mut regressions = 0usize;
    for (name, base_ns) in &baseline {
        if SPECIAL_KEYS.contains(&name.as_str()) {
            continue; // percentages/flags, gated absolutely below
        }
        match fresh.iter().find(|(n, _)| n == name) {
            None => {
                outln!("MISSING     {name:<36} baseline {base_ns:>14.0} ns, no fresh result");
                regressions += 1;
            }
            Some((_, fresh_ns)) => {
                let ratio = if *base_ns > 0.0 {
                    fresh_ns / base_ns
                } else {
                    1.0
                };
                // Throughput floors read the band upside down: shrinking
                // events/sec is the regression, growing is the reminder.
                let floor = FLOOR_KEYS.contains(&name.as_str());
                let (worse, better) = if floor {
                    (ratio < 1.0 - tolerance, ratio > 1.0 + tolerance)
                } else {
                    (ratio > 1.0 + tolerance, ratio < 1.0 - tolerance)
                };
                let verdict = if worse {
                    regressions += 1;
                    "REGRESSION"
                } else if better {
                    "IMPROVED" // consider re-baselining
                } else {
                    "ok"
                };
                let unit = if floor { "ev/s" } else { "ns" };
                outln!(
                    "{verdict:<11} {name:<36} {base_ns:>14.0} -> {fresh_ns:>14.0} {unit} ({ratio:>5.2}x)"
                );
            }
        }
    }
    for (name, _) in &fresh {
        if SPECIAL_KEYS.contains(&name.as_str()) {
            continue;
        }
        if !baseline.iter().any(|(n, _)| n == name) {
            outln!("NEW         {name:<36} (no baseline yet)");
        }
    }

    // Absolute gate for the obs overhead percentage (fresh run only).
    let fresh_key = |key: &str| fresh.iter().find(|(n, _)| n == key).map(|(_, v)| *v);
    if let Some(overhead) = fresh_key("obs_disabled_overhead") {
        let sites_enabled = fresh_key("obs_sites_enabled").unwrap_or(0.0) != 0.0;
        if sites_enabled {
            outln!(
                "skipped     {:<36} {overhead:>+13.2}% (obs sites enabled)",
                "obs_disabled_overhead"
            );
        } else if overhead > MAX_DISABLED_OVERHEAD_PCT {
            regressions += 1;
            outln!(
                "REGRESSION  {:<36} {overhead:>+13.2}% (bound {MAX_DISABLED_OVERHEAD_PCT:.1}%)",
                "obs_disabled_overhead"
            );
        } else {
            outln!(
                "ok          {:<36} {overhead:>+13.2}% (bound {MAX_DISABLED_OVERHEAD_PCT:.1}%)",
                "obs_disabled_overhead"
            );
        }
    }

    // Cross-key gate: wheel-vs-heap speedup on the churn workload,
    // computed entirely from the fresh run.
    if let (Some(wheel_ns), Some(heap_ns)) = (
        fresh_key("netsim/timer_churn"),
        fresh_key("netsim/timer_churn_heap"),
    ) {
        let speedup = if wheel_ns > 0.0 {
            heap_ns / wheel_ns
        } else {
            f64::INFINITY
        };
        if speedup < MIN_CHURN_SPEEDUP {
            regressions += 1;
            outln!(
                "REGRESSION  {:<36} {speedup:>13.2}x (floor {MIN_CHURN_SPEEDUP:.1}x vs heap)",
                "timer_churn speedup"
            );
        } else {
            outln!(
                "ok          {:<36} {speedup:>13.2}x (floor {MIN_CHURN_SPEEDUP:.1}x vs heap)",
                "timer_churn speedup"
            );
        }
    }

    // Cross-key gate: compiled-vs-interpreted explorer speedup on the
    // 2000-step walk, computed entirely from the fresh run.
    if let (Some(interp_ns), Some(dfa_ns)) = (
        fresh_key("explorer/allowed_2k_steps"),
        fresh_key("explorer/dfa_allowed"),
    ) {
        let speedup = if dfa_ns > 0.0 {
            interp_ns / dfa_ns
        } else {
            f64::INFINITY
        };
        if speedup < MIN_DFA_SPEEDUP {
            regressions += 1;
            outln!(
                "REGRESSION  {:<36} {speedup:>13.2}x (floor {MIN_DFA_SPEEDUP:.1}x vs interp)",
                "dfa_allowed speedup"
            );
        } else {
            outln!(
                "ok          {:<36} {speedup:>13.2}x (floor {MIN_DFA_SPEEDUP:.1}x vs interp)",
                "dfa_allowed speedup"
            );
        }
    }

    // Cross-key gate: symmetry-quotient state reduction on the 3×4
    // floor-control exploration, computed entirely from the fresh run.
    // Both keys are exact state counts, so the ratio is deterministic.
    if let (Some(full), Some(quotient)) = (
        fresh_key("explorer/sym_states_full"),
        fresh_key("explorer/sym_states_quotient"),
    ) {
        let reduction = if quotient > 0.0 {
            full / quotient
        } else {
            f64::INFINITY
        };
        if reduction < MIN_SYM_REDUCTION {
            regressions += 1;
            outln!(
                "REGRESSION  {:<36} {reduction:>13.2}x (floor {MIN_SYM_REDUCTION:.1}x vs unreduced)",
                "sym_states reduction"
            );
        } else {
            outln!(
                "ok          {:<36} {reduction:>13.2}x (floor {MIN_SYM_REDUCTION:.1}x vs unreduced)",
                "sym_states reduction"
            );
        }
    }

    // Absolute gate: the 6×2 symbolic fixpoint must stay within a bounded
    // node budget. A count, not a timing — exceeding it means the diagram
    // machinery itself regressed (normalization, interning, or ordering),
    // never the machine.
    if let Some(peak) = fresh_key("ldd_nodes_peak") {
        if peak > MAX_LDD_PEAK_NODES {
            regressions += 1;
            outln!(
                "REGRESSION  {:<36} {peak:>13.0} nodes (bound {MAX_LDD_PEAK_NODES:.0})",
                "ldd_nodes_peak"
            );
        } else {
            outln!(
                "ok          {:<36} {peak:>13.0} nodes (bound {MAX_LDD_PEAK_NODES:.0})",
                "ldd_nodes_peak"
            );
        }
    }

    if regressions > 0 {
        outln!("\nperfgate: {regressions} regression(s) beyond the +/-{band:.0}% band");
        std::process::exit(1);
    }
    let banded = baseline
        .iter()
        .filter(|(n, _)| !SPECIAL_KEYS.contains(&n.as_str()))
        .count();
    outln!("\nperfgate: all {banded} benchmarks within band");
}
