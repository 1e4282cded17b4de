//! The parallel cell executor.
//!
//! Cells are independent by construction — each builds its own simulator,
//! middleware system or protocol stack, and RNG stream from the cell's
//! seed. Workers construct *and* run each cell entirely on their own
//! thread and send back only the `RunOutcome`: a cell is the unit of
//! scheduling, so nothing is gained by moving a half-built system across
//! threads (even though, since the sharded-core work made every process
//! `Send`, they now could be).
//!
//! Work distribution is a single atomic cursor over the expanded cell
//! list; results are placed into their cell's slot and merged in spec
//! order, so the report (and its JSON) is byte-identical for any worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration as WallDuration, Instant as WallInstant};

use svckit::floorctl::{
    run_middleware_deployment_with, run_solution_with, RunOptions, RunOutcome, Solution,
};
use svckit::mda::{catalog, transform, TransformPolicy};
use svckit_obs::{with_recorder, Recorder};

use crate::agg::{aggregate, GroupSummary};
use crate::spec::{Cell, CellTarget, SweepSpec};

/// One executed cell: its grid point, display labels, and the measured
/// outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The grid point this result belongs to.
    pub cell: Cell,
    /// Target label (solution name or `psm:<platform>`).
    pub target_label: String,
    /// Variation label.
    pub variation_label: String,
    /// Campaign label (`"none"` when fault-free).
    pub campaign_label: String,
    /// The measured run.
    pub outcome: RunOutcome,
    /// Everything the instrumentation sites recorded while this cell ran.
    ///
    /// Each cell runs entirely on one worker thread with its own
    /// [`Recorder`] installed, and cells are merged in spec order — so
    /// per-cell obs output is byte-identical across `--threads` values.
    /// Empty (but present) when the `obs` feature is off.
    pub obs: Recorder,
    /// Wall-clock time the worker spent building and running this cell.
    ///
    /// Reported in the `*.timing.json` sidecar only — never in the
    /// canonical sweep JSON, which must stay byte-identical across worker
    /// counts and machines.
    pub wall: WallDuration,
}

/// Everything a sweep produced: per-cell results in spec order, per-group
/// summaries, and execution metadata.
///
/// The metadata (`threads`, `wall`) is reported on stdout only — it is
/// deliberately excluded from [`SweepReport::to_json`] so the JSON stays
/// byte-identical across worker counts and machines.
#[derive(Debug)]
pub struct SweepReport {
    /// The spec's name.
    pub name: String,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock time of the executor (not part of the JSON).
    pub wall: WallDuration,
    /// Cell results, in spec order.
    pub results: Vec<CellResult>,
    /// Group summaries, in first-appearance (spec) order.
    pub groups: Vec<GroupSummary>,
}

/// Number of worker threads to use when the caller does not say:
/// the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn run_cell(spec: &SweepSpec, cell: &Cell) -> RunOutcome {
    let variation = &spec.variations[cell.variation];
    let mut params = variation.params.clone().seed(cell.seed);
    if let Some(shards) = spec.shards {
        params = params.shards(shards);
    }
    let faults = match cell.campaign {
        Some(i) => spec.campaigns[i].events.clone(),
        None => Vec::new(),
    };
    match &spec.targets[cell.target] {
        CellTarget::Solution(solution) => {
            let options = RunOptions {
                reliability: variation.reliability,
                faults,
            };
            run_solution_with(*solution, &params, &options)
        }
        CellTarget::Platform(name) => {
            let platform = catalog::all_platforms()
                .into_iter()
                .find(|p| p.name() == name)
                .unwrap_or_else(|| panic!("unknown catalog platform {name:?} in sweep spec"));
            let psm = transform(
                &catalog::floor_control_pim(),
                &platform,
                TransformPolicy::RecursiveServiceDesign,
            )
            .unwrap_or_else(|e| panic!("transform to {name} failed: {e}"));
            let (system, label) = match psm.platform().class() {
                svckit::mda::PlatformClass::RpcBased => (
                    svckit::floorctl::mw::callback::deploy(&params),
                    Solution::MwCallback,
                ),
                svckit::mda::PlatformClass::Messaging => (
                    svckit::floorctl::mw::queue::deploy_on(&params, psm.platform().name()),
                    Solution::MwQueue,
                ),
            };
            run_middleware_deployment_with(system, label, &params, &faults)
        }
    }
}

/// Runs every cell of `spec` on up to `threads` scoped workers and merges
/// the results in spec order.
///
/// `threads = 1` is exactly the serial runner; any larger value changes
/// only wall-clock time, never the report contents.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> SweepReport {
    let cells = spec.cells();
    let threads = threads.clamp(1, cells.len().max(1));
    let started = WallInstant::now();

    let cursor = AtomicUsize::new(0);
    type CellSlot = (RunOutcome, Recorder, WallDuration);
    let (tx, rx) = mpsc::channel::<(usize, CellSlot)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let cells = &cells;
            let spec = &spec;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let cell_started = WallInstant::now();
                // One recorder per cell, installed thread-locally: every
                // obs site the cell touches records here and nowhere
                // else, keeping capture independent of worker count.
                let (outcome, obs) = with_recorder(Recorder::new(), || run_cell(spec, &cells[i]));
                if tx
                    .send((i, (outcome, obs, cell_started.elapsed())))
                    .is_err()
                {
                    break;
                }
            });
        }
    });
    drop(tx);

    let mut slots: Vec<Option<CellSlot>> = cells.iter().map(|_| None).collect();
    for (i, slot) in rx {
        slots[i] = Some(slot);
    }

    let results: Vec<CellResult> = cells
        .iter()
        .zip(slots)
        .map(|(cell, slot)| {
            let (outcome, obs, wall) = slot.expect("every scheduled cell sends exactly one result");
            CellResult {
                cell: *cell,
                target_label: spec.targets[cell.target].to_string(),
                variation_label: spec.variations[cell.variation].label.clone(),
                campaign_label: spec.campaign_label(cell.campaign).to_string(),
                outcome,
                obs,
                wall,
            }
        })
        .collect();

    let groups = aggregate(&results);
    SweepReport {
        name: spec.name.clone(),
        threads,
        wall: started.elapsed(),
        results,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svckit::floorctl::RunParams;

    fn tiny() -> RunParams {
        RunParams::default().subscribers(2).resources(1).rounds(1)
    }

    #[test]
    fn serial_and_parallel_reports_agree() {
        let spec = SweepSpec::new("exec")
            .solutions([Solution::MwCallback, Solution::ProtoPolling])
            .variation("tiny", tiny())
            .seeds([3, 4, 5]);
        let serial = run_sweep(&spec, 1);
        let parallel = run_sweep(&spec, 4);
        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.outcome.trace, b.outcome.trace);
            assert_eq!(a.outcome.transport_messages, b.outcome.transport_messages);
        }
        assert_eq!(serial.threads, 1);
        assert!(parallel.threads > 1);
    }

    #[test]
    fn platform_targets_run_through_the_mda_trajectory() {
        let spec = SweepSpec::new("psm")
            .platform("corba-like")
            .platform("jms-like")
            .variation("tiny", tiny());
        let report = run_sweep(&spec, 2);
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.results[0].target_label, "psm:corba-like");
        assert_eq!(report.results[1].target_label, "psm:jms-like");
        for r in &report.results {
            assert!(r.outcome.completed, "{} did not complete", r.target_label);
            assert!(r.outcome.conformant);
        }
        // Message counts tie across platform classes (the broker hop
        // replaces the RPC reply); the indirection costs latency instead.
        assert!(
            report.groups[1].latency_mean > report.groups[0].latency_mean,
            "jms {} vs corba {}",
            report.groups[1].latency_mean,
            report.groups[0].latency_mean
        );
    }

    #[test]
    fn thread_count_is_clamped_to_cell_count() {
        let spec = SweepSpec::new("one")
            .solutions([Solution::MwCallback])
            .variation("tiny", tiny());
        let report = run_sweep(&spec, 64);
        assert_eq!(report.threads, 1);
    }
}
