//! Exact allocation budgets for the floor-control run path.
//!
//! A counting global allocator pins how many heap allocations one run of
//! each budgeted solution makes per grant, at a fixed small size (8
//! subscribers × 2 resources × 4 rounds, 32 grants). Counts are exact
//! and host-independent, so each budget is tight: the measured count
//! plus at most 5%. They cover middleware dispatch (mw-polling,
//! mw-token), the protocol stack (proto-callback), the admission gate
//! and the run's conformance monitor.
//!
//! Release builds only: the optimiser elides some allocations, and debug
//! builds cross-check every run's monitor verdict against a full
//! `check_trace`, which allocates on its own.
//!
//! This binary holds a single test so no other test allocates while it
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use svckit::floorctl::{run_solution, RunParams, Solution};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every call to the system allocator unchanged; the only
// addition is a relaxed counter increment.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by one run, and the grants it made.
fn count(solution: Solution, params: &RunParams) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = run_solution(solution, params);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(outcome.completed && outcome.conformant, "{solution}");
    (after - before, outcome.floor.grants())
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation counts are pinned for release builds"
)]
fn allocations_per_grant_stay_within_budget() {
    let params = RunParams::default().subscribers(8).resources(2).rounds(4);
    // (solution, budget in allocations per grant): the measured count
    // plus under 5%. "Before" is the same run before middleware dispatch
    // stopped copying plan entries and decoded strings, the gate stepped
    // its state in place, and a conformance monitor replaced the post-run
    // `check_trace`.
    let budgets = [
        // 2798 allocations (87.4 per grant); before: 7601 (237.5).
        (Solution::MwPolling, 91.5),
        // 3162 allocations (98.8 per grant); before: 8087 (252.7).
        (Solution::MwToken, 103.5),
        // 1232 allocations (38.5 per grant); before: 2043 (63.8).
        (Solution::ProtoCallback, 40.3),
    ];
    let mut failures = Vec::new();
    for (solution, budget) in budgets {
        // The first run in the process pays for the shared compiled tables;
        // from then on each run's count repeats exactly.
        count(solution, &params);
        let (allocations, grants) = count(solution, &params);
        assert_eq!(
            count(solution, &params),
            (allocations, grants),
            "{solution}: allocation counts must repeat exactly"
        );
        let per_grant = allocations as f64 / grants as f64;
        println!(
            "{solution}: {allocations} allocations, {grants} grants, {per_grant:.1} per grant"
        );
        if per_grant > budget {
            failures.push(format!(
                "{solution}: {per_grant:.1} per grant > budget {budget}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
