//! Allocation-growth regression test for the floor-control run harness.
//!
//! `run_solution` runs a deployment in 250 ms slices. Its per-slice
//! bookkeeping must be O(new events): if each slice copied the whole trace
//! recorded so far, doubling the rounds would roughly quadruple that work
//! instead of doubling it. A counting global allocator
//! makes the copy visible as an exact, host-independent number.
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

/// Allocations made by one token-ring run of 32 subscribers × 4 resources
/// at `rounds` rounds.
fn allocations(rounds: u32) -> u64 {
    let params = RunParams::default()
        .subscribers(32)
        .resources(4)
        .rounds(rounds);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = run_solution(Solution::ProtoToken, &params);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(outcome.completed && outcome.conformant);
    after - before
}

#[test]
fn doubling_the_rounds_at_most_doubles_the_allocations() {
    // 20 rounds run in 13 slices, 40 rounds in about twice as many. Linear
    // bookkeeping gives a ratio just under 2 (the deployment's fixed set-up
    // cost amortises); copying the trace once per slice gives about 2.5.
    let single = allocations(20);
    let double = allocations(40);
    let ratio = double as f64 / single as f64;
    assert!(
        ratio < 2.2,
        "allocations grew {ratio:.2}x ({single} -> {double}) when the rounds doubled"
    );
}
