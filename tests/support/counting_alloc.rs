//! A `#[global_allocator]` that counts: every allocation-pin test
//! (`crates/policy/tests/tape_allocs.rs`,
//! `crates/policy/tests/infer_allocs.rs`,
//! `crates/baselines/tests/decide_allocs.rs`,
//! `crates/sim/tests/obs_allocs.rs`,
//! `crates/core/tests/spec_allocs.rs`,
//! `crates/nn/tests/store_allocs.rs`) includes this one file by
//! `#[path]`, so the workspace has one `unsafe impl GlobalAlloc`, not one
//! per test. It forwards to the system allocator.
//!
//! The counters are per thread: [`allocations`] and [`bytes`] report
//! what the *calling* thread has allocated. A process-wide count would
//! also see the test harness's own thread, which allocates at moments
//! of its own choosing inside a measured window; none of the pin tests
//! spawns a thread, so the calling thread is all they measure.

#![allow(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; test-only, forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are the only addition.
// (`realloc` and `alloc_zeroed` default to `alloc`, so they count too.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread being torn down may still allocate.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations made by the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes those allocations asked for.
#[allow(dead_code)] // not every including test prints sizes
pub fn bytes() -> u64 {
    BYTES.with(Cell::get)
}
