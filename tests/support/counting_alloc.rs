//! A `#[global_allocator]` that counts: every allocation-pin test
//! (`crates/policy/tests/tape_allocs.rs`,
//! `crates/baselines/tests/decide_allocs.rs`,
//! `crates/sim/tests/obs_allocs.rs`,
//! `crates/core/tests/spec_allocs.rs`,
//! `crates/nn/tests/store_allocs.rs`) includes this one file by
//! `#[path]`, so the workspace has one `unsafe impl GlobalAlloc`, not one
//! per test. It forwards to the system allocator; each of those tests
//! is the only test of its binary, so nothing else in the process
//! allocates while it counts.

#![allow(
    unsafe_code,
    reason = "GlobalAlloc is an unsafe trait; test-only, forwards to System"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are the only addition.
// (`realloc` and `alloc_zeroed` default to `alloc`, so they count too.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations made by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes those allocations asked for.
#[allow(dead_code)] // not every including test prints sizes
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
