//! A counting global allocator for the alloc-budget tests.
//!
//! Each binary that wants counts declares its own hook:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: eslev_bench::count_alloc::CountingAlloc =
//!     eslev_bench::count_alloc::CountingAlloc;
//! ```
//!
//! Counting is gated on [`COUNTING`] so setup/teardown allocations are
//! free; only the window a test opens by setting it is charged.
//! Deallocations are deliberately not counted — the budget is about
//! allocator round-trips on the hot path, and frees mirror the allocs.
//!
//! The counter is process-global, so counting tests must not run
//! concurrently with each other; keep one measuring `#[test]` per test
//! process (each integration-test *file* is its own process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations observed while [`COUNTING`] was set.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Gate: when `false` the allocator is a pass-through to [`System`].
pub static COUNTING: AtomicBool = AtomicBool::new(false);

/// [`System`]-backed allocator that counts `alloc`, `alloc_zeroed` and
/// `realloc` calls while [`COUNTING`] is set.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn tick() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
