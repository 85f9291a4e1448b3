//! Counting global allocator: allocator calls and live-bytes high-water
//! inside a [`measure`] window, a pass-through to [`System`] (one relaxed
//! load) outside it.
//!
//! The window is process-global so that shard worker threads are counted
//! too. Live bytes are the sum of sizes allocated minus sizes freed
//! *inside the window*, so the high-water is the growth above whatever
//! was live when the window opened.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

// Statistics only: none of these publishes other data, so `Relaxed`.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Serialises windows: two overlapping windows would share the counters.
static WINDOW: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set while this thread runs the benchmark's own bookkeeping inside
    /// a window (see [`uncounted`]).
    static OWN: Cell<bool> = const { Cell::new(false) };
}

/// The allocator; the library installs it for every binary that links it.
pub struct Counting;

fn grew(bytes: i64, call: bool) {
    if call && !OWN.with(Cell::get) {
        CALLS.fetch_add(1, Relaxed);
    }
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics and a const-initialised
// thread-local without a destructor, so it never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ACTIVE.load(Relaxed) {
            grew(layout.size() as i64, true);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ACTIVE.load(Relaxed) {
            grew(layout.size() as i64, true);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ACTIVE.load(Relaxed) {
            grew(new_size as i64 - layout.size() as i64, true);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ACTIVE.load(Relaxed) {
            grew(-(layout.size() as i64), false);
        }
        System.dealloc(ptr, layout)
    }
}

/// What one [`measure`] window saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocReport {
    /// `alloc` + `alloc_zeroed` + `realloc` calls, all threads, minus
    /// those made under [`uncounted`].
    pub calls: u64,
    /// Live-bytes high-water above the level at window start.
    pub peak_bytes: u64,
}

/// Run `f` inside a counting window.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocReport) {
    let _one_window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    CALLS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ACTIVE.store(true, Relaxed);
    let out = f();
    ACTIVE.store(false, Relaxed);
    let report = AllocReport {
        calls: CALLS.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, report)
}

/// Run the benchmark's own bookkeeping (cloning the next feed rows)
/// inside a window without charging its allocator calls to the engine.
/// The bytes still count as live: the rows are about to be handed to the
/// engine, which frees or keeps them inside the window.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let before = OWN.with(|c| c.replace(true));
    let out = f();
    OWN.with(|c| c.set(before));
    out
}

/// Calls counted so far; 0 outside a window (for the self-test).
pub fn calls_now() -> u64 {
    CALLS.load(Relaxed)
}
