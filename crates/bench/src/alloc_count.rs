//! A counting wrapper around the system allocator, for measuring
//! allocations per request.
//!
//! The `repro` binary (and this crate's test harness) installs
//! [`CountingAlloc`] as the `#[global_allocator]`. Counting is off until
//! [`set_counting`] enables it, and threads that drive the workload call
//! [`exempt_current_thread`] so only the *server side* of an in-process
//! grid is measured: with the client/driver threads exempt, every count
//! recorded during a steady-state window comes from the worker threads
//! servicing requests.
//!
//! `dealloc` is free by design — the metric is allocation *events* (and
//! bytes requested), the thing the recycled-buffer data path eliminates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static INSTALLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Pass-through allocator that counts allocation events on non-exempt
/// threads while counting is enabled.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn record(size: usize) {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        // `try_with` rather than `with`: the TLS slot may already be torn
        // down when a dying thread's destructors allocate. Treat such
        // threads as exempt.
        let exempt = EXEMPT.try_with(Cell::get).unwrap_or(true);
        if exempt {
            return;
        }
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches atomics and a
// `const`-initialised thread-local, none of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Ordering::Relaxed);
        Self::record(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Is [`CountingAlloc`] actually registered as the global allocator in
/// this process? (It marks itself on first use.)
pub fn allocator_installed() -> bool {
    // Any allocation at all goes through the global allocator, so force
    // one to make sure the flag had a chance to be set.
    let probe = Vec::<u8>::with_capacity(1);
    drop(probe);
    INSTALLED.load(Ordering::Relaxed)
}

/// Turn counting on or off (process-wide).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Exclude the calling thread from counting (drivers, measurement
/// bookkeeping).
pub fn exempt_current_thread() {
    let _ = EXEMPT.try_with(|e| e.set(true));
}

/// Current totals: (allocation events, bytes requested).
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

// Tests live in `tests/alloc_count.rs`: the counters are process-global,
// so they need a test binary of their own (the lib harness runs tests in
// parallel threads that would pollute the counts).
