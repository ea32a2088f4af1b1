//! A counting wrapper around the system allocator, owned by the benchmark
//! binary. The window is open only in the allocation probes and the traced
//! pass; closed, an allocation costs one relaxed load more than `System`.
//! Load-generator threads exempt themselves, so what is counted is the
//! server side of the in-process grid.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

pub struct CountingAlloc;

#[inline]
fn record(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    // The slot may already be gone while a dying thread's destructors
    // allocate; such a thread counts as exempt.
    if EXEMPT.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a `const`-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Open or close the counting window (process-wide).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Leave the calling thread out of the counts.
pub fn exempt_current_thread() {
    let _ = EXEMPT.try_with(|e| e.set(true));
}

/// Totals so far: (allocation events, bytes requested).
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
