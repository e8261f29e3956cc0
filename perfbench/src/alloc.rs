//! A counting global allocator, for allocations-per-line figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation calls made by this process so far. `Relaxed` is enough: the
/// count publishes no other data and is read only after the measured
/// call has returned and its worker threads have been joined.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Delegates to [`System`] and counts every allocation call.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System`, which upholds the
// `GlobalAlloc` contract; the counter does not touch the memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwarded verbatim to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwarded verbatim to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwarded verbatim to `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwarded verbatim to `System::realloc`; a resize is one
    // allocator round trip, so it counts.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
