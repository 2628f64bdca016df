//! Counting `#[global_allocator]` wrapper.
//!
//! Counting is off in every timed round (one relaxed load per allocation
//! is all that remains) and switched on for the counted round only, which
//! runs the plain timed loop: the totals are the allocations of the system
//! under test, client and server threads together.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the switch and the counters are process-wide and
    // `cargo test` runs tests on parallel threads. For the same reason the
    // bounds are one-sided: other tests may allocate while counting is on.
    #[test]
    fn counts_only_while_enabled() {
        let before = totals();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(totals(), before, "counting starts switched off");

        set_enabled(true);
        let start = totals();
        drop(std::hint::black_box(vec![0u8; 4096]));
        let counted = totals();
        set_enabled(false);
        assert!(counted.0 > start.0 && counted.1 >= start.1 + 4096);
    }
}
