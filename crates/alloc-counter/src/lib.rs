//! A counting global allocator for measuring allocation budgets.
//!
//! Shared by the gating tests — `tests/alloc_per_packet.rs` (no allocation
//! per injected packet or per replying exchange; a tap allocates only to
//! grow; counted per thread, so its tests cannot see each other's
//! allocations), `tests/campaign_allocs.rs` (at most 0.5 allocations per
//! packet over whole budget campaigns) and
//! `tests/render_allocs.rs` (no allocation per rendered record).
//!
//! Install it in a binary or test crate with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation made through the global allocator.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from inside
    // the allocator never allocates or registers anything.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates every operation verbatim to the `System` allocator; the
// only addition is a process and a thread counter increment on the
// allocation paths (`alloc`, `alloc_zeroed` via the default impl's `alloc`,
// and `realloc`).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations counted so far in this process.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations counted so far on the calling thread: a window measured with
/// it excludes what other threads (another test, the test harness) allocate
/// meanwhile, so several measuring tests can share one binary.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    // The counter itself is exercised end-to-end by the consumers that
    // install the allocator; here we only check the counter is monotonic.
    #[test]
    fn counter_is_monotonic() {
        let a = super::allocations();
        let b = super::allocations();
        assert!(b >= a);
        let a = super::thread_allocations();
        let b = super::thread_allocations();
        assert!(b >= a);
    }
}
