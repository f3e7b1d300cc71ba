//! Counting global allocator, owned by the harness binary.
//!
//! The crates under test are `#![forbid(unsafe_code)]` and know nothing
//! about this: the benchmark binary installs [`Counting`] as its
//! `#[global_allocator]`, and every span in [`crate::trace`] records
//! the difference of [`count`] across it. The counter is one relaxed
//! atomic add per allocation — it publishes no other data — and is
//! present in traced and untraced runs alike, so the two differ only by
//! the spans themselves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations (including reallocations) since process start. Stays 0
/// in binaries that did not install [`Counting`] (e.g. `cargo test`).
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The system allocator plus an allocation counter.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added behaviour is
// a relaxed counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
