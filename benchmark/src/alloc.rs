//! A counting global allocator for the traced binary.
//!
//! Only `ctr-bench-traced` installs [`Counting`] as its
//! `#[global_allocator]`; the untraced `ctr-bench` keeps the system
//! allocator, so end-to-end numbers never pay for the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The system allocator plus two relaxed counters.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged, so `System`'s guarantees
// carry over; the counters are plain atomics and touch no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above
        // with this same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // Wrapping arithmetic on purpose: add the new size, drop the old.
        LIVE_BYTES.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Ordering::Relaxed,
        );
        // SAFETY: `ptr`/`layout` describe a live `System` block per the
        // caller's contract; `new_size` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Called first thing by the traced binary's `main`, so the library
/// knows the counters are live.
pub fn mark_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// True in the traced binary.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Allocations (and reallocations) by every thread of this process so
/// far; stays 0 in the untraced binary.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed (0 in the untraced
/// binary). Exact, unlike RSS, which the allocator's reuse of freed
/// pages hides.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
