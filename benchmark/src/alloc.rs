//! Counting allocator for the traced run.
//!
//! Installed as the benchmark binary's `#[global_allocator]`; while
//! disabled (the plain run, and the untraced repetitions of a traced
//! run) it adds one relaxed load to each call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Relaxed throughout: these are statistics that publish no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

/// The allocator type; see the module docs.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the returned
// memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            FREED.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            FREED.fetch_add(layout.size() as u64, Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter readings since the process started counting.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeapCounts {
    /// Allocation calls (`alloc` + `realloc`).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Bytes returned.
    pub freed: u64,
}

impl HeapCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: HeapCounts) -> HeapCounts {
        HeapCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
        }
    }
}

/// Turns counting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Current counter readings.
pub fn counts() -> HeapCounts {
    HeapCounts {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        freed: FREED.load(Relaxed),
    }
}
