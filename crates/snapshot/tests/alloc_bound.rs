//! A hostile length cannot allocate unbounded memory (DESIGN.md §11):
//! what a decode asks of the allocator is bounded by the bytes it was
//! given, whatever count they state. Counted by this binary's own
//! allocator, per thread and in requested bytes, so the figure is the
//! same on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use snapshot::{Dec, Enc, SnapError, Snapshot};

thread_local! {
    /// Bytes this thread has asked for, returned or not.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // A thread that is tearing down has no counter left; nothing
    // measured runs there.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Decoding `input` as a `T` runs out of input having asked the
/// allocator for no more than twice its length.
fn refused_within_bound<T: Snapshot + std::fmt::Debug>(input: &[u8]) {
    let before = REQUESTED.get();
    let got = T::decode(&mut Dec::new(input));
    let requested = REQUESTED.get() - before;
    assert!(matches!(got, Err(SnapError::Truncated { .. })), "{got:?}");
    assert!(
        requested <= 2 * input.len(),
        "{}: {requested} B requested for {} B of input",
        std::any::type_name::<T>(),
        input.len()
    );
}

/// 4 KiB whose count field says 4 000 elements of `[u64; 4]` — 32 B each
/// in memory and on the wire, so 128 000 B if the count were believed.
#[test]
fn a_stated_count_reserves_no_more_than_the_input_justifies() {
    let mut enc = Enc::new();
    enc.seq(4000);
    let mut input = enc.finish();
    input.resize(4096, 0xA5);
    refused_within_bound::<Vec<[u64; 4]>>(&input);
    refused_within_bound::<VecDeque<[u64; 4]>>(&input);
}
