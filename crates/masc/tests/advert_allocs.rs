//! A parent's re-advertisement costs a child what changed, not what it
//! knows (DESIGN.md §12, "Re-advertisement as a diff"): one more range
//! is one more tracker, and a dropped range takes its own claims with
//! it and no others. Allocator calls are counted by this binary's own
//! allocator, per thread, so the figure is the same on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use masc::msg::{DomainAsn, MascMsg};
use masc::{MascConfig, MascNode};
use mcast_addr::{Prefix, Secs};

thread_local! {
    /// `alloc` and `realloc` calls this thread has made.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread that is tearing down has no counter left; nothing
    // measured runs there.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const PARENT: DomainAsn = 1;
const CHILD: DomainAsn = 100;
const EXPIRY: Secs = 1_000_000;

/// The parent's `i`-th range, `(224 + i).0.0.0/8`.
fn range(i: u32) -> (Prefix, Secs, bool) {
    (
        Prefix::new(0xE000_0000 + (i << 24), 8).unwrap(),
        EXPIRY,
        true,
    )
}

/// The `j`-th sibling claim: a `/24` in range `j % 9`, so ranges 0–5
/// hold seven claims each and ranges 6–8 hold six.
fn sibling_claim(j: u32) -> (DomainAsn, Prefix) {
    let prefix = Prefix::new(range(j % 9).0.base_u32() + ((j / 9) << 8), 24).unwrap();
    (CHILD + 1 + j % 10, prefix)
}

/// A child that has heard nine disjoint parent ranges and 60 sibling
/// claims inside them.
fn child() -> MascNode {
    let siblings = (CHILD + 1..=CHILD + 10).collect();
    let mut n = MascNode::new(
        CHILD,
        Some(PARENT),
        vec![],
        siblings,
        MascConfig::fast_test(),
        7,
    );
    let ranges = (0..9).map(range).collect();
    n.on_message(0, PARENT, MascMsg::ParentAdvertise { ranges });
    for j in 0..60 {
        let (claimer, prefix) = sibling_claim(j);
        let msg = MascMsg::Claim {
            claimer,
            prefix,
            expires: EXPIRY,
            at: 0,
        };
        n.on_message(1, PARENT, msg);
    }
    assert_eq!(n.known_sibling_claims(), 60);
    n
}

#[test]
fn a_tenth_range_costs_one_tracker_not_ten() {
    let mut n = child();
    let msg = MascMsg::ParentAdvertise {
        ranges: (0..10).map(range).collect(),
    };
    let before = CALLS.get();
    let actions = n.on_message(2, PARENT, msg);
    let calls = CALLS.get() - before;
    assert!(actions.is_empty());
    assert_eq!(n.known_sibling_claims(), 60);
    assert!(
        calls <= 8,
        "{calls} allocator calls to learn of one new range"
    );
}

#[test]
fn a_dropped_range_takes_its_own_claims_and_no_others() {
    let mut n = child();
    let ranges = (1..9).map(range).collect();
    n.on_message(2, PARENT, MascMsg::ParentAdvertise { ranges });
    assert_eq!(n.known_sibling_claims(), 53);
    // Releasing a claim that is still known takes one off the count;
    // releasing one that left with range 0 finds nothing.
    let mut known = 53;
    for j in 0..60 {
        let (claimer, prefix) = sibling_claim(j);
        n.on_message(3, PARENT, MascMsg::Release { claimer, prefix });
        if j % 9 != 0 {
            known -= 1;
        }
        assert_eq!(n.known_sibling_claims(), known, "after releasing {prefix}");
    }
    assert_eq!(known, 0);
}
