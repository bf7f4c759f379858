//! Footprint guard for what a child keeps of its siblings' claims: the
//! bytes a `MascNode` holds live after hearing its parent's ranges and
//! its siblings' claims, counted by this binary's own allocator. Each
//! sibling claim is held once, in a 20-byte record, and each range keeps
//! only its free blocks (DESIGN.md §12, "One index of claims").
//!
//! The counter is per thread and counts requested bytes, so the figure
//! is the same on every run and every allocator. Run with
//! `--nocapture` to see the bytes per structure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use masc::msg::{DomainAsn, MascMsg};
use masc::{MascConfig, MascNode};
use mcast_addr::{Prefix, Secs};

thread_local! {
    /// Bytes this thread has allocated and not yet returned.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn count(delta: isize) {
    // A thread that is tearing down has no counter left; nothing
    // measured runs there.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const PARENT: DomainAsn = 1;
const CHILD: DomainAsn = 100;
const EXPIRY: Secs = 1_000_000;
const RANGES: u32 = 10;
const SIBLING_CLAIMS: u32 = 100;

/// Live bytes the same scenario held on the layout this test guards
/// against — one `SpaceTracker` per range keeping its own copy of every
/// claim prefix, and 32-byte `KnownClaim`s in the outer space: 488 B of
/// node, 2 240 B of ranges, 5 136 B (51.4 B per claim) of claims.
const TRACKER_LAYOUT_BYTES: isize = 7_864;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// A child with ten disjoint parent ranges, `(224 + i).0.0.0/8`, hears
/// 100 sibling `/24` claims, ten to a range, each range's packed from
/// its start as first-fit claiming packs them.
#[test]
fn a_child_holds_sibling_claims_in_at_most_55_percent_of_the_tracker_layout() {
    let siblings: Vec<DomainAsn> = (CHILD + 1..=CHILD + 10).collect();
    let ranges: Vec<(Prefix, Secs, bool)> = (0..RANGES)
        .map(|i| {
            let root = Prefix::new(0xE000_0000 + (i << 24), 8).expect("aligned /8");
            (root, EXPIRY, true)
        })
        .collect();
    let claims: Vec<(DomainAsn, Prefix)> = (0..SIBLING_CLAIMS)
        .map(|j| {
            let base = 0xE000_0000 + ((j % RANGES) << 24) + ((j / RANGES) << 8);
            let prefix = Prefix::new(base, 24).expect("aligned /24");
            (siblings[j as usize % siblings.len()], prefix)
        })
        .collect();

    let start = live();
    let mut n = Box::new(MascNode::new(
        CHILD,
        Some(PARENT),
        vec![],
        siblings,
        MascConfig::fast_test(),
        7,
    ));
    let node = live() - start;
    n.on_message(0, PARENT, MascMsg::ParentAdvertise { ranges });
    let advertised = live() - start;
    for (claimer, prefix) in claims {
        let msg = MascMsg::Claim {
            claimer,
            prefix,
            expires: EXPIRY,
            at: 0,
        };
        n.on_message(1, PARENT, msg);
    }
    let held = live() - start;
    assert_eq!(n.known_sibling_claims(), SIBLING_CLAIMS as usize);

    let per_claim = (held - advertised) as f64 / f64::from(SIBLING_CLAIMS);
    println!("node, empty:                {node:>6} B");
    println!(
        "{RANGES} parent ranges:            {:>6} B",
        advertised - node
    );
    println!(
        "{SIBLING_CLAIMS} sibling claims:         {:>6} B ({per_claim:.1} B per claim)",
        held - advertised
    );
    println!(
        "total:                      {held:>6} B ({:.0} % of {TRACKER_LAYOUT_BYTES})",
        held as f64 * 100.0 / TRACKER_LAYOUT_BYTES as f64
    );
    assert!(
        held * 100 <= TRACKER_LAYOUT_BYTES * 55,
        "{held} live bytes, over 55 % of the tracker layout's {TRACKER_LAYOUT_BYTES}"
    );
}
