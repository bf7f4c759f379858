//! Allocation guard for BIER forwarding: a `deliver_all` to every
//! domain of a 300-domain graph asks the allocator a number of times
//! bounded by the sets it touches, not by the copies it places.
//!
//! The send is measured once the thread's arena and queue have grown
//! (a second, identical send), at 5 sets (BSL 64) and 2 sets (BSL 256),
//! under 1:1 protection with one link of the tree down so that a copy
//! also takes a detour. It allocates once per send: the `reached`
//! vector, sized up front. When every queued copy owned a heap
//! bitstring and every entry tested built one, the same sends made
//! 1 355 and 877 calls for 453 and 342 link copies.
//!
//! The counter is per thread, so tests running beside this one do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bier::{Network, Protection, SubDomain};
use topology::{internet_like, DomainId, InternetSpec};

thread_local! {
    /// Allocations and reallocations this thread has asked for.
    static CALLS: Cell<u64> = const { Cell::new(0) };
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

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

#[test]
fn deliver_all_allocates_per_set_not_per_copy() {
    let g = internet_like(&InternetSpec {
        n: 300,
        backbones: 5,
        attach: 2,
        extra_peerings: 10,
        seed: 7,
    });
    let prot = Protection::build(&g);
    let all: Vec<DomainId> = g.domains().collect();
    let ingress = DomainId(17);
    for bsl in [64, 256] {
        let sub = SubDomain::new(g.len(), bsl);
        let mut net = Network::build(&g, &sub);
        // Take down the ingress's first protected adjacency.
        let (nb, _) = *g
            .neighbors(ingress)
            .iter()
            .find(|(nb, _)| prot.backup_path(ingress, *nb).is_some())
            .expect("a protected adjacency");
        net.set_link_down(ingress, nb);

        let warm = net.deliver_all(ingress, &all, Some(&prot));
        let before = calls();
        let got = net.deliver_all(ingress, &all, Some(&prot));
        let used = calls() - before;
        assert_eq!(got, warm);
        assert_eq!(got.reached.len(), all.len());
        let sets = sub.sets() as u64;
        println!(
            "BSL {bsl}: {sets} sets, {} link copies, {used} allocator calls",
            got.link_copies
        );
        assert!(
            used <= sets,
            "{used} allocator calls for {} link copies over {sets} sets: forwarding \
             allocates per copy",
            got.link_copies
        );
    }
}
