//! Allocation guard for export: a selection change costs the same
//! allocator calls whether the speaker has 2 external peers or 16, bar
//! the growth steps of the message vector it returns.
//!
//! One update that changes a selection is counted at a speaker with 2
//! and with 16 external peers, every path involved interned beforehand.
//! With the export worked out once per change, the counts are 2 and 4:
//! one growth of the row's block, where the old selection becomes a
//! loser, and the message vector's first block, then that vector's two
//! growth steps. They were 3 and 5 while a row kept its losers and its
//! Adj-RIB-Out in two lists. When each peer's advertisement was built
//! separately they were 5 and 21: one path vector per external peer to
//! prepend into, and a second message vector per change.
//!
//! The counter is per thread, so tests running beside this one do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgp::{
    AsPath, BgpEvent, BgpMsg, BgpSpeaker, ExportPolicy, Nlri, OutMsg, PeerConfig, PeerRel, Route,
    RouteSourceKind, RouterId,
};
use mcast_addr::Prefix;

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

fn update(from: RouterId, nlri: Nlri, path: &[u32]) -> BgpEvent {
    let route = Route {
        nlri,
        as_path: AsPath::new(path),
        next_hop: from,
        local: false,
        ebgp: true,
    };
    let kind = RouteSourceKind::Peer;
    let msg = BgpMsg::Update { route, kind };
    BgpEvent::FromPeer { from, msg }
}

/// Allocator calls for one selection change at a speaker with
/// `externals` external peers: router 2 advertises a group route to
/// everyone, then router 3 advertises a shorter path to it.
fn calls_for_one_change(externals: u32) -> u64 {
    let peers = (2..2 + externals).map(|router| PeerConfig {
        router,
        asn: router * 100,
        rel: PeerRel::Peer,
    });
    let mut sp = BgpSpeaker::new(1, 100, peers.collect(), ExportPolicy::Open);
    let nlri = Nlri::Group(Prefix::new(0xE000_8000, 24).expect("aligned /24"));
    for path in [&[100, 300, 7][..], &[300, 7]] {
        AsPath::new(path);
    }
    let warm = sp.handle(update(2, nlri, &[200, 7, 8]));
    assert_eq!(warm.len(), externals as usize - 1);

    let before = calls();
    let out = sp.handle(update(3, nlri, &[300, 7]));
    let used = calls() - before;
    // Router 3 hears a withdraw; everyone else, router 2 included, the
    // new route.
    assert_eq!(out.len(), externals as usize);
    used
}

/// Allocator calls to push `n` messages onto a new vector.
fn growth(n: usize) -> u64 {
    let msg = OutMsg {
        to: 0,
        msg: BgpMsg::Withdraw(Nlri::Domain(0)),
    };
    let before = calls();
    let mut v = Vec::new();
    for _ in 0..n {
        v.push(msg.clone());
    }
    calls() - before
}

#[test]
fn export_allocates_nothing_per_peer() {
    let (few, many) = (calls_for_one_change(2), calls_for_one_change(16));
    let allowed = growth(16) - growth(2);
    println!("allocator calls per change: {few} at 2 external peers, {many} at 16");
    assert!(
        many <= few + allowed,
        "{many} allocator calls at 16 external peers against {few} at 2: more than the \
         {allowed} growth steps of the message vector, so export allocates per peer"
    );
}
