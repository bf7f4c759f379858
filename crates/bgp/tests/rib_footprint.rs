//! Footprint guard for the speaker's route table: the bytes a speaker
//! keeps live per (peer, NLRI) pair, counted by this binary's own
//! allocator, so the density the `bgp_converge` benchmark measures in
//! megabytes is also held by the test suite.
//!
//! The counter is per thread and counts requested bytes, so the figure
//! is the same on every run and every allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgp::{
    AsPath, BgpEvent, BgpMsg, BgpSpeaker, ExportPolicy, Nlri, PeerConfig, PeerRel, Route,
    RouteSourceKind, RouterId,
};
use mcast_addr::Prefix;

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

const PEERS: [RouterId; 4] = [2, 3, 4, 5];
const NLRIS: u32 = 600;

/// Four external peers each advertise the same 600 NLRIs (300 group
/// ranges, 300 domains) to one speaker under the open policy: every
/// route is heard from every peer and the winner re-advertised to the
/// three peers it did not come from.
#[test]
fn speaker_holds_at_most_88_bytes_per_peer_and_nlri() {
    // The handful of AS paths in play, heard and re-advertised, interned
    // before measuring: the intern table is the process's, and whichever
    // thread grows it pays.
    let paths: Vec<AsPath> = PEERS.iter().map(|p| AsPath::new(&[p * 100, 7])).collect();
    for p in PEERS {
        AsPath::new(&[100, p * 100, 7]);
    }
    let before = LIVE.with(Cell::get);

    let peers = PEERS.iter().map(|&router| PeerConfig {
        router,
        asn: router * 100,
        rel: PeerRel::Peer,
    });
    let mut sp = BgpSpeaker::new(1, 100, peers.collect(), ExportPolicy::Open);
    let mut updates = 0;
    for n in 0..NLRIS {
        let nlri = match n % 2 {
            0 => Nlri::Group(Prefix::new(0xE000_0000 + (n << 8), 24).expect("aligned /24")),
            _ => Nlri::Domain(1000 + n),
        };
        for (from, path) in PEERS.iter().zip(&paths) {
            let route = Route {
                nlri,
                as_path: *path,
                next_hop: *from,
                local: false,
                ebgp: true,
            };
            let kind = RouteSourceKind::Peer;
            let out = sp.handle(BgpEvent::FromPeer {
                from: *from,
                msg: BgpMsg::Update { route, kind },
            });
            updates += out
                .iter()
                .filter(|m| matches!(m.msg, BgpMsg::Update { .. }))
                .count();
        }
    }
    let live = LIVE.with(Cell::get) - before;

    // The table holds what the scenario says: 2 400 candidates, 600
    // winners, each told to the other three peers.
    assert_eq!(sp.rib().loc_rib().count(), NLRIS as usize);
    assert_eq!(sp.rib().grib_size(), NLRIS as usize / 2);
    assert_eq!(updates, NLRIS as usize * 3);

    let pairs = NLRIS as isize * PEERS.len() as isize;
    let per_pair = live / pairs;
    println!("{live} live bytes, {per_pair} per (peer, NLRI)");
    assert!(
        per_pair <= 88,
        "{per_pair} live bytes per (peer, NLRI): the table got fatter (was 80 when AS paths \
         became 4-byte ids, 108 when one NLRI-keyed table replaced the five maps, 286 before)"
    );
}
