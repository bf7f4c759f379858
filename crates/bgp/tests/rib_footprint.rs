//! Footprint guard for the speaker's route table: the bytes a speaker
//! keeps live per (peer, NLRI) pair, and the heap blocks it keeps per
//! row, counted by this binary's own allocator, so the density the
//! `bgp_converge` benchmark measures in megabytes is also held by the
//! test suite.
//!
//! The counters are per thread and count requested bytes and blocks,
//! so the figures are the same on every run and every allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgp::{
    AsPath, BgpEvent, BgpMsg, BgpSpeaker, ExportPolicy, Nlri, PeerConfig, PeerRel, PrefixTrie,
    Route, RouteSourceKind, RouterId,
};
use mcast_addr::Prefix;

/// Blocks this large or larger are not counted as a row's: a node of
/// the table's B-tree holds eleven rows and their keys, and no other
/// block a row makes here comes near it.
const NODE: usize = 512;

thread_local! {
    /// Bytes this thread has allocated and not yet returned.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Blocks smaller than [`NODE`] this thread holds.
    static SMALL: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

/// Counts a block of `size` bytes coming (`n` = 1) or going (−1).
fn count(size: usize, n: isize) {
    // A thread that is tearing down has no counter left; nothing
    // measured runs there.
    let _ = LIVE.try_with(|live| live.set(live.get() + n * size as isize));
    if size < NODE {
        let _ = SMALL.try_with(|small| small.set(small.get() + n));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), -1);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), -1);
        count(new_size, 1);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NLRIS: u32 = 600;

/// The `n`th NLRI: even ones are group ranges, odd ones domains.
fn nlri(n: u32) -> Nlri {
    match n % 2 {
        0 => Nlri::Group(Prefix::new(0xE000_0000 + (n << 8), 24).expect("aligned /24")),
        _ => Nlri::Domain(1000 + n),
    }
}

/// What a speaker's table left live: bytes per (peer, NLRI), and heap
/// blocks besides the B-tree's nodes and the G-RIB trie's.
struct Footprint {
    per_pair: isize,
    blocks: isize,
}

/// External peers `peers` each advertise the same 600 NLRIs (300 group
/// ranges, 300 domains) to one speaker under the open policy: every
/// route is heard from every peer and the winner re-advertised to the
/// peers it did not come from.
fn footprint(peers: &[RouterId]) -> Footprint {
    // The handful of AS paths in play, heard and re-advertised, interned
    // before measuring: the intern table is the process's, and whichever
    // thread grows it pays. Prepending them also makes this thread's
    // buffer for building a path.
    let paths: Vec<AsPath> = peers.iter().map(|p| AsPath::new(&[p * 100, 7])).collect();
    for path in &paths {
        path.prepend(100);
    }
    // The trie's nodes: one boxed node per prefix bit, as many as a
    // trie of the same prefixes has.
    let small = SMALL.with(Cell::get);
    let trie: PrefixTrie<()> =
        (0..NLRIS)
            .filter_map(|n| nlri(n).as_group())
            .fold(PrefixTrie::new(), |mut trie, p| {
                trie.insert(p, ());
                trie
            });
    let trie_blocks = SMALL.with(Cell::get) - small;
    drop(trie);
    let before = LIVE.with(Cell::get);

    let configs = peers.iter().map(|&router| PeerConfig {
        router,
        asn: router * 100,
        rel: PeerRel::Peer,
    });
    let mut sp = BgpSpeaker::new(1, 100, configs.collect(), ExportPolicy::Open);
    let small = SMALL.with(Cell::get);
    let mut updates = 0;
    for n in 0..NLRIS {
        for (from, path) in peers.iter().zip(&paths) {
            let route = Route {
                nlri: nlri(n),
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
    let blocks = SMALL.with(Cell::get) - small - trie_blocks;

    // The table holds what the scenario says: a candidate per (peer,
    // NLRI), one winner per NLRI, each told to the other peers.
    assert_eq!(sp.rib().loc_rib().count(), NLRIS as usize);
    assert_eq!(sp.rib().grib_size(), NLRIS as usize / 2);
    assert_eq!(updates, NLRIS as usize * (peers.len() - 1));

    let per_pair = live / (NLRIS as isize * peers.len() as isize);
    println!(
        "{} peers: {live} live bytes, {per_pair} per (peer, NLRI); {blocks} blocks for {NLRIS} rows",
        peers.len()
    );
    Footprint { per_pair, blocks }
}

/// Four peers: three losing candidates and three peers told per row.
#[test]
fn speaker_holds_at_most_56_bytes_per_peer_and_nlri() {
    let Footprint { per_pair, blocks } = footprint(&[2, 3, 4, 5]);
    assert!(
        per_pair <= 56,
        "{per_pair} live bytes per (peer, NLRI): the table got fatter (was 54 when a row became \
         one block of per-peer slots, 80 when AS paths became 4-byte ids, 108 when one \
         NLRI-keyed table replaced the five maps, 286 before)"
    );
    assert!(
        blocks <= NLRIS as isize,
        "{blocks} heap blocks for {NLRIS} rows besides the B-tree's and the trie's nodes: \
         a row holds at most one"
    );
}

/// Two peers, as half the benchmark graph's domains have: one loser
/// and one peer told per row.
#[test]
fn two_peer_speaker_holds_at_most_96_bytes_per_peer_and_nlri() {
    let Footprint { per_pair, blocks } = footprint(&[2, 3]);
    assert!(
        per_pair <= 96,
        "{per_pair} live bytes per (peer, NLRI) at two peers: the table got fatter (was 88 \
         when this case was added, 117 with a list per kind of entry)"
    );
    assert!(
        blocks <= NLRIS as isize,
        "{blocks} heap blocks for {NLRIS} rows besides the B-tree's and the trie's nodes: \
         a row holds at most one"
    );
}
