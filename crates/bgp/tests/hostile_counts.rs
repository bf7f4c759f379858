//! A speaker blob whose row, candidate or `sent` count is more than the
//! bytes after it can hold is refused, and what its decode asks of the
//! allocator is bounded by those bytes, whatever the count says
//! (DESIGN.md §11). Counted by this binary's own allocator, per thread
//! and in requested bytes, so the figure is the same on every run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgp::{BgpSpeaker, ExportPolicy, Nlri, PeerConfig, PeerRel, RouteSourceKind};
use snapshot::{Dec, Enc, Snapshot, SnapshotState};

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

/// Padding after the counts: as a candidate, an `Option` tag that is
/// neither; as a `sent` entry, a `bool` that is neither.
const FILL: u8 = 0xA5;
const LEN: usize = 4096;

/// A blob of `LEN` bytes: `head` writes up to and including the count
/// under test, then `FILL` to the end.
fn blob(head: impl Fn(&mut Enc)) -> Vec<u8> {
    let mut enc = Enc::new();
    head(&mut enc);
    let mut bytes = enc.finish();
    assert!(bytes.len() < LEN);
    bytes.resize(LEN, FILL);
    bytes
}

/// Restoring `input` onto a speaker is refused, having asked the
/// allocator for no more than twice its length.
fn refused_within_bound(what: &str, input: &[u8]) {
    let peer = PeerConfig {
        router: 2,
        asn: 2,
        rel: PeerRel::Customer,
    };
    let mut sp = BgpSpeaker::new(1, 1, vec![peer], ExportPolicy::ProviderCustomer);
    let before = REQUESTED.get();
    let got = sp.restore_state(&mut Dec::new(input));
    let requested = REQUESTED.get() - before;
    assert!(got.is_err(), "{what}: {got:?}");
    assert!(
        requested <= 2 * input.len(),
        "{what}: {requested} B requested for {} B of input",
        input.len()
    );
}

/// Each count is tried at the bytes left after it (believable by
/// length alone, so only `Dec::reserve` bounds what it allocates), one
/// more, and `u64::MAX`.
#[test]
fn counts_past_the_input_are_refused_within_bound() {
    let nlri = Nlri::Domain(7);
    let counts = |at: usize| [LEN - at - 8, LEN - at - 7, u64::MAX as usize];
    for rows in counts(0) {
        let input = blob(|enc| enc.u64(rows as u64));
        refused_within_bound(&format!("{rows} rows"), &input);
    }
    let len_of = |head: &dyn Fn(&mut Enc)| {
        let mut enc = Enc::new();
        head(&mut enc);
        enc.len()
    };
    let row = |enc: &mut Enc| {
        enc.seq(1);
        nlri.encode(enc);
    };
    for heard in counts(len_of(&row)) {
        let input = blob(|enc| {
            row(enc);
            enc.u64(heard as u64);
        });
        refused_within_bound(&format!("{heard} candidates"), &input);
    }
    // One candidate, selected, then the `sent` count.
    let told = |enc: &mut Enc| {
        row(enc);
        enc.seq(1);
        enc.u32(2);
        Some(RouteSourceKind::Customer).encode(enc);
        vec![2u32].encode(enc);
        enc.u32(2);
        enc.bool(false);
        enc.bool(true);
        Some(2u32).encode(enc);
    };
    for sent in counts(len_of(&told)) {
        let input = blob(|enc| {
            told(enc);
            enc.u64(sent as u64);
        });
        refused_within_bound(&format!("{sent} sent entries"), &input);
    }
}
