//! A speaker blob whose row, candidate or `sent` count is more than the
//! bytes after it can hold is refused, and what its decode asks of the
//! allocator is bounded by those bytes, whatever the count says
//! (DESIGN.md §11). So is one whose AS path refers back to an index no
//! path has, or carries a tag that is neither "in full" nor "back".
//! Counted by this binary's own allocator, per thread and in requested
//! bytes, so the figure is the same on every run. The AS-path intern
//! table is the process's, and the thread that grows it pays: the first
//! path interned here costs under 1 KiB of table, charged to whichever
//! test runs first, and the bound holds with it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgp::{BgpSpeaker, ExportPolicy, Nlri, PeerConfig, PeerRel, RouteSourceKind};
use snapshot::{Dec, Enc, SnapError, Snapshot, SnapshotState};

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
/// allocator for no more than twice its length; returns why.
fn refused_within_bound(what: &str, input: &[u8]) -> SnapError {
    let peer = PeerConfig {
        router: 2,
        asn: 2,
        rel: PeerRel::Customer,
    };
    let mut sp = BgpSpeaker::new(1, 1, vec![peer], ExportPolicy::ProviderCustomer);
    let before = REQUESTED.get();
    let got = sp.restore_state(&mut Dec::new(input));
    let requested = REQUESTED.get() - before;
    assert!(
        requested <= 2 * input.len(),
        "{what}: {requested} B requested for {} B of input",
        input.len()
    );
    got.expect_err(what)
}

/// The row of `Nlri::Domain(7)`, up to its candidate count.
fn row(enc: &mut Enc) {
    enc.seq(1);
    Nlri::Domain(7).encode(enc);
}

/// A candidate from `peer` up to its path.
fn candidate(enc: &mut Enc, peer: u32) {
    enc.u32(peer);
    Some(RouteSourceKind::Customer).encode(enc);
}

/// The path `[2]` written in full: tag 0, then framed like a `Vec`.
fn path_in_full(enc: &mut Enc) {
    enc.u8(0);
    vec![2u32].encode(enc);
}

/// The rest of a candidate after its path: next hop, `local`, `ebgp`.
fn candidate_tail(enc: &mut Enc) {
    enc.u32(2);
    enc.bool(false);
    enc.bool(true);
}

/// Each count is tried at the bytes left after it (believable by
/// length alone, so only `Dec::reserve` bounds what it allocates), one
/// more, and `u64::MAX`.
#[test]
fn counts_past_the_input_are_refused_within_bound() {
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
        candidate(enc, 2);
        path_in_full(enc);
        candidate_tail(enc);
        Some(2u32).encode(enc);
    };
    let at = len_of(&told);
    for sent in counts(at) {
        let input = blob(|enc| {
            told(enc);
            enc.u64(sent as u64);
        });
        // A believable count reaches the first entry's `ebgp`: the fill.
        let got = refused_within_bound(&format!("{sent} sent entries"), &input);
        let why = if sent == LEN - at - 8 {
            "bool byte"
        } else {
            "sequence length exceeds input"
        };
        assert_eq!(got, SnapError::Invalid(why), "{sent} sent entries");
    }
}

/// Two candidates: the first writes its path in full, the second refers
/// back. An index not yet defined (the next one), one past the table
/// and `u32::MAX` are refused, as is a tag other than 0 or 1, without
/// allocating for what the index claims; index 0 reads the path back.
#[test]
fn hostile_path_references_are_refused_within_bound() {
    let two = |path: &dyn Fn(&mut Enc)| {
        blob(|enc| {
            row(enc);
            enc.seq(2);
            candidate(enc, 2);
            path_in_full(enc);
            candidate_tail(enc);
            candidate(enc, 3);
            path(enc);
        })
    };
    let back = |index: u32| {
        move |enc: &mut Enc| {
            enc.u8(1);
            enc.u32(index);
        }
    };
    for index in [1, 2, u32::MAX] {
        let got = refused_within_bound(&format!("index {index}"), &two(&back(index)));
        assert_eq!(got, SnapError::Invalid("interned slice index"), "{index}");
    }
    for tag in [2, 3, 0xA5, 0xFF] {
        let got = refused_within_bound(&format!("tag {tag}"), &two(&|enc| enc.u8(tag)));
        assert_eq!(got, SnapError::Invalid("interned slice tag"), "{tag}");
    }
    // The same blob with index 0 gets past both paths and is refused
    // only at the fill after the second candidate's next hop.
    let got = refused_within_bound("index 0", &two(&back(0)));
    assert_eq!(got, SnapError::Invalid("bool byte"));
}
