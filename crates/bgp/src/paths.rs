//! The process-wide AS-path intern table behind [`AsPath`](crate::AsPath).
//!
//! Each distinct path is stored once, for the life of the process, and
//! named by a 4-byte id: its index in the table, plus one, in the low
//! [`INDEX_BITS`], and its length, saturating at [`LEN_CAP`], in the
//! bits above. Equal contents get one id on every thread, so ids compare
//! and hash in place of the paths they name.
//!
//! Reading takes no lock. The table is a fixed list of segments, each
//! twice the size of the one before and made when the first index in it
//! is given out; an entry is set once, before its id exists. Interning
//! takes one lock, over the map from contents to id and the block the
//! next path's words are copied into.

use std::cell::{Cell, RefCell};
use std::num::NonZeroU32;
use std::sync::{Mutex, OnceLock};

use crate::route::Asn;

/// Bits of an id that number its path; the bits above hold its length.
const INDEX_BITS: u32 = 27;
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;
/// The longest length an id holds exactly; a longer path's id holds this.
const LEN_CAP: usize = (1 << (32 - INDEX_BITS)) - 1;

/// Paths in the first segment, `1 << FIRST_BITS`: small, since whichever
/// thread interns the first path pays for it.
const FIRST_BITS: u32 = 4;
/// Segments enough for every index an id can hold.
const SEGMENTS: usize = (INDEX_BITS - FIRST_BITS + 1) as usize;

type Segment = Box<[OnceLock<&'static [Asn]>]>;

static TABLE: [OnceLock<Segment>; SEGMENTS] = [const { OnceLock::new() }; SEGMENTS];

/// The segment that holds `index`, that segment's length, and where in
/// it the index lies.
fn place(index: usize) -> (usize, usize, usize) {
    let at = index + (1 << FIRST_BITS);
    let len: usize = 1 << at.ilog2();
    ((len >> FIRST_BITS).ilog2() as usize, len, at - len)
}

/// The entry of the path at `index`, if its segment has been made.
fn entry(index: usize) -> Option<&'static OnceLock<&'static [Asn]>> {
    let (segment, _, at) = place(index);
    TABLE.get(segment)?.get()?.get(at)
}

/// The words of the path `id` names.
#[inline]
pub(crate) fn words(id: NonZeroU32) -> &'static [Asn] {
    let index = (id.get() & INDEX_MASK) as usize - 1;
    entry(index)
        .and_then(OnceLock::get)
        .expect("an id is handed out only once its entry is set")
}

/// The length of the path `id` names, if the id holds it exactly.
#[inline]
pub(crate) fn len_of(id: NonZeroU32) -> Option<usize> {
    let len = (id.get() >> INDEX_BITS) as usize;
    (len < LEN_CAP).then_some(len)
}

/// Words per block of path storage: the first block is small, and each
/// later one doubles up to a size the allocator still serves from its
/// heap rather than a mapping of its own.
const BLOCK_WORDS: (usize, usize) = (64, 16 << 10);

/// Each path's id, by its words.
#[expect(
    clippy::disallowed_types,
    reason = "the map is only probed by key, never iterated"
)]
type Ids = std::collections::HashMap<&'static [Asn], NonZeroU32, PathHash>;

/// What interning a new path writes, under [`INTERNER`]'s lock.
struct Interner {
    ids: Ids,
    /// The rest of the block the last path was copied into.
    spare: &'static mut [Asn],
    /// Words in the next block.
    block: usize,
}

static INTERNER: Mutex<Interner> = Mutex::new(Interner {
    ids: Ids::with_hasher(PathHash::new()),
    spare: &mut [],
    block: BLOCK_WORDS.0,
});

/// The id of `path`, interning it if no equal path has been.
///
/// # Panics
/// When the table already holds `2^27 - 1` distinct paths.
pub(crate) fn intern(path: &[Asn]) -> NonZeroU32 {
    let mut t = INTERNER
        .lock()
        .expect("no thread panics while it interns a path");
    if let Some(&id) = t.ids.get(path) {
        return id;
    }
    let index = t.ids.len();
    let id = u32::try_from(index + 1)
        .ok()
        .filter(|n| *n <= INDEX_MASK)
        .map(|n| n | ((path.len().min(LEN_CAP) as u32) << INDEX_BITS))
        .and_then(NonZeroU32::new)
        .expect("the AS-path intern table holds at most 2^27 - 1 paths");
    let words = t.store(path);
    let (segment, len, at) = place(index);
    let segment = TABLE[segment].get_or_init(|| (0..len).map(|_| OnceLock::new()).collect());
    let set = segment[at].set(words);
    assert!(set.is_ok(), "index {index} is given out once");
    t.ids.insert(words, id);
    id
}

impl Interner {
    /// A copy of `path` that lives as long as the process.
    fn store(&mut self, path: &[Asn]) -> &'static [Asn] {
        if self.spare.len() < path.len() {
            let len = self.block.max(path.len());
            self.block = (self.block * 2).min(BLOCK_WORDS.1);
            self.spare = Box::leak(vec![0; len].into_boxed_slice());
        }
        let (words, spare) = std::mem::take(&mut self.spare).split_at_mut(path.len());
        words.copy_from_slice(path);
        self.spare = spare;
        words
    }
}

/// Entries in [`PREPENDS`], a power of two.
const PREPEND_SLOTS: usize = 1 << 10;

thread_local! {
    /// Prepends made on this thread lately, as (ASN, id of the path, id
    /// of the result), by a hash of the first two: a hit is answered with
    /// no lock and no read of either path. A zero result is an empty slot.
    static PREPENDS: [Cell<(Asn, u32, u32)>; PREPEND_SLOTS] =
        const { [const { Cell::new((0, 0, 0)) }; PREPEND_SLOTS] };
    /// The path being prepended, so that only one not yet interned
    /// allocates.
    static BUILDING: RefCell<Vec<Asn>> = const { RefCell::new(Vec::new()) };
}

/// The id of `[asn]` followed by the path `id` names.
pub(crate) fn prepend(asn: Asn, id: NonZeroU32) -> NonZeroU32 {
    let key = ((u64::from(asn) << 32) | u64::from(id.get())).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let slot = (key >> (64 - PREPEND_SLOTS.ilog2())) as usize;
    PREPENDS.with(|memo| {
        let cell = &memo[slot];
        let (held_asn, held_id, got) = cell.get();
        if let Some(got) = NonZeroU32::new(got).filter(|_| (held_asn, held_id) == (asn, id.get())) {
            return got;
        }
        let got = BUILDING.with_borrow_mut(|path| {
            path.clear();
            path.push(asn);
            path.extend_from_slice(words(id));
            intern(path)
        });
        cell.set((asn, id.get(), got.get()));
        got
    })
}

/// The map's hasher: a fixed multiply-rotate over the path's words. The
/// map is only probed by key, and its paths come from the simulation or
/// from configured BGP neighbours, so `RandomState`'s per-process keys
/// and collision-flooding resistance buy it nothing but SipHash's cost.
type PathHash = std::hash::BuildHasherDefault<WordHasher>;

#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u32::from_ne_bytes(word).into());
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply leaves its best bits high; the map indexes by the
    /// low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_double_from_the_first() {
        assert_eq!(place(0), (0, 16, 0));
        assert_eq!(place(15), (0, 16, 15));
        assert_eq!(place(16), (1, 32, 0));
        assert_eq!(place(47), (1, 32, 31));
        assert_eq!(place(48), (2, 64, 0));
        let last = INDEX_MASK as usize - 1;
        assert!(place(last).0 < SEGMENTS, "the last index has a segment");
    }

    #[test]
    fn an_id_holds_the_length_up_to_its_cap() {
        for len in [0, 1, LEN_CAP - 1, LEN_CAP, LEN_CAP + 9] {
            let path: Vec<Asn> = (0..len as u32).map(|a| 700_000 + a).collect();
            let id = intern(&path);
            assert_eq!(len_of(id), (len < LEN_CAP).then_some(len), "{len}");
            assert_eq!(words(id), &path[..]);
            assert_eq!(intern(&path), id);
        }
    }
}
