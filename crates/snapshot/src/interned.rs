//! The encoder's record of the interned slices a blob holds, so that
//! each is written in full once and referred to by index after (see
//! [`Enc::interned`](crate::Enc::interned)).
//!
//! Two open-addressed tables index one list of slices: one keyed by a
//! slice's address, which an interned slice shares with every equal one
//! made on its thread, and one keyed by its contents, for an equal slice
//! interned on another thread. A hit by address reads a slot and the
//! slice's packed address, both in compact arrays that stay in cache; the
//! slice written last is checked before either table, since a slice is
//! often written twice in a row. Indices follow the order in which slices are first written;
//! where a slot lies never reaches the bytes. The hashes are fixed, like
//! the AS-path intern table's: the slices come from the simulation or
//! from configured BGP neighbours, and a decoder hashes nothing.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// A free slot; slot `i + 1` names the slice at index `i`.
const FREE: u32 = 0;

/// Where a slice lies, its address and length in one word: exact while
/// the address fits in 48 bits and the length in 16, as every slice an
/// AS path holds does. Any other slice is found by contents only.
fn addr_of(words: &[u32]) -> Option<u64> {
    let at = words.as_ptr() as u64;
    let len = u64::try_from(words.len()).ok()?;
    (at >> 48 == 0 && len >> 16 == 0).then_some(at | len << 48)
}

/// What [`Written::addrs`] holds for a slice [`addr_of`] cannot pack,
/// and no packed address is: the address of a `u32` is even.
const NO_ADDR: u64 = u64::MAX;

/// The slices written so far in one blob, by the index each was given.
#[derive(Debug, Default)]
pub(crate) struct Written {
    slices: Chunks<&'static [u32]>,
    /// Each slice's packed address, by index.
    addrs: Chunks<u64>,
    /// The address of the slice written last, and its slot.
    last: (u64, u32),
    /// Slots keyed by address.
    by_addr: Chunks<u32>,
    /// Slots keyed by contents, each with its slice's contents hash, so
    /// that a probe reads a slice only when the hashes agree and growth
    /// reads none.
    by_words: Chunks<(u32, u32)>,
}

impl Written {
    /// The index of the slice written with `words`' contents, if there
    /// is one. If not, `words` takes the next index, while `u32` has one
    /// left to give.
    #[inline]
    pub(crate) fn find_or_add(&mut self, words: &'static [u32]) -> Option<u32> {
        let addr = addr_of(words);
        if let Some(addr) = addr {
            let (last, slot) = self.last;
            if last == addr && slot != FREE {
                return Some(slot - 1);
            }
            let slot = self.find_addr(addr);
            if slot != FREE {
                self.last = (addr, slot);
                return Some(slot - 1);
            }
        }
        let hash = words_hash(words);
        let slot = self.find_words(hash, words);
        if slot != FREE {
            return Some(slot - 1);
        }
        self.add(words, addr, hash);
        None
    }

    /// The slot keyed by `addr`, or [`FREE`].
    #[inline]
    fn find_addr(&self, addr: u64) -> u32 {
        let mask = self.by_addr.len().wrapping_sub(1);
        let mut at = hash(addr) as usize;
        while let Some(slot) = self.by_addr.get(at & mask) {
            if slot == FREE || self.addrs.get(slot as usize - 1) == Some(addr) {
                return slot;
            }
            at = at.wrapping_add(1);
        }
        FREE
    }

    /// The slot of a slice with `words`' contents, or [`FREE`].
    fn find_words(&self, hash: u32, words: &[u32]) -> u32 {
        let mask = self.by_words.len().wrapping_sub(1);
        let mut at = hash as usize;
        while let Some((held, slot)) = self.by_words.get(at & mask) {
            if slot == FREE {
                return FREE;
            }
            let same = || self.slices.get(slot as usize - 1) == Some(words);
            if held == hash && same() {
                return slot;
            }
            at = at.wrapping_add(1);
        }
        FREE
    }

    fn add(&mut self, words: &'static [u32], addr: Option<u64>, contents: u32) {
        let Ok(slot) = u32::try_from(self.slices.len() + 1) else {
            return;
        };
        // At most three slots in four are taken, so probes stay short
        // and always reach a free slot.
        if self.slices.len() * 4 >= self.by_words.len() * 3 {
            let len = (self.by_words.len() * 2).max(16);
            self.by_addr = Chunks::filled(len, FREE);
            let by_words = std::mem::replace(&mut self.by_words, Chunks::filled(len, (0, FREE)));
            for (i, addr) in self.addrs.iter().enumerate() {
                if addr != NO_ADDR {
                    let slot = i as u32 + 1;
                    put(&mut self.by_addr, hash(addr) as usize, slot, |s| *s == FREE);
                }
            }
            for entry in by_words.iter().filter(|e| e.1 != FREE) {
                put(&mut self.by_words, entry.0 as usize, entry, |e| e.1 == FREE);
            }
        }
        self.slices.push(words);
        self.addrs.push(addr.unwrap_or(NO_ADDR));
        if let Some(addr) = addr {
            put(&mut self.by_addr, hash(addr) as usize, slot, |s| *s == FREE);
            self.last = (addr, slot);
        }
        let entry = (contents, slot);
        put(&mut self.by_words, contents as usize, entry, |e| {
            e.1 == FREE
        });
    }
}

/// Puts `entry` in the first slot of `table` from `at` on that `free`
/// accepts.
fn put<T: Copy>(table: &mut Chunks<T>, mut at: usize, entry: T, free: impl Fn(&T) -> bool) {
    let mask = table.len().wrapping_sub(1);
    while let Some(slot) = table.get_mut(at & mask) {
        if free(slot) {
            *slot = entry;
            return;
        }
        at = at.wrapping_add(1);
    }
}

/// A list of `T` kept in buffers of at most 64 KiB, so that no buffer
/// is ever large enough for the allocator to map it on its own: freeing
/// such a mapping raises glibc's threshold for the next ones, and lists
/// of 1–2 MB then land on the main heap among the state being decoded.
/// As single buffers, the codec's lists cost `snap_cycle` 11–15 MB of
/// peak RSS over the parent's (EXPERIMENTS.md SNAP, "Format v5").
#[derive(Debug)]
pub(crate) struct Chunks<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy> Chunks<T> {
    /// Elements per full buffer: a power of two for every `T` used.
    const PER: usize = (64 << 10) / std::mem::size_of::<T>();

    /// `len` copies of `value`.
    fn filled(len: usize, value: T) -> Self {
        let full = std::iter::repeat_n(Self::PER, len / Self::PER);
        let sizes = full.chain(Some(len % Self::PER).filter(|n| *n > 0));
        Chunks {
            chunks: sizes.map(|n| vec![value; n]).collect(),
            len,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<T> {
        self.chunks.get(i / Self::PER)?.get(i % Self::PER).copied()
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.chunks.get_mut(i / Self::PER)?.get_mut(i % Self::PER)
    }

    /// Appends `value`. The first buffer grows as it fills, so a short
    /// list stays small; every later one is made full at once.
    pub(crate) fn push(&mut self, value: T) {
        if self.len.is_multiple_of(Self::PER) {
            let room = if self.len == 0 { 0 } else { Self::PER };
            self.chunks.push(Vec::with_capacity(room));
        }
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.push(value);
            self.len += 1;
        }
    }

    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.chunks.iter().flatten().copied()
    }
}

/// Multiplies in the odd constant of Fibonacci hashing; the best bits
/// end up high, and the tables index by the low ones.
#[inline]
fn hash(word: u64) -> u64 {
    word.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
}

/// A hash of the contents; the tables index by its low bits.
fn words_hash(words: &[u32]) -> u32 {
    let h = words.len() as u64;
    hash(words.iter().fold(h, |h, &w| hash(h ^ u64::from(w)))) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leak(words: &[u32]) -> &'static [u32] {
        Box::leak(words.into())
    }

    #[test]
    fn equal_contents_share_an_index_whatever_their_address() {
        let mut w = Written::default();
        let a = leak(&[1, 2, 3]);
        let a_again = leak(&[1, 2, 3]);
        let b = leak(&[1, 2]);
        let empty = leak(&[]);
        assert_eq!(w.find_or_add(a), None);
        assert_eq!(w.find_or_add(b), None);
        assert_eq!(w.find_or_add(&a[..2]), Some(1), "a prefix is its own slice");
        assert_eq!(w.find_or_add(a_again), Some(0));
        assert_eq!(w.find_or_add(a), Some(0));
        assert_eq!(w.find_or_add(empty), None);
        assert_eq!(w.find_or_add(&[]), Some(2));
    }

    #[test]
    fn indices_survive_growth() {
        let mut w = Written::default();
        let slices: Vec<&'static [u32]> = (0..1000).map(|i| leak(&[i, i / 7])).collect();
        for s in &slices {
            assert_eq!(w.find_or_add(s), None);
        }
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(w.find_or_add(s), Some(i as u32));
            assert_eq!(w.find_or_add(leak(s)), Some(i as u32));
        }
    }
}
