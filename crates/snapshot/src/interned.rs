//! The encoder's record of the interned values a blob holds, so that
//! each is written in full once and referred to by index after (see
//! [`Enc::interned`](crate::Enc::interned)).
//!
//! An interned value is named by an id that every equal value shares
//! for the life of the process, so one open-addressed table from id to
//! index is all the record there is: a hit reads one slot of a compact
//! array and nothing the value points to. Indices follow the order in
//! which values are first written; where a slot lies never reaches the
//! bytes. The hash is fixed: ids are handed out by the process itself,
//! and a decoder hashes nothing.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::num::NonZeroU32;

/// What a free slot holds where an id would be: no id is 0.
const FREE: u32 = 0;

/// The values written so far in one blob: (id, index) slots.
#[derive(Debug, Default)]
pub(crate) struct Written {
    slots: Chunks<(u32, u32)>,
    /// Values written, and so the next index.
    len: u32,
}

impl Written {
    /// The index of the value `id` names, if it has one. If not, the
    /// value takes the next index, while `u32` has one left to give.
    #[inline]
    pub(crate) fn find_or_add(&mut self, id: NonZeroU32) -> Option<u32> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = hash(id.get()) as usize;
        while let Some((held, index)) = self.slots.get(at & mask) {
            if held == id.get() {
                return Some(index);
            }
            if held == FREE {
                break;
            }
            at = at.wrapping_add(1);
        }
        self.add(id);
        None
    }

    fn add(&mut self, id: NonZeroU32) {
        if self.len == u32::MAX {
            return;
        }
        // At most three slots in four are taken, so probes stay short
        // and always reach a free slot.
        if self.len as usize * 4 >= self.slots.len() * 3 {
            let len = (self.slots.len() * 2).max(16);
            let old = std::mem::replace(&mut self.slots, Chunks::filled(len, (FREE, 0)));
            for slot in old.iter().filter(|s| s.0 != FREE) {
                self.put(slot);
            }
        }
        self.put((id.get(), self.len));
        self.len += 1;
    }

    /// Puts `slot` in the first free slot from its id's hash on.
    fn put(&mut self, slot: (u32, u32)) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = hash(slot.0) as usize;
        while let Some(free) = self.slots.get_mut(at & mask) {
            if free.0 == FREE {
                *free = slot;
                return;
            }
            at = at.wrapping_add(1);
        }
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
/// end up high, and the table indexes by the low ones.
#[inline]
fn hash(id: u32) -> u64 {
    u64::from(id)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> NonZeroU32 {
        NonZeroU32::new(n).unwrap()
    }

    #[test]
    fn an_id_keeps_the_index_it_was_first_given() {
        let mut w = Written::default();
        assert_eq!(w.find_or_add(id(7)), None);
        assert_eq!(w.find_or_add(id(3)), None);
        assert_eq!(w.find_or_add(id(7)), Some(0));
        assert_eq!(w.find_or_add(id(u32::MAX)), None);
        assert_eq!(w.find_or_add(id(3)), Some(1));
        assert_eq!(w.find_or_add(id(u32::MAX)), Some(2));
    }

    #[test]
    fn indices_survive_growth() {
        let mut w = Written::default();
        let ids: Vec<NonZeroU32> = (1..=100_000).map(|i| id((i * 37) | (1 << 30))).collect();
        for i in &ids {
            assert_eq!(w.find_or_add(*i), None);
        }
        for (n, i) in ids.iter().enumerate() {
            assert_eq!(w.find_or_add(*i), Some(n as u32));
        }
    }
}
