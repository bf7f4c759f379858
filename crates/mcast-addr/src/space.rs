//! Free-space tracking over an address prefix.
//!
//! [`SpaceTracker`] records which sub-prefixes of a root prefix are known
//! to be in use (own claims plus claims heard from siblings) and answers
//! the questions the MASC claim algorithm (§4.3.3) needs:
//!
//! * what are the *maximal free* sub-prefixes, and which of them have the
//!   shortest mask length (the largest free blocks);
//! * given a desired size, what claim candidates exist (the *first*
//!   sub-prefix of the desired size within each largest free block);
//! * can an existing claim be doubled (is its buddy free)?
//!
//! Entries may overlap: while a claim is in its waiting period, two
//! siblings may both believe they hold the same range; the tracker
//! reflects knowledge, not ownership. Free space is the root minus the
//! union of all entries.
//!
//! # Representation
//!
//! [`FreeSpace`] maintains the maximal free decomposition
//! **incrementally**, as a sorted vector of disjoint maximal free blocks
//! (address order). Occupying a prefix carves the covering free block
//! into the buddy chain along the path (or, when it only overlaps space
//! in use, discards the free blocks it covers); releasing one re-frees
//! it minus the entries surviving inside it and buddy-coalesces upward.
//! Queries — candidates, largest blocks, `is_free`, used size — are
//! binary searches or short scans. [`SpaceTracker`] adds the sorted
//! in-use entries; a caller that keeps them elsewhere (MASC's outer
//! space) holds the free layer alone.
//!
//! At the scale a MASC domain sees (tens to a few hundred sibling
//! claims), sorted vectors beat tree sets on both lookups and
//! mutations: every operation touches one or two cache lines around
//! the search point and never allocates, where `BTreeSet` churn on
//! the per-message insert path dominated the figure-2 profile. The
//! decomposition itself is *canonical* — a function of `(root, in-use
//! set)` only, independent of operation order (see
//! `decomposition_is_canonical`) — and the snapshot encoding of the
//! sorted vectors is byte-identical to the earlier tree-set layout.

use std::ops::Deref;

use crate::prefix::Prefix;

/// The free decomposition of a root prefix minus entries kept by the
/// caller; see module docs.
#[derive(Debug, Clone)]
pub struct FreeSpace {
    root: Prefix,
    /// Disjoint maximal free blocks, sorted (= address order).
    free: Vec<Prefix>,
    /// Total addresses in `free` (kept so `used_size` is O(1)).
    free_size: u64,
}

impl FreeSpace {
    /// An entirely free root.
    pub fn new(root: Prefix) -> Self {
        let mut s = FreeSpace {
            root,
            free: Vec::new(),
            free_size: 0,
        };
        s.add_free(root);
        s
    }

    /// The root prefix this space covers.
    pub fn root(&self) -> Prefix {
        self.root
    }

    /// Adds `p` to the free set, coalescing with its buddy upward as
    /// far as possible (classic buddy-allocator merge).
    fn add_free(&mut self, p: Prefix) {
        // First find how far the merge reaches (cheap binary probes),
        // then mutate the vector once.
        let mut top = p;
        while let (Some(buddy), Some(parent)) = (top.buddy(), top.parent()) {
            if !self.root.covers(&parent) || self.free.binary_search(&buddy).is_err() {
                break;
            }
            top = parent;
        }
        self.free_size += p.size();
        if top.len() == p.len() {
            let at = self.free.binary_search(&p).unwrap_err();
            self.free.insert(at, p);
            return;
        }
        // Coalesced: the buddies merged away are exactly the free
        // blocks inside `top` (their union plus `p` is `top`), a
        // contiguous run in sort order; replace it with one splice.
        let start = self.free.partition_point(|b| *b < top);
        let last = top.last().0;
        let count = self.free[start..]
            .iter()
            .take_while(|b| b.base_u32() <= last)
            .count();
        debug_assert_eq!(count as u8, p.len() - top.len());
        self.free.splice(start..start + count, std::iter::once(top));
    }

    /// The free block covering `p` (free blocks are disjoint, so there
    /// is at most one).
    fn free_block_covering(&self, p: &Prefix) -> Option<Prefix> {
        // A covering block sorts <= p under (base, len) order, and no
        // other free block can sit between them (disjointness), so the
        // predecessor-or-equal is the only candidate.
        let at = self.free.partition_point(|b| b <= p);
        self.free[..at].last().filter(|b| b.covers(p)).copied()
    }

    /// Marks `p`, inside the root, in use. Space already in use stays
    /// so.
    pub fn occupy(&mut self, p: Prefix) {
        debug_assert!(self.root.covers(&p), "{p} outside {}", self.root);
        let Some(blk) = self.free_block_covering(&p) else {
            // `p` overlaps space in use; any free blocks inside it
            // disappear (no block covers it, and prefixes cannot
            // partially overlap).
            let last = p.last().0;
            let start = self.free.partition_point(|b| *b < p);
            let end = start
                + self.free[start..]
                    .iter()
                    .take_while(|b| b.base_u32() <= last)
                    .count();
            for v in self.free.drain(start..end) {
                self.free_size -= v.size();
            }
            return;
        };
        // `p` was entirely free: carve it out of `blk`, freeing the
        // buddies along the path from `blk` down to `p`. None of those
        // buddies can coalesce (each one's buddy is on the carve path),
        // and together they fill the gap `blk` leaves in sort order, so
        // one splice replaces the block with them.
        let mut buddies = [p; 32];
        let mut n = 0;
        let mut cur = p;
        while cur.len() > blk.len() {
            buddies[n] = cur.buddy().expect("len > 0 on path");
            n += 1;
            cur = cur.parent().expect("len > 0 on path");
        }
        let buddies = &mut buddies[..n];
        buddies.sort_unstable();
        self.free_size -= p.size();
        let at = self
            .free
            .binary_search(&blk)
            .expect("covering block is free");
        self.free.splice(at..=at, buddies.iter().copied());
    }

    /// Frees `p` minus the entries that survive inside it (`inside`, in
    /// any order). The caller has checked that no surviving entry
    /// covers `p`.
    pub fn release(&mut self, p: &Prefix, inside: &[Prefix]) {
        if inside.is_empty() {
            // Nothing survives inside `p` (the common leaf case): the
            // whole block frees without the recursive decomposition.
            self.add_free(*p);
            return;
        }
        let mut freed = Vec::new();
        collect_free(*p, inside, &mut freed);
        for f in freed {
            self.add_free(f);
        }
    }

    /// Is the whole of `p` free (within the root, overlapping no entry)?
    pub fn is_free(&self, p: &Prefix) -> bool {
        self.root.covers(p) && self.free_block_covering(p).is_some()
    }

    /// Maximal free sub-prefixes of the root, in address order. The
    /// union of the result plus the union of entries equals the root,
    /// and no two results are mergeable into a larger free prefix.
    pub fn free_prefixes(&self) -> Vec<Prefix> {
        self.free_blocks().to_vec()
    }

    /// [`FreeSpace::free_prefixes`], borrowed.
    pub fn free_blocks(&self) -> &[Prefix] {
        // Disjoint blocks have distinct bases, so sort order (base,
        // len) is address order.
        &self.free
    }

    /// The shortest mask length among free blocks (the size class of
    /// the largest free blocks), if any space is free. A scan: a
    /// domain's free set is a dozen or so blocks.
    pub fn shortest_free_len(&self) -> Option<u8> {
        self.free.iter().map(|p| p.len()).min()
    }

    /// The free blocks of exactly the given mask length, address order.
    pub fn free_of_len(&self, len: u8) -> impl Iterator<Item = &Prefix> {
        self.free.iter().filter(move |p| p.len() == len)
    }

    /// The maximal free prefixes with the shortest mask length (i.e. the
    /// largest free blocks), in address order.
    pub fn largest_free(&self) -> Vec<Prefix> {
        match self.shortest_free_len() {
            Some(len) => self.free_of_len(len).copied().collect(),
            None => Vec::new(),
        }
    }

    /// Claim candidates for a desired mask length, per §4.3.3: for each
    /// largest free block that can hold a `/want_len`, the *first*
    /// sub-prefix of that size. Empty when no free block is big enough.
    pub fn claim_candidates(&self, want_len: u8) -> Vec<Prefix> {
        // The largest blocks share one mask length, so either every one
        // can hold a /want_len or none can; checking the class first
        // makes the (common) empty answer allocation-free.
        match self.shortest_free_len() {
            Some(len) if len <= want_len => self
                .free_of_len(len)
                .filter_map(|blk| blk.first_subprefix(want_len))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// If `p` can be doubled (its buddy is entirely free and the parent
    /// stays within the root), returns the doubled (parent) prefix.
    pub fn expansion_of(&self, p: &Prefix) -> Option<Prefix> {
        let buddy = p.buddy()?;
        let parent = p.parent()?;
        if !self.root.covers(&parent) {
            return None;
        }
        self.is_free(&buddy).then_some(parent)
    }

    /// Total number of addresses covered by the union of entries.
    /// Overlapping entries are not double-counted.
    pub fn used_size(&self) -> u64 {
        self.root.size() - self.free_size
    }

    /// Encodes this space as the [`SpaceTracker`] holding `in_use`
    /// (sorted, no duplicates) encodes: root, entries, and the
    /// maximal-free decomposition verbatim.
    pub fn encode_tracker(
        &self,
        in_use: impl Iterator<Item = Prefix> + Clone,
        enc: &mut snapshot::Enc,
    ) {
        use snapshot::Snapshot as _;
        self.root.encode(enc);
        enc.seq(in_use.clone().count());
        in_use.for_each(|p| p.encode(enc));
        self.free.encode(enc);
    }
}

/// Maximal free sub-prefixes of `node` minus the union of `in_use`.
fn collect_free(node: Prefix, in_use: &[Prefix], out: &mut Vec<Prefix>) {
    if in_use.is_empty() {
        out.push(node);
        return;
    }
    // Any entry covering this node means nothing here is free.
    if in_use.iter().any(|u| u.covers(&node)) {
        return;
    }
    let Some((l, r)) = node.split() else {
        return; // /32 overlapped by an entry
    };
    let lv: Vec<Prefix> = in_use.iter().filter(|u| u.overlaps(&l)).copied().collect();
    let rv: Vec<Prefix> = in_use.iter().filter(|u| u.overlaps(&r)).copied().collect();
    collect_free(l, &lv, out);
    collect_free(r, &rv, out);
}

/// Tracks in-use sub-prefixes of a root prefix: a [`FreeSpace`], which
/// it dereferences to for every query, plus the entries; see module
/// docs.
#[derive(Debug, Clone)]
pub struct SpaceTracker {
    space: FreeSpace,
    /// Recorded entries, sorted ascending, no duplicates.
    in_use: Vec<Prefix>,
}

impl Deref for SpaceTracker {
    type Target = FreeSpace;
    fn deref(&self) -> &FreeSpace {
        &self.space
    }
}

impl SpaceTracker {
    /// Creates an empty tracker over `root`.
    pub fn new(root: Prefix) -> Self {
        SpaceTracker {
            space: FreeSpace::new(root),
            in_use: Vec::new(),
        }
    }

    /// Records `p` as in use. Returns `false` (and records nothing) if
    /// `p` is not within the root or was already recorded.
    pub fn insert(&mut self, p: Prefix) -> bool {
        if !self.root().covers(&p) {
            return false;
        }
        let Err(at) = self.in_use.binary_search(&p) else {
            return false;
        };
        self.in_use.insert(at, p);
        self.space.occupy(p);
        true
    }

    /// Forgets `p`. Returns whether it was present.
    pub fn remove(&mut self, p: &Prefix) -> bool {
        let Ok(at) = self.in_use.binary_search(p) else {
            return false;
        };
        self.in_use.remove(at);
        // Covered by a surviving broader entry? Then nothing frees.
        let mut anc = *p;
        while anc.len() > self.root().len() {
            anc = anc.parent().expect("len > root len");
            if self.in_use.binary_search(&anc).is_ok() {
                return true;
            }
        }
        // Newly free space = `p` minus the surviving entries inside it,
        // which sort right after where `p` was.
        let last = p.last().0;
        let inside = self.in_use[at..]
            .iter()
            .take_while(|q| q.base_u32() <= last)
            .count();
        self.space.release(p, &self.in_use[at..at + inside]);
        true
    }

    /// All recorded in-use prefixes, in address order.
    pub fn in_use(&self) -> impl Iterator<Item = &Prefix> {
        self.in_use.iter()
    }

    /// Number of recorded in-use prefixes.
    pub fn count(&self) -> usize {
        self.in_use.len()
    }

    /// Removes every entry covered by `covering` and returns them.
    pub fn drain_covered_by(&mut self, covering: &Prefix) -> Vec<Prefix> {
        let last = covering.last().0;
        let start = self.in_use.partition_point(|q| q < covering);
        let mut victims: Vec<Prefix> = self.in_use[start..]
            .iter()
            .take_while(|q| q.base_u32() <= last)
            .copied()
            .collect();
        // An entry covering `covering` from above is not drained, but a
        // shorter entry at the same base within it is; the scan from
        // `covering` already excludes broader same-base entries (they
        // sort before it).
        victims.retain(|v| covering.covers(v));
        for v in &victims {
            self.remove(v);
        }
        victims
    }
}

impl snapshot::Snapshot for SpaceTracker {
    /// Root, entries, and the maximal-free decomposition verbatim; the
    /// free-size counter is recomputed on decode (derived state). The
    /// sorted vectors serialize byte-identically to the tree sets
    /// earlier revisions stored.
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { space, in_use } = self;
        space.encode_tracker(in_use.iter().copied(), enc);
    }

    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let root = Prefix::decode(dec)?;
        let in_use: Vec<Prefix> = snapshot::Snapshot::decode(dec)?;
        let free: Vec<Prefix> = snapshot::Snapshot::decode(dec)?;
        if in_use.windows(2).any(|w| w[0] >= w[1]) {
            return Err(snapshot::SnapError::Invalid("in-use entries out of order"));
        }
        if free.windows(2).any(|w| w[0] >= w[1]) {
            return Err(snapshot::SnapError::Invalid("free blocks out of order"));
        }
        if !free.iter().all(|f| root.covers(f)) {
            return Err(snapshot::SnapError::Invalid("free block outside root"));
        }
        let free_size = free.iter().map(|f| f.size()).sum();
        let space = FreeSpace {
            root,
            free,
            free_size,
        };
        Ok(SpaceTracker { space, in_use })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn empty_tracker_is_all_free() {
        let t = SpaceTracker::new(p("224.0.0.0/16"));
        assert_eq!(t.free_prefixes(), vec![p("224.0.0.0/16")]);
        assert_eq!(t.largest_free(), vec![p("224.0.0.0/16")]);
        assert_eq!(t.used_size(), 0);
    }

    #[test]
    fn insert_rejects_outside_root() {
        let mut t = SpaceTracker::new(p("224.0.0.0/16"));
        assert!(!t.insert(p("225.0.0.0/24")));
        assert!(t.insert(p("224.0.1.0/24")));
        assert!(!t.insert(p("224.0.1.0/24"))); // duplicate
    }

    #[test]
    fn paper_free_space_example() {
        // §4.3.3 worked example, claims 224.0.1/24 and 239/8 from 224/4:
        // the largest free blocks are 228/6 and 232/6.
        let mut t = SpaceTracker::new(Prefix::MULTICAST);
        t.insert(p("224.0.1.0/24"));
        t.insert(p("239.0.0.0/8"));
        assert_eq!(t.largest_free(), vec![p("228.0.0.0/6"), p("232.0.0.0/6")]);
        // A 1024-address (/22) claim has exactly the two candidates the
        // paper names.
        assert_eq!(
            t.claim_candidates(22),
            vec![p("228.0.0.0/22"), p("232.0.0.0/22")]
        );
    }

    #[test]
    fn free_prefixes_partition_the_root() {
        let mut t = SpaceTracker::new(p("224.0.0.0/8"));
        for s in [
            "224.1.0.0/16",
            "224.2.0.0/15",
            "224.128.0.0/9",
            "224.0.0.0/24",
        ] {
            assert!(t.insert(p(s)));
        }
        let free = t.free_prefixes();
        let used: u64 = [
            p("224.1.0.0/16"),
            p("224.2.0.0/15"),
            p("224.128.0.0/9"),
            p("224.0.0.0/24"),
        ]
        .iter()
        .map(|q| q.size())
        .sum();
        let free_total: u64 = free.iter().map(|q| q.size()).sum();
        assert_eq!(free_total + used, p("224.0.0.0/8").size());
        assert_eq!(t.used_size(), used);
        // Disjointness of free blocks from entries and from each other.
        for (i, a) in free.iter().enumerate() {
            for b in free.iter().skip(i + 1) {
                assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
            for u in t.in_use() {
                assert!(!a.overlaps(u), "{a} overlaps in-use {u}");
            }
        }
    }

    #[test]
    fn overlapping_entries_not_double_counted() {
        let mut t = SpaceTracker::new(p("224.0.0.0/8"));
        t.insert(p("224.0.0.0/16"));
        t.insert(p("224.0.0.0/24")); // inside the /16
        assert_eq!(t.used_size(), p("224.0.0.0/16").size());
    }

    #[test]
    fn overlapping_entry_removal_keeps_space_used() {
        let mut t = SpaceTracker::new(p("224.0.0.0/8"));
        t.insert(p("224.0.0.0/16"));
        t.insert(p("224.0.0.0/24"));
        // Removing the nested /24 frees nothing (the /16 still covers
        // it); removing the /16 then frees everything but the /24.
        assert!(t.remove(&p("224.0.0.0/24")));
        assert_eq!(t.used_size(), p("224.0.0.0/16").size());
        t.insert(p("224.0.0.0/24"));
        assert!(t.remove(&p("224.0.0.0/16")));
        assert_eq!(t.used_size(), p("224.0.0.0/24").size());
        assert!(!t.is_free(&p("224.0.0.0/24")));
        assert!(t.is_free(&p("224.0.1.0/24")));
    }

    #[test]
    fn remove_coalesces_buddies() {
        let mut t = SpaceTracker::new(p("224.0.0.0/16"));
        t.insert(p("224.0.0.0/24"));
        t.insert(p("224.0.1.0/24"));
        assert_eq!(t.largest_free(), vec![p("224.0.128.0/17")]);
        t.remove(&p("224.0.0.0/24"));
        // /24 frees but cannot merge past its used buddy.
        assert!(t.free_prefixes().contains(&p("224.0.0.0/24")));
        t.remove(&p("224.0.1.0/24"));
        // Both halves free: everything coalesces back to the root.
        assert_eq!(t.free_prefixes(), vec![p("224.0.0.0/16")]);
        assert_eq!(t.used_size(), 0);
    }

    #[test]
    fn size_class_index_tracks_shortest() {
        let mut t = SpaceTracker::new(p("224.0.0.0/8"));
        assert_eq!(t.shortest_free_len(), Some(8));
        t.insert(p("224.0.0.0/10"));
        assert_eq!(t.shortest_free_len(), Some(9));
        assert_eq!(t.free_of_len(9).count(), 1);
        assert_eq!(t.free_of_len(10).count(), 1);
        assert_eq!(t.free_of_len(11).count(), 0);
    }

    #[test]
    fn expansion_requires_free_buddy_within_root() {
        let mut t = SpaceTracker::new(p("224.0.0.0/16"));
        t.insert(p("224.0.0.0/24"));
        // Buddy 224.0.1/24 free -> can double to /23.
        assert_eq!(t.expansion_of(&p("224.0.0.0/24")), Some(p("224.0.0.0/23")));
        t.insert(p("224.0.1.0/24"));
        assert_eq!(t.expansion_of(&p("224.0.0.0/24")), None);
        // Whole root cannot expand beyond the root.
        let t2 = SpaceTracker::new(p("224.0.0.0/16"));
        assert_eq!(t2.expansion_of(&p("224.0.0.0/16")), None);
    }

    #[test]
    fn claim_candidates_when_blocks_too_small() {
        let mut t = SpaceTracker::new(p("224.0.0.0/24"));
        t.insert(p("224.0.0.0/25"));
        // Largest free block is a /25; a /24 claim cannot fit.
        assert!(t.claim_candidates(24).is_empty());
        assert_eq!(t.claim_candidates(25), vec![p("224.0.0.128/25")]);
    }

    #[test]
    fn drain_covered_by() {
        let mut t = SpaceTracker::new(p("224.0.0.0/8"));
        t.insert(p("224.1.0.0/24"));
        t.insert(p("224.1.1.0/24"));
        t.insert(p("224.2.0.0/24"));
        let drained = t.drain_covered_by(&p("224.1.0.0/16"));
        assert_eq!(drained, vec![p("224.1.0.0/24"), p("224.1.1.0/24")]);
        assert_eq!(t.count(), 1);
        // The drained space is free again, the survivor's is not.
        assert!(t.is_free(&p("224.1.0.0/16")));
        assert!(!t.is_free(&p("224.2.0.0/24")));
    }

    /// The maximal-free decomposition must be *canonical*: a function
    /// of `(root, in-use set)` alone, independent of the insert/remove
    /// order that produced it. This is what lets a decomposition be
    /// rebuilt from any claim history (e.g. on snapshot resume) with
    /// byte-identical results.
    #[test]
    fn decomposition_is_canonical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let root = p("224.0.0.0/8");
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = SpaceTracker::new(root);
            let mut live: Vec<Prefix> = Vec::new();
            for _ in 0..200 {
                if live.is_empty() || rng.gen_bool(0.6) {
                    let len = rng.gen_range(10..=24u8);
                    let step = root.size() >> (len - root.len());
                    let off = rng.gen_range(0..(1u64 << (len - root.len())));
                    let base = root.base_u32() + (off * step) as u32;
                    let q = Prefix::new(base, len).unwrap();
                    if t.insert(q) {
                        live.push(q);
                    }
                } else {
                    let i = rng.gen_range(0..live.len());
                    let q = live.swap_remove(i);
                    assert!(t.remove(&q));
                }
            }
            // Rebuild from the final set, inserting in a different
            // (sorted) order than the random history above.
            let mut fresh = SpaceTracker::new(root);
            let mut sorted = live.clone();
            sorted.sort();
            for q in &sorted {
                fresh.insert(*q);
            }
            assert_eq!(
                t.free_prefixes(),
                fresh.free_prefixes(),
                "seed {seed}: decomposition depends on operation order"
            );
            let enc = |tr: &SpaceTracker| {
                use snapshot::Snapshot as _;
                let mut e = snapshot::Enc::with_header(0);
                tr.encode(&mut e);
                e.finish()
            };
            assert_eq!(enc(&t), enc(&fresh), "seed {seed}: snapshot bytes differ");
        }
    }

    #[test]
    fn full_root_has_no_free_space() {
        let mut t = SpaceTracker::new(p("224.0.0.0/30"));
        t.insert(p("224.0.0.0/31"));
        t.insert(p("224.0.0.2/31"));
        assert!(t.free_prefixes().is_empty());
        assert!(t.largest_free().is_empty());
        assert_eq!(t.used_size(), 4);
    }
}
