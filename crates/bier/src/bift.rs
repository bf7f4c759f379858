//! The Bit Index Forwarding Table (BIFT).
//!
//! One BIFT per router (domain). For each destination bit it stores the
//! neighbor the unicast shortest path exits through; from that, a
//! per-(set, neighbor) **forwarding bit mask** (F-BM) — the union of
//! all bits reached via that neighbor — drives forwarding: copy the
//! packet to each neighbor whose F-BM intersects the packet bitstring,
//! AND the copy's bitstring with the F-BM, clear those bits from the
//! original. Crucially the BIFT is a pure function of unicast routing
//! ([`topology::bfs_first_hops`]): it holds **zero per-group state**,
//! which is the whole point of the BIER column in the ablation.
//!
//! The table is flat: one word vector per router holding, set after
//! set, one row per `(set, neighbor)` entry — the neighbor's id in one
//! word, then the F-BM's words — so the forwarding loop reads a set's
//! entries as one contiguous slice (DESIGN.md §14).

use crate::bitstring::{self, SubDomain};
use topology::{DomainGraph, DomainId, NO_HOP};

/// One forwarding entry, borrowed from a [`Bift`] row: a neighbor and
/// the mask of destination bits (within one set) routed via it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiftEntry<'a> {
    /// Neighbor the packet copy is sent to.
    pub neighbor: DomainId,
    /// Union of destination bits (in this entry's set) whose shortest
    /// path from this router exits via `neighbor`, as little-endian
    /// words (bit `i` is word `i / 64`, bit `i % 64`).
    pub fbm: &'a [u64],
}

impl BiftEntry<'_> {
    /// Bit positions set in the F-BM, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        bitstring::ones(self.fbm)
    }
}

/// The BIFT of one router: per set, the F-BM entries keyed by neighbor.
///
/// Entries are kept in `(set, neighbor)` order so iteration — and thus
/// forwarding copy order and link-copy accounting — is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bift {
    /// Router this table belongs to.
    pub at: DomainId,
    /// Words per F-BM: the BSL over 64, rounded up.
    words: usize,
    /// Rows of set `si` are rows `starts[si]..starts[si + 1]`.
    starts: Vec<u32>,
    /// Row `r` is `rows[r·(words + 1)..(r + 1)·(words + 1)]`: the
    /// neighbor's id, then its F-BM. Rows run in (set, neighbor) order.
    rows: Vec<u64>,
}

/// A `(set, neighbor)` cell no destination bit maps to.
const NO_ROW: u32 = u32::MAX;

impl Bift {
    /// Builds the BIFT at router `at` from unicast first hops.
    ///
    /// A destination bit for domain `d` maps to the first hop of the
    /// shortest path `at → d`; all bits sharing a first hop fold into
    /// one F-BM. Unreachable domains (and `at` itself — local delivery
    /// needs no entry) get no bit anywhere. While it is built the table
    /// is indexed by `(set, neighbor)`, so each destination costs one
    /// lookup whatever `at`'s degree.
    pub fn build(g: &DomainGraph, sub: &SubDomain, at: DomainId) -> Self {
        let slots = topology::bfs_first_hop_slots(g, at);
        let out = g.neighbors(at);
        let degree = out.len();
        // rank[slot] = that neighbor's place in id order.
        let mut by_id: Vec<u32> = (0..degree as u32).collect();
        by_id.sort_by_key(|&s| out[s as usize].0 .0);
        let mut rank = vec![0u32; degree];
        for (r, &s) in by_id.iter().enumerate() {
            rank[s as usize] = r as u32;
        }
        let cell = |d: DomainId| {
            let slot = slots[d.0];
            (slot != NO_HOP).then(|| {
                let (si, pos) = sub.position(sub.bfr_of(d));
                (si.0 as usize * degree + rank[slot as usize] as usize, pos)
            })
        };

        // Which cells hold a bit, then their rows in (set, neighbor) order.
        let mut row_of = vec![NO_ROW; sub.sets() * degree];
        let mut count = 0;
        for (c, _) in g.domains().filter_map(cell) {
            if row_of[c] == NO_ROW {
                row_of[c] = 0;
                count += 1;
            }
        }
        let words = sub.bsl().div_ceil(64);
        let stride = words + 1;
        let mut rows = vec![0u64; count * stride];
        let mut starts = Vec::with_capacity(sub.sets() + 1);
        starts.push(0);
        let mut next = 0u32;
        for si in 0..sub.sets() {
            for (r, &slot) in by_id.iter().enumerate() {
                let row = &mut row_of[si * degree + r];
                if *row != NO_ROW {
                    *row = next;
                    rows[next as usize * stride] = out[slot as usize].0 .0 as u64;
                    next += 1;
                }
            }
            starts.push(next);
        }
        for (c, pos) in g.domains().filter_map(cell) {
            rows[row_of[c] as usize * stride + 1 + pos / 64] |= 1u64 << (pos % 64);
        }
        Bift {
            at,
            words,
            starts,
            rows,
        }
    }

    /// Set `si`'s rows, each the neighbor's id followed by its F-BM
    /// words, in neighbor order.
    pub(crate) fn rows(&self, si: u32) -> std::slice::ChunksExact<'_, u64> {
        let stride = self.words + 1;
        let span = match (
            self.starts.get(si as usize),
            self.starts.get(si as usize + 1),
        ) {
            (Some(&lo), Some(&hi)) => lo as usize * stride..hi as usize * stride,
            _ => 0..0,
        };
        self.rows[span].chunks_exact(stride)
    }

    /// F-BM entries for one set, sorted by neighbor.
    pub fn entries(&self, si: u32) -> impl Iterator<Item = BiftEntry<'_>> {
        self.rows(si).map(|row| BiftEntry {
            neighbor: DomainId(row[0] as usize),
            fbm: &row[1..],
        })
    }

    /// Number of sets this table partitions into.
    pub fn set_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total (set, neighbor) entries — the per-router forwarding state
    /// the fig4 state-size column counts. Independent of group count.
    pub fn entry_count(&self) -> usize {
        self.rows.len() / (self.words + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{internet_like, InternetSpec};

    /// Line topology a-b-c-d.
    fn line() -> (DomainGraph, [DomainId; 4]) {
        let mut g = DomainGraph::new();
        let a = g.add_domain("a");
        let b = g.add_domain("b");
        let c = g.add_domain("c");
        let d = g.add_domain("d");
        g.add_peering(a, b);
        g.add_peering(b, c);
        g.add_peering(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn line_folds_bits_into_one_fbm_per_direction() {
        let (g, [a, b, c, d]) = line();
        let sub = SubDomain::new(4, 256);
        let bift = Bift::build(&g, &sub, b);
        // From b: bit(a) via a; bits(c, d) via c → exactly 2 entries.
        let entries: Vec<BiftEntry<'_>> = bift.entries(0).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].neighbor, a);
        assert_eq!(entries[0].ones().collect::<Vec<_>>(), vec![a.0]);
        assert_eq!(entries[1].neighbor, c);
        assert_eq!(entries[1].ones().collect::<Vec<_>>(), vec![c.0, d.0]);
        assert_eq!(bift.entry_count(), 2);
    }

    #[test]
    fn no_entry_for_self_or_unreachable() {
        let mut g = DomainGraph::new();
        let a = g.add_domain("a");
        let b = g.add_domain("b");
        let _island = g.add_domain("island");
        g.add_peering(a, b);
        let sub = SubDomain::new(3, 256);
        let bift = Bift::build(&g, &sub, a);
        let entries: Vec<BiftEntry<'_>> = bift.entries(0).collect();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].neighbor, b);
        assert_eq!(entries[0].ones().collect::<Vec<_>>(), vec![b.0]);
        // The island's own table has a set and no entry.
        let island = Bift::build(&g, &sub, DomainId(2));
        assert_eq!((island.set_count(), island.entry_count()), (1, 0));
        assert_eq!(island.entries(0).count(), 0);
    }

    #[test]
    fn fbm_bits_are_disjoint_across_neighbors_and_total() {
        // On a real topology every reachable bit appears in exactly one
        // F-BM (unique first hop per destination).
        let g = internet_like(&InternetSpec {
            n: 200,
            backbones: 5,
            attach: 2,
            extra_peerings: 5,
            seed: 11,
        });
        let n = g.len();
        let sub = SubDomain::new(n, 64); // small BSL → multiple sets
        let at = DomainId(0);
        let bift = Bift::build(&g, &sub, at);
        assert_eq!(bift.set_count(), n.div_ceil(64));
        let mut seen = vec![false; n];
        for si in 0..bift.set_count() {
            let mut last = None;
            for e in bift.entries(si as u32) {
                assert!(last < Some(e.neighbor), "entries out of neighbor order");
                last = Some(e.neighbor);
                for pos in e.ones() {
                    let id = si * 64 + pos;
                    assert!(!seen[id], "bit {id} in two F-BMs");
                    seen[id] = true;
                }
            }
        }
        // Everything but `at` itself must be covered (graph is connected).
        for d in g.domains() {
            assert_eq!(seen[d.0], d != at, "coverage of {d:?}");
        }
    }

    #[test]
    fn rows_match_first_hops_at_every_router() {
        // The indexed build against the per-destination definition: the
        // bit of each domain sits in the F-BM of its first hop, in its
        // set, and nowhere else.
        let g = internet_like(&InternetSpec {
            n: 120,
            backbones: 4,
            attach: 2,
            extra_peerings: 6,
            seed: 3,
        });
        let sub = SubDomain::new(g.len(), 100); // partial last word
        for at in g.domains() {
            let bift = Bift::build(&g, &sub, at);
            let first = topology::bfs_first_hops(&g, at);
            let mut via = vec![None; g.len()];
            for si in 0..bift.set_count() {
                for e in bift.entries(si as u32) {
                    assert_eq!(e.fbm.len(), 2);
                    for pos in e.ones() {
                        via[si * 100 + pos] = Some(e.neighbor);
                    }
                }
            }
            assert_eq!(via, first, "BIFT at {at:?}");
        }
    }
}
