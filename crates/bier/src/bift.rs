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

use crate::bitstring::{BitString, SubDomain};
use snapshot::{Dec, Enc, SnapError, Snapshot};
use topology::{DomainGraph, DomainId};

/// One forwarding entry: a neighbor and the mask of destination bits
/// (within one set) routed via it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiftEntry {
    /// Neighbor the packet copy is sent to.
    pub neighbor: DomainId,
    /// Union of destination bits (in this entry's set) whose shortest
    /// path from this router exits via `neighbor`.
    pub fbm: BitString,
}

impl Snapshot for BiftEntry {
    fn encode(&self, enc: &mut Enc) {
        let Self { neighbor, fbm } = self;
        enc.usize(neighbor.0);
        fbm.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let neighbor = DomainId(dec.usize()?);
        let fbm = BitString::decode(dec)?;
        Ok(BiftEntry { neighbor, fbm })
    }
}

/// The BIFT of one router: per set, the F-BM entries keyed by neighbor.
///
/// Entries are kept in `(set, neighbor)` order so iteration — and thus
/// forwarding copy order, link-copy accounting, and snapshots — is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bift {
    /// Router this table belongs to.
    pub at: DomainId,
    /// `sets[si]` = F-BM entries for set `si`, sorted by neighbor id.
    sets: Vec<Vec<BiftEntry>>,
}

impl Bift {
    /// Builds the BIFT at router `at` from unicast first hops.
    ///
    /// A destination bit for domain `d` maps to the first hop of the
    /// shortest path `at → d`; all bits sharing a first hop fold into
    /// one F-BM. Unreachable domains (and `at` itself — local delivery
    /// needs no entry) get no bit anywhere.
    pub fn build(g: &DomainGraph, sub: &SubDomain, at: DomainId) -> Self {
        let first = topology::bfs_first_hops(g, at);
        let mut sets: Vec<Vec<BiftEntry>> = vec![Vec::new(); sub.sets()];
        for d in g.domains() {
            let Some(hop) = first[d.0] else { continue };
            let (si, pos) = sub.position(sub.bfr_of(d));
            let entries = &mut sets[si.0 as usize];
            match entries.iter_mut().find(|e| e.neighbor == hop) {
                Some(e) => e.fbm.set(pos),
                None => {
                    let mut fbm = BitString::new(sub.bsl());
                    fbm.set(pos);
                    entries.push(BiftEntry { neighbor: hop, fbm });
                }
            }
        }
        for entries in &mut sets {
            entries.sort_by_key(|e| e.neighbor.0);
        }
        Bift { at, sets }
    }

    /// F-BM entries for one set, sorted by neighbor.
    pub fn entries(&self, si: u32) -> &[BiftEntry] {
        static EMPTY: &[BiftEntry] = &[];
        self.sets.get(si as usize).map_or(EMPTY, |v| v.as_slice())
    }

    /// Number of sets this table partitions into.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Total (set, neighbor) entries — the per-router forwarding state
    /// the fig4 state-size column counts. Independent of group count.
    pub fn entry_count(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

impl Snapshot for Bift {
    fn encode(&self, enc: &mut Enc) {
        let Self { at, sets } = self;
        enc.usize(at.0);
        sets.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let at = DomainId(dec.usize()?);
        let sets: Vec<Vec<BiftEntry>> = Snapshot::decode(dec)?;
        Ok(Bift { at, sets })
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
        let entries = bift.entries(0);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].neighbor, a);
        assert_eq!(entries[0].fbm.ones().collect::<Vec<_>>(), vec![a.0]);
        assert_eq!(entries[1].neighbor, c);
        let mut via_c: Vec<usize> = entries[1].fbm.ones().collect();
        via_c.sort_unstable();
        assert_eq!(via_c, vec![c.0, d.0]);
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
        let entries = bift.entries(0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].neighbor, b);
        assert_eq!(entries[0].fbm.ones().collect::<Vec<_>>(), vec![b.0]);
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
            for e in bift.entries(si as u32) {
                for pos in e.fbm.ones() {
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
    fn snapshot_roundtrip() {
        let (g, [_a, b, ..]) = line();
        let sub = SubDomain::new(4, 256);
        let bift = Bift::build(&g, &sub, b);
        let mut e = Enc::new();
        bift.encode(&mut e);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(Bift::decode(&mut d).unwrap(), bift);
        d.finish().unwrap();
    }
}
