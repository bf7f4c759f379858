//! BGMP forwarding state: (*,G) entries with parent/child targets,
//! source-specific (S,G) entries, and prefix-aggregated entries.
//!
//! §5 of the paper: a multicast-group forwarding entry consists of "a
//! parent target and a list of child targets"; a target is either a
//! BGMP peer or the MIGP component of the border router. Data received
//! from any target is forwarded to all other targets (bidirectional
//! forwarding). §7 adds (*,G-prefix) aggregation: entries may be keyed
//! by a group *prefix* wherever the target lists coincide — this table
//! is keyed by [`Prefix`], with exact groups stored as `/32`, and
//! looked up longest-prefix-first.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use bgp::{Asn, RouterId};
use mcast_addr::{McastAddr, Prefix};

use crate::slab::Slab;

/// A forwarding target: a BGMP peer router or the local MIGP
/// component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Target {
    /// Another border router (internal or external BGMP peer).
    Peer(RouterId),
    /// The border router's own MIGP component (the domain's interior).
    Migp,
}

/// A multicast source: a host within a domain. Routing toward a source
/// uses the M-RIB route toward its domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId {
    /// The source's domain.
    pub domain: Asn,
    /// Host identity within the domain.
    pub host: u32,
}

/// A shared-tree forwarding entry: (*,G) or (*,G-prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupEntry {
    /// The target toward the group's root domain (`None` only in the
    /// root domain itself, where the MIGP component is stored as the
    /// parent — see §5.2 "B1 creates a (*,G) entry with its MIGP
    /// component as the parent target").
    pub parent: Option<Target>,
    /// When the parent is the MIGP component because the best exit
    /// router is an internal BGMP peer (footnote 9), the exit router
    /// the join travelled through — needed to tear the leg down.
    pub via_exit: Option<RouterId>,
    /// Targets that joined through us.
    pub children: BTreeSet<Target>,
}

impl GroupEntry {
    /// All targets (parent and children), deduplicated — in the root
    /// domain the MIGP component can be both parent and child (§5.2).
    pub fn targets(&self) -> impl Iterator<Item = Target> + '_ {
        self.parent
            .into_iter()
            .filter(|p| !self.children.contains(p))
            .chain(self.children.iter().copied())
    }

    /// Bidirectional forwarding rule: every target except the one the
    /// packet came from.
    pub fn forward_targets(&self, from: Option<Target>) -> Vec<Target> {
        self.targets().filter(|t| Some(*t) != from).collect()
    }
}

/// A source-specific entry, (S,G).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SgEntry {
    /// Toward the source (or the MIGP component in the source's own
    /// domain). `None` when the entry was created on the shared tree
    /// by copying a (*,G) entry (§5.3: the (*,G) parent keeps playing
    /// that role).
    pub parent: Option<Target>,
    /// Exit router of an internal parent leg (as in
    /// [`GroupEntry::via_exit`]).
    pub via_exit: Option<RouterId>,
    /// Targets receiving S's data through us.
    pub children: BTreeSet<Target>,
}

impl SgEntry {
    /// All targets, deduplicated.
    pub fn targets(&self) -> impl Iterator<Item = Target> + '_ {
        self.parent
            .into_iter()
            .filter(|p| !self.children.contains(p))
            .chain(self.children.iter().copied())
    }

    /// Forwarding rule for packets from S.
    pub fn forward_targets(&self, from: Option<Target>) -> Vec<Target> {
        self.targets().filter(|t| Some(*t) != from).collect()
    }
}

/// The BGMP forwarding table of one border router.
///
/// Entries live in slab arenas ([`Slab`]); the ordered maps hold slab
/// keys. Join/prune churn recycles entry slots, and the maps
/// rebalance over 4-byte values instead of whole entries. Snapshot
/// encoding is unchanged: sorted `(key, entry)` pairs, byte-identical
/// to the former inline-entry layout.
#[derive(Debug, Clone, Default)]
pub struct ForwardingTable {
    star: BTreeMap<Prefix, u32>,
    sg: BTreeMap<(SourceId, McastAddr), u32>,
    star_slab: Slab<GroupEntry>,
    sg_slab: Slab<SgEntry>,
    /// `agg_lens[l]` counts the aggregated (*,G-prefix) entries of
    /// mask length `l < 32` in `star`. [`ForwardingTable::star_lookup`]
    /// falls back past the exact `/32` probe only to lengths counted
    /// here, so a table of exact groups answers in one keyed probe.
    agg_lens: [u32; 32],
}

impl ForwardingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The exact-group key for `g`.
    fn key(g: McastAddr) -> Prefix {
        Prefix::containing(g, 32).expect("/32 always valid")
    }

    /// Longest-prefix-match lookup of the shared-tree entry for `g`:
    /// the exact `/32` first, then one keyed probe per aggregated mask
    /// length present in the table, longest first.
    pub fn star_lookup(&self, g: McastAddr) -> Option<(&Prefix, &GroupEntry)> {
        let probe = |len: u8| {
            let key = Prefix::containing(g, len).expect("len <= 32");
            self.star.get_key_value(&key)
        };
        probe(32)
            .or_else(|| {
                (0..32u8)
                    .rev()
                    .filter(|l| self.agg_lens[*l as usize] > 0)
                    .find_map(probe)
            })
            .map(|(p, i)| (p, self.star_slab.get(*i)))
    }

    /// The pre-index lookup — a linear scan for the longest covering
    /// prefix — kept as the reference the property tests compare
    /// [`ForwardingTable::star_lookup`] against.
    #[cfg(test)]
    fn star_lookup_linear(&self, g: McastAddr) -> Option<(&Prefix, &GroupEntry)> {
        self.star
            .iter()
            .filter(|(p, _)| p.contains(g))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, i)| (p, self.star_slab.get(*i)))
    }

    /// The exact (*,G) entries of the groups inside `range`, ascending
    /// by group. Aggregated (*,G-prefix) entries are skipped.
    pub fn star_exact_in(
        &self,
        range: Prefix,
    ) -> impl Iterator<Item = (McastAddr, &GroupEntry)> + '_ {
        self.star
            .range(Self::key(range.base())..=Self::key(range.last()))
            .filter(|(p, _)| p.len() == 32)
            .map(|(p, i)| (p.base(), self.star_slab.get(*i)))
    }

    /// The exact (*,G) entry for `g`, if present.
    pub fn star_exact(&self, g: McastAddr) -> Option<&GroupEntry> {
        let i = *self.star.get(&Self::key(g))?;
        Some(self.star_slab.get(i))
    }

    /// Mutable exact (*,G) entry.
    pub fn star_exact_mut(&mut self, g: McastAddr) -> Option<&mut GroupEntry> {
        let i = *self.star.get(&Self::key(g))?;
        Some(self.star_slab.get_mut(i))
    }

    /// Inserts/replaces the exact (*,G) entry.
    pub fn star_insert(&mut self, g: McastAddr, e: GroupEntry) {
        self.star_insert_prefix(Self::key(g), e);
    }

    /// Inserts a prefix-aggregated (*,G-prefix) entry (§7).
    pub fn star_insert_prefix(&mut self, p: Prefix, e: GroupEntry) {
        if Self::map_insert(&mut self.star, &mut self.star_slab, p, e) && p.len() < 32 {
            self.agg_lens[p.len() as usize] += 1;
        }
    }

    /// Removes the exact (*,G) entry, returning it.
    pub fn star_remove(&mut self, g: McastAddr) -> Option<GroupEntry> {
        self.star_remove_prefix(Self::key(g))
    }

    /// Removes the entry keyed by exactly `p`.
    fn star_remove_prefix(&mut self, p: Prefix) -> Option<GroupEntry> {
        let i = self.star.remove(&p)?;
        if p.len() < 32 {
            self.agg_lens[p.len() as usize] -= 1;
        }
        Some(self.star_slab.remove(i))
    }

    /// All (*,G)/(*,G-prefix) entries.
    pub fn star_entries(&self) -> impl Iterator<Item = (&Prefix, &GroupEntry)> {
        self.star.iter().map(|(p, i)| (p, self.star_slab.get(*i)))
    }

    /// Number of shared-tree entries (state-scaling metric, §7).
    pub fn star_len(&self) -> usize {
        self.star.len()
    }

    /// The (S,G) entry.
    pub fn sg(&self, s: SourceId, g: McastAddr) -> Option<&SgEntry> {
        let i = *self.sg.get(&(s, g))?;
        Some(self.sg_slab.get(i))
    }

    /// Mutable (S,G) entry.
    pub fn sg_mut(&mut self, s: SourceId, g: McastAddr) -> Option<&mut SgEntry> {
        let i = *self.sg.get(&(s, g))?;
        Some(self.sg_slab.get_mut(i))
    }

    /// Inserts/replaces an (S,G) entry.
    pub fn sg_insert(&mut self, s: SourceId, g: McastAddr, e: SgEntry) {
        Self::map_insert(&mut self.sg, &mut self.sg_slab, (s, g), e);
    }

    /// Removes an (S,G) entry.
    pub fn sg_remove(&mut self, s: SourceId, g: McastAddr) -> Option<SgEntry> {
        let i = self.sg.remove(&(s, g))?;
        Some(self.sg_slab.remove(i))
    }

    /// All (S,G) entries.
    pub fn sg_entries(&self) -> impl Iterator<Item = (&(SourceId, McastAddr), &SgEntry)> {
        self.sg.iter().map(|(k, i)| (k, self.sg_slab.get(*i)))
    }

    /// Insert-or-replace through an index map into its slab; returns
    /// whether the key is new.
    fn map_insert<K: Ord, T>(map: &mut BTreeMap<K, u32>, slab: &mut Slab<T>, k: K, e: T) -> bool {
        match map.entry(k) {
            std::collections::btree_map::Entry::Occupied(o) => {
                *slab.get_mut(*o.get()) = e;
                false
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(slab.insert(e));
                true
            }
        }
    }

    /// Collapses runs of exact (*,G) entries with identical targets
    /// into (*,G-prefix) entries where a full prefix's groups all
    /// share the same target list (§7's state-scaling provision).
    /// Returns the number of entries saved.
    pub fn aggregate_star(&mut self) -> usize {
        let before = self.star.len();
        loop {
            let mut merged = false;
            let keys: Vec<Prefix> = self.star.keys().copied().collect();
            for k in keys {
                let Some(buddy) = k.buddy() else { continue };
                let (Some(&ia), Some(&ib)) = (self.star.get(&k), self.star.get(&buddy)) else {
                    continue;
                };
                if self.star_slab.get(ia) == self.star_slab.get(ib) {
                    let parent = k.parent().expect("buddy implies parent");
                    let entry = self.star_remove_prefix(k).expect("present above");
                    self.star_remove_prefix(buddy);
                    self.star_insert_prefix(parent, entry);
                    merged = true;
                    break;
                }
            }
            if !merged {
                break;
            }
        }
        before - self.star.len()
    }
}

impl snapshot::Snapshot for Target {
    fn encode(&self, enc: &mut snapshot::Enc) {
        match self {
            Target::Peer(r) => {
                enc.u8(0);
                enc.u32(*r);
            }
            Target::Migp => enc.u8(1),
        }
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        match dec.u8()? {
            0 => Ok(Target::Peer(dec.u32()?)),
            1 => Ok(Target::Migp),
            _ => Err(snapshot::SnapError::Invalid("Target tag")),
        }
    }
}

impl snapshot::Snapshot for SourceId {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { domain, host } = self;
        enc.u32(*domain);
        enc.u32(*host);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(SourceId {
            domain: dec.u32()?,
            host: dec.u32()?,
        })
    }
}

impl snapshot::Snapshot for GroupEntry {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            parent,
            via_exit,
            children,
        } = self;
        parent.encode(enc);
        via_exit.encode(enc);
        children.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let parent = snapshot::Snapshot::decode(dec)?;
        let via_exit: Option<RouterId> = snapshot::Snapshot::decode(dec)?;
        Ok(GroupEntry {
            parent,
            via_exit,
            children: snapshot::Snapshot::decode(dec)?,
        })
    }
}

impl snapshot::Snapshot for SgEntry {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            parent,
            via_exit,
            children,
        } = self;
        parent.encode(enc);
        via_exit.encode(enc);
        children.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let parent = snapshot::Snapshot::decode(dec)?;
        let via_exit: Option<RouterId> = snapshot::Snapshot::decode(dec)?;
        Ok(SgEntry {
            parent,
            via_exit,
            children: snapshot::Snapshot::decode(dec)?,
        })
    }
}

impl snapshot::Snapshot for ForwardingTable {
    /// Encodes sorted `(key, entry)` pairs exactly as the former
    /// `BTreeMap<_, Entry>` layout did; slab keys are never on the
    /// wire.
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            star,
            sg,
            star_slab,
            sg_slab,
            // derived count; decode rebuilds it from the keys it inserts
            agg_lens: _,
        } = self;
        enc.seq(star.len());
        for (p, i) in star {
            p.encode(enc);
            star_slab.get(*i).encode(enc);
        }
        enc.seq(sg.len());
        for (k, i) in sg {
            k.encode(enc);
            sg_slab.get(*i).encode(enc);
        }
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let mut t = ForwardingTable::new();
        for _ in 0..dec.seq()? {
            let p = Prefix::decode(dec)?;
            let e = GroupEntry::decode(dec)?;
            if Self::map_insert(&mut t.star, &mut t.star_slab, p, e) && p.len() < 32 {
                t.agg_lens[p.len() as usize] += 1;
            }
        }
        for _ in 0..dec.seq()? {
            let k = <(SourceId, McastAddr)>::decode(dec)?;
            let e = SgEntry::decode(dec)?;
            Self::map_insert(&mut t.sg, &mut t.sg_slab, k, e);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(x: u32) -> McastAddr {
        McastAddr(0xE000_0000 | x)
    }

    fn entry(parent: Option<Target>, children: &[Target]) -> GroupEntry {
        GroupEntry {
            parent,
            via_exit: None,
            children: children.iter().copied().collect(),
        }
    }

    #[test]
    fn bidirectional_forwarding_excludes_arrival() {
        let e = entry(Some(Target::Peer(1)), &[Target::Peer(2), Target::Migp]);
        let fwd = e.forward_targets(Some(Target::Peer(2)));
        assert_eq!(fwd, vec![Target::Peer(1), Target::Migp]);
        // From the parent: down to all children.
        let fwd = e.forward_targets(Some(Target::Peer(1)));
        assert_eq!(fwd, vec![Target::Peer(2), Target::Migp]);
        // Locally injected (no arrival target): everywhere.
        assert_eq!(e.forward_targets(None).len(), 3);
    }

    #[test]
    fn star_lookup_prefers_exact_over_prefix() {
        let mut t = ForwardingTable::new();
        t.star_insert_prefix(
            "224.0.1.0/24".parse().unwrap(),
            entry(Some(Target::Peer(9)), &[]),
        );
        t.star_insert(g(0x0101), entry(Some(Target::Peer(1)), &[Target::Migp]));
        let (p, e) = t.star_lookup(g(0x0101)).unwrap();
        assert_eq!(p.len(), 32);
        assert_eq!(e.parent, Some(Target::Peer(1)));
        // Another group in the /24 hits the aggregate.
        let (p, e) = t.star_lookup(g(0x0102)).unwrap();
        assert_eq!(p.len(), 24);
        assert_eq!(e.parent, Some(Target::Peer(9)));
        // Outside both: nothing.
        assert!(t.star_lookup(g(0x0201)).is_none());
    }

    /// The aggregated-entry count per mask length, recomputed from the
    /// map itself.
    fn agg_lens_recount(t: &ForwardingTable) -> [u32; 32] {
        let mut lens = [0u32; 32];
        for (p, _) in t.star_entries().filter(|(p, _)| p.len() < 32) {
            lens[p.len() as usize] += 1;
        }
        lens
    }

    #[test]
    fn aggregated_count_stays_exact_across_churn_and_snapshot_decode() {
        use snapshot::Snapshot;
        let mut t = ForwardingTable::new();
        let e = entry(Some(Target::Peer(1)), &[Target::Migp]);
        let p24: Prefix = "224.0.1.0/24".parse().unwrap();
        let p16: Prefix = "224.0.0.0/16".parse().unwrap();
        t.star_insert_prefix(p24, e.clone());
        t.star_insert_prefix(p16, e.clone());
        // Replacing an aggregated entry must not count it twice, and a
        // /32 through the prefix API is not an aggregate.
        t.star_insert_prefix(p24, entry(Some(Target::Peer(2)), &[]));
        t.star_insert_prefix("224.0.1.7/32".parse().unwrap(), e.clone());
        t.star_insert(g(0x0109), e.clone());
        assert_eq!(t.agg_lens, agg_lens_recount(&t));
        assert_eq!(t.agg_lens.iter().sum::<u32>(), 2);
        // Removing exact groups — present, absent, or shadowing an
        // aggregate's base address — leaves the count alone.
        assert!(t.star_remove(g(0x0107)).is_some());
        assert!(t.star_remove(g(0x0107)).is_none());
        assert!(t.star_remove(g(0x0100)).is_none());
        assert_eq!(t.agg_lens.iter().sum::<u32>(), 2);

        let mut enc = snapshot::Enc::new();
        t.encode(&mut enc);
        let bytes = enc.finish();
        let back = ForwardingTable::decode(&mut snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(back.agg_lens, t.agg_lens);
        assert_eq!(back.agg_lens, agg_lens_recount(&back));
        assert_eq!(back.star_lookup(g(0x0142)).unwrap().0, &p24);
        assert_eq!(back.star_lookup(g(0x0909)).unwrap().0, &p16);

        // Buddy merging moves entries between lengths.
        let mut t = ForwardingTable::new();
        for x in 0..4 {
            t.star_insert(g(0x0100 + x), e.clone());
        }
        t.aggregate_star();
        assert_eq!(t.agg_lens, agg_lens_recount(&t));
        assert_eq!(t.agg_lens[30], 1);
    }

    #[test]
    fn star_exact_in_lists_exact_groups_of_a_range_only() {
        let mut t = ForwardingTable::new();
        let e = entry(Some(Target::Peer(1)), &[Target::Migp]);
        t.star_insert_prefix("224.0.1.0/24".parse().unwrap(), e.clone());
        for x in [0x00ff, 0x0100, 0x0180, 0x01ff, 0x0200] {
            t.star_insert(g(x), e.clone());
        }
        let groups_in =
            |range: Prefix| -> Vec<McastAddr> { t.star_exact_in(range).map(|(g, _)| g).collect() };
        assert_eq!(
            groups_in("224.0.1.0/24".parse().unwrap()),
            vec![g(0x0100), g(0x0180), g(0x01ff)]
        );
        assert_eq!(groups_in(ForwardingTable::key(g(0x0180))), vec![g(0x0180)]);
        assert_eq!(groups_in(Prefix::new(0, 0).unwrap()).len(), 5);
    }

    mod lookup_prop {
        use super::*;
        use proptest::prelude::*;

        /// One table operation over a small address window, so nested
        /// prefixes, exact entries under aggregates and re-inserts all
        /// collide often.
        #[derive(Debug, Clone)]
        enum Op {
            Insert(u32),
            InsertPrefix(u32, u8),
            Remove(u32),
            Aggregate,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u32..64).prop_map(Op::Insert),
                (0u32..64).prop_map(Op::Insert),
                (0u32..64, 20u8..=32).prop_map(|(x, l)| Op::InsertPrefix(x, l)),
                (0u32..64).prop_map(Op::Remove),
                (0u32..64).prop_map(Op::Remove),
                Just(Op::Aggregate),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Exact-first, per-length keyed probing answers every
            /// lookup exactly as the linear longest-match scan does,
            /// and the aggregated-entry counts never drift from the
            /// map under insert/remove/aggregate churn.
            #[test]
            fn star_lookup_matches_linear_reference(
                ops in prop::collection::vec(arb_op(), 0..48),
                peers in prop::collection::vec(1u32..4, 48),
            ) {
                let mut t = ForwardingTable::new();
                for (op, peer) in ops.iter().zip(&peers) {
                    // Few distinct entries, so buddies do merge.
                    let e = entry(Some(Target::Peer(*peer)), &[Target::Migp]);
                    match *op {
                        Op::Insert(x) => t.star_insert(g(0x0100 + x), e),
                        Op::InsertPrefix(x, len) => {
                            let p = Prefix::containing(g(0x0100 + x), len).unwrap();
                            t.star_insert_prefix(p, e);
                        }
                        Op::Remove(x) => {
                            t.star_remove(g(0x0100 + x));
                        }
                        Op::Aggregate => {
                            t.aggregate_star();
                        }
                    }
                    prop_assert_eq!(t.agg_lens, agg_lens_recount(&t));
                    // The window plus a margin outside every prefix.
                    for x in 0..80 {
                        let addr = g(0x00f8 + x);
                        prop_assert_eq!(t.star_lookup(addr), t.star_lookup_linear(addr));
                    }
                }
            }
        }
    }

    #[test]
    fn aggregation_merges_identical_buddies() {
        let mut t = ForwardingTable::new();
        let e = entry(Some(Target::Peer(1)), &[Target::Migp]);
        // Four consecutive groups with identical targets.
        for x in 0..4 {
            t.star_insert(g(0x0100 + x), e.clone());
        }
        // And one different entry that must survive.
        t.star_insert(g(0x0104), entry(Some(Target::Peer(2)), &[]));
        let saved = t.aggregate_star();
        assert_eq!(saved, 3);
        assert_eq!(t.star_len(), 2);
        // Lookups still resolve correctly.
        assert_eq!(
            t.star_lookup(g(0x0102)).unwrap().1.parent,
            Some(Target::Peer(1))
        );
        assert_eq!(
            t.star_lookup(g(0x0104)).unwrap().1.parent,
            Some(Target::Peer(2))
        );
    }

    #[test]
    fn migp_as_parent_and_child_forwards_once() {
        // Root-domain case (§5.2): B1 has the MIGP component as parent
        // *and* (after an internal transit join) as child. A packet
        // from a peer must be injected into the domain exactly once.
        let e = entry(Some(Target::Migp), &[Target::Migp, Target::Peer(3)]);
        let fwd = e.forward_targets(Some(Target::Peer(3)));
        assert_eq!(fwd, vec![Target::Migp]);
    }

    #[test]
    fn sg_entries_roundtrip() {
        let mut t = ForwardingTable::new();
        let s = SourceId { domain: 4, host: 7 };
        t.sg_insert(
            s,
            g(1),
            SgEntry {
                parent: Some(Target::Peer(3)),
                via_exit: None,
                children: [Target::Migp].into(),
            },
        );
        assert!(t.sg(s, g(1)).is_some());
        assert!(t.sg(s, g(2)).is_none());
        let e = t.sg_remove(s, g(1)).unwrap();
        assert_eq!(e.parent, Some(Target::Peer(3)));
        assert_eq!(t.sg_entries().count(), 0);
    }
}
