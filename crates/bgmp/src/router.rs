//! The sans-io BGMP engine for one border router.
//!
//! Implements §5 of the paper: shared-tree construction by propagating
//! joins toward the group's root domain (found by G-RIB lookup),
//! bidirectional data forwarding over (*,G) entries, teardown by
//! prunes, and source-specific branches ((S,G) state that stops at the
//! shared tree, §5.3).
//!
//! Like the BGP speaker, this is a pure state machine: events in,
//! actions out, with route lookups supplied by the host through
//! [`RouteLookup`].

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use bgp::RouterId;
use mcast_addr::{McastAddr, Prefix};

use crate::entry::{ForwardingTable, GroupEntry, SgEntry, SourceId, Target};
use crate::msg::{BgmpAction, BgmpMsg, NextHop, RouteLookup};

/// Counters for analysis.
#[derive(Debug, Clone, Copy, Default, snapshot::Snapshot)]
pub struct BgmpStats {
    /// Shared-tree joins processed.
    pub joins: u64,
    /// Prunes processed.
    pub prunes: u64,
    /// Source-specific joins processed.
    pub source_joins: u64,
    /// Source-specific prunes processed.
    pub source_prunes: u64,
}

/// Cap on memoized per-group resolutions; past this the memo is
/// cleared wholesale rather than evicted entry by entry.
const LOOKUP_MEMO_CAP: usize = 4096;

/// The BGMP component of one border router.
#[derive(Debug, Default)]
pub struct BgmpRouter {
    router: RouterId,
    table: ForwardingTable,
    /// Counters.
    pub stats: BgmpStats,
    /// Data-plane fast path: per-group G-RIB resolution (group → next
    /// hop toward its root domain, `None` memoizing "no route" too).
    /// Interior-mutable because [`BgmpRouter::forward`] takes `&self`;
    /// flushed by [`BgmpRouter::grib_changed`] and on peer loss so a
    /// stale hop is never served after routes move.
    lookup_memo: RefCell<BTreeMap<McastAddr, Option<NextHop>>>,
}

/// What to do with a data packet, as computed by
/// [`BgmpRouter::forward`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardDecision {
    /// Forward to these targets (bidirectional rule applied).
    Targets(Vec<Target>),
    /// No state: forward toward the group's root domain (§5: "the
    /// border router simply forwards the data packets towards the root
    /// domain").
    TowardRoot(NextHop),
    /// No state and no route: drop.
    Drop,
}

impl BgmpRouter {
    /// Creates the BGMP component for `router`.
    pub fn new(router: RouterId) -> Self {
        BgmpRouter {
            router,
            table: ForwardingTable::new(),
            stats: BgmpStats::default(),
            lookup_memo: RefCell::new(BTreeMap::new()),
        }
    }

    /// The host's G-RIB changed (update, withdraw, session flush…):
    /// drop every memoized per-group resolution so the next
    /// [`BgmpRouter::forward`] re-resolves against the new routes.
    pub fn grib_changed(&mut self) {
        self.lookup_memo.get_mut().clear();
    }

    /// Delta form of [`BgmpRouter::grib_changed`]: the host's G-RIB
    /// selection changed only for these prefixes, so only memoized
    /// resolutions for groups *covered* by one of them can be stale
    /// (an LPM answer moves only when a covering prefix moves —
    /// including memoized "no route" answers that a newly selected
    /// prefix now covers). Everything else stays hot.
    pub fn grib_changed_prefixes(&mut self, prefixes: &[Prefix]) {
        let memo = self.lookup_memo.get_mut();
        if memo.is_empty() {
            return;
        }
        for p in prefixes {
            if memo.len() <= 8 {
                memo.retain(|g, _| !p.contains(*g));
            } else {
                let stale: Vec<McastAddr> =
                    memo.range(p.base()..=p.last()).map(|(g, _)| *g).collect();
                for g in stale {
                    memo.remove(&g);
                }
            }
        }
    }

    /// This router's id.
    pub fn router(&self) -> RouterId {
        self.router
    }

    /// Read access to the forwarding table.
    pub fn table(&self) -> &ForwardingTable {
        &self.table
    }

    /// Mutable access (used by the aggregation ablation).
    pub fn table_mut(&mut self) -> &mut ForwardingTable {
        &mut self.table
    }

    // ------------------------------------------------------------------
    // Shared tree
    // ------------------------------------------------------------------

    /// A join for `g` arrived from `child` (a BGMP peer, or the MIGP
    /// component when the domain gained its first member or the MIGP
    /// relays an internal transit join).
    pub fn join(
        &mut self,
        child: Target,
        g: McastAddr,
        lookup: &impl RouteLookup,
    ) -> Vec<BgmpAction> {
        self.stats.joins += 1;
        let mut actions = Vec::new();
        if let Some(e) = self.table.star_exact_mut(g) {
            e.children.insert(child);
            return actions; // already on the tree
        }
        // Create the entry: parent is the next hop toward the root
        // domain per the G-RIB (§5.2).
        let mut via_exit = None;
        let parent = match lookup.toward_group(g) {
            Some(NextHop::ExternalPeer(p)) => {
                actions.push(BgmpAction::SendToPeer {
                    to: p,
                    msg: BgmpMsg::Join(g),
                });
                Some(Target::Peer(p))
            }
            Some(NextHop::Internal { exit }) => {
                // Join travels through the MIGP to the best exit
                // router (footnote 9: the parent target is the MIGP
                // component of the border router).
                via_exit = Some(exit);
                actions.push(BgmpAction::JoinViaMigp { exit, group: g });
                Some(Target::Migp)
            }
            Some(NextHop::Local) => {
                // We are in the root domain: the MIGP component is the
                // parent target and we join the group inside the
                // domain (§5.2).
                actions.push(BgmpAction::MigpSubscribe(g));
                Some(Target::Migp)
            }
            None => None, // no route; tree dangles until BGP converges
        };
        let mut children = BTreeSet::new();
        children.insert(child);
        // The MIGP child target also needs an internal subscription so
        // transit data reaches us.
        if child == Target::Migp && parent != Some(Target::Migp) {
            actions.push(BgmpAction::MigpSubscribe(g));
        }
        self.table.star_insert(
            g,
            GroupEntry {
                parent,
                via_exit,
                children,
            },
        );
        actions
    }

    /// A prune for `g` arrived from `child`.
    pub fn prune(&mut self, child: Target, g: McastAddr) -> Vec<BgmpAction> {
        self.stats.prunes += 1;
        let mut actions = Vec::new();
        let Some(e) = self.table.star_exact_mut(g) else {
            return actions;
        };
        e.children.remove(&child);
        if child == Target::Migp {
            actions.push(BgmpAction::MigpUnsubscribe(g));
        }
        if e.children.is_empty() {
            // Tear down toward the root (§5.2: "when the child target
            // list becomes empty, the BGMP router removes the (*,G)
            // entry and sends a prune message upstream").
            let parent = e.parent;
            let via_exit = e.via_exit;
            self.table.star_remove(g);
            match parent {
                Some(Target::Peer(p)) => {
                    actions.push(BgmpAction::SendToPeer {
                        to: p,
                        msg: BgmpMsg::Prune(g),
                    });
                }
                Some(Target::Migp) => {
                    actions.push(BgmpAction::MigpUnsubscribe(g));
                    if let Some(exit) = via_exit {
                        // Tear down the internal transit leg toward the
                        // best exit router we joined through.
                        actions.push(BgmpAction::PruneViaMigp { exit, group: g });
                    }
                }
                None => {}
            }
            // Dangling (S,G) state for this group dies with the tree.
            let stale: Vec<(SourceId, McastAddr)> = self
                .table
                .sg_entries()
                .filter(|((_, gg), _)| *gg == g)
                .map(|(k, _)| *k)
                .collect();
            for (s, gg) in stale {
                self.table.sg_remove(s, gg);
            }
        }
        actions
    }

    /// The peering session to `peer` was lost: entries using it as a
    /// child lose that child (as if pruned); entries using it as the
    /// parent re-join toward the root along the current best route
    /// (the G-RIB has already failed over when this is called).
    pub fn peer_down(&mut self, peer: RouterId, lookup: &impl RouteLookup) -> Vec<BgmpAction> {
        // Routes through the dead peer are gone; memoized hops through
        // it must not survive.
        self.lookup_memo.get_mut().clear();
        let mut actions = Vec::new();
        let gone = Target::Peer(peer);
        // Source-specific state through the dead peer simply drops;
        // branches rebuild on demand (encapsulation restarts them).
        let stale_sg: Vec<(SourceId, McastAddr)> = self
            .table
            .sg_entries()
            .filter(|(_, e)| e.parent == Some(gone) || e.children.contains(&gone))
            .map(|(k, _)| *k)
            .collect();
        for (s, g) in stale_sg {
            self.table.sg_remove(s, g);
        }
        // Snapshot both roles before mutating anything: on a
        // bidirectional tree the dead peer can be parent *and* child
        // of the same entry, and the repair below must see that.
        let as_child: Vec<McastAddr> = self
            .table
            .star_entries()
            .filter(|(p, e)| p.len() == 32 && e.children.contains(&gone))
            .map(|(p, _)| p.base())
            .collect();
        // Shared-tree parents: each group's children to reroute.
        let as_parent: Vec<(McastAddr, BTreeSet<Target>)> = self
            .table
            .star_entries()
            .filter(|(p, e)| p.len() == 32 && e.parent == Some(gone))
            .map(|(p, e)| (p.base(), e.children.clone()))
            .collect();
        // Children: prune the dead peer out.
        for g in as_child {
            actions.extend(self.prune(gone, g));
        }
        for (g, children) in as_parent {
            self.table.star_remove(g);
            for c in children {
                // The dead peer can be both parent and child of the
                // same bidirectional tree; never re-join toward it.
                if c != gone {
                    actions.extend(self.join(c, g, lookup));
                }
            }
        }
        actions
    }

    /// Per-group variant of [`BgmpRouter::peer_down`] for hosts whose
    /// route lookups are pre-resolved per group.
    pub fn peer_down_for_group(
        &mut self,
        peer: RouterId,
        g: McastAddr,
        lookup: &impl RouteLookup,
    ) -> Vec<BgmpAction> {
        self.lookup_memo.get_mut().remove(&g);
        let mut actions = Vec::new();
        let gone = Target::Peer(peer);
        let stale_sg: Vec<(SourceId, McastAddr)> = self
            .table
            .sg_entries()
            .filter(|((_, gg), e)| {
                *gg == g && (e.parent == Some(gone) || e.children.contains(&gone))
            })
            .map(|(k, _)| *k)
            .collect();
        for (s, gg) in stale_sg {
            self.table.sg_remove(s, gg);
        }
        let Some(e) = self.table.star_exact(g) else {
            return actions;
        };
        if e.parent == Some(gone) {
            let children = e.children.clone();
            self.table.star_remove(g);
            for c in children {
                if c != gone {
                    actions.extend(self.join(c, g, lookup));
                }
            }
        } else if e.children.contains(&gone) {
            actions.extend(self.prune(gone, g));
        }
        actions
    }

    /// A message arrived from a BGMP peer.
    pub fn from_peer(
        &mut self,
        from: RouterId,
        msg: BgmpMsg,
        lookup: &impl RouteLookup,
    ) -> Vec<BgmpAction> {
        match msg {
            BgmpMsg::Join(g) => self.join(Target::Peer(from), g, lookup),
            BgmpMsg::Prune(g) => self.prune(Target::Peer(from), g),
            BgmpMsg::SourceJoin(s, g) => self.source_join(Target::Peer(from), s, g, lookup),
            BgmpMsg::SourcePrune(s, g) => self.source_prune(Target::Peer(from), s, g),
        }
    }

    // ------------------------------------------------------------------
    // Source-specific branches (§5.3)
    // ------------------------------------------------------------------

    /// A source-specific join for (S,G) arrived from `child` (a peer,
    /// or the MIGP component when this router initiates the branch to
    /// stop encapsulation).
    pub fn source_join(
        &mut self,
        child: Target,
        s: SourceId,
        g: McastAddr,
        lookup: &impl RouteLookup,
    ) -> Vec<BgmpAction> {
        self.stats.source_joins += 1;
        let mut actions = Vec::new();
        if let Some(e) = self.table.sg_mut(s, g) {
            e.children.insert(child);
            return actions;
        }
        // If we are on the shared tree for g, the branch stops here:
        // copy the (*,G) target list and add the new child (§5.3, the
        // A4 behaviour). The source-specific join is NOT propagated.
        if let Some(star) = self.table.star_exact(g) {
            let mut children: BTreeSet<Target> = star.children.clone();
            children.insert(child);
            // The (*,G) parent participates in forwarding S's data but
            // remains the *shared-tree* parent; record it as a child
            // target for (S,G) forwarding purposes, excluding echo.
            if let Some(p) = star.parent {
                if p != child {
                    children.insert(p);
                }
            }
            self.table.sg_insert(
                s,
                g,
                SgEntry {
                    parent: None,
                    via_exit: None,
                    children,
                },
            );
            return actions;
        }
        // Otherwise propagate toward the source (like a shared-tree
        // join propagating toward the root domain).
        let mut via_exit = None;
        let parent = match lookup.toward_domain(s.domain) {
            Some(NextHop::ExternalPeer(p)) => {
                actions.push(BgmpAction::SendToPeer {
                    to: p,
                    msg: BgmpMsg::SourceJoin(s, g),
                });
                Some(Target::Peer(p))
            }
            Some(NextHop::Internal { exit }) => {
                via_exit = Some(exit);
                actions.push(BgmpAction::SourceJoinViaMigp {
                    exit,
                    source: s,
                    group: g,
                });
                Some(Target::Migp)
            }
            Some(NextHop::Local) => Some(Target::Migp),
            None => None,
        };
        let mut children = BTreeSet::new();
        children.insert(child);
        self.table.sg_insert(
            s,
            g,
            SgEntry {
                parent,
                via_exit,
                children,
            },
        );
        actions
    }

    /// A source-specific prune for (S,G) arrived from `child`.
    pub fn source_prune(&mut self, child: Target, s: SourceId, g: McastAddr) -> Vec<BgmpAction> {
        self.stats.source_prunes += 1;
        let mut actions = Vec::new();
        match self.table.sg_mut(s, g) {
            Some(e) => {
                e.children.remove(&child);
                let empty = e.children.is_empty();
                if empty {
                    let parent = e.parent;
                    let via_exit = e.via_exit;
                    self.table.sg_remove(s, g);
                    match parent {
                        Some(Target::Peer(p)) => {
                            actions.push(BgmpAction::SendToPeer {
                                to: p,
                                msg: BgmpMsg::SourcePrune(s, g),
                            });
                        }
                        Some(Target::Migp) => {
                            if let Some(exit) = via_exit {
                                actions.push(BgmpAction::SourcePruneViaMigp {
                                    exit,
                                    source: s,
                                    group: g,
                                });
                            }
                        }
                        None => {}
                    }
                }
            }
            None => {
                // Create-on-prune (§5.3, the F1 behaviour): on the
                // shared tree, record that S's data must not flow to
                // `child`, and if nothing is left downstream, push the
                // prune up the shared tree.
                if let Some(star) = self.table.star_exact(g) {
                    let mut children: BTreeSet<Target> = star.children.clone();
                    children.remove(&child);
                    let star_parent = star.parent;
                    if children.is_empty() {
                        if let Some(Target::Peer(p)) = star_parent {
                            actions.push(BgmpAction::SendToPeer {
                                to: p,
                                msg: BgmpMsg::SourcePrune(s, g),
                            });
                        }
                        // Keep the empty (S,G) so data from S is not
                        // forwarded to the pruned child meanwhile.
                    }
                    self.table.sg_insert(
                        s,
                        g,
                        SgEntry {
                            parent: None,
                            via_exit: None,
                            children,
                        },
                    );
                }
            }
        }
        actions
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Decides where a packet from source `s` for group `g`, arriving
    /// from `from` (`None` = injected locally), goes next.
    pub fn forward(
        &self,
        from: Option<Target>,
        s: SourceId,
        g: McastAddr,
        lookup: &impl RouteLookup,
    ) -> ForwardDecision {
        // (S,G) state overrides the shared tree for this source
        // (footnote 10 semantics, restricted to BGMP's safe subset).
        if let Some(e) = self.table.sg(s, g) {
            return ForwardDecision::Targets(e.forward_targets(from));
        }
        if let Some((_, e)) = self.table.star_lookup(g) {
            return ForwardDecision::Targets(e.forward_targets(from));
        }
        // Not on the tree: send it toward the root domain (§5). This
        // is the per-packet path, so the G-RIB resolution is memoized
        // per group until the routes change.
        match self.toward_group_memo(g, lookup) {
            Some(nh) => ForwardDecision::TowardRoot(nh),
            None => ForwardDecision::Drop,
        }
    }

    /// Memoized `lookup.toward_group(g)`. Negative results are cached
    /// too: a group with no covering route stays a cheap drop until
    /// [`BgmpRouter::grib_changed`] says otherwise.
    fn toward_group_memo(&self, g: McastAddr, lookup: &impl RouteLookup) -> Option<NextHop> {
        if let Some(hit) = self.lookup_memo.borrow().get(&g) {
            return *hit;
        }
        let resolved = lookup.toward_group(g);
        let mut memo = self.lookup_memo.borrow_mut();
        if memo.len() >= LOOKUP_MEMO_CAP {
            memo.clear();
        }
        memo.insert(g, resolved);
        resolved
    }
}

impl snapshot::SnapshotState for BgmpRouter {
    /// The forwarding table and counters are the durable state. The
    /// per-group lookup memo is a cache over the host's G-RIB, so a
    /// restore clears it — the same invalidation
    /// [`BgmpRouter::grib_changed`] performs when routes move — rather
    /// than trusting a snapshot to match the restored RIB.
    fn encode_state(&self, enc: &mut snapshot::Enc) {
        use snapshot::Snapshot;
        let Self {
            table,
            stats,
            // identity; stays with the rebuilt instance
            router: _,
            // derived memo over the host's G-RIB; a restore flushes it
            lookup_memo: _,
        } = self;
        table.encode(enc);
        stats.encode(enc);
    }

    fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), snapshot::SnapError> {
        use snapshot::Snapshot;
        let Self {
            table,
            stats,
            // identity; stays with the rebuilt instance
            router: _,
            // derived memo, flushed by grib_changed() below
            lookup_memo: _,
        } = self;
        *table = ForwardingTable::decode(dec)?;
        *stats = BgmpStats::decode(dec)?;
        self.grib_changed();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn g(x: u32) -> McastAddr {
        McastAddr(0xE000_0000 | x)
    }

    /// A scripted route table for tests.
    #[derive(Default)]
    struct Routes {
        groups: BTreeMap<McastAddr, NextHop>,
        domains: BTreeMap<bgp::Asn, NextHop>,
    }

    impl RouteLookup for Routes {
        fn toward_group(&self, gg: McastAddr) -> Option<NextHop> {
            self.groups.get(&gg).copied()
        }
        fn toward_domain(&self, asn: bgp::Asn) -> Option<NextHop> {
            self.domains.get(&asn).copied()
        }
    }

    #[test]
    fn join_creates_entry_and_propagates() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        let acts = r.join(Target::Migp, g(5), &routes);
        assert!(acts.contains(&BgmpAction::SendToPeer {
            to: 9,
            msg: BgmpMsg::Join(g(5))
        }));
        assert!(acts.contains(&BgmpAction::MigpSubscribe(g(5))));
        let e = r.table().star_exact(g(5)).unwrap();
        assert_eq!(e.parent, Some(Target::Peer(9)));
        assert!(e.children.contains(&Target::Migp));
        // Second join from a peer: no new upstream join.
        let acts = r.join(Target::Peer(7), g(5), &routes);
        assert!(acts.is_empty());
        assert_eq!(r.table().star_exact(g(5)).unwrap().children.len(), 2);
    }

    #[test]
    fn root_domain_join_uses_migp_parent() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::Local);
        let acts = r.join(Target::Peer(3), g(5), &routes);
        // No upstream peer; the MIGP component becomes the parent and
        // the router joins the group inside its domain (§5.2).
        assert!(acts.contains(&BgmpAction::MigpSubscribe(g(5))));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, BgmpAction::SendToPeer { .. })));
        assert_eq!(
            r.table().star_exact(g(5)).unwrap().parent,
            Some(Target::Migp)
        );
    }

    #[test]
    fn internal_next_hop_joins_via_migp() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::Internal { exit: 4 });
        let acts = r.join(Target::Peer(3), g(5), &routes);
        assert!(acts.contains(&BgmpAction::JoinViaMigp {
            exit: 4,
            group: g(5)
        }));
        assert_eq!(
            r.table().star_exact(g(5)).unwrap().parent,
            Some(Target::Migp)
        );
    }

    #[test]
    fn prune_tears_down_when_last_child_leaves() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        r.join(Target::Peer(7), g(5), &routes);
        r.join(Target::Peer(8), g(5), &routes);
        // First prune: entry stays.
        let acts = r.prune(Target::Peer(7), g(5));
        assert!(acts.is_empty());
        assert!(r.table().star_exact(g(5)).is_some());
        // Last prune: entry removed, prune sent upstream.
        let acts = r.prune(Target::Peer(8), g(5));
        assert!(acts.contains(&BgmpAction::SendToPeer {
            to: 9,
            msg: BgmpMsg::Prune(g(5))
        }));
        assert!(r.table().star_exact(g(5)).is_none());
    }

    #[test]
    fn bidirectional_forwarding() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        r.join(Target::Peer(7), g(5), &routes);
        r.join(Target::Migp, g(5), &routes);
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        // From the parent: to both children.
        match r.forward(Some(Target::Peer(9)), s, g(5), &routes) {
            ForwardDecision::Targets(t) => {
                assert_eq!(t, vec![Target::Peer(7), Target::Migp]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // From a child: up to the parent and across to the sibling —
        // data flows both directions (§5.2).
        match r.forward(Some(Target::Peer(7)), s, g(5), &routes) {
            ForwardDecision::Targets(t) => {
                assert_eq!(t, vec![Target::Peer(9), Target::Migp]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_member_sender_forwards_toward_root() {
        let r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        match r.forward(None, s, g(5), &routes) {
            ForwardDecision::TowardRoot(NextHop::ExternalPeer(9)) => {}
            other => panic!("unexpected {other:?}"),
        }
        // No route at all: drop.
        assert_eq!(r.forward(None, s, g(6), &routes), ForwardDecision::Drop);
    }

    #[test]
    fn source_join_stops_at_shared_tree() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        routes.domains.insert(42, NextHop::ExternalPeer(2));
        r.join(Target::Peer(7), g(5), &routes);
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        // We are on the shared tree: the branch terminates here, no
        // propagation (§5.3, A4's behaviour).
        let acts = r.source_join(Target::Peer(3), s, g(5), &routes);
        assert!(acts.is_empty(), "{acts:?}");
        let e = r.table().sg(s, g(5)).unwrap();
        assert!(e.children.contains(&Target::Peer(3)));
        // Copied the shared-tree targets too.
        assert!(e.children.contains(&Target::Peer(7)));
        assert!(e.children.contains(&Target::Peer(9)));
        // Data from S now reaches the branch child as well.
        match r.forward(Some(Target::Peer(9)), s, g(5), &routes) {
            ForwardDecision::Targets(t) => {
                assert!(t.contains(&Target::Peer(3)));
                assert!(t.contains(&Target::Peer(7)));
                assert!(!t.contains(&Target::Peer(9)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn source_join_propagates_off_tree() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.domains.insert(42, NextHop::ExternalPeer(2));
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        let acts = r.source_join(Target::Peer(3), s, g(5), &routes);
        assert!(acts.contains(&BgmpAction::SendToPeer {
            to: 2,
            msg: BgmpMsg::SourceJoin(s, g(5))
        }));
        assert_eq!(r.table().sg(s, g(5)).unwrap().parent, Some(Target::Peer(2)));
    }

    #[test]
    fn source_prune_create_on_prune_propagates_up_shared_tree() {
        // F1's situation: on the shared tree with only the MIGP child;
        // F2 source-prunes; F1 must push the prune up the shared tree.
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        r.join(Target::Migp, g(5), &routes);
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        let acts = r.source_prune(Target::Migp, s, g(5));
        assert!(
            acts.contains(&BgmpAction::SendToPeer {
                to: 9,
                msg: BgmpMsg::SourcePrune(s, g(5))
            }),
            "{acts:?}"
        );
        // S's data no longer flows to the MIGP, but other groups and
        // sources are unaffected.
        match r.forward(Some(Target::Peer(9)), s, g(5), &routes) {
            ForwardDecision::Targets(t) => assert!(t.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        let other = SourceId {
            domain: 43,
            host: 0,
        };
        match r.forward(Some(Target::Peer(9)), other, g(5), &routes) {
            ForwardDecision::Targets(t) => assert_eq!(t, vec![Target::Migp]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn source_prune_removes_branch_child() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.domains.insert(42, NextHop::ExternalPeer(2));
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        r.source_join(Target::Peer(3), s, g(5), &routes);
        r.source_join(Target::Peer(4), s, g(5), &routes);
        let acts = r.source_prune(Target::Peer(3), s, g(5));
        assert!(acts.is_empty());
        // Last child gone: prune propagates toward the source.
        let acts = r.source_prune(Target::Peer(4), s, g(5));
        assert!(acts.contains(&BgmpAction::SendToPeer {
            to: 2,
            msg: BgmpMsg::SourcePrune(s, g(5))
        }));
        assert!(r.table().sg(s, g(5)).is_none());
    }

    /// Wraps a scripted table and counts how often BGMP actually asks
    /// it — the memo should absorb repeat group lookups.
    struct Counting<'a> {
        inner: &'a Routes,
        group_calls: std::cell::Cell<u32>,
    }

    impl RouteLookup for Counting<'_> {
        fn toward_group(&self, gg: McastAddr) -> Option<NextHop> {
            self.group_calls.set(self.group_calls.get() + 1);
            self.inner.toward_group(gg)
        }
        fn toward_domain(&self, asn: bgp::Asn) -> Option<NextHop> {
            self.inner.toward_domain(asn)
        }
    }

    #[test]
    fn forward_memoizes_grib_lookup_until_invalidated() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        let counting = Counting {
            inner: &routes,
            group_calls: std::cell::Cell::new(0),
        };
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        // Repeated packets for the same off-tree group resolve the
        // G-RIB once.
        for _ in 0..3 {
            assert_eq!(
                r.forward(None, s, g(5), &counting),
                ForwardDecision::TowardRoot(NextHop::ExternalPeer(9))
            );
        }
        assert_eq!(counting.group_calls.get(), 1);
        // Negative results are memoized too.
        for _ in 0..3 {
            assert_eq!(r.forward(None, s, g(6), &counting), ForwardDecision::Drop);
        }
        assert_eq!(counting.group_calls.get(), 2);
        // After a G-RIB change the memo is stale and must be dropped:
        // the next packet re-resolves and sees the new route.
        let mut routes2 = Routes::default();
        routes2.groups.insert(g(5), NextHop::ExternalPeer(8));
        let counting2 = Counting {
            inner: &routes2,
            group_calls: std::cell::Cell::new(0),
        };
        r.grib_changed();
        assert_eq!(
            r.forward(None, s, g(5), &counting2),
            ForwardDecision::TowardRoot(NextHop::ExternalPeer(8))
        );
        assert_eq!(counting2.group_calls.get(), 1);
    }

    #[test]
    fn resume_rebuilds_memo_lazily_not_upfront() {
        use snapshot::SnapshotState;
        // A router with many groups' worth of state and a warm memo.
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        for x in 0..64 {
            routes.groups.insert(g(x), NextHop::ExternalPeer(9));
            routes
                .groups
                .insert(g(0x1000 + x), NextHop::ExternalPeer(9));
            // Durable forwarding state for g(x)…
            r.join(Target::Migp, g(x), &routes);
            // …and a warm memo slot for the stateless g(0x1000+x)
            // (forward with no entry resolves the G-RIB and caches).
            r.forward(None, s, g(0x1000 + x), &routes);
        }
        assert_eq!(r.lookup_memo.borrow().len(), 64, "memo is warm");
        let mut enc = snapshot::Enc::new();
        r.encode_state(&mut enc);
        let bytes = enc.finish();

        // Resume must not resolve any group up-front: the restored
        // memo is cold and the route table is never consulted.
        let counting = Counting {
            inner: &routes,
            group_calls: std::cell::Cell::new(0),
        };
        let mut r2 = BgmpRouter::new(1);
        r2.restore_state(&mut snapshot::Dec::new(&bytes)).unwrap();
        assert_eq!(counting.group_calls.get(), 0, "no lookups during resume");
        assert_eq!(r2.lookup_memo.borrow().len(), 0, "memo restarts cold");
        assert_eq!(r2.table().star_len(), 64, "forwarding state restored");

        // First packet per group fills exactly that group's slot.
        r2.forward(None, s, g(0x1000), &counting);
        assert_eq!(counting.group_calls.get(), 1);
        assert_eq!(r2.lookup_memo.borrow().len(), 1, "one entry, not O(groups)");
    }

    #[test]
    fn grib_changed_prefixes_invalidates_only_covered_groups() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        routes.groups.insert(g(0x100), NextHop::ExternalPeer(9));
        let counting = Counting {
            inner: &routes,
            group_calls: std::cell::Cell::new(0),
        };
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        r.forward(None, s, g(5), &counting);
        r.forward(None, s, g(0x100), &counting);
        assert_eq!(counting.group_calls.get(), 2);

        // A delta for the /24 covering g(5) leaves g(0x100) memoized.
        let p: mcast_addr::Prefix = "224.0.0.0/24".parse().unwrap();
        r.grib_changed_prefixes(&[p]);
        assert_eq!(r.lookup_memo.borrow().len(), 1);
        r.forward(None, s, g(0x100), &counting);
        assert_eq!(counting.group_calls.get(), 2, "uncovered group stays hot");
        r.forward(None, s, g(5), &counting);
        assert_eq!(counting.group_calls.get(), 3, "covered group re-resolves");
    }

    #[test]
    fn peer_down_flushes_memo() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        assert_eq!(
            r.forward(None, s, g(5), &routes),
            ForwardDecision::TowardRoot(NextHop::ExternalPeer(9))
        );
        // Peer 9 dies and the G-RIB fails over to peer 8. Without the
        // flush, forward would keep serving the memoized dead hop.
        let mut failed_over = Routes::default();
        failed_over.groups.insert(g(5), NextHop::ExternalPeer(8));
        r.peer_down(9, &failed_over);
        assert_eq!(
            r.forward(None, s, g(5), &failed_over),
            ForwardDecision::TowardRoot(NextHop::ExternalPeer(8))
        );
    }

    #[test]
    fn peer_down_never_rejoins_the_dead_peer() {
        // Bidirectional shared tree: peer 9 is the parent (next hop
        // toward the root) *and* a child (it joined through us) of the
        // same group. When the session to 9 dies, the repair must not
        // re-admit 9 — pre-fix, the reroute loop issued a join for the
        // dead peer, leaving an orphaned branch toward it.
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        r.join(Target::Migp, g(5), &routes);
        r.join(Target::Peer(9), g(5), &routes);
        let e = r.table().star_exact(g(5)).unwrap();
        assert_eq!(e.parent, Some(Target::Peer(9)));
        assert!(e.children.contains(&Target::Peer(9)));

        // The G-RIB has failed over to peer 8 by the time peer_down
        // runs (same contract as the engine's repair path).
        let mut failed_over = Routes::default();
        failed_over.groups.insert(g(5), NextHop::ExternalPeer(8));
        let acts = r.peer_down(9, &failed_over);

        assert!(
            !acts.iter().any(|a| matches!(
                a,
                BgmpAction::SendToPeer {
                    to: 9,
                    msg: BgmpMsg::Join(_)
                }
            )),
            "must not join toward the dead peer: {acts:?}"
        );
        let e = r.table().star_exact(g(5)).unwrap();
        assert_eq!(e.parent, Some(Target::Peer(8)));
        assert!(
            !e.children.contains(&Target::Peer(9)),
            "dead peer re-admitted as a child: {:?}",
            e.children
        );
        assert!(e.children.contains(&Target::Migp));
    }

    #[test]
    fn prune_clears_stale_sg_state() {
        let mut r = BgmpRouter::new(1);
        let mut routes = Routes::default();
        routes.groups.insert(g(5), NextHop::ExternalPeer(9));
        r.join(Target::Peer(7), g(5), &routes);
        let s = SourceId {
            domain: 42,
            host: 0,
        };
        r.source_join(Target::Peer(3), s, g(5), &routes);
        r.prune(Target::Peer(7), g(5));
        assert!(r.table().star_exact(g(5)).is_none());
        assert!(
            r.table().sg(s, g(5)).is_none(),
            "S,G must die with the tree"
        );
    }
}
