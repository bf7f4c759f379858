//! The per-speaker route table: Adj-RIB-In, Loc-RIB, Adj-RIB-Out and
//! the G-RIB view with longest-prefix match.
//!
//! One [`BTreeMap`] keyed by NLRI holds a row per destination: the
//! selected candidate inline, the candidates that lost to it, and what
//! each peer was last told. A binary [`PrefixTrie`] indexes the
//! *selected* group prefixes, kept in step whenever a selection appears
//! or goes. DESIGN.md "RIB internals" has the layout, what is derived
//! and how snapshots frame it.

use std::collections::{BTreeMap, BTreeSet};

use mcast_addr::{McastAddr, Prefix};
use snapshot::{Dec, Enc, SnapError, Snapshot};

use crate::policy::RouteSourceKind;
use crate::route::{prefer, AsPath, Nlri, Route, RouterId};
use crate::trie::PrefixTrie;

/// A candidate route and who advertised it.
#[derive(Debug, Clone)]
pub(crate) struct Heard {
    /// `RouterId::MAX` for a local origination.
    pub(crate) peer: RouterId,
    /// How the route entered the domain; `None` until a speaker says.
    pub(crate) kind: Option<RouteSourceKind>,
    pub(crate) route: Route,
}

/// What one peer was last told about an NLRI: the fields advertisements
/// differ in (the next hop is the speaker, `local` is never set).
#[derive(Debug, Clone, PartialEq)]
struct Sent {
    to: RouterId,
    path: AsPath,
    ebgp: bool,
}

/// Everything known about one NLRI.
#[derive(Debug, Default, Clone)]
struct Row {
    /// The selected candidate, held in the row itself so that a read is
    /// one map probe and nothing more. `None` only when no candidate
    /// lost either.
    best: Option<Heard>,
    /// What reads never look at, out of line so that rows stay small.
    /// `None` when both lists are empty (see [`Row::tidy`]).
    other: Option<Box<Other>>,
}

/// The lists are sorted by peer and grow one slot at a time: they are
/// short and there are many.
#[derive(Debug, Default, Clone)]
struct Other {
    /// The candidates that lost.
    rest: Vec<Heard>,
    sent: Vec<Sent>,
}

impl Row {
    fn rest(&self) -> &[Heard] {
        self.other.as_deref().map_or(&[], |o| &o.rest)
    }

    fn sent(&self) -> &[Sent] {
        self.other.as_deref().map_or(&[], |o| &o.sent)
    }

    /// The lists, to put an entry in.
    fn other(&mut self) -> &mut Other {
        self.other.get_or_insert_with(Box::default)
    }

    /// Every candidate, in peer order.
    fn heard(&self) -> impl Iterator<Item = &Heard> {
        let before = |b: &Heard| self.rest().partition_point(|h| h.peer < b.peer);
        let (low, high) = self.rest().split_at(self.best.as_ref().map_or(0, before));
        low.iter().chain(&self.best).chain(high)
    }

    /// Puts (`Some`) or removes (`None`) `peer`'s candidate and returns
    /// the one that was there. Leaves `best` to [`Row::decide`].
    fn put_heard(&mut self, peer: RouterId, new: Option<Heard>) -> Option<Heard> {
        match &self.best {
            Some(b) if b.peer != peer => match new {
                Some(_) => put(&mut self.other().rest, peer, |h| h.peer, new),
                None => put(&mut self.other.as_deref_mut()?.rest, peer, |h| h.peer, None),
            },
            _ => std::mem::replace(&mut self.best, new),
        }
    }

    /// The decision process: `best` becomes the first candidate in peer
    /// order that no other is preferred to.
    fn decide(&mut self) {
        let Some(Other { rest, .. }) = self.other.as_deref_mut() else {
            return;
        };
        let mut top = 0;
        for (i, h) in rest.iter().enumerate().skip(1) {
            if prefer(&h.route, &rest[top].route) {
                top = i;
            }
        }
        let Some(c) = rest.get(top) else { return };
        let stays = |b: &Heard| {
            prefer(&b.route, &c.route) || (!prefer(&c.route, &b.route) && b.peer < c.peer)
        };
        if !self.best.as_ref().is_some_and(stays) {
            let winner = rest.remove(top);
            if let Some(loser) = self.best.replace(winner) {
                put(rest, loser.peer, |h| h.peer, Some(loser));
            }
        }
    }

    /// The row that the candidates `best` then `rest` (in peer order)
    /// make with `sent`: the first leads until [`Row::decide`], run once
    /// over them all, says otherwise.
    fn decided(best: Option<Heard>, rest: Vec<Heard>, sent: Vec<Sent>) -> Row {
        let lists = !rest.is_empty() || !sent.is_empty();
        let other = lists.then(|| Box::new(Other { rest, sent }));
        let mut row = Row { best, other };
        row.decide();
        row
    }

    /// Lets go of the lists if both are empty; true if the row then
    /// holds nothing at all.
    fn tidy(&mut self) -> bool {
        if self.rest().is_empty() && self.sent().is_empty() {
            self.other = None;
        }
        self.best.is_none() && self.other.is_none()
    }
}

/// Puts (`Some`) or removes (`None`) `peer`'s entry in a peer-sorted
/// list and returns the entry that was there.
fn put<T>(list: &mut Vec<T>, peer: RouterId, of: fn(&T) -> RouterId, new: Option<T>) -> Option<T> {
    match (list.binary_search_by_key(&peer, of), new) {
        (Ok(i), Some(e)) => Some(std::mem::replace(&mut list[i], e)),
        (Ok(i), None) => Some(list.remove(i)),
        (Err(i), Some(e)) => {
            list.reserve_exact(1);
            list.insert(i, e);
            None
        }
        (Err(_), None) => None,
    }
}

/// The row to put an entry in (`make`) or take one from.
fn row_mut(table: &mut BTreeMap<Nlri, Row>, nlri: Nlri, make: bool) -> Option<&mut Row> {
    if make {
        Some(table.entry(nlri).or_default())
    } else {
        table.get_mut(&nlri)
    }
}

/// The G-RIB side of the table: what longest-prefix match and the
/// hosts' caches need to hear of a decision.
#[derive(Debug, Default, Clone)]
struct Grib {
    /// Selected group prefixes, for O(prefix-len) LPM in
    /// `lookup_group`. Invariant: contains exactly the prefixes `p`
    /// whose `Nlri::Group(p)` row has a selection.
    index: PrefixTrie<()>,
    /// Group prefixes whose Loc-RIB selection changed since the last
    /// [`Rib::take_changed_groups`] drain. An LPM answer for an
    /// address can only change when some prefix covering that address
    /// changes, so hosts invalidate derived per-group caches for
    /// exactly these ranges instead of wholesale. Transient: not
    /// snapshotted (drains are empty across a checkpoint boundary
    /// because restore rebuilds caches from scratch).
    changed: Vec<Prefix>,
}

impl Grib {
    /// Records that `nlri`'s selection changed, and whether it had one
    /// (`was`) and has one now: the index moves only when a selection
    /// appears or goes.
    fn note(&mut self, nlri: Nlri, was: bool, now: bool) {
        if let Nlri::Group(p) = nlri {
            self.changed.push(p);
            if was == now {
                return;
            }
            if now {
                self.index.insert(p, ());
            } else {
                self.index.remove(&p);
            }
        }
    }
}

/// The per-speaker routing table. `Adj-RIB-In` keeps everything heard
/// per peer; `Loc-RIB` is the selected best route per NLRI; the G-RIB
/// is the Loc-RIB filtered to group routes, queried by longest-prefix
/// match (BGMP's "look up the group in the G-RIB", §4.2/§5).
#[derive(Debug, Default, Clone)]
pub struct Rib {
    table: BTreeMap<Nlri, Row>,
    grib: Grib,
}

impl Rib {
    /// Creates an empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a route heard from `peer` and re-runs the decision
    /// process for its NLRI. Returns the new best route if the
    /// selection *changed* (including changing to `None`).
    pub fn update_from(&mut self, peer: RouterId, route: Route) -> Option<Option<&Route>> {
        let nlri = route.nlri;
        self.set_heard(nlri, peer, Some((route, None)))?;
        Some(self.best(nlri))
    }

    /// Removes `peer`'s route for `nlri` (a withdraw) and re-decides.
    pub fn withdraw_from(&mut self, peer: RouterId, nlri: Nlri) -> Option<Option<&Route>> {
        self.set_heard(nlri, peer, None)?;
        Some(self.best(nlri))
    }

    /// Installs or replaces a locally originated route and re-decides.
    pub fn originate(&mut self, route: Route) -> Option<Option<&Route>> {
        debug_assert!(route.local);
        self.update_from(RouterId::MAX, route)
    }

    /// Removes a local origination.
    pub fn withdraw_local(&mut self, nlri: Nlri) -> Option<Option<&Route>> {
        self.withdraw_from(RouterId::MAX, nlri)
    }

    /// Puts (`Some`, with its entry kind) or removes (`None`) `peer`'s
    /// candidate for `nlri` and re-decides. `None` if the selection
    /// stands; otherwise the entry kind of the selection it replaced
    /// (`None` inside when there was none, or it had no kind).
    pub(crate) fn set_heard(
        &mut self,
        nlri: Nlri,
        peer: RouterId,
        new: Option<(Route, Option<RouteSourceKind>)>,
    ) -> Option<Option<RouteSourceKind>> {
        let row = row_mut(&mut self.table, nlri, new.is_some())?;
        let (was, was_kind) = row
            .best
            .as_ref()
            .map_or((None, None), |h| (Some(h.peer), h.kind));
        let old = row.put_heard(peer, new.map(|(route, kind)| Heard { peer, kind, route }));
        row.decide();
        let now = row.best.as_ref();
        // A selection is a (peer, route, kind) triple: it stands if the
        // same peer wins and, where that is `peer`, with an equal route
        // of the same kind.
        let same = was == now.map(|h| h.peer)
            && (was != Some(peer)
                || old.as_ref().map(|o| (&o.route, o.kind)) == now.map(|h| (&h.route, h.kind)));
        let selected = now.is_some();
        if row.tidy() {
            self.table.remove(&nlri);
        }
        if same {
            return None;
        }
        self.grib.note(nlri, was.is_some(), selected);
        Some(was_kind)
    }

    /// Drops everything heard from `peer` and everything it was told
    /// (session reset) in one pass over the table. Returns the NLRIs
    /// whose best route changed.
    pub fn flush_peer(&mut self, peer: RouterId) -> Vec<Nlri> {
        let mut changed = Vec::new();
        self.table.retain(|nlri, row| {
            if let Some(o) = row.other.as_deref_mut() {
                put(&mut o.sent, peer, |s| s.to, None);
            }
            let led = row.best.as_ref().is_some_and(|h| h.peer == peer);
            row.put_heard(peer, None);
            // Taking a loser away leaves the winner where it was.
            if led {
                row.decide();
                changed.push(*nlri);
                self.grib.note(*nlri, true, row.best.is_some());
            }
            !row.tidy()
        });
        changed
    }

    /// Forgets what `to` was told about every NLRI (its session came
    /// back without state).
    pub(crate) fn forget_told(&mut self, to: RouterId) {
        self.table.retain(|_, row| {
            if let Some(o) = row.other.as_deref_mut() {
                put(&mut o.sent, to, |s| s.to, None);
            }
            !row.tidy()
        });
    }

    /// Brings what peers were told about `nlri` up to date in one probe
    /// of the table. `peers` yields, in peer order, each peer with the
    /// route it should hold now (`None`: none); `told` hears each peer
    /// whose record that changed, in the same order. The routes are made
    /// from `nlri`'s selection, so with no row there is nothing to tell.
    pub(crate) fn tell_all<'r>(
        &mut self,
        nlri: Nlri,
        peers: impl IntoIterator<Item = (RouterId, Option<&'r Route>)>,
        mut told: impl FnMut(RouterId, Option<&'r Route>),
    ) {
        let Some(row) = self.table.get_mut(&nlri) else {
            return;
        };
        let mut at = 0;
        for (to, want) in peers {
            let sent = row.sent();
            while sent.get(at).is_some_and(|s| s.to < to) {
                at += 1;
            }
            let had = sent.get(at).filter(|s| s.to == to);
            let same = had.map(|s| (&s.path, s.ebgp)) == want.map(|r| (&r.as_path, r.ebgp));
            if same {
                continue;
            }
            let (had, list) = (had.is_some(), &mut row.other().sent);
            match want {
                Some(r) => {
                    let now = Sent {
                        to,
                        path: r.as_path,
                        ebgp: r.ebgp,
                    };
                    if had {
                        list[at] = now;
                    } else {
                        list.reserve_exact(1);
                        list.insert(at, now);
                    }
                }
                None => drop(list.remove(at)),
            }
            told(to, want);
        }
        if row.tidy() {
            self.table.remove(&nlri);
        }
    }

    /// Drains the group prefixes whose selection changed since the
    /// last drain (in decision order, possibly with duplicates).
    /// Callers holding caches derived from `lookup_group` answers
    /// need only invalidate addresses covered by these prefixes.
    pub fn take_changed_groups(&mut self) -> Vec<Prefix> {
        std::mem::take(&mut self.grib.changed)
    }

    /// True when no group selection changed since the last drain.
    pub fn changed_groups_is_empty(&self) -> bool {
        self.grib.changed.is_empty()
    }

    /// The selected candidate for an NLRI.
    pub(crate) fn selected(&self, nlri: Nlri) -> Option<&Heard> {
        self.table.get(&nlri)?.best.as_ref()
    }

    /// The selected best route for an NLRI.
    pub fn best(&self, nlri: Nlri) -> Option<&Route> {
        self.selected(nlri).map(|h| &h.route)
    }

    /// The best route and the peer it came from (`RouterId::MAX` when
    /// locally originated).
    pub fn best_with_source(&self, nlri: Nlri) -> Option<(RouterId, &Route)> {
        self.selected(nlri).map(|h| (h.peer, &h.route))
    }

    /// Longest-prefix match over the G-RIB: the most specific group
    /// route covering `addr`, found by walking the prefix trie in at
    /// most 32 steps.
    ///
    /// Tie-break is deterministic: longest match first, and among
    /// equal-length matches the lowest base address wins. (Distinct
    /// equal-length prefixes cannot both cover one address, so the
    /// trie's single root-to-leaf walk realises this rule by
    /// construction; the rule is stated so callers and reference
    /// implementations agree on the contract.)
    pub fn lookup_group(&self, addr: McastAddr) -> Option<&Route> {
        let (prefix, ()) = self.grib.index.lookup(addr)?;
        self.best(Nlri::Group(prefix))
    }

    /// Best route toward a domain (the unicast/M-RIB view).
    pub fn lookup_domain(&self, asn: u32) -> Option<&Route> {
        self.best(Nlri::Domain(asn))
    }

    /// The selected group prefixes that strictly cover `g`.
    pub(crate) fn covering_groups(&self, g: &Prefix) -> impl Iterator<Item = Prefix> + '_ {
        self.grib.index.covering(g).map(|(p, ())| p)
    }

    /// Every selection with its NLRI, in NLRI order.
    fn selections(&self) -> impl Iterator<Item = (&Nlri, &Heard)> {
        let rows = self.table.iter();
        rows.filter_map(|(n, row)| Some((n, row.best.as_ref()?)))
    }

    /// All selected group routes, most specific first for equal bases.
    pub fn group_routes(&self) -> impl Iterator<Item = (&Prefix, &Route)> {
        self.selections().filter_map(|(n, h)| match n {
            Nlri::Group(p) => Some((p, &h.route)),
            Nlri::Domain(_) => None,
        })
    }

    /// Number of selected group routes — the paper's "G-RIB size"
    /// metric (figure 2(b)). O(1): the trie tracks its entry count.
    pub fn grib_size(&self) -> usize {
        self.grib.index.len()
    }

    /// All selected routes.
    pub fn loc_rib(&self) -> impl Iterator<Item = &Route> {
        self.selections().map(|(_, h)| &h.route)
    }

    /// Internal consistency check used by the property tests: the trie
    /// must mirror the Loc-RIB's group entries exactly.
    #[doc(hidden)]
    pub fn check_grib_index(&self) -> bool {
        let in_loc: BTreeSet<Prefix> = self.group_routes().map(|(p, _)| *p).collect();
        let in_trie: BTreeSet<Prefix> = self.grib.index.iter().map(|(p, _)| p).collect();
        in_loc == in_trie && self.grib.index.len() == in_loc.len()
    }
}

/// A row, candidate or `sent` entry that is not after the one before
/// it: `encode` writes rows in NLRI order and a row's lists in peer order.
const DISORDER: SnapError = SnapError::Invalid("RIB row out of order");

impl Row {
    /// Writes the row as `Rib::encode` describes, less its NLRI, which
    /// the reader already has.
    fn encode(&self, enc: &mut Enc) {
        enc.seq(usize::from(self.best.is_some()) + self.rest().len());
        for Heard { peer, kind, route } in self.heard() {
            let Route {
                as_path,
                next_hop,
                local,
                ebgp,
                // the row's key
                nlri: _,
            } = route;
            enc.u32(*peer);
            kind.encode(enc);
            as_path.encode(enc);
            enc.u32(*next_hop);
            enc.bool(*local);
            enc.bool(*ebgp);
        }
        self.best.as_ref().map(|h| h.peer).encode(enc);
        enc.seq(self.sent().len());
        for Sent { to, path, ebgp } in self.sent() {
            enc.u32(*to);
            enc.bool(*ebgp);
            path.encode(enc);
        }
    }

    /// Reads the row of `nlri` and decides it, with `rest` and `sent`
    /// allocated at their final size. Refused: an entry out of order, a
    /// selected peer that is not the one the candidates select, and a
    /// row with nothing in it.
    fn decode(dec: &mut Dec<'_>, nlri: Nlri) -> Result<Row, SnapError> {
        let heard = dec.seq()?;
        let mut best: Option<Heard> = None;
        let mut rest = Vec::with_capacity(dec.reserve::<Heard>(heard.saturating_sub(1)));
        for _ in 0..heard {
            let peer = dec.u32()?;
            let last = rest.last().or(best.as_ref());
            if last.is_some_and(|h| h.peer >= peer) {
                return Err(DISORDER);
            }
            let kind = Snapshot::decode(dec)?;
            let route = Route {
                nlri,
                as_path: AsPath::decode(dec)?,
                next_hop: dec.u32()?,
                local: dec.bool()?,
                ebgp: dec.bool()?,
            };
            let h = Heard { peer, kind, route };
            match best {
                None => best = Some(h),
                Some(_) => rest.push(h),
            }
        }
        let selected = Option::<RouterId>::decode(dec)?;
        let told = dec.seq()?;
        let mut sent: Vec<Sent> = Vec::with_capacity(dec.reserve::<Sent>(told));
        for _ in 0..told {
            let (to, ebgp) = (dec.u32()?, dec.bool()?);
            if sent.last().is_some_and(|s| s.to >= to) {
                return Err(DISORDER);
            }
            let path = AsPath::decode(dec)?;
            sent.push(Sent { to, path, ebgp });
        }
        if heard == 0 && told == 0 {
            return Err(SnapError::Invalid("RIB row with nothing in it"));
        }
        let row = Row::decided(best, rest, sent);
        if row.best.as_ref().map(|h| h.peer) != selected {
            return Err(SnapError::Invalid(
                "selection is not what the candidates select",
            ));
        }
        Ok(row)
    }
}

impl Snapshot for Rib {
    /// The table in one walk, row by row in NLRI order: each NLRI, then
    /// its candidates in peer order (peer, entry kind, the route less its
    /// NLRI), the selected peer, and what each peer was told, in peer
    /// order. Each path is written in full only the first time the blob
    /// holds it ([`snapshot::Enc::interned`]).
    fn encode(&self, enc: &mut Enc) {
        let Self {
            table,
            // the trie is rebuilt from the table on decode; the drain is empty across checkpoints
            grib: _,
        } = self;
        enc.seq(table.len());
        for (nlri, row) in table {
            nlri.encode(enc);
            row.encode(enc);
        }
    }

    /// One pass: each row is decided as it is read, the trie filled in
    /// the same loop and the `BTreeMap` built from the rows as they came.
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = dec.seq()?;
        let mut rows: Vec<(Nlri, Row)> = Vec::with_capacity(dec.reserve::<(Nlri, Row)>(n));
        let mut grib = Grib::default();
        for _ in 0..n {
            let nlri = Nlri::decode(dec)?;
            if rows.last().is_some_and(|(last, _)| *last >= nlri) {
                return Err(DISORDER);
            }
            let row = Row::decode(dec, nlri)?;
            if let (Nlri::Group(p), Some(_)) = (nlri, &row.best) {
                grib.index.insert(p, ());
            }
            rows.push((nlri, row));
        }
        let table = rows.into_iter().collect();
        Ok(Rib { table, grib })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> McastAddr {
        let pre: Prefix = format!("{s}/32").parse().unwrap();
        pre.base()
    }

    fn route(pfx: &str, path: &[u32], nh: RouterId) -> Route {
        Route {
            nlri: Nlri::Group(p(pfx)),
            as_path: path.into(),
            next_hop: nh,
            local: false,
            ebgp: true,
        }
    }

    #[test]
    fn best_selection_and_change_reporting() {
        let mut rib = Rib::new();
        // First route: change.
        assert!(rib
            .update_from(1, route("224.0.0.0/16", &[5, 6], 1))
            .is_some());
        // Worse route: no change.
        assert!(rib
            .update_from(2, route("224.0.0.0/16", &[7, 8, 9], 2))
            .is_none());
        // Better route: change.
        assert!(rib.update_from(3, route("224.0.0.0/16", &[4], 3)).is_some());
        assert_eq!(
            rib.best(Nlri::Group(p("224.0.0.0/16"))).unwrap().next_hop,
            3
        );
    }

    #[test]
    fn withdraw_falls_back() {
        let mut rib = Rib::new();
        rib.update_from(1, route("224.0.0.0/16", &[5], 1));
        rib.update_from(2, route("224.0.0.0/16", &[5, 6], 2));
        // Withdraw the best: falls back to peer 2's route.
        let changed = rib.withdraw_from(1, Nlri::Group(p("224.0.0.0/16")));
        assert!(changed.is_some());
        assert_eq!(
            rib.best(Nlri::Group(p("224.0.0.0/16"))).unwrap().next_hop,
            2
        );
        // Withdraw the rest: unreachable.
        assert!(rib
            .withdraw_from(2, Nlri::Group(p("224.0.0.0/16")))
            .is_some());
        assert!(rib.best(Nlri::Group(p("224.0.0.0/16"))).is_none());
        // Withdrawing a non-existent route is a no-op.
        assert!(rib
            .withdraw_from(2, Nlri::Group(p("224.0.0.0/16")))
            .is_none());
    }

    #[test]
    fn local_origination_wins() {
        let mut rib = Rib::new();
        rib.update_from(1, route("224.0.0.0/16", &[5], 1));
        rib.originate(Route::originate(Nlri::Group(p("224.0.0.0/16")), 9, 99));
        assert!(rib.best(Nlri::Group(p("224.0.0.0/16"))).unwrap().local);
        rib.withdraw_local(Nlri::Group(p("224.0.0.0/16")));
        assert_eq!(
            rib.best(Nlri::Group(p("224.0.0.0/16"))).unwrap().next_hop,
            1
        );
    }

    #[test]
    fn longest_prefix_match_paper_example() {
        // §4.2: packets toward 224.0.128.x in domain A follow the /24
        // learned from B even though A itself covers it with its /16.
        let mut rib = Rib::new();
        rib.originate(Route::originate(Nlri::Group(p("224.0.0.0/16")), 1, 10));
        rib.update_from(31, route("224.0.128.0/24", &[2], 31));
        let hit = rib.lookup_group(a("224.0.128.5")).unwrap();
        assert_eq!(hit.nlri.as_group().unwrap(), p("224.0.128.0/24"));
        // Other addresses in the /16 match the /16.
        let hit = rib.lookup_group(a("224.0.1.1")).unwrap();
        assert_eq!(hit.nlri.as_group().unwrap(), p("224.0.0.0/16"));
        // Outside both: no match.
        assert!(rib.lookup_group(a("225.0.0.1")).is_none());
    }

    #[test]
    fn flush_peer_removes_all_its_routes() {
        let mut rib = Rib::new();
        rib.update_from(1, route("224.0.0.0/16", &[5], 1));
        rib.update_from(1, route("225.0.0.0/16", &[5], 1));
        rib.update_from(2, route("224.0.0.0/16", &[5, 6], 2));
        let changed = rib.flush_peer(1);
        assert_eq!(changed.len(), 2);
        assert_eq!(
            rib.best(Nlri::Group(p("224.0.0.0/16"))).unwrap().next_hop,
            2
        );
        assert!(rib.best(Nlri::Group(p("225.0.0.0/16"))).is_none());
    }

    #[test]
    fn domain_routes_coexist_with_group_routes() {
        let mut rib = Rib::new();
        rib.update_from(
            1,
            Route {
                nlri: Nlri::Domain(42),
                as_path: vec![42].into(),
                next_hop: 1,
                local: false,
                ebgp: true,
            },
        );
        rib.update_from(1, route("224.0.0.0/16", &[5], 1));
        assert_eq!(rib.lookup_domain(42).unwrap().next_hop, 1);
        assert!(rib.lookup_domain(43).is_none());
        assert_eq!(rib.grib_size(), 1);
        assert_eq!(rib.loc_rib().count(), 2);
    }

    #[test]
    fn update_same_route_is_no_change() {
        let mut rib = Rib::new();
        let r = route("224.0.0.0/16", &[5], 1);
        assert!(rib.update_from(1, r.clone()).is_some());
        assert!(rib.update_from(1, r).is_none());
    }

    #[test]
    fn grib_index_tracks_loc_rib_through_churn() {
        let mut rib = Rib::new();
        rib.update_from(1, route("224.0.0.0/16", &[5], 1));
        rib.update_from(1, route("224.1.0.0/16", &[5], 1));
        rib.update_from(2, route("224.0.0.0/16", &[5, 6], 2));
        assert!(rib.check_grib_index());
        rib.flush_peer(1);
        assert!(rib.check_grib_index());
        assert_eq!(rib.grib_size(), 1);
        rib.withdraw_from(2, Nlri::Group(p("224.0.0.0/16")));
        assert!(rib.check_grib_index());
        assert_eq!(rib.grib_size(), 0);
        assert!(rib.lookup_group(a("224.0.0.1")).is_none());
    }
}
