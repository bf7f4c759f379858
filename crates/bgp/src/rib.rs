//! The per-speaker route table: Adj-RIB-In, Loc-RIB, Adj-RIB-Out and
//! the G-RIB view with longest-prefix match.
//!
//! One [`BTreeMap`] keyed by NLRI holds a row per destination: the
//! selected candidate inline, and one block of per-peer slots holding
//! the candidates that lost to it, less the NLRI, and what each peer was
//! last told. A binary [`PrefixTrie`] indexes the *selected* group
//! prefixes with their entry kinds, kept in step whenever a selection
//! appears, goes or changes kind. DESIGN.md "RIB internals" has the
//! layout, what is derived and how snapshots frame it.

use std::collections::btree_map::{Entry, OccupiedEntry};
use std::collections::{BTreeMap, BTreeSet};

use mcast_addr::{McastAddr, Prefix};
use snapshot::{Dec, Enc, SnapError, Snapshot};

use crate::policy::RouteSourceKind;
use crate::route::{rank, AsPath, Nlri, Rank, Route, RouterId};
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

/// One peer's share of a row besides the selection: its candidate if
/// that lost, stored without the row's NLRI, and what the peer was last
/// told, as the two fields advertisements differ in (the next hop is the
/// speaker, `local` is never set). A slot with neither is vacant.
#[derive(Debug, Clone, Copy)]
struct Slot {
    peer: RouterId,
    /// The losing candidate's path; `None`: the peer's candidate is not
    /// here (it has none, or it is the selection).
    path: Option<AsPath>,
    next_hop: RouterId,
    /// The path the peer was last told; `None`: nothing.
    told: Option<AsPath>,
    kind: Option<RouteSourceKind>,
    local: bool,
    ebgp: bool,
    told_ebgp: bool,
}

/// A slot holding nothing: the spare room at the end of a block.
const VACANT: Slot = Slot {
    peer: RouterId::MAX,
    path: None,
    next_hop: 0,
    told: None,
    kind: None,
    local: false,
    ebgp: false,
    told_ebgp: false,
};

/// Slots a full block grows by, so that it is not reallocated once per
/// peer.
const GROWTH: usize = 2;

impl Slot {
    /// A slot holding `h` as its candidate.
    fn of(h: &Heard) -> Slot {
        let mut s = Slot {
            peer: h.peer,
            ..VACANT
        };
        s.hold(Some(h));
        s
    }

    fn is_vacant(&self) -> bool {
        self.path.is_none() && self.told.is_none()
    }

    /// Holds `h` as the peer's losing candidate (`None`: none).
    fn hold(&mut self, h: Option<&Heard>) {
        let Some(Heard { kind, route, .. }) = h else {
            self.path = None;
            return;
        };
        let Route {
            as_path,
            next_hop,
            local,
            ebgp,
            // the row's key
            nlri: _,
        } = *route;
        (self.path, self.next_hop, self.kind) = (Some(as_path), next_hop, *kind);
        (self.local, self.ebgp) = (local, ebgp);
    }

    /// The candidate held here, rebuilt as a route for `nlri`.
    fn heard(&self, nlri: Nlri) -> Option<Heard> {
        let route = Route {
            nlri,
            as_path: self.path?,
            next_hop: self.next_hop,
            local: self.local,
            ebgp: self.ebgp,
        };
        let (peer, kind) = (self.peer, self.kind);
        Some(Heard { peer, kind, route })
    }

    fn rank(&self) -> Option<Rank> {
        Some(rank(self.local, self.path?, self.ebgp, self.next_hop))
    }

    /// Writes the candidate held here as `Rib::encode` describes.
    fn encode_heard(&self, enc: &mut Enc) {
        if let Some(path) = self.path {
            enc.u32(self.peer);
            self.kind.encode(enc);
            path.encode(enc);
            enc.u32(self.next_hop);
            enc.bool(self.local);
            enc.bool(self.ebgp);
        }
    }
}

/// Where, among `slots` in peer order, the first candidate that no
/// other one there is preferred to is, and its rank.
fn top(slots: &[Slot]) -> Option<(usize, Rank)> {
    let mut top: Option<(usize, Rank)> = None;
    for (i, s) in slots.iter().enumerate() {
        let Some(r) = s.rank() else { continue };
        if top.is_none_or(|(_, t)| r < t) {
            top = Some((i, r));
        }
    }
    top
}

/// Everything known about one NLRI.
#[derive(Debug, Default, Clone)]
struct Row {
    /// The selected candidate, held in the row itself so that a read is
    /// one map probe and nothing more. `None` only when no candidate
    /// lost either.
    best: Option<Heard>,
    /// The row's one heap block: a slot per peer with a losing candidate
    /// here or a record of what it was told, in peer order, then the
    /// vacant ones. Empty, and no block, when no slot is in use.
    slots: Box<[Slot]>,
}

impl Row {
    /// The slots in use, in peer order.
    fn used(&self) -> &[Slot] {
        &self.slots[..self.slots.partition_point(|s| !s.is_vacant())]
    }

    /// Where `peer`'s slot is among those in use, or would go.
    fn find(&self, peer: RouterId) -> Result<usize, usize> {
        self.used().binary_search_by_key(&peer, |s| s.peer)
    }

    /// Whether a slot for `peer` would have to be made with no room
    /// left for it.
    fn full_without(&self, peer: RouterId) -> bool {
        self.used().len() == self.slots.len() && self.find(peer).is_err()
    }

    /// Runs `f` on `peer`'s slot, first making one if `make` and there
    /// is none (without `make`, nothing runs then), and keeps the slots
    /// in peer order with the vacant ones last.
    fn edit<R>(&mut self, peer: RouterId, make: bool, f: impl FnOnce(&mut Slot) -> R) -> Option<R> {
        let mut used = self.used().len();
        let i = match self.slots[..used].binary_search_by_key(&peer, |s| s.peer) {
            Ok(i) => i,
            Err(_) if !make => return None,
            Err(i) => {
                if used == self.slots.len() {
                    self.grow(GROWTH);
                }
                self.slots[i..=used].rotate_right(1);
                self.slots[i].peer = peer;
                used += 1;
                i
            }
        };
        let out = f(&mut self.slots[i]);
        if self.slots[i].is_vacant() {
            self.slots[i..used].rotate_left(1);
        }
        Some(out)
    }

    /// Room for `more` slots, in one reallocation.
    fn grow(&mut self, more: usize) {
        let mut slots = std::mem::take(&mut self.slots).into_vec();
        slots.reserve_exact(more);
        slots.resize(slots.len() + more, VACANT);
        self.slots = slots.into_boxed_slice();
    }

    /// Puts (`Some`) or removes (`None`) `peer`'s candidate. Returns the
    /// selection it replaced if that was `peer`'s; leaves `best` to
    /// [`Row::decide`].
    fn put_heard(&mut self, peer: RouterId, new: Option<Heard>) -> Option<Heard> {
        match &self.best {
            Some(b) if b.peer != peer => {
                self.edit(peer, new.is_some(), |s| s.hold(new.as_ref()));
                None
            }
            _ => std::mem::replace(&mut self.best, new),
        }
    }

    /// The decision process: `best` becomes the first candidate in peer
    /// order that no other is preferred to. A loser that wins is rebuilt
    /// as a `Route` for `nlri`, and the selection it beat takes its
    /// place among the slots.
    fn decide(&mut self, nlri: Nlri) {
        let Some((i, rank)) = top(self.used()) else {
            return;
        };
        // Ties go to the lower peer.
        let peer = self.slots[i].peer;
        let stays = |b: &Heard| (b.route.rank(), b.peer) < (rank, peer);
        if !self.best.as_ref().is_some_and(stays) {
            let winner = self.edit(peer, false, |s| {
                let h = s.heard(nlri);
                s.path = None;
                h
            });
            if let Some(loser) = std::mem::replace(&mut self.best, winner.flatten()) {
                self.edit(loser.peer, true, |s| s.hold(Some(&loser)));
            }
        }
    }

    /// Records that `to` now holds `want` (`None`: nothing); false if
    /// that is what it was told already.
    fn tell(&mut self, to: RouterId, want: Option<&Route>) -> bool {
        let want = want.map(|r| (r.as_path, r.ebgp));
        let changed = self.edit(to, want.is_some(), |s| {
            let had = s.told.map(|path| (path, s.told_ebgp));
            s.told = want.map(|(path, _)| path);
            s.told_ebgp = want.is_some_and(|(_, ebgp)| ebgp);
            had != want
        });
        changed.unwrap_or(false)
    }

    /// Lets go of the block if no slot is in use; true if the row then
    /// holds nothing at all.
    fn tidy(&mut self) -> bool {
        if self.used().is_empty() {
            self.slots = Box::default();
        }
        self.best.is_none() && self.slots.is_empty()
    }
}

/// How a [`RowMut`] holds its row.
enum Held<'a> {
    /// A row that was in the table: it goes once it holds nothing.
    Old(OccupiedEntry<'a, Nlri, Row>),
    /// A row a decision just made: it holds that selection, which
    /// nothing but another decision takes away.
    New(&'a mut Row),
}

impl<'a> Held<'a> {
    fn row(&self) -> &Row {
        match self {
            Held::Old(e) => e.get(),
            Held::New(row) => row,
        }
    }

    fn row_mut(&mut self) -> &mut Row {
        match self {
            Held::Old(e) => e.get_mut(),
            Held::New(row) => row,
        }
    }

    fn into_row(self) -> &'a mut Row {
        match self {
            Held::Old(e) => e.into_mut(),
            Held::New(row) => row,
        }
    }

    /// Tidies the row and, if it then holds nothing, takes it out of
    /// the table; `None` then.
    fn keep(mut self) -> Option<Self> {
        if !self.row_mut().tidy() {
            return Some(self);
        }
        if let Held::Old(e) = self {
            e.remove();
        }
        None
    }
}

/// A row held from its decision, or from one lookup, through its
/// export: neither the export plan nor the peers' records probe the
/// table again.
pub(crate) struct RowMut<'a> {
    nlri: Nlri,
    row: Held<'a>,
    grib: &'a Grib,
}

impl<'a> RowMut<'a> {
    pub(crate) fn nlri(&self) -> Nlri {
        self.nlri
    }

    /// The selected candidate.
    pub(crate) fn selected(&self) -> Option<&Heard> {
        self.row.row().best.as_ref()
    }

    /// The selected group prefixes that strictly cover `g`, each with
    /// its selection's entry kind.
    pub(crate) fn covering_groups(
        &self,
        g: &Prefix,
    ) -> impl Iterator<Item = (Prefix, Option<RouteSourceKind>)> + '_ {
        self.grib.index.covering(g).map(|(p, kind)| (p, *kind))
    }

    /// Brings what peers were told about the row's NLRI up to date.
    /// `peers` yields, in peer order, each peer with the route it should
    /// hold now (`None`: none); `told` hears each peer whose record that
    /// changed, in the same order. The routes are made from the row's
    /// selection, so a row that is gone has nothing to tell.
    pub(crate) fn tell_all<'r>(
        mut self,
        mut peers: impl Iterator<Item = (RouterId, Option<&'r Route>)> + Clone,
        mut told: impl FnMut(RouterId, Option<&'r Route>),
    ) {
        let row = self.row.row_mut();
        while let Some((to, want)) = peers.next() {
            if want.is_some() && row.full_without(to) {
                // Room at once for this peer and every one after it
                // that will need a slot too.
                let new = |(to, want): &(RouterId, Option<&Route>)| {
                    want.is_some() && row.find(*to).is_err()
                };
                let more = peers.clone().filter(new).count();
                row.grow(1 + more);
            }
            if row.tell(to, want) {
                told(to, want);
            }
        }
        self.row.keep();
    }

    /// The selected route, for as long as the table stays borrowed.
    fn into_best(self) -> Option<&'a Route> {
        self.row.into_row().best.as_ref().map(|h| &h.route)
    }
}

/// The G-RIB side of the table: what longest-prefix match, the export
/// plan and the hosts' caches need to hear of a decision.
#[derive(Debug, Default, Clone)]
struct Grib {
    /// Selected group prefixes with their selections' entry kinds, for
    /// O(prefix-len) LPM in `lookup_group` and the export plan's
    /// covering-origin check. Invariant: holds exactly the prefixes `p`
    /// whose `Nlri::Group(p)` row has a selection, each with its kind.
    index: PrefixTrie<Option<RouteSourceKind>>,
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
    /// Records that `nlri`'s selection changed from `was` to `now`, each
    /// the selection's entry kind if there is one: the index moves only
    /// when a selection appears or goes, or its kind changes.
    fn note(
        &mut self,
        nlri: Nlri,
        was: Option<Option<RouteSourceKind>>,
        now: Option<Option<RouteSourceKind>>,
    ) {
        if let Nlri::Group(p) = nlri {
            self.changed.push(p);
            if was == now {
                return;
            }
            match now {
                Some(kind) => self.index.insert(p, kind),
                None => self.index.remove(&p),
            };
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
        let (_, row) = self.set_heard(route.nlri, peer, Some((route, None)))?;
        Some(row.and_then(RowMut::into_best))
    }

    /// Removes `peer`'s route for `nlri` (a withdraw) and re-decides.
    pub fn withdraw_from(&mut self, peer: RouterId, nlri: Nlri) -> Option<Option<&Route>> {
        let (_, row) = self.set_heard(nlri, peer, None)?;
        Some(row.and_then(RowMut::into_best))
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
    /// candidate for `nlri` and re-decides, in one probe of the table.
    /// `None` if the selection stands; otherwise the entry kind of the
    /// selection it replaced (`None` inside when there was none, or it
    /// had no kind) and the row, held for its export (`None` once it
    /// holds nothing and is gone).
    pub(crate) fn set_heard(
        &mut self,
        nlri: Nlri,
        peer: RouterId,
        new: Option<(Route, Option<RouteSourceKind>)>,
    ) -> Option<(Option<RouteSourceKind>, Option<RowMut<'_>>)> {
        let new = new.map(|(route, kind)| Heard { peer, kind, route });
        let (held, was, old) = match self.table.entry(nlri) {
            Entry::Occupied(mut e) => {
                let row = e.get_mut();
                let was = row.best.as_ref().map(|h| (h.peer, h.kind));
                let old = row.put_heard(peer, new);
                row.decide(nlri);
                (Held::Old(e), was, old)
            }
            Entry::Vacant(e) => {
                let row = Row {
                    best: Some(new?),
                    slots: Box::default(),
                };
                (Held::New(e.insert(row)), None, None)
            }
        };
        let now = held.row().best.as_ref();
        // A selection is a (peer, route, kind) triple: it stands if the
        // same peer wins and, where that is `peer`, with an equal route
        // of the same kind.
        let same = was.map(|(p, _)| p) == now.map(|h| h.peer)
            && (was.map(|(p, _)| p) != Some(peer)
                || old.as_ref().map(|o| (&o.route, o.kind)) == now.map(|h| (&h.route, h.kind)));
        let now = now.map(|h| h.kind);
        let held = held.keep();
        if same {
            return None;
        }
        let was = was.map(|(_, kind)| kind);
        self.grib.note(nlri, was, now);
        let grib = &self.grib;
        let row = held.map(|row| RowMut { nlri, row, grib });
        Some((was.flatten(), row))
    }

    /// The row of `nlri`, held for its export.
    pub(crate) fn row_mut(&mut self, nlri: Nlri) -> Option<RowMut<'_>> {
        match self.table.entry(nlri) {
            Entry::Occupied(e) => Some(RowMut {
                nlri,
                row: Held::Old(e),
                grib: &self.grib,
            }),
            Entry::Vacant(_) => None,
        }
    }

    /// Drops everything heard from `peer` and everything it was told
    /// (session reset) in one pass over the table. Returns the NLRIs
    /// whose best route changed.
    pub fn flush_peer(&mut self, peer: RouterId) -> Vec<Nlri> {
        let mut changed = Vec::new();
        self.table.retain(|nlri, row| {
            row.tell(peer, None);
            let led = row.best.as_ref().filter(|h| h.peer == peer);
            let was = led.map(|h| h.kind);
            row.put_heard(peer, None);
            // Taking a loser away leaves the winner where it was.
            if was.is_some() {
                row.decide(*nlri);
                changed.push(*nlri);
                self.grib
                    .note(*nlri, was, row.best.as_ref().map(|h| h.kind));
            }
            !row.tidy()
        });
        changed
    }

    /// Forgets what `to` was told about every NLRI (its session came
    /// back without state).
    pub(crate) fn forget_told(&mut self, to: RouterId) {
        self.table.retain(|_, row| {
            row.tell(to, None);
            !row.tidy()
        });
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
    fn selected(&self, nlri: Nlri) -> Option<&Heard> {
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
        let (prefix, _) = self.grib.index.lookup(addr)?;
        self.best(Nlri::Group(prefix))
    }

    /// Best route toward a domain (the unicast/M-RIB view).
    pub fn lookup_domain(&self, asn: u32) -> Option<&Route> {
        self.best(Nlri::Domain(asn))
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
    /// must mirror the Loc-RIB's group entries exactly, each with its
    /// selection's entry kind.
    #[doc(hidden)]
    pub fn check_grib_index(&self) -> bool {
        let in_loc: BTreeSet<Prefix> = self.group_routes().map(|(p, _)| *p).collect();
        let in_trie: BTreeSet<Prefix> = self.grib.index.iter().map(|(p, _)| p).collect();
        let kinds = (self.grib.index.iter()).all(|(p, kind)| {
            self.selected(Nlri::Group(p))
                .is_some_and(|h| h.kind == *kind)
        });
        in_loc == in_trie && self.grib.index.len() == in_loc.len() && kinds
    }
}

/// A row, candidate or `sent` entry that is not after the one before
/// it: `encode` writes rows in NLRI order and a row's lists in peer order.
const DISORDER: SnapError = SnapError::Invalid("RIB row out of order");

impl Row {
    /// Writes the row as `Rib::encode` describes, less its NLRI, which
    /// the reader already has.
    fn encode(&self, enc: &mut Enc) {
        let used = self.used();
        let losers = used.iter().filter(|s| s.path.is_some());
        enc.seq(usize::from(self.best.is_some()) + losers.clone().count());
        let best = self.best.as_ref().map(Slot::of);
        let mut best = best.as_ref();
        for s in losers {
            if let Some(b) = best.take_if(|b| b.peer < s.peer) {
                b.encode_heard(enc);
            }
            s.encode_heard(enc);
        }
        if let Some(b) = best {
            b.encode_heard(enc);
        }
        self.best.as_ref().map(|h| h.peer).encode(enc);
        let told = used
            .iter()
            .filter_map(|s| Some((s.peer, s.told?, s.told_ebgp)));
        enc.seq(told.clone().count());
        for (to, path, ebgp) in told {
            enc.u32(to);
            enc.bool(ebgp);
            path.encode(enc);
        }
    }

    /// Reads the row of `nlri` into `scratch`, decides it there and
    /// sizes its block once. Refused: an entry out of order, a selected
    /// peer that is not the one the candidates select, and a row with
    /// nothing in it.
    fn decode(dec: &mut Dec<'_>, nlri: Nlri, scratch: &mut Vec<Slot>) -> Result<Row, SnapError> {
        scratch.clear();
        let heard = dec.seq()?;
        scratch.reserve(dec.reserve::<Slot>(heard));
        for _ in 0..heard {
            let peer = dec.u32()?;
            if scratch.last().is_some_and(|s| s.peer >= peer) {
                return Err(DISORDER);
            }
            scratch.push(Slot {
                peer,
                kind: Snapshot::decode(dec)?,
                path: Some(AsPath::decode(dec)?),
                next_hop: dec.u32()?,
                local: dec.bool()?,
                ebgp: dec.bool()?,
                ..VACANT
            });
        }
        let selected = Option::<RouterId>::decode(dec)?;
        let told = dec.seq()?;
        scratch.reserve(dec.reserve::<Slot>(told));
        let (mut at, mut last) = (0, None);
        for _ in 0..told {
            let (to, ebgp) = (dec.u32()?, dec.bool()?);
            if last.is_some_and(|last| last >= to) {
                return Err(DISORDER);
            }
            last = Some(to);
            let path = AsPath::decode(dec)?;
            while scratch.get(at).is_some_and(|s| s.peer < to) {
                at += 1;
            }
            if scratch.get(at).is_none_or(|s| s.peer != to) {
                scratch.insert(at, Slot { peer: to, ..VACANT });
            }
            if let Some(s) = scratch.get_mut(at) {
                (s.told, s.told_ebgp) = (Some(path), ebgp);
            }
        }
        if heard == 0 && told == 0 {
            return Err(SnapError::Invalid("RIB row with nothing in it"));
        }
        let best = top(scratch).and_then(|(i, _)| {
            let s = scratch.get_mut(i)?;
            let h = s.heard(nlri);
            s.path = None;
            if s.is_vacant() {
                scratch.remove(i);
            }
            h
        });
        if best.as_ref().map(|h| h.peer) != selected {
            return Err(SnapError::Invalid(
                "selection is not what the candidates select",
            ));
        }
        let slots = scratch.as_slice().into();
        Ok(Row { best, slots })
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
        let mut scratch = Vec::new();
        for _ in 0..n {
            let nlri = Nlri::decode(dec)?;
            if rows.last().is_some_and(|(last, _)| *last >= nlri) {
                return Err(DISORDER);
            }
            let row = Row::decode(dec, nlri, &mut scratch)?;
            if let (Nlri::Group(p), Some(h)) = (nlri, &row.best) {
                grib.index.insert(p, h.kind);
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

    /// A row is the selection inline and one pointer to its block; a
    /// slot holds a loser without its NLRI and what its peer was told. A
    /// field that widens either fails here before it shows in
    /// `rib_footprint` or the benchmark's peak memory.
    #[test]
    fn row_and_slot_keep_their_sizes() {
        use std::mem::size_of;
        let sizes = [
            ("Row", size_of::<Row>(), 48),
            ("Option<Heard>", size_of::<Option<Heard>>(), 32),
            ("Slot", size_of::<Slot>(), 20),
        ];
        for (name, size, most) in sizes {
            println!("{name}: {size} B (at most {most})");
        }
        for (name, size, most) in sizes {
            assert!(size <= most, "{name} is {size} B, more than {most}");
        }
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
