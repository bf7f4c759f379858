//! The sans-io BGP speaker engine.
//!
//! A [`BgpSpeaker`] is a plain state machine: feed it events (received
//! updates, peer transitions, local originations) and it returns the
//! messages to transmit. The same engine runs inside the discrete-event
//! simulator and the TCP border-router host.
//!
//! Semantics implemented (deliberately simplified from RFC 1771 to what
//! the paper's architecture needs — see DESIGN.md):
//!
//! * full-mesh iBGP among a domain's border routers, no re-reflection
//!   of iBGP-learned routes to other internal peers;
//! * next-hop-self on iBGP propagation, giving the paper's §4.2
//!   behaviour (A1 stores `(224.0.128/24, A3)` after A3 learned the
//!   route from B1);
//! * eBGP loop detection by own-ASN in the AS path;
//! * export policy per peer relationship ([`ExportPolicy`]);
//! * aggregation suppression: group routes that entered from customers
//!   and are covered by one of our own originated group routes are not
//!   exported to external peers (§4.2: "A's border routers need not
//!   propagate 224.0.128.0/24 to other domains").

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};

use mcast_addr::Prefix;

use crate::msg::{BgpMsg, OutMsg};
use crate::policy::{classify, ExportPolicy, PeerConfig, RouteSourceKind};
use crate::rib::{Rib, RowMut};
use crate::route::{Asn, Nlri, Route, RouterId};

/// Events a speaker consumes.
#[derive(Debug, Clone)]
pub enum BgpEvent {
    /// A message arrived from a configured peer.
    FromPeer {
        /// Sending router.
        from: RouterId,
        /// The message.
        msg: BgpMsg,
    },
    /// The session to this peer went down; flush its routes.
    PeerDown(RouterId),
    /// The session to this peer (re-)established; send it our full
    /// eligible table.
    PeerUp(RouterId),
}

/// A sans-io BGP speaker for one border router.
#[derive(Debug, Clone)]
pub struct BgpSpeaker {
    /// Identity: stays with the rebuilt instance across a restore.
    router: RouterId,
    asn: Asn,
    peers: BTreeMap<RouterId, PeerConfig>,
    /// Per NLRI: the candidates heard with their domain-entry kinds,
    /// the selection, and the Adj-RIB-Out (what each peer was last
    /// told, to emit minimal diffs).
    rib: Rib,
    policy: ExportPolicy,
    /// Suppress exporting customer group routes covered by our own
    /// originations (§4.2/§4.3.2). On by default.
    pub aggregate_suppress: bool,
    /// Group prefixes this speaker's domain originates.
    local_groups: BTreeSet<Prefix>,
    /// Peers whose session is currently down.
    down: BTreeSet<RouterId>,
}

impl BgpSpeaker {
    /// Creates a speaker for `router` in domain `asn` with the given
    /// peerings and export policy.
    pub fn new(router: RouterId, asn: Asn, peers: Vec<PeerConfig>, policy: ExportPolicy) -> Self {
        BgpSpeaker {
            router,
            asn,
            peers: peers.into_iter().map(|p| (p.router, p)).collect(),
            rib: Rib::new(),
            policy,
            aggregate_suppress: true,
            local_groups: BTreeSet::new(),
            down: BTreeSet::new(),
        }
    }

    /// This speaker's router id.
    pub fn router(&self) -> RouterId {
        self.router
    }

    /// This speaker's domain.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Read access to the RIB (G-RIB lookups for BGMP).
    pub fn rib(&self) -> &Rib {
        &self.rib
    }

    /// Drains the group prefixes whose G-RIB selection changed since
    /// the last drain (see [`Rib::take_changed_groups`]). Hosts call
    /// this after every event that may mutate the RIB and invalidate
    /// only the covered slices of their derived caches.
    pub fn take_changed_groups(&mut self) -> Vec<Prefix> {
        self.rib.take_changed_groups()
    }

    /// The configured peers.
    pub fn peers(&self) -> impl Iterator<Item = &PeerConfig> {
        self.peers.values()
    }

    /// Originates a group route for `prefix` (MASC finished a claim).
    pub fn originate_group(&mut self, prefix: Prefix) -> Vec<OutMsg> {
        self.local_groups.insert(prefix);
        self.originate(Nlri::Group(prefix))
    }

    /// Withdraws a previously originated group route (lifetime expiry
    /// or range release).
    pub fn withdraw_group(&mut self, prefix: Prefix) -> Vec<OutMsg> {
        self.local_groups.remove(&prefix);
        let mut msgs = Vec::new();
        self.learn(Nlri::Group(prefix), RouterId::MAX, None, true, &mut msgs);
        msgs
    }

    /// Originates the domain-reachability route for our own domain.
    pub fn originate_domain(&mut self) -> Vec<OutMsg> {
        self.originate(Nlri::Domain(self.asn))
    }

    fn originate(&mut self, nlri: Nlri) -> Vec<OutMsg> {
        let route = Route::originate(nlri, self.asn, self.router);
        let local = Some((route, Some(RouteSourceKind::Local)));
        let mut msgs = Vec::new();
        // A new covering origin may newly suppress child routes.
        self.learn(nlri, RouterId::MAX, local, true, &mut msgs);
        msgs
    }

    /// Puts (`Some`, with its entry kind) or removes (`None`) `peer`'s
    /// candidate for `nlri`, then sends what the decision changed: the
    /// diffs of `nlri`, worked out on the row the decision left, then
    /// those [`BgpSpeaker::cover`] adds.
    fn learn(
        &mut self,
        nlri: Nlri,
        peer: RouterId,
        new: Option<(Route, Option<RouteSourceKind>)>,
        cover: bool,
        msgs: &mut Vec<OutMsg>,
    ) {
        let (rib, exports) = self.split();
        let kinds = rib.set_heard(nlri, peer, new).map(|(was, row)| {
            let now = row.and_then(|row| exports.export(row, None, msgs));
            (was, now)
        });
        self.cover(nlri, kinds, cover, msgs);
    }

    /// Re-exports the group routes `nlri` covers if their suppression
    /// may have flipped: when a domain origin came or went (`kinds`: the
    /// selection's entry kind before and after, if it changed), or
    /// whenever `cover` says so.
    fn cover(
        &mut self,
        nlri: Nlri,
        kinds: Option<(Option<RouteSourceKind>, Option<RouteSourceKind>)>,
        mut cover: bool,
        msgs: &mut Vec<OutMsg>,
    ) {
        if let Some((was, now)) = kinds {
            let origin = Some(RouteSourceKind::Local);
            cover |= was == origin || now == origin;
        }
        if let Some(prefix) = nlri.as_group().filter(|_| cover) {
            self.re_export_covered(prefix, msgs);
        }
    }

    /// Feeds one event, returning the messages to send.
    pub fn handle(&mut self, ev: BgpEvent) -> Vec<OutMsg> {
        let mut msgs = Vec::new();
        match ev {
            BgpEvent::FromPeer { from, msg } => self.handle_msg(from, msg, &mut msgs),
            BgpEvent::PeerDown(peer) => {
                self.down.insert(peer);
                // Forget its routes and what we advertised to it; on
                // PeerUp we resend. The flush names the selections it
                // changed, not their kinds: an internal peer's routes
                // may have been domain origins, an external peer's not.
                let internal = self.peers.get(&peer).is_some_and(|p| p.is_internal());
                for nlri in self.rib.flush_peer(peer) {
                    let now = self.export(nlri, None, &mut msgs);
                    self.cover(nlri, Some((None, now)), internal, &mut msgs);
                }
            }
            BgpEvent::PeerUp(peer) => {
                self.down.remove(&peer);
                // The peer lost its session state; resend from scratch.
                self.rib.forget_told(peer);
                let nlris: Vec<Nlri> = self.rib.loc_rib().map(|r| r.nlri).collect();
                for nlri in nlris {
                    self.export(nlri, Some(peer), &mut msgs);
                }
            }
        }
        msgs
    }

    fn handle_msg(&mut self, from: RouterId, msg: BgpMsg, msgs: &mut Vec<OutMsg>) {
        let Some(peer) = self.peers.get(&from).copied() else {
            return; // unknown peer: drop
        };
        let (nlri, new) = match msg {
            BgpMsg::Update { mut route, kind } => {
                let external = !peer.is_internal();
                if external && route.path_contains(self.asn) {
                    return; // eBGP loop
                }
                // eBGP-vs-iBGP is a receiver-side attribute.
                route.ebgp = external;
                let kind = if external { classify(peer.rel) } else { kind };
                (route.nlri, Some((route, Some(kind))))
            }
            BgpMsg::Withdraw(nlri) => (nlri, None),
        };
        self.learn(nlri, from, new, false, msgs);
    }

    /// [`Exports::export`] of `nlri`'s row, found in one probe.
    fn export(
        &mut self,
        nlri: Nlri,
        to: Option<RouterId>,
        msgs: &mut Vec<OutMsg>,
    ) -> Option<RouteSourceKind> {
        let (rib, exports) = self.split();
        exports.export(rib.row_mut(nlri)?, to, msgs)
    }

    /// Re-exports every group NLRI covered by `prefix` (suppression may
    /// have flipped).
    fn re_export_covered(&mut self, prefix: Prefix, msgs: &mut Vec<OutMsg>) {
        let covered: Vec<Nlri> = self
            .rib
            .group_routes()
            .filter(|(p, _)| prefix.covers(p) && **p != prefix)
            .map(|(p, _)| Nlri::Group(*p))
            .collect();
        for nlri in covered {
            self.export(nlri, None, msgs);
        }
    }

    /// The table, and apart from it what export reads of the rest.
    fn split(&mut self) -> (&mut Rib, Exports<'_>) {
        let BgpSpeaker {
            router,
            asn,
            peers,
            rib,
            policy,
            aggregate_suppress,
            local_groups,
            down,
        } = self;
        let exports = Exports {
            router: *router,
            asn: *asn,
            peers,
            policy: *policy,
            aggregate_suppress: *aggregate_suppress,
            local_groups,
            down,
        };
        (rib, exports)
    }
}

/// What export reads of a speaker besides its table, borrowed apart
/// from the table so that a row can be held while its export runs.
struct Exports<'s> {
    router: RouterId,
    asn: Asn,
    peers: &'s BTreeMap<RouterId, PeerConfig>,
    policy: ExportPolicy,
    aggregate_suppress: bool,
    local_groups: &'s BTreeSet<Prefix>,
    down: &'s BTreeSet<RouterId>,
}

impl Exports<'_> {
    /// Brings what the up peers (or only `to`) were told about `row`'s
    /// NLRI in line with its selection, pushing the diffs onto `msgs` in
    /// peer order. Returns the selection's entry kind.
    fn export(
        &self,
        row: RowMut<'_>,
        to: Option<RouterId>,
        msgs: &mut Vec<OutMsg>,
    ) -> Option<RouteSourceKind> {
        let (nlri, plan) = (row.nlri(), self.plan(&row));
        let peers = match to {
            Some(to) => self.peers.range(to..=to),
            None => self.peers.range(..),
        };
        let up = peers.filter(|(to, _)| !self.down.contains(to));
        let wants = up.map(|(to, peer)| (*to, plan.as_ref().and_then(|p| p.route_for(peer))));
        row.tell_all(wants, |to, route| {
            let msg = match (route, &plan) {
                (Some(route), Some(plan)) => BgpMsg::Update {
                    route: route.clone(),
                    kind: plan.kind,
                },
                _ => BgpMsg::Withdraw(nlri),
            };
            msgs.push(OutMsg { to, msg });
        });
        plan.map(|p| p.kind)
    }

    /// What every peer may be told of `row`'s selection: the export
    /// rules' verdicts that do not depend on the peer, worked out once.
    /// `None` when nothing is selected, or its entry kind is unknown.
    fn plan(&self, row: &RowMut<'_>) -> Option<Plan> {
        let best = row.selected()?;
        let kind = best.kind?;
        let internal_learned = best.peer != RouterId::MAX
            && self.peers.get(&best.peer).is_some_and(|p| p.is_internal());
        // Aggregation suppression: our *domain's* origin covers this
        // more-specific customer route; outsiders follow the aggregate
        // (§4.2). A covering origin is visible either as our own
        // origination or as an iBGP-learned route whose domain-entry
        // kind is Local.
        let suppressed = match (self.aggregate_suppress, kind, row.nlri()) {
            (true, RouteSourceKind::Customer, Nlri::Group(g)) => {
                let origin = Some(RouteSourceKind::Local);
                row.covering_groups(&g)
                    .any(|(o, kind)| self.local_groups.contains(&o) || kind == origin)
            }
            _ => false,
        };
        // Next-hop-self (paper §4.2).
        let mut internal = best.route.clone();
        internal.local = false;
        internal.next_hop = self.router;
        Some(Plan {
            from: best.peer,
            internal_learned,
            kind,
            policy: self.policy,
            suppressed,
            asn: self.asn,
            internal,
            external: OnceCell::new(),
        })
    }
}

/// The export rules applied to one selection. Everything that does not
/// depend on the receiving peer is decided when the plan is made; the
/// route with our ASN in front is built at the first external peer that
/// may have it, so a selection no outsider hears prepends nothing.
struct Plan {
    /// Split horizon: the route never goes back to its contributor.
    from: RouterId,
    /// iBGP no-reflection: an internal-learned route goes to no
    /// internal peer.
    internal_learned: bool,
    /// How the selected route entered the domain.
    kind: RouteSourceKind,
    policy: ExportPolicy,
    /// A covering origin of ours hides the route from external peers.
    suppressed: bool,
    asn: Asn,
    /// The route as internal peers are told it.
    internal: Route,
    /// The route as external peers are told it.
    external: OnceCell<Route>,
}

impl Plan {
    /// The route `peer` should hold, if any.
    fn route_for(&self, peer: &PeerConfig) -> Option<&Route> {
        if peer.router == self.from {
            return None;
        }
        if peer.is_internal() {
            return (!self.internal_learned).then_some(&self.internal);
        }
        if self.suppressed || !self.policy.allows(self.kind, peer.rel) {
            return None;
        }
        Some(self.external.get_or_init(|| {
            let mut route = self.internal.clone();
            if route.as_path.first() != Some(&self.asn) {
                route.as_path = route.as_path.prepend(self.asn);
            }
            route
        }))
    }
}

impl snapshot::SnapshotState for BgpSpeaker {
    /// Dynamic state only: the route table (candidates with their entry
    /// kinds, selections and Adj-RIB-Out, row by row), local
    /// originations and the down-peer set. Identity and peering
    /// configuration (`router`, `asn`, `peers`, `policy`) stay with the
    /// rebuilt instance.
    fn encode_state(&self, enc: &mut snapshot::Enc) {
        use snapshot::Snapshot;
        let Self {
            rib,
            local_groups,
            down,
            aggregate_suppress,
            // identity and peering configuration stay with the rebuilt instance
            router: _,
            asn: _,
            peers: _,
            policy: _,
        } = self;
        rib.encode(enc);
        local_groups.encode(enc);
        down.encode(enc);
        enc.bool(*aggregate_suppress);
    }

    fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), snapshot::SnapError> {
        use snapshot::Snapshot;
        let Self {
            rib,
            local_groups,
            down,
            aggregate_suppress,
            // identity and peering configuration stay with the rebuilt instance
            router: _,
            asn: _,
            peers: _,
            policy: _,
        } = self;
        *rib = Rib::decode(dec)?;
        *local_groups = Snapshot::decode(dec)?;
        *down = Snapshot::decode(dec)?;
        *aggregate_suppress = dec.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PeerRel;
    use mcast_addr::McastAddr;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn peer(router: RouterId, asn: Asn, rel: PeerRel) -> PeerConfig {
        PeerConfig { router, asn, rel }
    }

    /// Delivers messages between a set of speakers until quiescent.
    /// Returns the number of messages exchanged.
    fn settle(
        speakers: &mut BTreeMap<RouterId, BgpSpeaker>,
        mut pending: Vec<(RouterId, OutMsg)>,
    ) -> usize {
        let mut count = 0;
        while let Some((from, out)) = pending.pop() {
            count += 1;
            assert!(count < 10_000, "BGP did not converge");
            let Some(sp) = speakers.get_mut(&out.to) else {
                continue;
            };
            let more = sp.handle(BgpEvent::FromPeer { from, msg: out.msg });
            let me = out.to;
            pending.extend(more.into_iter().map(|m| (me, m)));
        }
        count
    }

    /// Builds the paper's figure-1 core: domain A with 4 border routers
    /// (10,11,12,13), domain B with router 20 (customer of A via 13⇄20),
    /// domain C with router 30 (customer of A via 12⇄30).
    fn fig1_speakers() -> BTreeMap<RouterId, BgpSpeaker> {
        let mut m = BTreeMap::new();
        let a_internal = |me: RouterId| -> Vec<PeerConfig> {
            [10, 11, 12, 13]
                .iter()
                .filter(|r| **r != me)
                .map(|r| peer(*r, 1, PeerRel::Internal))
                .collect()
        };
        let mut a1 = a_internal(10);
        let mut a2 = a_internal(11);
        let mut a3 = a_internal(12);
        let mut a4 = a_internal(13);
        a3.push(peer(30, 3, PeerRel::Customer)); // A2 in paper -> C1
        a4.push(peer(20, 2, PeerRel::Customer)); // A3 in paper -> B1
        let _ = &mut a1;
        let _ = &mut a2;
        m.insert(
            10,
            BgpSpeaker::new(10, 1, a1, ExportPolicy::ProviderCustomer),
        );
        m.insert(
            11,
            BgpSpeaker::new(11, 1, a2, ExportPolicy::ProviderCustomer),
        );
        m.insert(
            12,
            BgpSpeaker::new(12, 1, a3, ExportPolicy::ProviderCustomer),
        );
        m.insert(
            13,
            BgpSpeaker::new(13, 1, a4, ExportPolicy::ProviderCustomer),
        );
        m.insert(
            20,
            BgpSpeaker::new(
                20,
                2,
                vec![peer(13, 1, PeerRel::Provider)],
                ExportPolicy::ProviderCustomer,
            ),
        );
        m.insert(
            30,
            BgpSpeaker::new(
                30,
                3,
                vec![peer(12, 1, PeerRel::Provider)],
                ExportPolicy::ProviderCustomer,
            ),
        );
        m
    }

    #[test]
    fn group_route_propagates_with_ibgp_next_hop_self() {
        let mut sp = fig1_speakers();
        // B originates its claimed range (paper: 224.0.128/24).
        let msgs = sp
            .get_mut(&20)
            .unwrap()
            .originate_group(p("224.0.128.0/24"));
        settle(&mut sp, msgs.into_iter().map(|m| (20, m)).collect());
        // A4 (13) learned it from B1 (20) directly.
        let r13 = sp[&13]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
            .unwrap();
        assert_eq!(r13.next_hop, 20);
        // Other A routers use A4 as next hop (next-hop-self on iBGP).
        for r in [10, 11, 12] {
            let route = sp[&r]
                .rib()
                .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
                .unwrap();
            assert_eq!(route.next_hop, 13, "router {r} should point at 13");
        }
        // C (30) hears it via A2/12 with A's ASN prepended.
        let r30 = sp[&30]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
            .unwrap();
        assert_eq!(r30.next_hop, 12);
        assert_eq!(r30.as_path, vec![1, 2]);
    }

    #[test]
    fn aggregation_suppresses_covered_customer_route() {
        let mut sp = fig1_speakers();
        // B originates its /24 first.
        let msgs = sp
            .get_mut(&20)
            .unwrap()
            .originate_group(p("224.0.128.0/24"));
        settle(&mut sp, msgs.into_iter().map(|m| (20, m)).collect());
        // Now A originates its covering /16 from router A1 (10).
        let msgs = sp.get_mut(&10).unwrap().originate_group(p("224.0.0.0/16"));
        settle(&mut sp, msgs.into_iter().map(|m| (10, m)).collect());
        // The suppression point is A4 (13): it heard the /24 from its
        // customer, and once IT originates/hears A's covering origin it
        // must stop exporting the /24 externally. Suppression applies at
        // the router that owns the origin; here the origin lives on A1,
        // so A4 still exports. Re-originate on A4 to model the paper's
        // "A's border routers" collectively (each MASC speaker injects
        // at its own border router).
        let msgs = sp.get_mut(&13).unwrap().originate_group(p("224.0.0.0/16"));
        settle(&mut sp, msgs.into_iter().map(|m| (13, m)).collect());
        // C still reaches the root domain for 224.0.128.x — via the /16.
        let hit = sp[&30]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
            .unwrap();
        assert_eq!(hit.nlri.as_group().unwrap(), p("224.0.0.0/16"));
        // But inside A, the /24 is still known and more specific.
        let hit = sp[&12]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
            .unwrap();
        assert_eq!(hit.nlri.as_group().unwrap(), p("224.0.128.0/24"));
        // And C's G-RIB no longer carries the /24.
        assert!(sp[&30]
            .rib()
            .group_routes()
            .all(|(pre, _)| *pre != p("224.0.128.0/24")));
    }

    #[test]
    fn provider_customer_policy_blocks_peer_routes() {
        // X -peer- Y, Y has customer C. X's routes must not be exported
        // by Y to another peer Z.
        let mut sp: BTreeMap<RouterId, BgpSpeaker> = BTreeMap::new();
        sp.insert(
            1,
            BgpSpeaker::new(
                1,
                100,
                vec![peer(2, 200, PeerRel::Peer)],
                ExportPolicy::ProviderCustomer,
            ),
        );
        sp.insert(
            2,
            BgpSpeaker::new(
                2,
                200,
                vec![
                    peer(1, 100, PeerRel::Peer),
                    peer(3, 300, PeerRel::Peer),
                    peer(4, 400, PeerRel::Customer),
                ],
                ExportPolicy::ProviderCustomer,
            ),
        );
        sp.insert(
            3,
            BgpSpeaker::new(
                3,
                300,
                vec![peer(2, 200, PeerRel::Peer)],
                ExportPolicy::ProviderCustomer,
            ),
        );
        sp.insert(
            4,
            BgpSpeaker::new(
                4,
                400,
                vec![peer(2, 200, PeerRel::Provider)],
                ExportPolicy::ProviderCustomer,
            ),
        );
        let msgs = sp.get_mut(&1).unwrap().originate_group(p("224.1.0.0/16"));
        settle(&mut sp, msgs.into_iter().map(|m| (1, m)).collect());
        // Customer 4 hears it (providers export everything to customers).
        assert!(sp[&4]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 1, 0, 1))
            .is_some());
        // Peer 3 does not (peer routes don't go to peers).
        assert!(sp[&3]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 1, 0, 1))
            .is_none());
    }

    #[test]
    fn ebgp_loop_detection() {
        let mut sp = BgpSpeaker::new(
            1,
            100,
            vec![peer(2, 200, PeerRel::Peer)],
            ExportPolicy::Open,
        );
        let looped = Route {
            nlri: Nlri::Group(p("224.0.0.0/16")),
            as_path: vec![200, 100, 5].into(),
            next_hop: 2,
            local: false,
            ebgp: true,
        };
        let out = sp.handle(BgpEvent::FromPeer {
            from: 2,
            msg: BgpMsg::Update {
                route: looped,
                kind: RouteSourceKind::Peer,
            },
        });
        assert!(out.is_empty());
        assert!(sp
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 0, 1))
            .is_none());
    }

    #[test]
    fn peer_down_flushes_and_up_resyncs() {
        let mut sp = fig1_speakers();
        let msgs = sp
            .get_mut(&20)
            .unwrap()
            .originate_group(p("224.0.128.0/24"));
        settle(&mut sp, msgs.into_iter().map(|m| (20, m)).collect());
        // A4 loses its session to B1.
        let msgs = sp.get_mut(&13).unwrap().handle(BgpEvent::PeerDown(20));
        settle(&mut sp, msgs.into_iter().map(|m| (13, m)).collect());
        assert!(sp[&10]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
            .is_none());
        assert!(sp[&30]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
            .is_none());
        // Session re-establishes: B resends its table.
        let msgs = sp.get_mut(&20).unwrap().handle(BgpEvent::PeerUp(13));
        // (B never flushed; it re-advertises everything eligible.)
        let up = sp.get_mut(&13).unwrap().handle(BgpEvent::PeerUp(20));
        assert!(up.is_empty(), "A4 has nothing for B yet");
        settle(&mut sp, msgs.into_iter().map(|m| (20, m)).collect());
        assert!(sp[&10]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
            .is_some());
    }

    #[test]
    fn withdraw_group_propagates() {
        let mut sp = fig1_speakers();
        let msgs = sp
            .get_mut(&20)
            .unwrap()
            .originate_group(p("224.0.128.0/24"));
        settle(&mut sp, msgs.into_iter().map(|m| (20, m)).collect());
        assert!(sp[&30]
            .rib()
            .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
            .is_some());
        let msgs = sp.get_mut(&20).unwrap().withdraw_group(p("224.0.128.0/24"));
        settle(&mut sp, msgs.into_iter().map(|m| (20, m)).collect());
        for r in [10, 11, 12, 13, 30] {
            assert!(
                sp[&r]
                    .rib()
                    .lookup_group(McastAddr::from_octets(224, 0, 128, 1))
                    .is_none(),
                "router {r} still has the withdrawn route"
            );
        }
    }

    #[test]
    fn domain_routes_propagate_for_mrib() {
        let mut sp = fig1_speakers();
        let msgs = sp.get_mut(&20).unwrap().originate_domain();
        settle(&mut sp, msgs.into_iter().map(|m| (20, m)).collect());
        assert_eq!(sp[&30].rib().lookup_domain(2).unwrap().next_hop, 12);
        assert_eq!(sp[&13].rib().lookup_domain(2).unwrap().next_hop, 20);
    }

    #[test]
    fn no_redundant_updates_on_duplicate_events() {
        let mut sp = fig1_speakers();
        let msgs = sp
            .get_mut(&20)
            .unwrap()
            .originate_group(p("224.0.128.0/24"));
        settle(&mut sp, msgs.clone().into_iter().map(|m| (20, m)).collect());
        // Re-originating the identical prefix changes nothing.
        let again = sp
            .get_mut(&20)
            .unwrap()
            .originate_group(p("224.0.128.0/24"));
        assert!(
            again.is_empty(),
            "identical origination must be silent, got {again:?}"
        );
    }
}
