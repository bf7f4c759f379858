//! The sans-io BGP speaker engine.
//!
//! A [`BgpSpeaker`] is a plain state machine: feed it events (received
//! updates, peer transitions, local originations) and it returns the
//! messages to transmit. The same engine runs inside the discrete-event
//! simulator and the tokio actor runtime.
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

use std::collections::{BTreeMap, BTreeSet};

use mcast_addr::Prefix;

use crate::msg::{BgpMsg, OutMsg};
use crate::policy::{classify, ExportPolicy, PeerConfig, RouteSourceKind};
use crate::rib::Rib;
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
    asn: Asn, // lint:allow(snapshot-field-coverage) — identity; stays with the rebuilt instance
    peers: BTreeMap<RouterId, PeerConfig>, // lint:allow(snapshot-field-coverage) — peering config; stays with the rebuilt instance
    /// Per NLRI: the candidates heard with their domain-entry kinds,
    /// the selection, and the Adj-RIB-Out (what each peer was last
    /// told, to emit minimal diffs).
    rib: Rib,
    policy: ExportPolicy, // lint:allow(snapshot-field-coverage) — static policy config; stays with the rebuilt instance
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
        // A new covering origin may newly suppress child routes.
        self.originate(Nlri::Group(prefix), Some(prefix))
    }

    /// Withdraws a previously originated group route (lifetime expiry
    /// or range release).
    pub fn withdraw_group(&mut self, prefix: Prefix) -> Vec<OutMsg> {
        self.local_groups.remove(&prefix);
        let nlri = Nlri::Group(prefix);
        let changed = self.rib.withdraw_local(nlri).is_some();
        self.announce(nlri, changed, Some(prefix))
    }

    /// Originates the domain-reachability route for our own domain.
    pub fn originate_domain(&mut self) -> Vec<OutMsg> {
        self.originate(Nlri::Domain(self.asn), None)
    }

    fn originate(&mut self, nlri: Nlri, cover: Option<Prefix>) -> Vec<OutMsg> {
        let route = Route::originate(nlri, self.asn, self.router);
        let local = Some((route, Some(RouteSourceKind::Local)));
        let changed = self.rib.set_heard(nlri, RouterId::MAX, local).is_some();
        self.announce(nlri, changed, cover)
    }

    /// What to send once `nlri`'s decision has run: its own diffs if
    /// the selection `changed`, then those of the group routes under
    /// `cover`, whose suppression may have flipped.
    fn announce(&mut self, nlri: Nlri, changed: bool, cover: Option<Prefix>) -> Vec<OutMsg> {
        let mut msgs = Vec::new();
        if changed {
            msgs.extend(self.export(nlri));
        }
        if let Some(prefix) = cover {
            msgs.extend(self.re_export_covered(prefix));
        }
        msgs
    }

    /// Feeds one event, returning the messages to send.
    pub fn handle(&mut self, ev: BgpEvent) -> Vec<OutMsg> {
        match ev {
            BgpEvent::FromPeer { from, msg } => self.handle_msg(from, msg),
            BgpEvent::PeerDown(peer) => {
                self.down.insert(peer);
                // Forget its routes and what we advertised to it; on
                // PeerUp we resend.
                let changed = self.rib.flush_peer(peer);
                changed.into_iter().flat_map(|n| self.export(n)).collect()
            }
            BgpEvent::PeerUp(peer) => {
                self.down.remove(&peer);
                // The peer lost its session state; resend from scratch.
                self.rib.forget_told(peer);
                let Some(to) = self.peers.get(&peer).copied() else {
                    return Vec::new();
                };
                let nlris: Vec<Nlri> = self.rib.loc_rib().map(|r| r.nlri).collect();
                let mut msgs = Vec::new();
                for n in nlris {
                    let desired = self.desired_route(&to, n);
                    msgs.extend(Self::sync_one(&mut self.rib, desired, peer, n));
                }
                msgs
            }
        }
    }

    fn handle_msg(&mut self, from: RouterId, msg: BgpMsg) -> Vec<OutMsg> {
        let Some(peer) = self.peers.get(&from).copied() else {
            return Vec::new(); // unknown peer: drop
        };
        let (nlri, changed, may_suppress) = match msg {
            BgpMsg::Update { mut route, kind } => {
                let external = !peer.is_internal();
                if external && route.path_contains(self.asn) {
                    return Vec::new(); // eBGP loop
                }
                // eBGP-vs-iBGP is a receiver-side attribute.
                route.ebgp = external;
                let kind = if external { classify(peer.rel) } else { kind };
                let (nlri, new) = (route.nlri, Some((route, Some(kind))));
                // A domain-origin group route arriving over iBGP can
                // newly suppress covered customer routes.
                let changed = self.rib.set_heard(nlri, from, new).is_some();
                (nlri, changed, kind == RouteSourceKind::Local)
            }
            BgpMsg::Withdraw(nlri) => (nlri, self.rib.withdraw_from(from, nlri).is_some(), true),
        };
        if !changed {
            return Vec::new();
        }
        self.announce(nlri, true, nlri.as_group().filter(|_| may_suppress))
    }

    /// Recomputes what each peer should see for `nlri` and emits diffs
    /// against the Adj-RIB-Out.
    fn export(&mut self, nlri: Nlri) -> Vec<OutMsg> {
        let mut msgs = Vec::new();
        for (to, peer) in &self.peers {
            if !self.down.contains(to) {
                let desired = self.desired_route(peer, nlri);
                msgs.extend(Self::sync_one(&mut self.rib, desired, *to, nlri));
            }
        }
        msgs
    }

    /// Re-exports every group NLRI covered by `prefix` (suppression may
    /// have flipped).
    fn re_export_covered(&mut self, prefix: Prefix) -> Vec<OutMsg> {
        let covered: Vec<Nlri> = self
            .rib
            .group_routes()
            .filter(|(p, _)| prefix.covers(p) && **p != prefix)
            .map(|(p, _)| Nlri::Group(*p))
            .collect();
        covered.into_iter().flat_map(|n| self.export(n)).collect()
    }

    /// Emits a message iff `desired`, the advertisement of `nlri` that
    /// `to` should now hold, differs from what it was last told.
    fn sync_one(
        rib: &mut Rib,
        desired: Option<(Route, RouteSourceKind)>,
        to: RouterId,
        nlri: Nlri,
    ) -> Option<OutMsg> {
        let want = desired.as_ref().map(|(r, _)| (r.as_path.clone(), r.ebgp));
        if !rib.tell(to, nlri, want) {
            return None;
        }
        let msg = match desired {
            Some((route, kind)) => BgpMsg::Update { route, kind },
            None => BgpMsg::Withdraw(nlri),
        };
        Some(OutMsg { to, msg })
    }

    /// The route (if any) that `peer` should currently be told for
    /// `nlri`, with the domain-entry kind of the best route behind it.
    fn desired_route(&self, peer: &PeerConfig, nlri: Nlri) -> Option<(Route, RouteSourceKind)> {
        let best = self.rib.selected(nlri)?;
        // Split horizon: never echo a route back to its contributor.
        if best.peer == peer.router {
            return None;
        }
        let src_internal = best.peer != RouterId::MAX
            && self.peers.get(&best.peer).is_some_and(|p| p.is_internal());
        // iBGP no-reflection: internal-learned routes don't go to
        // internal peers.
        if src_internal && peer.is_internal() {
            return None;
        }
        let kind = best.kind?;
        if !peer.is_internal() {
            // Export policy.
            if !self.policy.allows(kind, peer.rel) {
                return None;
            }
            // Aggregation suppression: our *domain's* origin covers
            // this more-specific customer route; outsiders follow the
            // aggregate (§4.2). A covering origin is visible either as
            // our own origination or as an iBGP-learned route whose
            // domain-entry kind is Local.
            if let (true, RouteSourceKind::Customer, Nlri::Group(g)) =
                (self.aggregate_suppress, kind, nlri)
            {
                let origin = Some(RouteSourceKind::Local);
                let is_origin = |o: Prefix| {
                    self.local_groups.contains(&o)
                        || self
                            .rib
                            .selected(Nlri::Group(o))
                            .is_some_and(|h| h.kind == origin)
                };
                if self.rib.covering_groups(&g).any(is_origin) {
                    return None;
                }
            }
        }
        // Build the outgoing route: next-hop-self (paper §4.2), and
        // our ASN in front when it leaves the domain.
        let mut route = best.route.clone();
        route.local = false;
        route.next_hop = self.router;
        if !peer.is_internal() && route.as_path.first() != Some(&self.asn) {
            route.as_path = route.as_path.prepend(self.asn);
        }
        Some((route, kind))
    }
}

impl snapshot::SnapshotState for BgpSpeaker {
    /// Dynamic state only: the RIB, entry-kind classifications, local
    /// originations, Adj-RIB-Out, and down-peer set, framed as the
    /// separate maps they once were. Identity and peering configuration
    /// (`router`, `asn`, `peers`, `policy`) stay with the rebuilt
    /// instance.
    fn encode_state(&self, enc: &mut snapshot::Enc) {
        use snapshot::Snapshot;
        self.rib.encode(enc);
        self.rib.encode_kinds(enc);
        self.local_groups.encode(enc);
        self.rib.encode_told(enc, self.router);
        self.down.encode(enc);
        enc.bool(self.aggregate_suppress);
    }

    fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), snapshot::SnapError> {
        use snapshot::Snapshot;
        self.rib = Rib::decode(dec)?;
        self.rib.decode_kinds(dec)?;
        self.local_groups = Snapshot::decode(dec)?;
        self.rib.decode_told(dec, self.router)?;
        self.down = Snapshot::decode(dec)?;
        self.aggregate_suppress = dec.bool()?;
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
