//! Told equals desired: after any interleaving of updates, withdraws,
//! originations and session resets, what a speaker's messages have told
//! each up peer is exactly what the export rules say that peer should
//! hold — split horizon, iBGP no-reflection, the provider/customer
//! policy, aggregation suppression, next-hop-self and the prepend.
//!
//! The rules are written out here again from the selection the RIB
//! reports, so the speaker's one walk of the Adj-RIB-Out per change is
//! held to a model that asks every peer separately.

use std::collections::{BTreeMap, BTreeSet};

use bgp::{
    policy::classify, AsPath, BgpEvent, BgpMsg, BgpSpeaker, ExportPolicy, Nlri, OutMsg, PeerConfig,
    PeerRel, Route, RouteSourceKind, RouterId,
};
use mcast_addr::Prefix;
use proptest::prelude::*;

const ME: RouterId = 1;
const ASN: u32 = 100;

/// Two internal peers, then a customer, a peer and a provider, and a
/// second customer.
const PEERS: [(RouterId, u32, PeerRel); 6] = [
    (2, ASN, PeerRel::Internal),
    (3, ASN, PeerRel::Internal),
    (10, 210, PeerRel::Customer),
    (11, 211, PeerRel::Peer),
    (12, 212, PeerRel::Provider),
    (13, 213, PeerRel::Customer),
];

const KINDS: [RouteSourceKind; 4] = [
    RouteSourceKind::Local,
    RouteSourceKind::Customer,
    RouteSourceKind::Provider,
    RouteSourceKind::Peer,
];

/// Group prefixes that nest three deep, one beside them, and two domains.
fn nlris() -> Vec<Nlri> {
    let groups = [
        "224.0.0.0/8",
        "224.0.0.0/16",
        "224.0.128.0/24",
        "224.0.128.0/28",
        "224.1.0.0/16",
    ];
    let groups = groups.map(|p| Nlri::Group(p.parse().expect("prefix")));
    groups
        .into_iter()
        .chain([Nlri::Domain(300), Nlri::Domain(301)])
        .collect()
}

#[derive(Debug, Clone)]
enum Ev {
    /// Peer `peer` (an index into `PEERS`) advertises NLRI `nlri` with a
    /// path of `hops` domains after its own; `loops` puts our ASN in
    /// it. `kind` is what an internal peer says of the route.
    Update {
        peer: usize,
        nlri: usize,
        hops: u32,
        loops: bool,
        kind: usize,
    },
    Withdraw {
        peer: usize,
        nlri: usize,
    },
    Down(usize),
    Up(usize),
    /// Our domain originates (or stops originating) group NLRI `nlri`.
    Originate(usize, bool),
}

fn arb_ev() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0..PEERS.len(), 0usize..7, 0u32..4, 0u32..8, 0..KINDS.len()).prop_map(
            |(peer, nlri, hops, loops, kind)| Ev::Update {
                peer,
                nlri,
                hops,
                loops: loops == 0,
                kind,
            }
        ),
        (0..PEERS.len(), 0usize..7).prop_map(|(peer, nlri)| Ev::Withdraw { peer, nlri }),
        (0..PEERS.len()).prop_map(Ev::Down),
        (0..PEERS.len()).prop_map(Ev::Up),
        (0usize..5, any::<bool>()).prop_map(|(nlri, on)| Ev::Originate(nlri, on)),
    ]
}

/// What the test knows that the speaker's public surface does not say:
/// the entry kind of every candidate, the speaker's own originations,
/// which sessions are up, and what each peer was told.
struct Model {
    policy: ExportPolicy,
    kinds: BTreeMap<(RouterId, Nlri), RouteSourceKind>,
    local: BTreeSet<Prefix>,
    up: BTreeSet<RouterId>,
    told: BTreeMap<(RouterId, Nlri), (Route, RouteSourceKind)>,
}

impl Model {
    fn hear(&mut self, out: Vec<OutMsg>) {
        for OutMsg { to, msg } in out {
            match msg {
                BgpMsg::Update { route, kind } => {
                    self.told.insert((to, route.nlri), (route, kind));
                }
                BgpMsg::Withdraw(nlri) => {
                    let had = self.told.remove(&(to, nlri));
                    assert!(had.is_some(), "withdrew {nlri:?} from {to}, never told");
                }
            }
        }
    }

    /// The advertisement the export rules give `to` for `nlri`.
    fn desired(
        &self,
        sp: &BgpSpeaker,
        to: &PeerConfig,
        nlri: Nlri,
    ) -> Option<(Route, RouteSourceKind)> {
        let internal = |r: RouterId| PEERS.iter().any(|p| p.0 == r && p.2 == PeerRel::Internal);
        let (from, best) = sp.rib().best_with_source(nlri)?;
        if from == to.router || (internal(from) && to.is_internal()) {
            return None;
        }
        let kind = self.kinds[&(from, nlri)];
        if !to.is_internal() {
            if !self.policy.allows(kind, to.rel) {
                return None;
            }
            if let (RouteSourceKind::Customer, Nlri::Group(g)) = (kind, nlri) {
                let origin = |o: &Prefix| {
                    let (by, _) = sp
                        .rib()
                        .best_with_source(Nlri::Group(*o))
                        .expect("selected");
                    self.local.contains(o)
                        || self.kinds[&(by, Nlri::Group(*o))] == RouteSourceKind::Local
                };
                let mut selected = sp.rib().group_routes().map(|(p, _)| p);
                if selected.any(|o| o.covers(&g) && *o != g && origin(o)) {
                    return None;
                }
            }
        }
        let mut route = best.clone();
        route.local = false;
        route.next_hop = ME;
        if !to.is_internal() && route.as_path.first() != Some(&ASN) {
            route.as_path = route.as_path.prepend(ASN);
        }
        Some((route, kind))
    }
}

fn run(policy: ExportPolicy, evs: &[Ev]) -> Result<(), TestCaseError> {
    let nlris = nlris();
    let peers: Vec<PeerConfig> = PEERS
        .iter()
        .map(|&(router, asn, rel)| PeerConfig { router, asn, rel })
        .collect();
    let mut sp = BgpSpeaker::new(ME, ASN, peers.clone(), policy);
    prop_assert!(sp.aggregate_suppress);
    let mut m = Model {
        policy,
        kinds: BTreeMap::new(),
        local: BTreeSet::new(),
        up: peers.iter().map(|p| p.router).collect(),
        told: BTreeMap::new(),
    };
    for ev in evs {
        let out = match *ev {
            Ev::Update {
                peer,
                nlri,
                hops,
                loops,
                kind,
            } => {
                let p = &peers[peer];
                if !m.up.contains(&p.router) {
                    continue;
                }
                let nlri = nlris[nlri];
                let mut path = vec![p.asn];
                path.extend((0..hops).map(|h| 500 + h));
                if loops {
                    path.push(ASN);
                }
                let kind = if p.is_internal() {
                    KINDS[kind]
                } else {
                    classify(p.rel)
                };
                // An external route with our ASN in it is dropped unheard.
                if p.is_internal() || !loops {
                    m.kinds.insert((p.router, nlri), kind);
                }
                let route = Route {
                    nlri,
                    as_path: AsPath::from(path),
                    next_hop: p.router,
                    local: false,
                    ebgp: false,
                };
                let msg = BgpMsg::Update { route, kind };
                sp.handle(BgpEvent::FromPeer {
                    from: p.router,
                    msg,
                })
            }
            Ev::Withdraw { peer, nlri } => {
                let p = &peers[peer];
                if !m.up.contains(&p.router) {
                    continue;
                }
                m.kinds.remove(&(p.router, nlris[nlri]));
                let msg = BgpMsg::Withdraw(nlris[nlri]);
                sp.handle(BgpEvent::FromPeer {
                    from: p.router,
                    msg,
                })
            }
            Ev::Down(peer) => {
                let router = peers[peer].router;
                m.up.remove(&router);
                m.kinds.retain(|(from, _), _| *from != router);
                sp.handle(BgpEvent::PeerDown(router))
            }
            Ev::Up(peer) => {
                let router = peers[peer].router;
                m.up.insert(router);
                // The peer comes back with nothing; the speaker resends.
                m.told.retain(|(to, _), _| *to != router);
                sp.handle(BgpEvent::PeerUp(router))
            }
            Ev::Originate(nlri, on) => {
                let Nlri::Group(g) = nlris[nlri] else {
                    unreachable!("the first five NLRIs are groups")
                };
                if on {
                    m.local.insert(g);
                    m.kinds
                        .insert((RouterId::MAX, nlris[nlri]), RouteSourceKind::Local);
                    sp.originate_group(g)
                } else {
                    m.local.remove(&g);
                    m.kinds.remove(&(RouterId::MAX, nlris[nlri]));
                    sp.withdraw_group(g)
                }
            }
        };
        for msg in &out {
            prop_assert!(m.up.contains(&msg.to), "{ev:?} told down peer {}", msg.to);
        }
        m.hear(out);
        for to in peers.iter().filter(|p| m.up.contains(&p.router)) {
            for &nlri in &nlris {
                // An eBGP receiver classifies a route by its own
                // relationship to us and ignores the kind we send, so
                // the kind is held only on iBGP sessions.
                let held = |(route, kind): (Route, RouteSourceKind)| {
                    (route, to.is_internal().then_some(kind))
                };
                let told = m.told.get(&(to.router, nlri)).cloned().map(held);
                let want = m.desired(&sp, to, nlri).map(held);
                prop_assert_eq!(
                    told,
                    want,
                    "peer {} NLRI {:?} after {:?}",
                    to.router,
                    nlri,
                    ev
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn told_equals_desired(
        open in any::<bool>(),
        evs in prop::collection::vec(arb_ev(), 1..120),
    ) {
        let policy = if open { ExportPolicy::Open } else { ExportPolicy::ProviderCustomer };
        run(policy, &evs)?;
    }
}
