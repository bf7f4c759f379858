//! Property tests for the RIB and aggregation: arbitrary interleavings
//! of updates and withdraws keep the decision process consistent.

use std::collections::{BTreeMap, BTreeSet};

use bgp::{
    aggregate, BgpEvent, BgpMsg, BgpSpeaker, ExportPolicy, Nlri, OutMsg, PeerConfig, PeerRel, Rib,
    Route, RouteSourceKind, RouterId,
};
use mcast_addr::{McastAddr, Prefix};
use proptest::prelude::*;
use snapshot::{Dec, Enc, Snapshot, SnapshotState};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (8u8..=28, any::<u32>()).prop_map(|(len, bits)| {
        let addr = 0xE000_0000 | (bits & 0x0FFF_FFFF);
        Prefix::containing(McastAddr(addr), len).unwrap()
    })
}

#[derive(Debug, Clone)]
enum Op {
    Update {
        peer: u32,
        prefix: Prefix,
        path_len: usize,
    },
    Withdraw {
        peer: u32,
        prefix: Prefix,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4, arb_prefix(), 1usize..6).prop_map(|(peer, prefix, path_len)| Op::Update {
            peer,
            prefix,
            path_len
        }),
        (0u32..4, arb_prefix()).prop_map(|(peer, prefix)| Op::Withdraw { peer, prefix }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any op sequence, the selected best for every NLRI is the
    /// minimum (by preference) of what remains in Adj-RIB-In — checked
    /// by replaying into a model map.
    #[test]
    fn best_is_always_preference_minimum(ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut rib = Rib::new();
        let mut model: std::collections::BTreeMap<(u32, Prefix), Route> = Default::default();
        for op in &ops {
            match op {
                Op::Update { peer, prefix, path_len } => {
                    let route = Route {
                        nlri: Nlri::Group(*prefix),
                        as_path: (0..*path_len as u32).map(|i| i + 10).collect(),
                        next_hop: *peer,
                        local: false,
                        ebgp: true,
                    };
                    model.insert((*peer, *prefix), route.clone());
                    rib.update_from(*peer, route);
                }
                Op::Withdraw { peer, prefix } => {
                    model.remove(&(*peer, *prefix));
                    rib.withdraw_from(*peer, Nlri::Group(*prefix));
                }
            }
        }
        // Every prefix in the model: best must equal the model's best.
        let prefixes: std::collections::BTreeSet<Prefix> =
            model.keys().map(|(_, p)| *p).collect();
        for p in &prefixes {
            let candidates: Vec<&Route> =
                model.iter().filter(|((_, mp), _)| mp == p).map(|(_, r)| r).collect();
            let best = rib.best(Nlri::Group(*p));
            prop_assert!(best.is_some());
            let best = best.unwrap();
            for c in candidates {
                prop_assert!(
                    !bgp::route::prefer(c, best),
                    "rib kept {best:?} but {c:?} is preferred"
                );
            }
        }
        // And nothing else is selected.
        for r in rib.loc_rib() {
            if let Nlri::Group(p) = r.nlri {
                prop_assert!(prefixes.contains(&p), "stale selection {p}");
            }
        }
    }

    /// Longest-prefix match always returns the most specific covering
    /// selected route.
    #[test]
    fn lpm_is_most_specific(prefixes in prop::collection::vec(arb_prefix(), 1..20)) {
        let mut rib = Rib::new();
        for (i, p) in prefixes.iter().enumerate() {
            rib.update_from(1, Route {
                nlri: Nlri::Group(*p),
                as_path: vec![i as u32 + 2].into(),
                next_hop: 1,
                local: false,
                ebgp: true,
            });
        }
        let probe = prefixes[0].base();
        let hit = rib.lookup_group(probe).expect("covering route exists");
        let hit_p = hit.nlri.as_group().unwrap();
        prop_assert!(hit_p.contains(probe));
        for p in &prefixes {
            if p.contains(probe) {
                prop_assert!(p.len() <= hit_p.len(), "{p} is more specific than {hit_p}");
            }
        }
    }

    /// Aggregation preserves coverage exactly: an address is covered by
    /// the aggregate iff it was covered by the input.
    #[test]
    fn aggregate_preserves_coverage(
        prefixes in prop::collection::vec(arb_prefix(), 1..16),
        probes in prop::collection::vec(any::<u32>(), 16),
    ) {
        let agg = aggregate(&prefixes);
        // Output is non-overlapping.
        for (i, a) in agg.iter().enumerate() {
            for b in agg.iter().skip(i + 1) {
                prop_assert!(!a.overlaps(b));
            }
        }
        prop_assert!(agg.len() <= prefixes.len());
        for bits in probes {
            let addr = McastAddr(0xE000_0000 | (bits & 0x0FFF_FFFF));
            let in_input = prefixes.iter().any(|p| p.contains(addr));
            let in_agg = agg.iter().any(|p| p.contains(addr));
            prop_assert_eq!(in_input, in_agg, "coverage changed at {}", addr);
        }
    }

    /// flush_peer is equivalent to withdrawing everything that peer
    /// contributed.
    #[test]
    fn flush_equals_withdraw_all(ops in prop::collection::vec(arb_op(), 1..40)) {
        let mut a = Rib::new();
        let mut b = Rib::new();
        let mut peer1: std::collections::BTreeSet<Prefix> = Default::default();
        for op in &ops {
            match op {
                Op::Update { peer, prefix, path_len } => {
                    let route = Route {
                        nlri: Nlri::Group(*prefix),
                        as_path: (0..*path_len as u32).map(|i| i + 10).collect(),
                        next_hop: *peer,
                        local: false,
                        ebgp: true,
                    };
                    a.update_from(*peer, route.clone());
                    b.update_from(*peer, route);
                    if *peer == 1 { peer1.insert(*prefix); }
                }
                Op::Withdraw { peer, prefix } => {
                    a.withdraw_from(*peer, Nlri::Group(*prefix));
                    b.withdraw_from(*peer, Nlri::Group(*prefix));
                    if *peer == 1 { peer1.remove(prefix); }
                }
            }
        }
        a.flush_peer(1);
        for p in peer1 {
            b.withdraw_from(1, Nlri::Group(p));
        }
        let av: Vec<_> = a.loc_rib().cloned().collect();
        let bv: Vec<_> = b.loc_rib().cloned().collect();
        prop_assert_eq!(av, bv);
    }
}

// ---------------------------------------------------------------------
// Trie LPM vs linear reference
// ---------------------------------------------------------------------

/// Prefixes drawn from a small pool of bases at many lengths, so
/// inserts and removes collide and nest often.
fn arb_pool_prefix() -> impl Strategy<Value = Prefix> {
    (4u8..=32, 0u32..6).prop_map(|(len, i)| {
        let addr = 0xE000_0000 | (i.wrapping_mul(0x0123_4567) & 0x0FFF_FFFF);
        Prefix::containing(McastAddr(addr), len).unwrap()
    })
}

#[derive(Debug, Clone)]
enum TrieOp {
    Insert { prefix: Prefix, val: u32 },
    Remove { prefix: Prefix },
}

fn arb_trie_op() -> impl Strategy<Value = TrieOp> {
    prop_oneof![
        (arb_pool_prefix(), any::<u32>()).prop_map(|(prefix, val)| TrieOp::Insert { prefix, val }),
        arb_pool_prefix().prop_map(|prefix| TrieOp::Remove { prefix }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trie's longest-prefix match is exactly the linear-scan
    /// reference, including the documented tie-break: longest match
    /// wins; among equal-length covering prefixes the lowest base wins
    /// (vacuous for distinct prefixes, but the reference encodes the
    /// contract explicitly so a regression cannot hide behind it).
    #[test]
    fn trie_lpm_equals_linear_scan(
        ops in prop::collection::vec(arb_trie_op(), 1..60),
        probes in prop::collection::vec((0u32..6, any::<u32>()), 16),
    ) {
        let mut trie: bgp::PrefixTrie<u32> = bgp::PrefixTrie::new();
        let mut reference: std::collections::BTreeMap<Prefix, u32> = Default::default();
        for op in &ops {
            match op {
                TrieOp::Insert { prefix, val } => {
                    prop_assert_eq!(trie.insert(*prefix, *val), reference.insert(*prefix, *val));
                }
                TrieOp::Remove { prefix } => {
                    prop_assert_eq!(trie.remove(prefix), reference.remove(prefix));
                }
            }
            prop_assert_eq!(trie.len(), reference.len());
        }
        // Exact retrieval agrees entry by entry.
        for (p, v) in &reference {
            prop_assert_eq!(trie.get(p), Some(v));
        }
        // LPM agrees on probes biased into the pool bases.
        for (i, off) in &probes {
            let base = i.wrapping_mul(0x0123_4567);
            let addr = McastAddr(0xE000_0000 | (base.wrapping_add(off & 0xFFFF) & 0x0FFF_FFFF));
            let linear = reference
                .iter()
                .filter(|(p, _)| p.contains(addr))
                .max_by(|(a, _), (b, _)| {
                    a.len()
                        .cmp(&b.len())
                        .then(b.base_u32().cmp(&a.base_u32()))
                })
                .map(|(p, v)| (*p, *v));
            let got = trie.lookup(addr).map(|(p, v)| (p, *v));
            prop_assert_eq!(got, linear, "LPM diverged at {}", addr);
        }
    }

    /// `covering` yields exactly the stored proper ancestors of a
    /// prefix, shortest first — the linear filter the speaker's
    /// suppression check used to run over every selected route.
    #[test]
    fn trie_covering_equals_linear_filter(
        ops in prop::collection::vec(arb_trie_op(), 1..60),
        probes in prop::collection::vec(arb_pool_prefix(), 12),
    ) {
        let mut trie: bgp::PrefixTrie<u32> = bgp::PrefixTrie::new();
        let mut reference: std::collections::BTreeMap<Prefix, u32> = Default::default();
        for op in &ops {
            match op {
                TrieOp::Insert { prefix, val } => {
                    trie.insert(*prefix, *val);
                    reference.insert(*prefix, *val);
                }
                TrieOp::Remove { prefix } => {
                    trie.remove(prefix);
                    reference.remove(prefix);
                }
            }
        }
        for q in &probes {
            let mut linear: Vec<(Prefix, u32)> = reference
                .iter()
                .filter(|(p, _)| *p != q && p.covers(q))
                .map(|(p, v)| (*p, *v))
                .collect();
            linear.sort_by_key(|(p, _)| p.len());
            let got: Vec<(Prefix, u32)> = trie.covering(q).map(|(p, v)| (p, *v)).collect();
            prop_assert_eq!(got, linear, "covering diverged at {}", q);
        }
    }

    /// Churn: arbitrary interleavings of updates, withdraws, session
    /// flushes, and re-advertisements leave the RIB identical to a
    /// naive reference that recomputes everything from a flat
    /// (peer, prefix) → route map — including the G-RIB trie index and
    /// its lookups.
    #[test]
    fn churn_matches_naive_reference(
        ops in prop::collection::vec(arb_churn_op(), 1..80),
        probes in prop::collection::vec((0u32..6, any::<u32>()), 8),
    ) {
        let mut rib = Rib::new();
        let mut model: std::collections::BTreeMap<(u32, Prefix), Route> = Default::default();
        for op in &ops {
            match op {
                ChurnOp::Update { peer, prefix, path_len } => {
                    let route = Route {
                        nlri: Nlri::Group(*prefix),
                        as_path: (0..*path_len as u32).map(|i| i + 10).collect(),
                        next_hop: *peer,
                        local: false,
                        ebgp: true,
                    };
                    model.insert((*peer, *prefix), route.clone());
                    rib.update_from(*peer, route);
                }
                ChurnOp::Withdraw { peer, prefix } => {
                    model.remove(&(*peer, *prefix));
                    rib.withdraw_from(*peer, Nlri::Group(*prefix));
                }
                ChurnOp::Flush { peer } => {
                    model.retain(|(p, _), _| p != peer);
                    rib.flush_peer(*peer);
                }
            }
            // The trie index must mirror the Loc-RIB after every step.
            prop_assert!(rib.check_grib_index());
        }
        // Selected best per prefix equals the naive decision over the
        // model (same iteration order: peer ascending).
        let prefixes: std::collections::BTreeSet<Prefix> =
            model.keys().map(|(_, p)| *p).collect();
        for p in &prefixes {
            let mut best: Option<&Route> = None;
            for ((_, mp), r) in &model {
                if mp != p {
                    continue;
                }
                match best {
                    None => best = Some(r),
                    Some(b) if bgp::route::prefer(r, b) => best = Some(r),
                    _ => {}
                }
            }
            prop_assert_eq!(rib.best(Nlri::Group(*p)), best);
        }
        prop_assert_eq!(rib.grib_size(), prefixes.len());
        for r in rib.loc_rib() {
            if let Nlri::Group(p) = r.nlri {
                prop_assert!(prefixes.contains(&p), "stale selection {}", p);
            }
        }
        // lookup_group equals a linear scan over the selected routes.
        for (i, off) in &probes {
            let base = i.wrapping_mul(0x0123_4567);
            let addr = McastAddr(0xE000_0000 | (base.wrapping_add(off & 0xFFFF) & 0x0FFF_FFFF));
            let linear = rib
                .group_routes()
                .filter(|(p, _)| p.contains(addr))
                .max_by(|(a, _), (b, _)| {
                    a.len()
                        .cmp(&b.len())
                        .then(b.base_u32().cmp(&a.base_u32()))
                })
                .map(|(_, r)| r);
            prop_assert_eq!(rib.lookup_group(addr), linear, "lookup diverged at {}", addr);
        }
    }
}

#[derive(Debug, Clone)]
enum ChurnOp {
    Update {
        peer: u32,
        prefix: Prefix,
        path_len: usize,
    },
    Withdraw {
        peer: u32,
        prefix: Prefix,
    },
    Flush {
        peer: u32,
    },
}

fn arb_churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (0u32..4, arb_pool_prefix(), 1usize..6).prop_map(|(peer, prefix, path_len)| {
            ChurnOp::Update {
                peer,
                prefix,
                path_len,
            }
        }),
        (0u32..4, arb_pool_prefix()).prop_map(|(peer, prefix)| ChurnOp::Withdraw { peer, prefix }),
        (0u32..4).prop_map(|peer| ChurnOp::Flush { peer }),
    ]
}

// ---------------------------------------------------------------------
// One table vs the three maps it replaced
// ---------------------------------------------------------------------

/// The RIB as it was before its maps were merged into one NLRI-keyed
/// table: Adj-RIB-In keyed (NLRI, peer), the peer reverse index, and a
/// Loc-RIB holding a copy of each winner. Kept here as the reference
/// the table is compared against.
#[derive(Default)]
struct ThreeMaps {
    adj_in: BTreeMap<(Nlri, RouterId), Route>,
    by_peer: BTreeMap<RouterId, BTreeSet<Nlri>>,
    loc: BTreeMap<Nlri, (RouterId, Route)>,
    changed_groups: Vec<Prefix>,
}

impl ThreeMaps {
    fn update_from(&mut self, peer: RouterId, route: Route) -> Option<Option<Route>> {
        let nlri = route.nlri;
        self.adj_in.insert((nlri, peer), route);
        self.by_peer.entry(peer).or_default().insert(nlri);
        self.decide(nlri)
    }

    fn withdraw_from(&mut self, peer: RouterId, nlri: Nlri) -> Option<Option<Route>> {
        self.adj_in.remove(&(nlri, peer))?;
        if let Some(set) = self.by_peer.get_mut(&peer) {
            set.remove(&nlri);
            if set.is_empty() {
                self.by_peer.remove(&peer);
            }
        }
        self.decide(nlri)
    }

    fn flush_peer(&mut self, peer: RouterId) -> Vec<Nlri> {
        let gone = self.by_peer.remove(&peer).unwrap_or_default();
        let mut changed = Vec::new();
        for n in gone {
            self.adj_in.remove(&(n, peer));
            if self.decide(n).is_some() {
                changed.push(n);
            }
        }
        changed
    }

    fn decide(&mut self, nlri: Nlri) -> Option<Option<Route>> {
        let mut best: Option<(RouterId, &Route)> = None;
        for ((_, peer), r) in self
            .adj_in
            .range((nlri, RouterId::MIN)..=(nlri, RouterId::MAX))
        {
            match best {
                None => best = Some((*peer, r)),
                Some((_, b)) if bgp::route::prefer(r, b) => best = Some((*peer, r)),
                _ => {}
            }
        }
        let best = best.map(|(peer, r)| (peer, r.clone()));
        if self.loc.get(&nlri) == best.as_ref() {
            return None;
        }
        if let Nlri::Group(p) = nlri {
            self.changed_groups.push(p);
        }
        match best {
            Some(b) => self.loc.insert(nlri, b),
            None => self.loc.remove(&nlri),
        };
        Some(self.loc.get(&nlri).map(|(_, r)| r.clone()))
    }
}

#[derive(Debug, Clone)]
enum RibOp {
    Update {
        peer: u32,
        nlri: Nlri,
        path_len: usize,
        next_hop: u32,
        ebgp: bool,
    },
    Withdraw {
        peer: u32,
        nlri: Nlri,
    },
    Originate {
        nlri: Nlri,
    },
    WithdrawLocal {
        nlri: Nlri,
    },
    Flush {
        peer: u32,
    },
    Drain,
}

/// A few nested group prefixes and a few domains, so operations
/// collide on an NLRI often.
fn arb_nlri() -> impl Strategy<Value = Nlri> {
    prop_oneof![
        arb_pool_prefix().prop_map(Nlri::Group),
        (1u32..5).prop_map(Nlri::Domain),
    ]
}

fn arb_rib_op() -> impl Strategy<Value = RibOp> {
    prop_oneof![
        (0u32..4, arb_nlri(), 1usize..4, 0u32..3, any::<bool>()).prop_map(
            |(peer, nlri, path_len, next_hop, ebgp)| RibOp::Update {
                peer,
                nlri,
                path_len,
                next_hop,
                ebgp
            }
        ),
        (0u32..4, arb_nlri()).prop_map(|(peer, nlri)| RibOp::Withdraw { peer, nlri }),
        arb_nlri().prop_map(|nlri| RibOp::Originate { nlri }),
        arb_nlri().prop_map(|nlri| RibOp::WithdrawLocal { nlri }),
        (0u32..4).prop_map(|peer| RibOp::Flush { peer }),
        Just(RibOp::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-table `Rib` and the three maps it replaced agree on
    /// every return value, on the Loc-RIB in order, on who contributed
    /// each winner, and on the sequence of changed group prefixes. And
    /// one-shot decide ≡ incremental decide: the table decoded from this
    /// one's bytes, each row decided once from all its candidates
    /// (equal-preference ties across peers and a local origination
    /// among them), is this table.
    #[test]
    fn one_table_matches_three_maps(
        ops in prop::collection::vec(arb_rib_op(), 1..120),
        probes in prop::collection::vec((0u32..6, any::<u32>()), 8),
    ) {
        let mut rib = Rib::new();
        let mut old = ThreeMaps::default();
        for op in &ops {
            match op {
                RibOp::Update { peer, nlri, path_len, next_hop, ebgp } => {
                    let route = Route {
                        nlri: *nlri,
                        as_path: (0..*path_len as u32).map(|i| i + 10 + peer).collect(),
                        next_hop: *next_hop,
                        local: false,
                        ebgp: *ebgp,
                    };
                    let want = old.update_from(*peer, route.clone());
                    let got = rib.update_from(*peer, route).map(|b| b.cloned());
                    prop_assert_eq!(got, want, "{:?}", op);
                }
                RibOp::Withdraw { peer, nlri } => {
                    let want = old.withdraw_from(*peer, *nlri);
                    let got = rib.withdraw_from(*peer, *nlri).map(|b| b.cloned());
                    prop_assert_eq!(got, want, "{:?}", op);
                }
                RibOp::Originate { nlri } => {
                    let route = Route::originate(*nlri, 7, 70);
                    let want = old.update_from(RouterId::MAX, route.clone());
                    let got = rib.originate(route).map(|b| b.cloned());
                    prop_assert_eq!(got, want, "{:?}", op);
                }
                RibOp::WithdrawLocal { nlri } => {
                    let want = old.withdraw_from(RouterId::MAX, *nlri);
                    let got = rib.withdraw_local(*nlri).map(|b| b.cloned());
                    prop_assert_eq!(got, want, "{:?}", op);
                }
                RibOp::Flush { peer } => {
                    prop_assert_eq!(rib.flush_peer(*peer), old.flush_peer(*peer), "{:?}", op);
                }
                RibOp::Drain => {
                    let want = std::mem::take(&mut old.changed_groups);
                    prop_assert_eq!(rib.take_changed_groups(), want);
                }
            }
            prop_assert!(rib.check_grib_index());
        }
        let loc: Vec<Route> = old.loc.values().map(|(_, r)| r.clone()).collect();
        prop_assert_eq!(rib.loc_rib().cloned().collect::<Vec<_>>(), loc);
        for (nlri, (peer, route)) in &old.loc {
            prop_assert_eq!(rib.best_with_source(*nlri), Some((*peer, route)));
        }
        prop_assert_eq!(rib.grib_size(), old.loc.keys().filter(|n| n.as_group().is_some()).count());
        prop_assert_eq!(rib.take_changed_groups(), old.changed_groups);

        let encoded = |rib: &Rib| {
            let mut enc = Enc::new();
            rib.encode(&mut enc);
            enc.finish()
        };
        let bytes = encoded(&rib);
        let mut dec = Dec::new(&bytes);
        let mut back = Rib::decode(&mut dec).expect("its own bytes decode");
        prop_assert_eq!(dec.finish(), Ok(()));
        prop_assert_eq!(encoded(&back), bytes);
        for op in &ops {
            if let RibOp::Update { nlri, .. }
            | RibOp::Withdraw { nlri, .. }
            | RibOp::Originate { nlri }
            | RibOp::WithdrawLocal { nlri } = op
            {
                prop_assert_eq!(back.best_with_source(*nlri), rib.best_with_source(*nlri));
            }
        }
        prop_assert_eq!(back.grib_size(), rib.grib_size());
        prop_assert!(back.check_grib_index());
        prop_assert!(back.take_changed_groups().is_empty());
        for (i, off) in &probes {
            let base = i.wrapping_mul(0x0123_4567);
            let addr = McastAddr(0xE000_0000 | (base.wrapping_add(off & 0xFFFF) & 0x0FFF_FFFF));
            prop_assert_eq!(back.lookup_group(addr), rib.lookup_group(addr), "at {}", addr);
        }
    }
}

// ---------------------------------------------------------------------
// A speaker's table through its own bytes
// ---------------------------------------------------------------------

const ME: RouterId = 1;
const ASN: u32 = 100;

/// Two internal peers, then a customer, a peer and a provider.
const PEERS: [(RouterId, u32, PeerRel); 5] = [
    (2, ASN, PeerRel::Internal),
    (3, ASN, PeerRel::Internal),
    (10, 210, PeerRel::Customer),
    (11, 211, PeerRel::Peer),
    (12, 212, PeerRel::Provider),
];

/// What an internal peer may say of a route's entry kind.
const KINDS: [RouteSourceKind; 4] = [
    RouteSourceKind::Local,
    RouteSourceKind::Customer,
    RouteSourceKind::Provider,
    RouteSourceKind::Peer,
];

#[derive(Debug, Clone)]
enum SpeakerOp {
    Update {
        peer: usize,
        nlri: Nlri,
        hops: u32,
        kind: usize,
    },
    Withdraw {
        peer: usize,
        nlri: Nlri,
    },
    Down(usize),
    Up(usize),
    Originate(Prefix, bool),
}

fn arb_speaker_op() -> impl Strategy<Value = SpeakerOp> {
    prop_oneof![
        (0..PEERS.len(), arb_nlri(), 0u32..3, 0..KINDS.len()).prop_map(
            |(peer, nlri, hops, kind)| SpeakerOp::Update {
                peer,
                nlri,
                hops,
                kind
            }
        ),
        (0..PEERS.len(), arb_nlri()).prop_map(|(peer, nlri)| SpeakerOp::Withdraw { peer, nlri }),
        (0..PEERS.len()).prop_map(SpeakerOp::Down),
        (0..PEERS.len()).prop_map(SpeakerOp::Up),
        (arb_pool_prefix(), any::<bool>()).prop_map(|(p, on)| SpeakerOp::Originate(p, on)),
    ]
}

fn speaker() -> BgpSpeaker {
    let peers = PEERS.iter();
    let peers = peers.map(|&(router, asn, rel)| PeerConfig { router, asn, rel });
    BgpSpeaker::new(ME, ASN, peers.collect(), ExportPolicy::ProviderCustomer)
}

/// Feeds `op` to `sp`; the messages it sends.
fn apply(sp: &mut BgpSpeaker, op: &SpeakerOp) -> Vec<OutMsg> {
    match *op {
        SpeakerOp::Update {
            peer,
            nlri,
            hops,
            kind,
        } => {
            let (from, asn, _) = PEERS[peer];
            let route = Route {
                nlri,
                as_path: std::iter::once(asn).chain(500..500 + hops).collect(),
                next_hop: from,
                local: false,
                ebgp: false,
            };
            let kind = KINDS[kind];
            let msg = BgpMsg::Update { route, kind };
            sp.handle(BgpEvent::FromPeer { from, msg })
        }
        SpeakerOp::Withdraw { peer, nlri } => {
            let msg = BgpMsg::Withdraw(nlri);
            let from = PEERS[peer].0;
            sp.handle(BgpEvent::FromPeer { from, msg })
        }
        SpeakerOp::Down(peer) => sp.handle(BgpEvent::PeerDown(PEERS[peer].0)),
        SpeakerOp::Up(peer) => sp.handle(BgpEvent::PeerUp(PEERS[peer].0)),
        SpeakerOp::Originate(prefix, true) => sp.originate_group(prefix),
        SpeakerOp::Originate(prefix, false) => sp.withdraw_group(prefix),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A speaker's table, with the entry kind of every candidate and
    /// what each peer was told, comes back from its bytes through
    /// `Rib::decode` as the table it was: the same bytes again and the
    /// same selections. A speaker restored from its state then tells
    /// its peers what the original tells them, event for event: the
    /// kinds steer the export rules and the told routes the diffs.
    #[test]
    fn speaker_table_roundtrips_through_rib_decode(
        ops in prop::collection::vec(arb_speaker_op(), 1..80),
        then in prop::collection::vec(arb_speaker_op(), 1..20),
    ) {
        let mut sp = speaker();
        for op in &ops {
            apply(&mut sp, op);
        }
        let encoded = |rib: &Rib| {
            let mut enc = Enc::new();
            rib.encode(&mut enc);
            enc.finish()
        };
        let bytes = encoded(sp.rib());
        let mut dec = Dec::new(&bytes);
        let back = Rib::decode(&mut dec).expect("its own bytes decode");
        prop_assert_eq!(dec.finish(), Ok(()));
        prop_assert_eq!(encoded(&back), bytes);
        let loc = |rib: &Rib| rib.loc_rib().cloned().collect::<Vec<_>>();
        prop_assert_eq!(loc(&back), loc(sp.rib()));
        for r in sp.rib().loc_rib() {
            prop_assert_eq!(back.best_with_source(r.nlri), sp.rib().best_with_source(r.nlri));
        }
        prop_assert!(back.check_grib_index());

        let mut enc = Enc::new();
        sp.encode_state(&mut enc);
        let state = enc.finish();
        let mut restored = speaker();
        let mut dec = Dec::new(&state);
        prop_assert_eq!(restored.restore_state(&mut dec), Ok(()));
        prop_assert_eq!(dec.finish(), Ok(()));
        for op in &then {
            prop_assert_eq!(apply(&mut restored, op), apply(&mut sp, op), "{:?}", op);
        }
    }
}

// ---------------------------------------------------------------------
// Format v5 written from a naive model of the table
// ---------------------------------------------------------------------

/// The table as the snapshot format sees it, kept the plainest way: per
/// NLRI, each peer's candidate with its entry kind, and what each peer
/// was last told as (path, `ebgp`).
#[derive(Default)]
struct Model {
    heard: BTreeMap<Nlri, BTreeMap<RouterId, (Option<RouteSourceKind>, Route)>>,
    sent: BTreeMap<Nlri, BTreeMap<RouterId, (bgp::AsPath, bool)>>,
}

impl Model {
    fn hear(&mut self, peer: RouterId, kind: Option<RouteSourceKind>, route: Route) {
        let row = self.heard.entry(route.nlri).or_default();
        row.insert(peer, (kind, route));
    }

    fn forget(&mut self, peer: RouterId, nlri: Nlri) {
        if let Some(row) = self.heard.get_mut(&nlri) {
            row.remove(&peer);
        }
    }

    /// What a speaker's messages told each peer.
    fn tell(&mut self, msgs: &[OutMsg]) {
        for OutMsg { to, msg } in msgs {
            match msg {
                BgpMsg::Update { route, .. } => {
                    let row = self.sent.entry(route.nlri).or_default();
                    row.insert(*to, (route.as_path, route.ebgp));
                }
                BgpMsg::Withdraw(nlri) => {
                    self.sent.entry(*nlri).or_default().remove(to);
                }
            }
        }
    }

    /// A session reset: `peer`'s candidates and its records go.
    fn flush(&mut self, peer: RouterId) {
        for row in self.heard.values_mut() {
            row.remove(&peer);
        }
        self.forget_told(peer);
    }

    fn forget_told(&mut self, peer: RouterId) {
        for row in self.sent.values_mut() {
            row.remove(&peer);
        }
    }

    /// Format v5 of the model, written from the format's description:
    /// rows in NLRI order; each row's candidates in peer order, the peer
    /// of the first one no other is preferred to, and what each peer was
    /// told, in peer order. A row with nothing in it is not written.
    fn v5(&self) -> Vec<u8> {
        let empty = BTreeMap::new();
        let heard = self
            .heard
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(n, _)| *n);
        let sent = self
            .sent
            .iter()
            .filter(|(_, r)| !r.is_empty())
            .map(|(n, _)| *n);
        let nlris: BTreeSet<Nlri> = heard.chain(sent).collect();
        let mut enc = Enc::new();
        enc.seq(nlris.len());
        for nlri in &nlris {
            nlri.encode(&mut enc);
            let heard = self.heard.get(nlri).unwrap_or(&empty);
            enc.seq(heard.len());
            let mut best: Option<(RouterId, &Route)> = None;
            for (peer, (kind, route)) in heard {
                enc.u32(*peer);
                kind.encode(&mut enc);
                route.as_path.encode(&mut enc);
                enc.u32(route.next_hop);
                enc.bool(route.local);
                enc.bool(route.ebgp);
                if best.is_none_or(|(_, b)| bgp::route::prefer(route, b)) {
                    best = Some((*peer, route));
                }
            }
            best.map(|(peer, _)| peer).encode(&mut enc);
            let sent = self.sent.get(nlri);
            enc.seq(sent.map_or(0, BTreeMap::len));
            for (to, (path, ebgp)) in sent.into_iter().flatten() {
                enc.u32(*to);
                enc.bool(*ebgp);
                path.encode(&mut enc);
            }
        }
        enc.finish()
    }
}

fn rib_bytes(rib: &Rib) -> Vec<u8> {
    let mut enc = Enc::new();
    rib.encode(&mut enc);
    enc.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every update, withdraw, origination and flush, `Rib::encode`
    /// writes the bytes a v5 writer over the naive model writes: format
    /// v5 holds for every table the operations make, not only for the
    /// pinned blobs.
    #[test]
    fn rib_bytes_equal_a_v5_writer_over_the_model(ops in prop::collection::vec(arb_rib_op(), 1..120)) {
        let mut rib = Rib::new();
        let mut model = Model::default();
        for op in &ops {
            match op {
                RibOp::Update { peer, nlri, path_len, next_hop, ebgp } => {
                    let route = Route {
                        nlri: *nlri,
                        as_path: (0..*path_len as u32).map(|i| i + 10 + peer).collect(),
                        next_hop: *next_hop,
                        local: false,
                        ebgp: *ebgp,
                    };
                    model.hear(*peer, None, route.clone());
                    rib.update_from(*peer, route);
                }
                RibOp::Withdraw { peer, nlri } => {
                    model.forget(*peer, *nlri);
                    rib.withdraw_from(*peer, *nlri);
                }
                RibOp::Originate { nlri } => {
                    let route = Route::originate(*nlri, 7, 70);
                    model.hear(RouterId::MAX, None, route.clone());
                    rib.originate(route);
                }
                RibOp::WithdrawLocal { nlri } => {
                    model.forget(RouterId::MAX, *nlri);
                    rib.withdraw_local(*nlri);
                }
                RibOp::Flush { peer } => {
                    model.flush(*peer);
                    rib.flush_peer(*peer);
                }
                RibOp::Drain => {
                    rib.take_changed_groups();
                }
            }
            prop_assert_eq!(rib_bytes(&rib), model.v5(), "after {:?}", op);
        }
    }

    /// The same through a speaker, whose table also records what each
    /// peer was told: the model hears what the speaker is fed (an
    /// external peer's entry kind is its relationship) and learns what
    /// each peer was told from the messages the speaker sends; a session
    /// that goes down drops the peer's candidates and records, one that
    /// comes up its records. After every event the speaker's table
    /// writes the model's bytes.
    #[test]
    fn speaker_bytes_equal_a_v5_writer_over_the_model(ops in prop::collection::vec(arb_speaker_op(), 1..120)) {
        let mut sp = speaker();
        let mut model = Model::default();
        for op in &ops {
            match *op {
                SpeakerOp::Update { peer, nlri, hops, kind } => {
                    let (from, asn, rel) = PEERS[peer];
                    let external = rel != PeerRel::Internal;
                    let route = Route {
                        nlri,
                        as_path: std::iter::once(asn).chain(500..500 + hops).collect(),
                        next_hop: from,
                        local: false,
                        ebgp: external,
                    };
                    let kind = if external { bgp::policy::classify(rel) } else { KINDS[kind] };
                    model.hear(from, Some(kind), route);
                }
                SpeakerOp::Withdraw { peer, nlri } => model.forget(PEERS[peer].0, nlri),
                SpeakerOp::Down(peer) => model.flush(PEERS[peer].0),
                SpeakerOp::Up(peer) => model.forget_told(PEERS[peer].0),
                SpeakerOp::Originate(prefix, on) => {
                    let nlri = Nlri::Group(prefix);
                    match on {
                        true => {
                            let route = Route::originate(nlri, ASN, ME);
                            model.hear(RouterId::MAX, Some(RouteSourceKind::Local), route);
                        }
                        false => model.forget(RouterId::MAX, nlri),
                    }
                }
            }
            model.tell(&apply(&mut sp, op));
            prop_assert_eq!(rib_bytes(sp.rib()), model.v5(), "after {:?}", op);
        }
    }
}
