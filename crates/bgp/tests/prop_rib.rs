//! Property tests for the RIB and aggregation: arbitrary interleavings
//! of updates and withdraws keep the decision process consistent.

use std::collections::{BTreeMap, BTreeSet};

use bgp::{aggregate, Nlri, Rib, Route, RouterId};
use mcast_addr::{McastAddr, Prefix};
use proptest::prelude::*;
use snapshot::{Dec, Enc, Snapshot};

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
