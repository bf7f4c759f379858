//! Property tests for MASC claim bookkeeping and the claim algorithm's
//! free-space arithmetic.

use masc::claims::{KnownClaim, OuterSpace};
use mcast_addr::{McastAddr, Prefix, SpaceTracker};
use proptest::prelude::*;
use snapshot::Snapshot as _;

/// One advertised range: a `/6…/12` around one of the eight `/7`s of
/// 224/4, so that roots nest, repeat, double and come back across
/// rounds often, and a claimable flag.
fn arb_range() -> impl Strategy<Value = (Prefix, u64, bool)> {
    (0u32..8, 6u8..=12, 1_000u64..2_000, any::<bool>()).prop_map(|(slot, len, exp, act)| {
        let root = Prefix::containing(McastAddr(0xE000_0000 | slot << 25), len).unwrap();
        (root, exp, act)
    })
}

/// A claim to place: which advertised range (224/4 itself when the
/// index names none, so some claims fall outside every range), how
/// much longer its mask is, where inside, owner and expiry.
type ClaimSpec = (usize, u8, u32, u32, u64);

fn arb_claim() -> impl Strategy<Value = ClaimSpec> {
    (0usize..6, 1u8..=4, any::<u32>(), 1u32..=3, 1u64..1_000)
}

fn place(spec: ClaimSpec, ranges: &[(Prefix, u64, bool)]) -> KnownClaim {
    let (idx, extra, bits, owner, expires) = spec;
    let root = ranges.get(idx).map_or(Prefix::MULTICAST, |r| r.0);
    let at = McastAddr(root.base_u32() | bits & !root.mask());
    let prefix = Prefix::containing(at, root.len() + extra).unwrap();
    KnownClaim {
        owner,
        prefix,
        expires,
        at: 0,
    }
}

fn bytes(s: &OuterSpace) -> Vec<u8> {
    let mut e = snapshot::Enc::with_header(0);
    s.encode(&mut e);
    e.finish()
}

fn arb_sub(rootlen: u8) -> impl Strategy<Value = Prefix> {
    ((rootlen + 1)..=30, any::<u32>()).prop_map(move |(len, bits)| {
        let root = Prefix::new(0xE000_0000, rootlen).unwrap();
        let host = bits & !root.mask();
        Prefix::containing(McastAddr(root.base_u32() | host), len).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Candidates returned by the claim algorithm are always free,
    /// inside the space, correctly sized, and mutually consistent with
    /// the recorded claims.
    #[test]
    fn candidates_are_free_and_sized(
        claims in prop::collection::vec(arb_sub(8), 0..14),
        want in 9u8..=30,
    ) {
        let root = Prefix::new(0xE000_0000, 8).unwrap();
        let mut s = OuterSpace::new();
        s.set_ranges(&[(root, 1_000_000)]);
        for (i, c) in claims.iter().enumerate() {
            s.insert_claim(KnownClaim { owner: i as u32 + 1, prefix: *c, expires: 500, at: 0 });
        }
        for cand in s.claim_candidates(want) {
            prop_assert!(root.covers(&cand));
            prop_assert_eq!(cand.len(), want, "unexpected candidate size {}", cand);
            prop_assert!(s.is_free(&cand), "candidate {cand} overlaps a claim");
        }
    }

    /// Inserting then expiring all claims restores the full space.
    #[test]
    fn expiry_restores_space(claims in prop::collection::vec(arb_sub(8), 1..14)) {
        let root = Prefix::new(0xE000_0000, 8).unwrap();
        let mut s = OuterSpace::new();
        s.set_ranges(&[(root, 1_000_000)]);
        for (i, c) in claims.iter().enumerate() {
            s.insert_claim(KnownClaim { owner: i as u32, prefix: *c, expires: 100 + i as u64, at: 0 });
        }
        let n = s.claims().len();
        prop_assert!(n >= 1);
        let expired = s.expire_claims(100 + claims.len() as u64);
        prop_assert_eq!(expired.len(), n);
        prop_assert!(s.claims().is_empty());
        // The whole first half of the root is claimable again.
        let cand = s.claim_candidates(root.len() + 1);
        prop_assert_eq!(cand, vec![root.split().unwrap().0]);
    }

    /// Doubling (expansion_of) is exactly "buddy free within a
    /// claimable range".
    #[test]
    fn expansion_matches_buddy_freeness(
        claims in prop::collection::vec(arb_sub(8), 1..10),
    ) {
        let root = Prefix::new(0xE000_0000, 8).unwrap();
        let mut s = OuterSpace::new();
        s.set_ranges(&[(root, 1_000_000)]);
        for (i, c) in claims.iter().enumerate() {
            s.insert_claim(KnownClaim { owner: i as u32, prefix: *c, expires: 500, at: 0 });
        }
        for c in &claims {
            let exp = s.expansion_of(c);
            let buddy = c.buddy().unwrap();
            let parent = c.parent().unwrap();
            let expected = root.covers(&parent) && s.is_free(&buddy);
            prop_assert_eq!(exp.is_some(), expected, "expansion_of({})", c);
            if let Some(e) = exp {
                prop_assert_eq!(e, parent);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A re-advertisement applied to a live space leaves exactly what
    /// a fresh space given the new ranges and the old claims, in
    /// order, would hold — whichever of the diff and the rebuild
    /// `set_ranges_flagged` took (roots here are added, dropped,
    /// doubled, nested, repeated and re-flagged).
    #[test]
    fn readvertise_equals_rebuild(
        rounds in prop::collection::vec(
            (prop::collection::vec(arb_range(), 0..=5), prop::collection::vec(arb_claim(), 0..=11)),
            1..=5,
        ),
    ) {
        let mut live = OuterSpace::new();
        for (ranges, claims) in rounds {
            let mut fresh = OuterSpace::new();
            fresh.set_ranges_flagged(&ranges);
            for c in live.claims() {
                fresh.insert_claim(c);
            }
            live.set_ranges_flagged(&ranges);
            prop_assert_eq!(bytes(&live), bytes(&fresh), "after advertising {:?}", ranges);
            prop_assert_eq!(live.next_claim_expiry(), fresh.next_claim_expiry());
            for spec in claims {
                let c = place(spec, &ranges);
                prop_assert_eq!(live.insert_claim(c), fresh.insert_claim(c), "placing {:?}", c);
            }
            prop_assert_eq!(bytes(&live), bytes(&fresh));
        }
    }
}

/// The outer space as it was kept before it held each claim once: one
/// full `SpaceTracker` per range, fed every claim sitting in it, beside
/// a sorted vector of whole `KnownClaim`s. Re-advertising rebuilds it,
/// which `readvertise_equals_rebuild` shows the live space matches.
#[derive(Default)]
struct TrackerModel {
    ranges: Vec<(u64, bool, SpaceTracker)>,
    claims: Vec<KnownClaim>,
}

impl TrackerModel {
    fn set_ranges_flagged(&mut self, ranges: &[(Prefix, u64, bool)]) {
        let ranges = ranges
            .iter()
            .map(|(p, e, a)| (*e, *a, SpaceTracker::new(*p)));
        self.ranges = ranges.collect();
        for c in std::mem::take(&mut self.claims) {
            self.insert_claim(c);
        }
    }

    fn pos(&self, owner: u32, prefix: &Prefix) -> Result<usize, usize> {
        (self.claims).binary_search_by(|k| (k.prefix, k.owner).cmp(&(*prefix, owner)))
    }

    fn insert_claim(&mut self, c: KnownClaim) -> bool {
        let Some((_, _, t)) = self
            .ranges
            .iter_mut()
            .find(|r| r.2.root().covers(&c.prefix))
        else {
            return false;
        };
        t.insert(c.prefix);
        match self.pos(c.owner, &c.prefix) {
            Ok(i) => self.claims[i] = c,
            Err(i) => self.claims.insert(i, c),
        }
        true
    }

    fn remove_claim(&mut self, owner: u32, prefix: &Prefix) -> bool {
        let Ok(i) = self.pos(owner, prefix) else {
            return false;
        };
        self.claims.remove(i);
        if !self.claims.iter().any(|k| k.prefix == *prefix) {
            for (_, _, t) in &mut self.ranges {
                t.remove(prefix);
            }
        }
        true
    }

    fn renew_claim(&mut self, owner: u32, prefix: &Prefix, expires: u64) -> bool {
        let Ok(i) = self.pos(owner, prefix) else {
            return false;
        };
        self.claims[i].expires = expires;
        true
    }

    fn expire_claims(&mut self, now: u64) -> Vec<KnownClaim> {
        let expired: Vec<KnownClaim> = self
            .claims
            .iter()
            .filter(|k| k.expires <= now)
            .copied()
            .collect();
        for e in &expired {
            self.remove_claim(e.owner, &e.prefix);
        }
        expired
    }

    fn is_free(&self, p: &Prefix) -> bool {
        (self.ranges.iter()).any(|(_, _, t)| t.root().covers(p) && t.is_free(p))
    }

    fn claim_candidates(&self, want_len: u8) -> Vec<Prefix> {
        let active = || self.ranges.iter().filter(|r| r.1).map(|r| &r.2);
        let Some(min_len) = (active().filter_map(|t| t.shortest_free_len()))
            .filter(|l| *l <= want_len)
            .min()
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for t in active() {
            let effective = want_len + u8::from(want_len == t.root().len());
            let firsts = t
                .free_of_len(min_len)
                .filter_map(|b| b.first_subprefix(effective.min(32)));
            out.extend(firsts);
        }
        out
    }

    fn expansion_of(&self, p: &Prefix) -> Option<Prefix> {
        let (buddy, parent) = (p.buddy()?, p.parent()?);
        let claimable = self
            .ranges
            .iter()
            .any(|(_, a, t)| *a && t.root().covers(&parent));
        (claimable && self.is_free(&buddy)).then_some(parent)
    }

    fn bytes(&self) -> Vec<u8> {
        let mut e = snapshot::Enc::with_header(0);
        self.ranges.encode(&mut e);
        self.claims.encode(&mut e);
        e.finish()
    }
}

/// One operation on both spaces: `kind` picks it, the rest are its
/// arguments (a fresh advertisement, a claim to place, which known
/// claim to act on, a time).
type Op = (u8, Vec<(Prefix, u64, bool)>, ClaimSpec, usize, u64);

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        prop::collection::vec(arb_range(), 0..=5),
        arb_claim(),
        any::<usize>(),
        1u64..1_200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Holding each claim once, in 20 bytes, with a free layer per
    /// range, answers every query and encodes every byte exactly as one
    /// full tracker per range beside the whole claims did — through
    /// re-advertisements, same-prefix claims by two owners (waiting
    /// overlap), claims nested in known ones, renewals and expiry.
    #[test]
    fn outer_space_matches_tracker_model(ops in prop::collection::vec(arb_op(), 1..=40)) {
        let (mut live, mut model) = (OuterSpace::new(), TrackerModel::default());
        let mut ranges = Vec::new();
        for (kind, advert, spec, pick, t) in ops {
            let known = model.claims.clone();
            let some = (!known.is_empty()).then(|| known[pick % known.len()]);
            match (kind, some) {
                (0, _) => {
                    ranges = advert;
                    live.set_ranges_flagged(&ranges);
                    model.set_ranges_flagged(&ranges);
                }
                (4, Some(k)) => {
                    // The same prefix, claimed by another owner.
                    let c = KnownClaim { owner: k.owner % 3 + 1, expires: t, ..k };
                    prop_assert_eq!(live.insert_claim(c), model.insert_claim(c));
                }
                (5, Some(k)) => {
                    // Nested in a known claim, or covering one.
                    let len = (k.prefix.len() + 1 + (pick % 3) as u8).min(32);
                    let inner = Prefix::containing(McastAddr(k.prefix.base_u32() | spec.2 & !k.prefix.mask()), len).unwrap();
                    let prefix = if pick % 4 == 0 { k.prefix.parent().unwrap() } else { inner };
                    let c = KnownClaim { owner: spec.3, prefix, expires: t, at: 0 };
                    prop_assert_eq!(live.insert_claim(c), model.insert_claim(c));
                }
                (6, Some(k)) => prop_assert_eq!(live.remove_claim(k.owner, &k.prefix), model.remove_claim(k.owner, &k.prefix)),
                (7, Some(k)) => prop_assert_eq!(live.renew_claim(k.owner, &k.prefix, t), model.renew_claim(k.owner, &k.prefix, t)),
                (8, _) => prop_assert_eq!(live.expire_claims(t), model.expire_claims(t)),
                _ => {
                    let c = place(spec, &ranges);
                    prop_assert_eq!(live.insert_claim(c), model.insert_claim(c));
                }
            }
            prop_assert_eq!(live.claims(), model.claims.clone());
            prop_assert_eq!(live.next_claim_expiry(), model.claims.iter().map(|k| k.expires).min());
            let b = bytes(&live);
            prop_assert_eq!(&b, &model.bytes(), "after op {} on {:?}", kind, ranges);
            let mut dec = snapshot::Dec::new(&b);
            dec.header(0).unwrap();
            let back = OuterSpace::decode(&mut dec).expect("a live space decodes");
            prop_assert_eq!(bytes(&back), b);
            for want in 0..=32 {
                prop_assert_eq!(live.claim_candidates(want), model.claim_candidates(want), "/{}", want);
            }
            let probes = (model.claims.iter().map(|k| k.prefix))
                .chain(ranges.iter().map(|r| r.0))
                .flat_map(|p| [Some(p), p.buddy(), p.parent(), p.split().map(|h| h.1)])
                .flatten();
            for q in probes {
                prop_assert_eq!(live.is_free(&q), model.is_free(&q), "is_free({})", q);
                prop_assert_eq!(live.expansion_of(&q), model.expansion_of(&q), "expansion_of({})", q);
            }
        }
    }
}

/// The bytes of a space with one range, `224.0.0.0/8`, whose tracker
/// holds `entries`, and the claims `claims`.
fn blob(entries: &[Prefix], claims: &[KnownClaim]) -> Vec<u8> {
    let mut t = SpaceTracker::new(Prefix::new(0xE000_0000, 8).unwrap());
    for e in entries {
        t.insert(*e);
    }
    let model = TrackerModel {
        ranges: vec![(1_000, true, t)],
        claims: claims.to_vec(),
    };
    model.bytes()
}

fn decode(b: &[u8]) -> Result<OuterSpace, snapshot::SnapError> {
    let mut dec = snapshot::Dec::new(b);
    dec.header(0)?;
    OuterSpace::decode(&mut dec)
}

fn known(owner: u32, prefix: &str, expires: u64) -> KnownClaim {
    let prefix = prefix.parse().unwrap();
    KnownClaim {
        owner,
        prefix,
        expires,
        at: 0,
    }
}

/// A range's entries are the claims sitting in it, one per prefix:
/// entries that leave a claim out, or name one nobody holds, are
/// refused, not taken on trust.
#[test]
fn decode_refuses_range_entries_that_differ_from_the_claims() {
    let (a, b) = (
        "224.0.1.0/24".parse().unwrap(),
        "224.0.2.0/24".parse().unwrap(),
    );
    let claims = [known(1, "224.0.1.0/24", 500), known(2, "224.0.1.0/24", 600)];
    assert!(decode(&blob(&[a], &claims)).is_ok());
    for entries in [&[][..], &[a, b], &[b]] {
        let err = decode(&blob(entries, &claims)).expect_err("entries differ from the claims");
        assert!(matches!(err, snapshot::SnapError::Invalid(_)), "{err:?}");
    }
}

/// The outer space keeps claim times in `u32` seconds: a time past
/// that is refused on decode.
#[test]
fn decode_refuses_a_claim_time_past_u32_seconds() {
    let a = "224.0.1.0/24".parse().unwrap();
    let fits = u64::from(u32::MAX);
    assert!(decode(&blob(&[a], &[known(1, "224.0.1.0/24", fits)])).is_ok());
    let late = [known(1, "224.0.1.0/24", fits + 1)];
    let early_made_late = [KnownClaim {
        at: fits + 1,
        ..known(1, "224.0.1.0/24", 5)
    }];
    for claims in [&late, &early_made_late] {
        let err = decode(&blob(&[a], claims)).expect_err("time past u32");
        assert!(matches!(err, snapshot::SnapError::Invalid(_)), "{err:?}");
    }
}

/// Inserting a time past `u32` seconds is a bug in the caller, caught
/// in debug builds.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "past u32 seconds")]
fn inserting_a_claim_time_past_u32_seconds_is_caught() {
    let mut s = OuterSpace::new();
    s.set_ranges(&[(Prefix::new(0xE000_0000, 8).unwrap(), 1_000)]);
    s.insert_claim(known(1, "224.0.1.0/24", u64::from(u32::MAX) + 1));
}
