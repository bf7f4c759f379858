//! Property tests for MASC claim bookkeeping and the claim algorithm's
//! free-space arithmetic.

use masc::claims::{KnownClaim, OuterSpace};
use mcast_addr::{McastAddr, Prefix};
use proptest::prelude::*;

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
    use snapshot::Snapshot as _;
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
                fresh.insert_claim(*c);
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
