//! Equivalence properties for the interned [`AsPath`]: under arbitrary
//! construction and churn it must be observationally identical to the
//! owned `Vec<Asn>` representation it replaced — equality, ordering,
//! hashing, prepend, and the snapshot encoding.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bgp::{AsPath, Asn};
use proptest::prelude::*;
use snapshot::{Dec, Enc, Snapshot};

/// Short element range so random paths collide often — interning only
/// matters when distinct call sites produce equal paths.
fn arb_path() -> impl Strategy<Value = Vec<Asn>> {
    prop::collection::vec(0u32..8, 0..6)
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interned equality is exactly vector equality, and equal paths
    /// hash equal (the intern table and RIB maps rely on both).
    #[test]
    fn eq_and_hash_match_owned(a in arb_path(), b in arb_path()) {
        let ia = AsPath::from(a.clone());
        let ib = AsPath::from(b.clone());
        prop_assert_eq!(ia == ib, a == b);
        prop_assert_eq!(&ia, &a);
        if a == b {
            prop_assert_eq!(hash_of(&ia), hash_of(&ib));
        }
        // Deref exposes the identical slice, so any ordering a caller
        // derives from the elements matches the owned representation.
        prop_assert_eq!(&ia[..], &a[..]);
        prop_assert_eq!(ia[..].cmp(&ib[..]), a.cmp(&b));
    }

    /// `prepend` is concatenation, and re-interning the concatenation
    /// yields the same (pointer-shared) path.
    #[test]
    fn prepend_is_concat(path in arb_path(), asn in 0u32..8) {
        let interned = AsPath::from(path.clone()).prepend(asn);
        let mut owned = vec![asn];
        owned.extend_from_slice(&path);
        prop_assert_eq!(&interned, &owned);
        prop_assert_eq!(interned, AsPath::from(owned));
    }

    /// The snapshot encoding is byte-identical to `Vec<Asn>` framing
    /// and round-trips, so checkpoints taken before interning restore
    /// after it (and vice versa).
    #[test]
    fn snapshot_encoding_matches_vec(path in arb_path()) {
        let interned = AsPath::from(path.clone());
        let mut enc = Enc::new();
        interned.encode(&mut enc);
        let via_interned = enc.finish();

        let mut enc = Enc::new();
        path.encode(&mut enc);
        let via_vec = enc.finish();
        prop_assert_eq!(&via_interned, &via_vec);

        let mut dec = Dec::new(&via_interned);
        let back = AsPath::decode(&mut dec).unwrap();
        prop_assert_eq!(back, interned);
    }

    /// Churn: building the same path many times (in any interleaving
    /// with other paths) always yields equal, interchangeable values.
    #[test]
    fn interning_is_stable_under_churn(paths in prop::collection::vec(arb_path(), 1..40)) {
        let first: Vec<AsPath> = paths.iter().cloned().map(AsPath::from).collect();
        // Rebuild in reverse order so the intern table is hit in a
        // different sequence.
        let second: Vec<AsPath> = paths
            .iter()
            .rev()
            .cloned()
            .map(AsPath::from)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        for ((a, b), owned) in first.iter().zip(&second).zip(&paths) {
            prop_assert_eq!(a, b);
            prop_assert_eq!(a, owned);
        }
    }
}
