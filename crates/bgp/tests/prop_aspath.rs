//! Equivalence properties for the interned [`AsPath`]: under arbitrary
//! construction and churn it must be observationally identical to the
//! owned `Vec<Asn>` representation it replaced — equality, ordering,
//! hashing, prepend, and the snapshot encoding.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bgp::{AsPath, Asn, Nlri, Rib, Route};
use mcast_addr::Prefix;
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

    /// The first time a blob holds a path, it is tag 0 and then the
    /// path framed exactly like `Vec<Asn>`; every later time, tag 1 and
    /// the index of that first time. Both round-trip to the same path.
    #[test]
    fn snapshot_encoding_matches_vec(path in arb_path(), other in arb_path()) {
        let interned = AsPath::from(path.clone());
        let mut enc = Enc::new();
        interned.encode(&mut enc);
        AsPath::from(other.clone()).encode(&mut enc);
        AsPath::from(path.clone()).encode(&mut enc);
        let via_interned = enc.finish();

        let mut enc = Enc::new();
        enc.u8(0);
        path.encode(&mut enc);
        if other != path {
            enc.u8(0);
            other.encode(&mut enc);
        } else {
            enc.u8(1);
            enc.u32(0);
        }
        enc.u8(1);
        enc.u32(0);
        let via_vec = enc.finish();
        prop_assert_eq!(&via_interned, &via_vec);

        let mut dec = Dec::new(&via_interned);
        prop_assert_eq!(AsPath::decode(&mut dec).unwrap(), interned);
        prop_assert_eq!(AsPath::decode(&mut dec).unwrap(), other);
        let back = AsPath::decode(&mut dec).unwrap();
        prop_assert!(std::ptr::eq(&back[..], &interned[..]), "a reference back is the path read before");
        prop_assert!(dec.finish().is_ok());
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

/// The routes of a small table: four group prefixes heard from three
/// peers, over five distinct paths that repeat across rows.
fn routes(path: fn(&[Asn]) -> AsPath) -> Vec<(u32, Route)> {
    let paths: [&[Asn]; 5] = [&[2], &[2, 7], &[3, 7], &[4, 3, 7], &[3, 9, 9]];
    let mut out = Vec::new();
    for g in 0..4u32 {
        let nlri = Nlri::Group(Prefix::new(0xE000_0000 + (g << 16), 16).expect("aligned"));
        for peer in 1..=3u32 {
            let route = Route {
                nlri,
                as_path: path(paths[((g + peer) % 5) as usize]),
                next_hop: peer,
                local: false,
                ebgp: true,
            };
            out.push((peer, route));
        }
    }
    out
}

fn blob_of(routes: Vec<(u32, Route)>) -> Vec<u8> {
    let mut rib = Rib::new();
    for (peer, route) in routes {
        rib.update_from(peer, route);
    }
    let mut enc = Enc::new();
    rib.encode(&mut enc);
    enc.finish()
}

/// A path interned on another thread is the same path: one id, one copy
/// of its words. A blob holding routes built on both threads writes each
/// path in full once and refers back to it from either, so it is byte
/// for byte the blob of a table built on one thread.
#[test]
fn the_interning_thread_does_not_reach_the_bytes() {
    let here = routes(AsPath::new);
    #[expect(
        clippy::disallowed_methods,
        reason = "the point is a second interning thread"
    )]
    let there = std::thread::spawn(|| routes(AsPath::new))
        .join()
        .expect("the other thread builds its routes");
    for (h, t) in here.iter().zip(&there) {
        let (h, t) = (h.1.as_path, t.1.as_path);
        assert!(
            h == t && hash_of(&h) == hash_of(&t),
            "one id on both threads"
        );
        assert!(std::ptr::eq(&h[..], &t[..]), "one copy of the words");
    }
    // Every other route from the other thread, so both tables hold both.
    let mixed: Vec<(u32, Route)> = (here.iter().zip(&there).enumerate())
        .map(|(i, (h, t))| if i % 2 == 0 { h.clone() } else { t.clone() })
        .collect();
    let one_thread = blob_of(here);
    assert_eq!(blob_of(mixed), one_thread);
    assert_eq!(blob_of(there), one_thread);
}

/// Paths no other test makes: three ASNs past any a test uses, then
/// `n`'s digits in base 7 as ASNs, so that each `n` is its own path.
fn fresh_path(n: u32) -> Vec<Asn> {
    let mut path = vec![900_001, 900_002, 900_003];
    let mut rest = n;
    loop {
        path.push(rest % 7);
        rest /= 7;
        if rest == 0 {
            return path;
        }
    }
}

/// Four threads intern overlapping sets of paths at once, each in its
/// own order, half of them by `new` and half by `prepend`. Every thread
/// gets one id per path, the id names that path's words, and no two
/// paths share an id.
#[test]
fn threads_interning_at_once_agree_on_every_id() {
    const THREADS: u32 = 4;
    const PER: u32 = 1_500;
    let start = std::sync::Arc::new(std::sync::Barrier::new(THREADS as usize));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let start = start.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "the point is threads interning at once"
            )]
            std::thread::spawn(move || {
                // Thread t takes paths [t * PER / 2, t * PER / 2 + PER):
                // half shared with the thread before, half with the one after.
                let mine: Vec<u32> = (0..PER).map(|i| t * PER / 2 + i).collect();
                let order = mine.iter().map(|&n| (n, n.wrapping_mul(2_654_435_761) ^ t));
                let mut order: Vec<(u32, u32)> = order.collect();
                order.sort_by_key(|o| o.1);
                start.wait();
                let got = order.into_iter().map(|(n, _)| {
                    let path = fresh_path(n);
                    let id = if n % 2 == 0 {
                        AsPath::new(&path)
                    } else {
                        AsPath::new(&path[1..]).prepend(path[0])
                    };
                    (n, id)
                });
                got.collect::<Vec<_>>()
            })
        })
        .collect();
    let mut by_path: std::collections::BTreeMap<u32, AsPath> = Default::default();
    for worker in workers {
        for (n, id) in worker.join().expect("the thread interns its paths") {
            assert_eq!(id, fresh_path(n), "the id names path {n}'s words");
            let first = *by_path.entry(n).or_insert(id);
            assert_eq!(id, first, "every thread has one id for path {n}");
        }
    }
    assert_eq!(by_path.len() as u32, PER * (THREADS + 1) / 2);
    let ids: Vec<AsPath> = by_path.values().copied().collect();
    for (i, a) in ids.iter().enumerate() {
        assert!(
            ids[i + 1..].iter().all(|b| a != b),
            "an id given to two paths"
        );
    }
}
