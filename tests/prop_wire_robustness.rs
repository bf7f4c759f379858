//! Decode-robustness sweep over every peer-facing wire codec: a
//! corrupted frame must surface as a typed `SnapError`, never a panic.
//!
//! Two corruption families over a corpus of valid encodings covering
//! every variant of [`BgpMsg`], [`BgmpMsg`], [`MascMsg`], and
//! [`BierMsg`]:
//!
//! * **truncation** — every strict prefix of a valid encoding must
//!   fail to decode (the codecs are fixed-width/length-prefixed, so a
//!   shortened frame always runs out mid-field), exercised
//!   exhaustively;
//! * **single-byte bitflip** — a flipped payload may still be a legal
//!   encoding of a *different* message (flipping a value bit), so the
//!   property is totality plus self-consistency: decode must return
//!   (never panic), and when it returns `Ok(v)`, re-encoding `v` must
//!   decode back to `v`.
//!
//! The BGP speaker's snapshot state gets the same treatment at the end
//! of the file: its blob is the five maps the speaker once held, and a
//! `kinds` or `out` section that disagrees with the Adj-RIB-In section
//! is either refused or carried through unchanged.
//!
//! The vendored proptest is seeded and deterministic; rerun a failure
//! with `PROPTEST_SEED`.

use bgmp::{BgmpMsg, SourceId};
use bgp::{
    AsPath, BgpEvent, BgpMsg, BgpSpeaker, ExportPolicy, Nlri, OutMsg, PeerConfig, PeerRel, Route,
    RouteSourceKind, RouterId,
};
use bier::{BfrId, BierMsg, BitString, SetId};
use masc::MascMsg;
use mcast_addr::{McastAddr, Prefix};
use proptest::prelude::*;
use snapshot::{Dec, Enc, SnapError, Snapshot, SnapshotState};
use std::collections::{BTreeMap, BTreeSet};

/// Encodes one message the way every session layer frames it: bare
/// payload from a fresh encoder, no snapshot header.
fn enc_of<T: Snapshot>(msg: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    msg.encode(&mut enc);
    enc.finish()
}

/// Full strict decode: value + `finish()` (trailing bytes are a
/// corruption too). Returns the re-encoding when the frame was legal.
fn probe<T: Snapshot>(bytes: &[u8]) -> Option<(T, Vec<u8>)> {
    let mut dec = Dec::new(bytes);
    let v = T::decode(&mut dec).ok()?;
    dec.finish().ok()?;
    let bytes = enc_of(&v);
    Some((v, bytes))
}

fn prefix(base: u32, len: u8) -> Prefix {
    Prefix::new(base, len).expect("aligned test prefix")
}

/// A corpus entry: protocol tag, one valid encoding, and a bitflip
/// check. `fn` pointers erase the message type so one property loop
/// covers all four codecs.
type Entry = (&'static str, Vec<u8>, fn(&[u8]) -> bool);

/// One encoding per enum variant, per protocol.
fn corpus() -> Vec<Entry> {
    let route = Route {
        nlri: Nlri::Group(prefix(0xE100_0000, 12)),
        as_path: AsPath::new(&[7, 3, 9]),
        next_hop: 42,
        local: false,
        ebgp: true,
    };
    let bgp_msgs = vec![
        BgpMsg::Update {
            route,
            kind: RouteSourceKind::Customer,
        },
        BgpMsg::Withdraw(Nlri::Domain(19)),
    ];
    let src = SourceId { domain: 5, host: 2 };
    let g = McastAddr(0xE100_0001);
    let bgmp_msgs = vec![
        BgmpMsg::Join(g),
        BgmpMsg::Prune(g),
        BgmpMsg::SourceJoin(src, g),
        BgmpMsg::SourcePrune(src, g),
    ];
    let masc_msgs = vec![
        MascMsg::ParentAdvertise {
            ranges: vec![
                (prefix(0xE000_0000, 8), 3_600, true),
                (prefix(0xE200_0000, 10), 120, false),
            ],
        },
        MascMsg::Claim {
            claimer: 11,
            prefix: prefix(0xE140_0000, 16),
            expires: 9_000,
            at: 41,
        },
        MascMsg::Collision {
            holder: 4,
            prefix: prefix(0xE140_0000, 16),
        },
        MascMsg::Renew {
            claimer: 11,
            prefix: prefix(0xE140_0000, 16),
            expires: 18_000,
        },
        MascMsg::SpaceNeeded {
            claimer: 23,
            demand: 512,
        },
        MascMsg::Release {
            claimer: 11,
            prefix: prefix(0xE140_0000, 16),
        },
    ];
    let mut bits = BitString::new(256);
    bits.set(0);
    bits.set(37);
    bits.set(255);
    let bier_msgs = vec![
        BierMsg::Subscribe {
            group: 6,
            bfr: BfrId(12),
        },
        BierMsg::Unsubscribe {
            group: 6,
            bfr: BfrId(12),
        },
        BierMsg::Packet {
            group: 6,
            si: SetId(1),
            bits,
        },
        BierMsg::AdjDown {
            from: BfrId(3),
            to: BfrId(4),
        },
        BierMsg::AdjUp {
            from: BfrId(3),
            to: BfrId(4),
        },
    ];

    let mut out: Vec<Entry> = Vec::new();
    for m in &bgp_msgs {
        out.push(("bgp", enc_of(m), |b| {
            probe::<BgpMsg>(b).is_none_or(|(v, re)| probe::<BgpMsg>(&re).map(|(w, _)| w) == Some(v))
        }));
    }
    for m in &bgmp_msgs {
        out.push(("bgmp", enc_of(m), |b| {
            probe::<BgmpMsg>(b)
                .is_none_or(|(v, re)| probe::<BgmpMsg>(&re).map(|(w, _)| w) == Some(v))
        }));
    }
    for m in &masc_msgs {
        out.push(("masc", enc_of(m), |b| {
            probe::<MascMsg>(b)
                .is_none_or(|(v, re)| probe::<MascMsg>(&re).map(|(w, _)| w) == Some(v))
        }));
    }
    for m in &bier_msgs {
        out.push(("bier", enc_of(m), |b| {
            probe::<BierMsg>(b)
                .is_none_or(|(v, re)| probe::<BierMsg>(&re).map(|(w, _)| w) == Some(v))
        }));
    }
    out
}

/// Decodes `bytes` as the corpus entry's message type and reports
/// whether a full strict decode succeeded (used by truncation, where
/// success itself is the failure).
fn decodes(entry: &Entry, bytes: &[u8]) -> bool {
    match entry.0 {
        "bgp" => probe::<BgpMsg>(bytes).is_some(),
        "bgmp" => probe::<BgmpMsg>(bytes).is_some(),
        "masc" => probe::<MascMsg>(bytes).is_some(),
        _ => probe::<BierMsg>(bytes).is_some(),
    }
}

#[test]
fn every_strict_prefix_of_every_message_fails_to_decode() {
    for entry in &corpus() {
        let (proto, bytes, _) = entry;
        assert!(
            decodes(entry, bytes),
            "{proto}: corpus entry no longer decodes whole"
        );
        for cut in 0..bytes.len() {
            assert!(
                !decodes(entry, &bytes[..cut]),
                "{proto}: truncation to {cut}/{} bytes decoded successfully",
                bytes.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A single flipped bit anywhere in any frame: decode returns
    /// (totality — a panic fails the test), and an accidental legal
    /// decode is a message the codec round-trips faithfully.
    #[test]
    fn single_bitflips_never_panic_and_legal_decodes_roundtrip(
        pick in any::<u32>(),
        pos in any::<u32>(),
        bit in 0u32..8,
    ) {
        let corpus = corpus();
        let (proto, bytes, check) = &corpus[pick as usize % corpus.len()];
        let mut mutated = bytes.clone();
        let i = pos as usize % mutated.len();
        mutated[i] ^= 1 << bit;
        prop_assert!(
            check(&mutated),
            "{} frame with bit {} of byte {} flipped decoded to a value that does not round-trip",
            proto, bit, i
        );
    }
}

// ---------------------------------------------------------------------
// The BGP speaker's snapshot state
// ---------------------------------------------------------------------

/// The speaker's dynamic state as the separate maps it was before they
/// became one NLRI-keyed table — and still the layout of its blob.
#[derive(Clone, Default)]
struct FiveMaps {
    adj_in: BTreeMap<(Nlri, RouterId), Route>,
    loc: BTreeMap<Nlri, (RouterId, Route)>,
    kinds: BTreeMap<(RouterId, Nlri), RouteSourceKind>,
    local_groups: BTreeSet<Prefix>,
    out: BTreeMap<(RouterId, Nlri), Route>,
    down: BTreeSet<RouterId>,
}

/// The three sections a restore walks in step with the table, as
/// record lists: a list is framed as the map it came from, in whatever
/// order it is in.
#[derive(Clone)]
struct Walked {
    adj_in: Vec<((Nlri, RouterId), Route)>,
    kinds: Vec<((RouterId, Nlri), RouteSourceKind)>,
    out: Vec<((RouterId, Nlri), Route)>,
}

impl FiveMaps {
    fn walked(&self) -> Walked {
        Walked {
            adj_in: self.adj_in.clone().into_iter().collect(),
            kinds: self.kinds.clone().into_iter().collect(),
            out: self.out.clone().into_iter().collect(),
        }
    }

    fn blob(&self) -> Vec<u8> {
        self.blob_with(&self.walked())
    }

    /// The blob with `lists` where the maps they came from go.
    fn blob_with(&self, lists: &Walked) -> Vec<u8> {
        let mut enc = Enc::new();
        lists.adj_in.encode(&mut enc);
        self.loc.encode(&mut enc);
        lists.kinds.encode(&mut enc);
        self.local_groups.encode(&mut enc);
        lists.out.encode(&mut enc);
        self.down.encode(&mut enc);
        enc.bool(true); // aggregate_suppress
        enc.finish()
    }
}

const ME: RouterId = 10;
const MY_ASN: u32 = 1;

fn fresh_speaker() -> BgpSpeaker {
    let peer = |router, asn, rel| PeerConfig { router, asn, rel };
    let peers = vec![
        peer(11, MY_ASN, PeerRel::Internal),
        peer(20, 2, PeerRel::Customer),
        peer(30, 3, PeerRel::Provider),
        peer(40, 4, PeerRel::Peer),
    ];
    BgpSpeaker::new(ME, MY_ASN, peers, ExportPolicy::ProviderCustomer)
}

/// Restores `blob` onto a fresh speaker and re-encodes it.
fn through_speaker(blob: &[u8]) -> Result<Vec<u8>, SnapError> {
    let mut sp = fresh_speaker();
    let mut dec = Dec::new(blob);
    sp.restore_state(&mut dec)?;
    dec.finish()?;
    let mut enc = Enc::new();
    sp.encode_state(&mut enc);
    Ok(enc.finish())
}

/// Drives a speaker through originations, updates from every kind of
/// peer, a withdraw and a session loss, mirroring into [`FiveMaps`]
/// what each event must leave behind: what was fed in (with the
/// receiver-side `ebgp` flag and entry kind), and the last thing each
/// peer was told.
fn live_speaker() -> (BgpSpeaker, FiveMaps) {
    let mut sp = fresh_speaker();
    let mut maps = FiveMaps::default();
    fn told(maps: &mut FiveMaps, msgs: Vec<OutMsg>) {
        for OutMsg { to, msg } in msgs {
            match msg {
                BgpMsg::Update { route, .. } => maps.out.insert((to, route.nlri), route),
                BgpMsg::Withdraw(nlri) => maps.out.remove(&(to, nlri)),
            };
        }
    }
    let own = prefix(0xE100_0000, 12);
    let local = |nlri| Route::originate(nlri, MY_ASN, ME);
    maps.local_groups.insert(own);
    for nlri in [Nlri::Group(own), Nlri::Domain(MY_ASN)] {
        maps.adj_in.insert((nlri, RouterId::MAX), local(nlri));
        maps.kinds
            .insert((RouterId::MAX, nlri), RouteSourceKind::Local);
    }
    let msgs = sp.originate_group(own);
    told(&mut maps, msgs);
    let msgs = sp.originate_domain();
    told(&mut maps, msgs);

    let heard: [(RouterId, Nlri, &[u32], RouteSourceKind); 7] = [
        (
            20,
            Nlri::Group(prefix(0xE100_8000, 24)),
            &[2],
            RouteSourceKind::Customer,
        ),
        (20, Nlri::Domain(2), &[2], RouteSourceKind::Customer),
        (
            30,
            Nlri::Group(prefix(0xE200_0000, 8)),
            &[3, 9],
            RouteSourceKind::Provider,
        ),
        (
            40,
            Nlri::Group(prefix(0xE200_0000, 8)),
            &[4, 8, 9],
            RouteSourceKind::Peer,
        ),
        (40, Nlri::Domain(2), &[4, 7, 2], RouteSourceKind::Peer),
        (
            11,
            Nlri::Group(prefix(0xE300_0000, 16)),
            &[5],
            RouteSourceKind::Peer,
        ),
        (11, Nlri::Domain(3), &[3], RouteSourceKind::Provider),
    ];
    for (from, nlri, path, kind) in heard {
        let mut route = Route {
            nlri,
            as_path: AsPath::new(path),
            next_hop: from,
            local: false,
            ebgp: false,
        };
        let msg = BgpMsg::Update {
            route: route.clone(),
            kind,
        };
        let msgs = sp.handle(BgpEvent::FromPeer { from, msg });
        told(&mut maps, msgs);
        route.ebgp = from != 11;
        maps.adj_in.insert((nlri, from), route);
        maps.kinds.insert((from, nlri), kind);
    }
    let gone = Nlri::Domain(2);
    let msgs = sp.handle(BgpEvent::FromPeer {
        from: 40,
        msg: BgpMsg::Withdraw(gone),
    });
    told(&mut maps, msgs);
    maps.adj_in.remove(&(gone, 40));
    maps.kinds.remove(&(40, gone));

    let msgs = sp.handle(BgpEvent::PeerDown(30));
    told(&mut maps, msgs);
    maps.down.insert(30);
    maps.adj_in.retain(|(_, peer), _| *peer != 30);
    maps.kinds.retain(|(peer, _), _| *peer != 30);
    maps.out.retain(|(peer, _), _| *peer != 30);

    for r in sp.rib().loc_rib() {
        let (src, best) = sp.rib().best_with_source(r.nlri).expect("selected");
        maps.loc.insert(r.nlri, (src, best.clone()));
    }
    (sp, maps)
}

/// The blob is the five maps, framed by the generic map codec.
#[test]
fn speaker_blob_is_the_five_maps_it_replaced() {
    let (sp, maps) = live_speaker();
    assert!(
        maps.adj_in.len() >= 7 && maps.out.len() >= 6,
        "the scenario went quiet"
    );
    let mut enc = Enc::new();
    sp.encode_state(&mut enc);
    let blob = enc.finish();
    assert!(
        blob == maps.blob(),
        "speaker state is no longer framed as the five maps"
    );
    assert!(through_speaker(&blob).expect("own blob restores") == blob);
}

/// A `kinds` entry for a route the Adj-RIB-In section does not hold has
/// nowhere to live: refused, not dropped.
#[test]
fn kind_of_an_unheard_route_is_refused() {
    let (_, maps) = live_speaker();
    for stray in [
        (40, Nlri::Domain(2)),                     // peer known, route withdrawn
        (20, Nlri::Group(prefix(0xE200_0000, 8))), // NLRI known, not from this peer
        (20, Nlri::Group(prefix(0xEE00_0000, 8))), // NLRI unknown
        (77, Nlri::Domain(2)),                     // peer unknown
    ] {
        let mut bad = maps.clone();
        bad.kinds.insert(stray, RouteSourceKind::Peer);
        let got = through_speaker(&bad.blob());
        assert!(
            matches!(got, Err(SnapError::Invalid(_))),
            "{stray:?}: {got:?}"
        );
    }
}

/// The restore reads each section once, in step with the table, so a
/// record that is not after the one before it — which `encode_state`
/// never writes — is refused, not sorted into place.
#[test]
fn speaker_sections_out_of_order_are_refused() {
    let (_, maps) = live_speaker();
    let sorted = maps.walked();
    let twice = sorted.kinds.windows(2).position(|w| w[0].0 .0 == w[1].0 .0);
    let i = twice.expect("a peer with two kinds");
    let refused = |what: &str, edit: &dyn Fn(&mut Walked)| {
        let mut lists = sorted.clone();
        edit(&mut lists);
        let got = through_speaker(&maps.blob_with(&lists));
        assert!(matches!(got, Err(SnapError::Invalid(_))), "{what}: {got:?}");
    };
    refused("two Adj-RIB-In records swapped", &|l| l.adj_in.swap(0, 1));
    refused("an Adj-RIB-In record twice", &|l| {
        l.adj_in.insert(0, l.adj_in[0].clone())
    });
    refused("two kinds of one peer swapped", &|l| l.kinds.swap(i, i + 1));
    refused("two out records swapped", &|l| l.out.swap(0, 1));
}

/// An `out` entry is independent of what the peer advertised: one for a
/// pair — even an NLRI — the Adj-RIB-In section lacks survives a
/// restore byte for byte. One this router cannot have sent is refused.
#[test]
fn out_entries_stand_alone_or_are_refused() {
    let (_, maps) = live_speaker();
    let sent = |nlri, next_hop, local| Route {
        nlri,
        as_path: AsPath::new(&[MY_ASN, 6]),
        next_hop,
        local,
        ebgp: true,
    };
    for stray in [
        (20, Nlri::Group(prefix(0xE200_0000, 8))),
        (40, Nlri::Group(prefix(0xEE00_0000, 8))),
        (77, Nlri::Domain(9)),
    ] {
        let mut odd = maps.clone();
        odd.out.insert(stray, sent(stray.1, ME, false));
        let blob = odd.blob();
        assert!(
            through_speaker(&blob).expect("restores") == blob,
            "{stray:?} moved bytes"
        );
    }
    // Two peers told of an NLRI nobody advertised share the row made for it.
    let mut odd = maps.clone();
    let unheard = Nlri::Group(prefix(0xEE00_0000, 8));
    for to in [20, 40] {
        odd.out.insert((to, unheard), sent(unheard, ME, false));
    }
    let blob = odd.blob();
    assert!(through_speaker(&blob).expect("restores") == blob);
    let at = (20, Nlri::Domain(9));
    for forged in [
        sent(at.1, 99, false),
        sent(at.1, ME, true),
        sent(Nlri::Domain(8), ME, false),
    ] {
        let mut bad = maps.clone();
        bad.out.insert(at, forged);
        let got = through_speaker(&bad.blob());
        assert!(matches!(got, Err(SnapError::Invalid(_))), "{got:?}");
    }
    // A Loc-RIB section that is not what the candidates select.
    let mut bad = maps.clone();
    bad.loc.remove(&Nlri::Domain(MY_ASN));
    assert!(matches!(
        through_speaker(&bad.blob()),
        Err(SnapError::Invalid(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Stray `kinds` and `out` entries in any mix, then a flipped bit:
    /// the restore never panics, and whatever it accepts it writes back
    /// unchanged — nothing is silently dropped.
    #[test]
    fn speaker_blob_is_refused_or_carried_through(
        strays in prop::collection::vec((any::<bool>(), 0u32..6, 0u32..8), 0..4),
        flip in (any::<bool>(), any::<u32>(), 0u32..8),
    ) {
        let (_, mut maps) = live_speaker();
        let peers = [11, 20, 30, 40, 77, RouterId::MAX];
        for (is_kind, peer, n) in strays {
            let nlri = if n < 4 { Nlri::Domain(n) } else { Nlri::Group(prefix(0xE000_0000 + (n << 24), 8)) };
            let key = (peers[peer as usize], nlri);
            if is_kind {
                maps.kinds.insert(key, RouteSourceKind::Customer);
            } else {
                let route = Route { nlri, as_path: AsPath::new(&[MY_ASN]), next_hop: ME, local: false, ebgp: n % 2 == 0 };
                maps.out.insert(key, route);
            }
        }
        let mut blob = maps.blob();
        let unflipped = through_speaker(&blob);
        if let Ok(again) = &unflipped {
            prop_assert!(*again == blob, "an accepted blob came back different");
        }
        if flip.0 {
            let i = flip.1 as usize % blob.len();
            blob[i] ^= 1 << flip.2;
            // Totality only: a flipped key can reorder `local_groups`
            // or `down`, which the set codec re-encodes sorted.
            let _ = through_speaker(&blob);
        }
    }
}
