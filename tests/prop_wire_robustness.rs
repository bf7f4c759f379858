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
//! Every variant of those four, and of the snapshot-only enums, re-encodes
//! to its own bytes, so a decode arm whose tag differs from its encode
//! arm fails; the encodings of both lists are pinned byte for byte.
//!
//! The border-router frame — a 4-byte length, then one `Wire`'s bytes,
//! as the TCP shells exchange them — is cut at every length, flipped
//! at every bit, given a length field that disagrees with its body or
//! exceeds the cap; each case ends in a typed `CodecError`.
//!
//! The BGP speaker's snapshot state gets the same treatment at the end
//! of the file: its blob is the five maps the speaker once held, and a
//! `kinds` or `out` section that disagrees with the Adj-RIB-In section
//! is either refused or carried through unchanged.
//!
//! The vendored proptest is seeded and deterministic; rerun a failure
//! with `PROPTEST_SEED`.

use bgmp::{BgmpMsg, SourceId, Target};
use bgp::{
    AsPath, BgpEvent, BgpMsg, BgpSpeaker, ExportPolicy, Nlri, OutMsg, PeerConfig, PeerRel, Route,
    RouteSourceKind, RouterId, SessionState,
};
use bier::{BfrId, BierMsg, BitString, SetId};
use masc::claims::{ClaimPhase, ClaimPurpose};
use masc::{MascAction, MascMsg, MascWire, Workload};
use masc_bgmp_actors::codec::{self, CodecError};
use masc_bgmp_core::{DataPacket, HostId, Wire};
use mcast_addr::{McastAddr, Prefix};
use proptest::prelude::*;
use simnet::{Event, NodeId};
use snapshot::{Dec, Enc, SnapError, Snapshot, SnapshotState};
use std::collections::{BTreeMap, BTreeSet};

/// Encodes one message the way every session layer frames it: bare
/// payload from a fresh encoder, no snapshot header.
fn enc_of<T: Snapshot>(msg: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    msg.encode(&mut enc);
    enc.finish()
}

/// Full strict decode as `T` (trailing bytes are a corruption too),
/// then the re-encoding: `None` unless `bytes` is one legal frame.
fn reencode<T: Snapshot>(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut dec = Dec::new(bytes);
    let v = T::decode(&mut dec).ok()?;
    dec.finish().ok()?;
    Some(enc_of(&v))
}

fn prefix(base: u32, len: u8) -> Prefix {
    Prefix::new(base, len).expect("aligned test prefix")
}

/// Returns `values` after checking that entry `i` is the variant `arm`
/// numbers `i`. `arm` matches with no wildcard, so a new variant does
/// not compile until it is numbered here, beside the list it joins.
fn listed<T>(values: Vec<T>, arm: fn(&T) -> usize) -> Vec<T> {
    for (i, v) in values.iter().enumerate() {
        assert_eq!(arm(v), i, "variant list out of order at entry {i}");
    }
    values
}

/// A corpus entry: protocol tag, one valid encoding, and the strict
/// re-encoder of its message type. The `fn` pointer erases the type so
/// one loop covers all four codecs.
type Entry = (&'static str, Vec<u8>, fn(&[u8]) -> Option<Vec<u8>>);

fn entries<'a, T: Snapshot>(
    proto: &'static str,
    msgs: &'a [T],
) -> impl Iterator<Item = Entry> + 'a {
    msgs.iter()
        .map(move |m| (proto, enc_of(m), reencode::<T> as _))
}

/// One encoding per enum variant, per protocol, each list checked by
/// [`listed`].
fn corpus() -> Vec<Entry> {
    let route = Route {
        nlri: Nlri::Group(prefix(0xE100_0000, 12)),
        as_path: AsPath::new(&[7, 3, 9]),
        next_hop: 42,
        local: false,
        ebgp: true,
    };
    let kind = RouteSourceKind::Customer;
    let bgp_msgs = listed(
        vec![
            BgpMsg::Update { route, kind },
            BgpMsg::Withdraw(Nlri::Domain(19)),
        ],
        |m| match m {
            BgpMsg::Update { .. } => 0,
            BgpMsg::Withdraw(_) => 1,
        },
    );
    let src = SourceId { domain: 5, host: 2 };
    let g = McastAddr(0xE100_0001);
    let bgmp_msgs = listed(
        vec![
            BgmpMsg::Join(g),
            BgmpMsg::Prune(g),
            BgmpMsg::SourceJoin(src, g),
            BgmpMsg::SourcePrune(src, g),
        ],
        |m| match m {
            BgmpMsg::Join(_) => 0,
            BgmpMsg::Prune(_) => 1,
            BgmpMsg::SourceJoin(..) => 2,
            BgmpMsg::SourcePrune(..) => 3,
        },
    );
    let ranges = vec![
        (prefix(0xE000_0000, 8), 3_600, true),
        (prefix(0xE200_0000, 10), 120, false),
    ];
    let (claimer, holder, prefix, demand) = (11, 4, prefix(0xE140_0000, 16), 512);
    let masc_msgs = listed(
        vec![
            MascMsg::ParentAdvertise { ranges },
            MascMsg::Claim {
                claimer,
                prefix,
                expires: 9_000,
                at: 41,
            },
            MascMsg::Collision { holder, prefix },
            MascMsg::Renew {
                claimer,
                prefix,
                expires: 18_000,
            },
            MascMsg::SpaceNeeded { claimer, demand },
            MascMsg::Release { claimer, prefix },
        ],
        |m| match m {
            MascMsg::ParentAdvertise { .. } => 0,
            MascMsg::Claim { .. } => 1,
            MascMsg::Collision { .. } => 2,
            MascMsg::Renew { .. } => 3,
            MascMsg::SpaceNeeded { .. } => 4,
            MascMsg::Release { .. } => 5,
        },
    );
    let mut bits = BitString::new(256);
    bits.set(0);
    bits.set(37);
    bits.set(255);
    let (group, bfr, si, from, to) = (6, BfrId(12), SetId(1), BfrId(3), BfrId(4));
    let bier_msgs = listed(
        vec![
            BierMsg::Subscribe { group, bfr },
            BierMsg::Unsubscribe { group, bfr },
            BierMsg::Packet { group, si, bits },
            BierMsg::AdjDown { from, to },
            BierMsg::AdjUp { from, to },
        ],
        |m| match m {
            BierMsg::Subscribe { .. } => 0,
            BierMsg::Unsubscribe { .. } => 1,
            BierMsg::Packet { .. } => 2,
            BierMsg::AdjDown { .. } => 3,
            BierMsg::AdjUp { .. } => 4,
        },
    );
    (entries("bgp", &bgp_msgs).chain(entries("bgmp", &bgmp_msgs)))
        .chain(entries("masc", &masc_msgs))
        .chain(entries("bier", &bier_msgs))
        .collect()
}

/// One encoding per variant of each enum that only a snapshot carries,
/// each list checked by [`listed`].
fn snapshot_only() -> Vec<Entry> {
    let (from, to, router, peer, gen, id) = (1, 2, 1, 2, 3, 5);
    let (host, group) = (HostId { domain: 3, host: 8 }, McastAddr(0xE100_0002));
    let source = SourceId { domain: 5, host: 2 };
    let packet = DataPacket { source, group, id };
    let (claimer, prefix) = (11, prefix(0xE140_0000, 16));
    let (claim, join) = (MascMsg::Release { claimer, prefix }, BgmpMsg::Join(group));
    let msg = BgpMsg::Withdraw(Nlri::Domain(4));
    let out = OutMsg {
        to,
        msg: msg.clone(),
    };
    let wires = listed(
        vec![
            Wire::Bgp { from, to, msg },
            Wire::Bgmp {
                from,
                to,
                msg: join,
            },
            Wire::Masc {
                from,
                msg: claim.clone(),
            },
            Wire::Data { from, to, packet },
            Wire::HostJoin { host, group },
            Wire::HostLeave { host, group },
            Wire::PeerLinkDown { router, peer },
            Wire::PeerLinkUp { router, peer },
            Wire::Keepalive { from, to, gen },
            Wire::BgpRefresh { from, to },
            Wire::SendData { host, group, id },
        ],
        |w| match w {
            Wire::Bgp { .. } => 0,
            Wire::Bgmp { .. } => 1,
            Wire::Masc { .. } => 2,
            Wire::Data { .. } => 3,
            Wire::HostJoin { .. } => 4,
            Wire::HostLeave { .. } => 5,
            Wire::PeerLinkDown { .. } => 6,
            Wire::PeerLinkUp { .. } => 7,
            Wire::Keepalive { .. } => 8,
            Wire::BgpRefresh { .. } => 9,
            Wire::SendData { .. } => 10,
        },
    );
    let (len, lifetime) = (24, 600);
    let masc_wires = listed(
        vec![
            MascWire::Proto {
                from,
                msg: claim.clone(),
            },
            MascWire::RequestBlock { len, lifetime },
        ],
        |w| match w {
            MascWire::Proto { .. } => 0,
            MascWire::RequestBlock { .. } => 1,
        },
    );
    let workloads = [Workload::paper_fig2()];
    let (block, expires, request, demand) = (self::prefix(0xE141_0000, 24), 90, 4, 256);
    let actions = listed(
        vec![
            MascAction::Send { to, msg: claim },
            MascAction::RangeGranted { prefix, expires },
            MascAction::RangeLost { prefix },
            MascAction::BlockReady {
                request,
                block,
                expires,
            },
            MascAction::BlockExpired { block },
            MascAction::ClaimFailed { demand },
        ],
        |a| match a {
            MascAction::Send { .. } => 0,
            MascAction::RangeGranted { .. } => 1,
            MascAction::RangeLost { .. } => 2,
            MascAction::BlockReady { .. } => 3,
            MascAction::BlockExpired { .. } => 4,
            MascAction::ClaimFailed { .. } => 5,
        },
    );
    let outs = [out];
    let (a, b, node, key) = (NodeId(1), NodeId(2), NodeId(3), 12);
    let events = listed(
        vec![
            Event::Message {
                from: a,
                to: b,
                msg: 11u64,
            },
            Event::Timer { node, key },
            Event::LinkDown(a, b),
            Event::LinkUp(a, b),
            Event::NodeDown(a),
            Event::NodeUp(a),
        ],
        |e| match e {
            Event::Message { .. } => 0,
            Event::Timer { .. } => 1,
            Event::LinkDown(..) => 2,
            Event::LinkUp(..) => 3,
            Event::NodeDown(_) => 4,
            Event::NodeUp(_) => 5,
        },
    );
    let targets = listed(vec![Target::Peer(4), Target::Migp], |t| match t {
        Target::Peer(_) => 0,
        Target::Migp => 1,
    });
    let until = 30;
    let phases = listed(
        vec![ClaimPhase::Waiting { until }, ClaimPhase::Granted],
        |c| match c {
            ClaimPhase::Waiting { .. } => 0,
            ClaimPhase::Granted => 1,
        },
    );
    use ClaimPurpose::{Consolidate, Double, New};
    let purposes = listed(vec![New, Double { of: prefix }, Consolidate], |c| match c {
        New => 0,
        Double { .. } => 1,
        Consolidate => 2,
    });
    use SessionState::{Connecting, Established, Idle};
    let states = listed(vec![Idle, Connecting, Established], |s| match s {
        Idle => 0,
        Connecting => 1,
        Established => 2,
    });
    use RouteSourceKind::{Customer, Local, Peer, Provider};
    let kinds = listed(vec![Local, Customer, Provider, Peer], |k| match k {
        Local => 0,
        Customer => 1,
        Provider => 2,
        Peer => 3,
    });
    let nlris = listed(vec![Nlri::Domain(4), Nlri::Group(prefix)], |n| match n {
        Nlri::Domain(_) => 0,
        Nlri::Group(_) => 1,
    });
    let mut all = Vec::new();
    all.extend(entries("wire", &wires));
    all.extend(entries("masc-wire", &masc_wires));
    all.extend(entries("workload", &workloads));
    all.extend(entries("masc-action", &actions));
    all.extend(entries("out-msg", &outs));
    all.extend(entries("event", &events));
    all.extend(entries("target", &targets));
    all.extend(entries("claim-phase", &phases));
    all.extend(entries("claim-purpose", &purposes));
    all.extend(entries("session-state", &states));
    all.extend(entries("route-kind", &kinds));
    all.extend(entries("nlri", &nlris));
    all
}

/// Every variant of each snapshot-only enum decodes strictly and
/// re-encodes to its own bytes.
#[test]
fn every_snapshot_enum_variant_reencodes_to_its_own_bytes() {
    for (proto, bytes, reencode) in &snapshot_only() {
        assert_eq!(
            reencode(bytes).as_ref(),
            Some(bytes),
            "{proto}: entry does not re-encode to its own bytes"
        );
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Both lists' encodings, concatenated, pinned by length and FNV-1a: a
/// field written out of order still round-trips, so only the bytes
/// show it. The constants were computed before any codec was derived
/// and must not move.
#[test]
fn every_listed_encoding_is_pinned() {
    const LEN: usize = 715;
    const FNV1A: u64 = 9_249_612_854_215_274_733;
    let bytes: Vec<u8> = (corpus().into_iter().chain(snapshot_only()))
        .flat_map(|(_, bytes, _)| bytes)
        .collect();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (LEN, FNV1A),
        "the listed encodings' bytes changed"
    );
}

#[test]
fn every_strict_prefix_of_every_message_fails_to_decode() {
    for (proto, bytes, reencode) in &corpus() {
        // encode(decode(encode(v))) == encode(v): a decode arm that
        // reads another arm's tag fails here.
        assert_eq!(
            reencode(bytes).as_ref(),
            Some(bytes),
            "{proto}: corpus entry does not decode whole to its own bytes"
        );
        for cut in 0..bytes.len() {
            assert!(
                reencode(&bytes[..cut]).is_none(),
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
        let (proto, bytes, reencode) = &corpus[pick as usize % corpus.len()];
        let mut mutated = bytes.clone();
        let i = pos as usize % mutated.len();
        mutated[i] ^= 1 << bit;
        prop_assert!(
            reencode(&mutated).is_none_or(|re| reencode(&re).as_ref() == Some(&re)),
            "{} frame with bit {} of byte {} flipped decoded to a value that does not round-trip",
            proto, bit, i
        );
    }
}

// ---------------------------------------------------------------------
// The border-router frame
// ---------------------------------------------------------------------

/// One frame per peer-facing [`Wire`] variant, as a shell sends it.
fn frames() -> Vec<Vec<u8>> {
    let route = Route {
        nlri: Nlri::Group(prefix(0xE100_0000, 12)),
        as_path: AsPath::new(&[7, 3, 9]),
        next_hop: 42,
        local: false,
        ebgp: true,
    };
    let kind = RouteSourceKind::Customer;
    let (from, to, group) = (3, 4, McastAddr(0xE100_0001));
    let source = SourceId { domain: 5, host: 2 };
    let packet = DataPacket {
        source,
        group,
        id: 9,
    };
    let (claimer, prefix) = (11, prefix(0xE140_0000, 16));
    let wires = [
        Wire::Bgp {
            from,
            to,
            msg: BgpMsg::Update { route, kind },
        },
        Wire::Bgmp {
            from,
            to,
            msg: BgmpMsg::SourceJoin(source, group),
        },
        Wire::Masc {
            from,
            msg: MascMsg::Release { claimer, prefix },
        },
        Wire::Data { from, to, packet },
        Wire::Keepalive {
            from,
            to,
            gen: 1 << 32,
        },
        Wire::BgpRefresh { from, to },
    ];
    wires.iter().map(codec::encode).collect()
}

/// Reads one frame from a stream that carries `bytes` and then closes.
fn read_closed(mut bytes: &[u8]) -> Result<Wire, CodecError> {
    codec::read_frame(&mut bytes)
}

/// `bytes` with its length field replaced.
fn with_len(bytes: &[u8], len: u32) -> Vec<u8> {
    let mut out = len.to_be_bytes().to_vec();
    out.extend_from_slice(&bytes[4..]);
    out
}

/// A frame cut anywhere ends in a typed error once the stream closes:
/// `Closed` inside the length field, an I/O error inside the body.
#[test]
fn truncated_frames_end_in_a_typed_error() {
    for frame in frames() {
        for cut in 0..frame.len() {
            let got = read_closed(&frame[..cut]);
            match cut {
                0..4 => assert!(matches!(got, Err(CodecError::Closed)), "cut {cut}"),
                _ => assert!(matches!(got, Err(CodecError::Io(_))), "cut {cut}"),
            }
        }
        assert!(read_closed(&frame).is_ok());
    }
}

/// Every single-bit flip of every frame either decodes to a frame that
/// re-encodes to itself or ends in a typed error.
#[test]
fn single_bitflips_of_a_frame_never_panic() {
    for frame in frames() {
        for i in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            if let Ok(wire) = read_closed(&flipped) {
                let again = codec::encode(&wire);
                assert!(matches!(read_closed(&again), Ok(w) if codec::encode(&w) == again));
            }
        }
    }
}

/// A length field that disagrees with its body: longer runs into the
/// next frame (trailing bytes) or the end of the stream, shorter cuts
/// the value short. Both are typed errors.
#[test]
fn length_field_disagreeing_with_the_body_is_an_error() {
    for frame in frames() {
        let len = (frame.len() - 4) as u32;
        let mut longer = with_len(&frame, len + 1);
        assert!(matches!(read_closed(&longer), Err(CodecError::Io(_))));
        longer.extend_from_slice(&frame);
        let got = read_closed(&longer);
        assert!(matches!(
            got,
            Err(CodecError::Malformed(SnapError::Trailing { .. }))
        ));
        for short in 0..len {
            let got = read_closed(&with_len(&frame, short));
            assert!(
                matches!(got, Err(CodecError::Malformed(_))),
                "{short}/{len}"
            );
        }
    }
}

/// A length over the cap is refused from the header alone: the reader
/// neither allocates the body nor waits for it.
#[test]
fn oversized_length_is_refused_before_allocating() {
    for len in [codec::MAX_FRAME as u32 + 1, u32::MAX] {
        let got = read_closed(&len.to_be_bytes());
        assert!(matches!(got, Err(CodecError::TooLarge(n)) if n == len as usize));
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

/// An Adj-RIB-In record keyed by one NLRI must hold a route for it: the
/// live table keys every candidate by its route's NLRI, so a record
/// that does not is refused, even with a Loc-RIB record that matches it.
#[test]
fn adj_in_route_for_another_nlri_is_refused() {
    let key = (Nlri::Domain(1), 5);
    let route = Route {
        nlri: Nlri::Domain(2),
        as_path: AsPath::new(&[2]),
        next_hop: 5,
        local: false,
        ebgp: true,
    };
    let mut bad = FiveMaps::default();
    bad.adj_in.insert(key, route.clone());
    bad.loc.insert(key.0, (key.1, route.clone()));
    assert_eq!(
        through_speaker(&bad.blob()),
        Err(SnapError::Invalid("Adj-RIB-In route for another NLRI"))
    );
    // The same record keyed by its own NLRI restores.
    let mut good = FiveMaps::default();
    good.adj_in.insert((route.nlri, key.1), route.clone());
    good.loc.insert(route.nlri, (key.1, route));
    let blob = good.blob();
    assert!(through_speaker(&blob).expect("restores") == blob);
}

/// A `loc` or `out` path is restored exactly as written, never as a
/// near match of a path the row holds: a Loc-RIB path one ASN off,
/// longer or shorter is refused, and an `out` path swapped for one its
/// row holds, or for one no row holds, comes back as written.
#[test]
fn loc_and_out_paths_restore_exactly() {
    let (_, maps) = live_speaker();
    let nearly = |path: &[u32]| -> [Vec<u32>; 3] {
        let mut changed = path.to_vec();
        changed[0] += 1;
        let appended = [path, &[99]].concat();
        let dropped = path[..path.len() - 1].to_vec();
        [changed, appended, dropped]
    };
    for (nlri, (_, route)) in &maps.loc {
        for path in nearly(&route.as_path) {
            let mut bad = maps.clone();
            bad.loc.get_mut(nlri).expect("selected").1.as_path = AsPath::new(&path);
            let got = through_speaker(&bad.blob());
            assert!(
                matches!(got, Err(SnapError::Invalid(_))),
                "{nlri:?} with {path:?}: {got:?}"
            );
        }
    }
    let mut swaps = [0; 3];
    for ((to, nlri), route) in &maps.out {
        let selected = maps.loc.get(nlri).map(|(_, r)| r.as_path.clone());
        let others = maps.out.iter().filter(|((t, n), _)| n == nlri && t != to);
        let other = others.map(|(_, r)| r.as_path.clone()).next();
        let unheld = Some(AsPath::new(&[MY_ASN, 4242, 4243]));
        for (i, path) in [selected, other, unheld].into_iter().enumerate() {
            let Some(path) = path.filter(|p| *p != route.as_path) else {
                continue;
            };
            let mut odd = maps.clone();
            odd.out.get_mut(&(*to, *nlri)).expect("told").as_path = path.clone();
            let blob = odd.blob();
            assert!(
                through_speaker(&blob).expect("restores") == blob,
                "({to}, {nlri:?}) told {path:?} moved bytes"
            );
            swaps[i] += 1;
        }
    }
    assert!(swaps.iter().all(|&n| n > 0), "a swap never ran: {swaps:?}");
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
