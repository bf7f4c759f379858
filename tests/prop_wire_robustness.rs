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
//! of the file: its blob is pinned to rows written here by hand from
//! what a scenario must leave behind, and a row that breaks the
//! layout's rules is refused with the rule's own error.
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
/// show it. The constants were computed before any codec was derived,
/// then recomputed in format 5, when the one AS path in the lists
/// gained its tag byte (715 → 716 bytes). They must not move again.
#[test]
fn every_listed_encoding_is_pinned() {
    const LEN: usize = 716;
    const FNV1A: u64 = 352_153_854_603_989_251;
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

/// What a speaker must hold after a scenario, as plain maps: every
/// candidate with its entry kind, and the route each peer was last told.
#[derive(Clone, Default)]
struct Mirror {
    heard: BTreeMap<(Nlri, RouterId), (Option<RouteSourceKind>, Route)>,
    told: BTreeMap<(Nlri, RouterId), Route>,
    local_groups: BTreeSet<Prefix>,
    down: BTreeSet<RouterId>,
}

/// One `sent` entry as written. `raw`, when set, is written where the
/// path would be.
#[derive(Clone, Debug)]
struct SentRec {
    to: RouterId,
    ebgp: bool,
    path: AsPath,
    raw: Option<Vec<u8>>,
}

/// One row as written.
#[derive(Clone, Debug)]
struct RowRec {
    nlri: Nlri,
    heard: Vec<(RouterId, Option<RouteSourceKind>, Route)>,
    selected: Option<RouterId>,
    sent: Vec<SentRec>,
}

/// The speaker's blob as records, written out by [`Rows::blob`] in
/// whatever order and with whatever values they hold.
#[derive(Clone)]
struct Rows {
    rows: Vec<RowRec>,
    local_groups: BTreeSet<Prefix>,
    down: BTreeSet<RouterId>,
}

impl Mirror {
    /// The rows this state is written as: NLRI order, candidates and
    /// `sent` in peer order, the selection worked out here (the first
    /// candidate in peer order that no other is preferred to).
    fn rows(&self) -> Rows {
        let keys = self.heard.keys().chain(self.told.keys());
        let nlris: BTreeSet<Nlri> = keys.map(|(nlri, _)| *nlri).collect();
        let of = |nlri: Nlri| (nlri, RouterId::MIN)..=(nlri, RouterId::MAX);
        let rows = nlris.into_iter().map(|nlri| {
            let heard = self.heard.range(of(nlri));
            let heard: Vec<_> = heard
                .map(|((_, peer), (kind, route))| (*peer, *kind, route.clone()))
                .collect();
            let mut selected: Option<&(RouterId, _, Route)> = None;
            for h in &heard {
                if selected.is_none_or(|s| bgp::route::prefer(&h.2, &s.2)) {
                    selected = Some(h);
                }
            }
            let sent = self.told.range(of(nlri)).map(|((_, to), route)| SentRec {
                to: *to,
                ebgp: route.ebgp,
                path: route.as_path,
                raw: None,
            });
            let sent = sent.collect();
            let selected = selected.map(|s| s.0);
            RowRec {
                nlri,
                heard,
                selected,
                sent,
            }
        });
        Rows {
            rows: rows.collect(),
            local_groups: self.local_groups.clone(),
            down: self.down.clone(),
        }
    }

    fn blob(&self) -> Vec<u8> {
        self.rows().blob()
    }
}

/// The paths a blob has written in full, by the index each was given.
type Written = BTreeMap<Vec<u32>, u32>;

/// Writes `path` as the blob's first holder of it does (tag 0, then the
/// path framed like a `Vec`), or as each later one refers back to it
/// (tag 1, then its index as a `u32`), counting the paths written in
/// full from 0 in blob order.
fn write_path(enc: &mut Enc, written: &mut Written, path: &AsPath) {
    if let Some(i) = written.get(&path[..]) {
        enc.u8(1);
        enc.u32(*i);
    } else {
        let i = u32::try_from(written.len()).expect("few paths");
        written.insert(path.to_vec(), i);
        enc.u8(0);
        path.to_vec().encode(enc);
    }
}

impl Rows {
    /// The layout, field by field: the row count, then per row its
    /// NLRI, the candidates (peer, kind, then the route less its NLRI),
    /// the selected peer and the `sent` entries (peer, `ebgp`, path);
    /// then `local_groups`, `down` and `aggregate_suppress`. Each path
    /// is written by [`write_path`].
    fn blob(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        let mut written = Written::new();
        enc.seq(self.rows.len());
        for row in &self.rows {
            row.nlri.encode(&mut enc);
            enc.seq(row.heard.len());
            for (peer, kind, route) in &row.heard {
                enc.u32(*peer);
                kind.encode(&mut enc);
                write_path(&mut enc, &mut written, &route.as_path);
                enc.u32(route.next_hop);
                enc.bool(route.local);
                enc.bool(route.ebgp);
            }
            row.selected.encode(&mut enc);
            enc.seq(row.sent.len());
            for s in &row.sent {
                enc.u32(s.to);
                enc.bool(s.ebgp);
                match &s.raw {
                    Some(raw) => raw.iter().for_each(|b| enc.u8(*b)),
                    None => write_path(&mut enc, &mut written, &s.path),
                }
            }
        }
        self.local_groups.encode(&mut enc);
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
/// peer, a withdraw and a session loss, mirroring what each event must
/// leave behind: what was fed in (with the receiver-side `ebgp` flag and
/// entry kind), and the last thing each peer was told.
fn live_speaker() -> (BgpSpeaker, Mirror) {
    let mut sp = fresh_speaker();
    let mut mirror = Mirror::default();
    fn told(mirror: &mut Mirror, msgs: Vec<OutMsg>) {
        for OutMsg { to, msg } in msgs {
            match msg {
                BgpMsg::Update { route, .. } => mirror.told.insert((route.nlri, to), route),
                BgpMsg::Withdraw(nlri) => mirror.told.remove(&(nlri, to)),
            };
        }
    }
    let own = prefix(0xE100_0000, 12);
    let local = |nlri| Route::originate(nlri, MY_ASN, ME);
    mirror.local_groups.insert(own);
    for nlri in [Nlri::Group(own), Nlri::Domain(MY_ASN)] {
        let kind = Some(RouteSourceKind::Local);
        mirror
            .heard
            .insert((nlri, RouterId::MAX), (kind, local(nlri)));
    }
    let msgs = sp.originate_group(own);
    told(&mut mirror, msgs);
    let msgs = sp.originate_domain();
    told(&mut mirror, msgs);

    let heard: [(RouterId, Nlri, &[u32], RouteSourceKind); 8] = [
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
            Nlri::Group(prefix(0xE200_0000, 8)),
            &[6, 9],
            RouteSourceKind::Peer,
        ),
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
        told(&mut mirror, msgs);
        route.ebgp = from != 11;
        mirror.heard.insert((nlri, from), (Some(kind), route));
    }
    let gone = Nlri::Domain(2);
    let msgs = sp.handle(BgpEvent::FromPeer {
        from: 40,
        msg: BgpMsg::Withdraw(gone),
    });
    told(&mut mirror, msgs);
    mirror.heard.remove(&(gone, 40));

    let msgs = sp.handle(BgpEvent::PeerDown(30));
    told(&mut mirror, msgs);
    mirror.down.insert(30);
    mirror.heard.retain(|(_, peer), _| *peer != 30);
    mirror.told.retain(|(_, to), _| *to != 30);
    (sp, mirror)
}

/// The blob is the rows written by hand, and comes back byte for byte.
#[test]
fn speaker_blob_is_the_reference_rows() {
    let (sp, mirror) = live_speaker();
    assert!(
        mirror.heard.len() >= 7 && mirror.told.len() >= 6,
        "the scenario went quiet"
    );
    let rows = mirror.rows();
    assert!(
        rows.rows.iter().any(|r| r.heard.len() >= 2),
        "no row holds a candidate that lost"
    );
    assert!(
        rows.rows
            .iter()
            .any(|r| r.sent.windows(2).any(|w| w[0].path == w[1].path)),
        "no path is told to two peers of a row"
    );
    let mut enc = Enc::new();
    sp.encode_state(&mut enc);
    let blob = enc.finish();
    assert!(
        blob == rows.blob(),
        "speaker state is no longer written as the reference rows"
    );
    assert!(through_speaker(&blob).expect("own blob restores") == blob);
}

/// The restore reads the rows once, in order, so a row, candidate or
/// `sent` entry that is not after the one before it — which
/// `encode_state` never writes — is refused, not sorted into place or
/// merged.
#[test]
fn speaker_sections_out_of_order_are_refused() {
    let (_, mirror) = live_speaker();
    let rows = mirror.rows();
    let i = rows.rows.iter().position(|r| r.heard.len() >= 2);
    let i = i.expect("a row with two candidates");
    let j = rows.rows.iter().position(|r| r.sent.len() >= 2);
    let j = j.expect("a row told to two peers");
    let refused = |what: &str, edit: &dyn Fn(&mut Vec<RowRec>)| {
        let mut bad = rows.clone();
        edit(&mut bad.rows);
        let got = through_speaker(&bad.blob());
        assert_eq!(
            got,
            Err(SnapError::Invalid("RIB row out of order")),
            "{what}"
        );
    };
    refused("two rows swapped", &|r| r.swap(0, 1));
    refused("a row twice", &|r| r.insert(1, r[0].clone()));
    refused("two candidates swapped", &|r| r[i].heard.swap(0, 1));
    refused("a candidate twice", &|r| {
        let again = r[i].heard[0].clone();
        r[i].heard.insert(1, again);
    });
    refused("two sent entries swapped", &|r| r[j].sent.swap(0, 1));
    refused("a sent entry twice", &|r| {
        let again = r[j].sent[0].clone();
        r[j].sent.insert(1, again);
    });
}

/// The selected peer is written so that a restore can check it: any
/// other than the one the candidates select — another candidate's, an
/// absent peer's, none, or one for a row with no candidates — is refused.
#[test]
fn a_selection_the_candidates_do_not_make_is_refused() {
    let (_, mut mirror) = live_speaker();
    let unheard = Nlri::Group(prefix(0xEE00_0000, 8));
    let told = mirror.told.values().next().cloned().expect("told");
    mirror.told.insert(
        (unheard, 20),
        Route {
            nlri: unheard,
            ..told
        },
    );
    let rows = mirror.rows();
    let mut tried = [0; 2];
    for (i, row) in rows.rows.iter().enumerate() {
        let peers = row.heard.iter().map(|h| Some(h.0));
        let wrong = peers.chain([None, Some(77)]).filter(|p| *p != row.selected);
        for selected in wrong {
            let mut bad = rows.clone();
            bad.rows[i].selected = selected;
            assert_eq!(
                through_speaker(&bad.blob()),
                Err(SnapError::Invalid(
                    "selection is not what the candidates select"
                )),
                "{:?} given {selected:?}",
                row.nlri
            );
            tried[usize::from(row.heard.len() >= 2)] += 1;
        }
    }
    assert!(tried.iter().all(|&n| n > 0), "a case never ran: {tried:?}");
}

/// A `sent` path's tag is 0 (the path follows) or 1 (the index of a
/// path the blob wrote in full before follows, in any row): a 1 with an
/// index no path has yet, the next one included, or any other tag is
/// refused; a 1 naming a path written before restores as that path.
#[test]
fn sent_path_tags_are_checked() {
    let (_, mirror) = live_speaker();
    let rows = mirror.rows();
    let with_raw = |i: usize, k: usize, raw: Vec<u8>| {
        let mut bad = rows.clone();
        bad.rows[i].sent[k].raw = Some(raw);
        through_speaker(&bad.blob())
    };
    let back_ref = |index: u32| [&[1][..], &index.to_le_bytes()].concat();
    // The paths written in full before row `i`'s `sent` entry `k`.
    let defined = |i: usize, k: usize| {
        let before = rows.rows[..i].iter().flat_map(|r| {
            let heard = r.heard.iter().map(|h| h.2.as_path);
            heard.chain(r.sent.iter().map(|s| s.path))
        });
        let row = &rows.rows[i];
        let row = row.heard.iter().map(|h| h.2.as_path);
        let row = row.chain(rows.rows[i].sent[..k].iter().map(|s| s.path));
        let paths: BTreeSet<Vec<u32>> = before.chain(row).map(|p| p.to_vec()).collect();
        u32::try_from(paths.len()).expect("few paths")
    };
    let told: Vec<usize> = (0..rows.rows.len())
        .filter(|&i| !rows.rows[i].sent.is_empty())
        .collect();
    assert!(told.len() >= 2, "the scenario went quiet");
    let first = rows.rows[0].heard.first().map(|h| h.2.as_path);
    let first = first.unwrap_or_else(|| rows.rows[0].sent[0].path);
    let mut named = 0;
    for &i in &told {
        for k in 0..rows.rows[i].sent.len() {
            let n = defined(i, k);
            for index in [n, n + 1, u32::MAX] {
                assert_eq!(
                    with_raw(i, k, back_ref(index)),
                    Err(SnapError::Invalid("interned slice index")),
                    "row {i} entry {k} index {index} of {n}"
                );
            }
            for tag in [2, 3, 255] {
                assert_eq!(
                    with_raw(i, k, vec![tag]),
                    Err(SnapError::Invalid("interned slice tag")),
                    "row {i} entry {k} tag {tag}"
                );
            }
            if n > 0 {
                let mut odd = rows.clone();
                odd.rows[i].sent[k].raw = Some(back_ref(0));
                let mut plain = rows.clone();
                plain.rows[i].sent[k].path = first;
                assert!(odd.blob() == plain.blob(), "row {i} entry {k}");
                let got = through_speaker(&odd.blob());
                assert!(got == Ok(plain.blob()), "row {i} entry {k}");
                named += 1;
            }
        }
    }
    assert!(named > 0, "no entry named a path written before");
}

/// A `sent` entry is independent of what the peer advertised: one for a
/// pair — even an NLRI — nobody advertised survives a restore byte for
/// byte, as a row with no candidates. A row with nothing in it at all is
/// refused: the table never holds one.
#[test]
fn out_entries_stand_alone_or_are_refused() {
    let (_, mirror) = live_speaker();
    let sent = |nlri| Route {
        nlri,
        as_path: AsPath::new(&[MY_ASN, 6]),
        next_hop: ME,
        local: false,
        ebgp: true,
    };
    for stray in [
        (Nlri::Group(prefix(0xE200_0000, 8)), 20),
        (Nlri::Group(prefix(0xEE00_0000, 8)), 40),
        (Nlri::Domain(9), 77),
    ] {
        let mut odd = mirror.clone();
        odd.told.insert(stray, sent(stray.0));
        let blob = odd.blob();
        assert!(
            through_speaker(&blob).expect("restores") == blob,
            "{stray:?} moved bytes"
        );
    }
    // Two peers told of an NLRI nobody advertised share the row made
    // for it, and the path, held by no other row, is written once.
    let mut odd = mirror.clone();
    let unheard = Nlri::Group(prefix(0xEE00_0000, 8));
    for to in [20, 40] {
        odd.told.insert((unheard, to), sent(unheard));
    }
    let rows = odd.rows();
    let row = rows.rows.iter().find(|r| r.nlri == unheard).expect("row");
    assert!(row.heard.is_empty() && row.selected.is_none());
    assert_eq!(row.sent.len(), 2);
    let blob = rows.blob();
    let in_full = [
        &[0][..],
        &2u64.to_le_bytes(),
        &MY_ASN.to_le_bytes(),
        &6u32.to_le_bytes(),
    ]
    .concat();
    let times = blob
        .windows(in_full.len())
        .filter(|w| *w == in_full)
        .count();
    assert_eq!(times, 1, "the path is written in full once");
    assert!(through_speaker(&blob).expect("restores") == blob);

    let mut bad = mirror.rows();
    let first = bad.rows[0].nlri;
    assert!(
        Nlri::Domain(0) < first,
        "the empty row would be out of order"
    );
    let empty = RowRec {
        nlri: Nlri::Domain(0),
        heard: Vec::new(),
        selected: None,
        sent: Vec::new(),
    };
    bad.rows.insert(0, empty);
    assert_eq!(
        through_speaker(&bad.blob()),
        Err(SnapError::Invalid("RIB row with nothing in it"))
    );
}

/// A `sent` path is restored exactly as written, never as a near match:
/// swapped for the selection's path, for another peer's in the same row
/// or for one no row holds, it comes back as written.
#[test]
fn sent_paths_restore_as_written() {
    let (_, mirror) = live_speaker();
    let mut swaps = [0; 3];
    for ((nlri, to), route) in &mirror.told {
        let selected = mirror.rows().rows.into_iter().find(|r| r.nlri == *nlri);
        let selected = selected.and_then(|r| {
            let peer = r.selected?;
            let h = r.heard.into_iter().find(|h| h.0 == peer)?;
            Some(h.2.as_path)
        });
        let others = mirror
            .told
            .iter()
            .filter(|((n, t), _)| n == nlri && t != to);
        let other = others.map(|(_, r)| r.as_path).next();
        let unheld = Some(AsPath::new(&[MY_ASN, 4242, 4243]));
        for (i, path) in [selected, other, unheld].into_iter().enumerate() {
            let Some(path) = path.filter(|p| *p != route.as_path) else {
                continue;
            };
            let mut odd = mirror.clone();
            odd.told.get_mut(&(*nlri, *to)).expect("told").as_path = path;
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

    /// Stray candidates (with or without an entry kind) and `sent`
    /// entries in any mix make a blob the restore carries through byte
    /// for byte; then, with a flipped bit, it never panics, and whatever
    /// it accepts it writes as a blob it carries through unchanged.
    #[test]
    fn speaker_blob_is_refused_or_carried_through(
        strays in prop::collection::vec((any::<bool>(), 0u32..6, 0u32..8), 0..4),
        flip in (any::<bool>(), any::<u32>(), 0u32..8),
    ) {
        let (_, mut mirror) = live_speaker();
        let peers = [11, 20, 30, 40, 77, RouterId::MAX];
        for (heard, peer, n) in strays {
            let nlri = if n < 4 { Nlri::Domain(n) } else { Nlri::Group(prefix(0xE000_0000 + (n << 24), 8)) };
            let key = (nlri, peers[peer as usize]);
            let route = Route { nlri, as_path: AsPath::new(&[MY_ASN, n]), next_hop: key.1, local: false, ebgp: n % 2 == 0 };
            if heard {
                let kind = (n % 3 != 0).then_some(RouteSourceKind::Customer);
                mirror.heard.insert(key, (kind, route));
            } else {
                mirror.told.insert(key, Route { next_hop: ME, ..route });
            }
        }
        let mut blob = mirror.blob();
        prop_assert!(through_speaker(&blob) == Ok(blob.clone()), "a reference blob came back different");
        if flip.0 {
            let i = flip.1 as usize % blob.len();
            blob[i] ^= 1 << flip.2;
            if let Ok(again) = through_speaker(&blob) {
                prop_assert!(through_speaker(&again) == Ok(again.clone()), "a re-encoded blob moved");
            }
        }
    }
}
