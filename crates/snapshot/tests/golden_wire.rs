//! Golden wire-format pin: committed byte images of a snapshot
//! exercising every codec primitive. Any accidental change to the
//! header layout, integer endianness, length prefixes, or container
//! encodings makes this test fail before it can silently invalidate
//! checkpoints on disk.
//!
//! The golden of the one version that decodes is pinned; an image
//! with any other version in its header is a deterministic
//! `BadVersion`. The v3 and v4 images stay committed to show that.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::num::NonZeroU32;

use snapshot::{Dec, Enc, SnapError, Snapshot, FORMAT_VERSION, MAGIC};

const GOLDEN: &[u8] = include_bytes!("golden/wire_v5.bin");

/// The same exemplar as version 4 wrote it: header aside, the bytes
/// are `GOLDEN`'s.
const GOLDEN_V4: &[u8] = include_bytes!("golden/wire_v4.bin");

/// The same exemplar as version 3 wrote it: header aside, the bytes
/// are `GOLDEN`'s.
const GOLDEN_V3: &[u8] = include_bytes!("golden/wire_v3.bin");

/// Kind tag reserved for this test; never a real subsystem.
const KIND: u16 = 0x7e57;

/// One value of every primitive and container the codec encodes.
fn encode_exemplar() -> Vec<u8> {
    let mut enc = Enc::with_header(KIND);
    enc.u8(0x01);
    enc.u16(0x0203);
    enc.u32(0x0405_0607);
    enc.u64(0x0809_0a0b_0c0d_0e0f);
    enc.usize(42);
    enc.bool(true);
    enc.bool(false);
    enc.f64(-1.5);
    enc.str("masc/bgmp");
    enc.bytes(&[0xde, 0xad]);
    [0xaau64, 0xbb, 0xcc, 0xdd].encode(&mut enc); // RNG state shape
    Some(7u32).encode(&mut enc);
    Option::<u32>::None.encode(&mut enc);
    vec![1u16, 2, 3].encode(&mut enc);
    VecDeque::from([9u8, 8]).encode(&mut enc);
    BTreeSet::from([5u32, 6]).encode(&mut enc);
    BTreeMap::from([(1u8, 2u64), (3, 4)]).encode(&mut enc);
    (0x11u8, 0x2222u16).encode(&mut enc);
    (0x33u8, 0x4444u16, 0x5555_5555u32).encode(&mut enc);
    enc.finish()
}

#[test]
fn wire_format_matches_committed_golden() {
    let bytes = encode_exemplar();
    assert_eq!(
        bytes, GOLDEN,
        "snapshot wire format drifted from the committed v{FORMAT_VERSION} golden; \
         if the change is intentional, bump FORMAT_VERSION and add a new \
         crates/snapshot/tests/golden/wire_vN.bin (never regenerate old ones)"
    );
}

/// A nested snapshot written in place through `frame` is, byte for
/// byte, one encoded apart and copied in with `bytes` — here the golden
/// itself, nested in an outer snapshot and read back.
#[test]
fn frame_in_place_is_the_bytes_of_a_copied_blob() {
    let inner = encode_exemplar();
    let mut copied = Enc::with_header(KIND);
    copied.bytes(&inner);
    copied.u8(0xff);
    let mut framed = Enc::with_header(KIND);
    let wrote = framed.frame(|enc| {
        inner.iter().for_each(|b| enc.u8(*b));
        Ok::<(), SnapError>(())
    });
    assert_eq!(wrote, Ok(()));
    framed.u8(0xff);
    let framed = framed.finish();
    assert_eq!(framed, copied.finish());
    let mut dec = Dec::new(&framed);
    assert_eq!(dec.header(KIND), Ok(()));
    assert_eq!(dec.bytes(), Ok(GOLDEN));
    assert_eq!(dec.u8(), Ok(0xff));
    assert_eq!(dec.finish(), Ok(()));
    // The body's error is the frame's.
    assert_eq!(Enc::new().frame(|_| Err(7)), Err(7));
    // An empty frame is an empty string.
    let mut empty = Enc::new();
    assert_eq!(empty.frame(|_| Ok::<(), ()>(())), Ok(()));
    assert_eq!(empty.finish(), 0u64.to_le_bytes());
}

#[test]
fn golden_header_is_magic_version_kind() {
    assert_eq!(&GOLDEN[..4], MAGIC, "magic");
    assert_eq!(
        u16::from_le_bytes([GOLDEN[4], GOLDEN[5]]),
        FORMAT_VERSION,
        "format version"
    );
    assert_eq!(u16::from_le_bytes([GOLDEN[6], GOLDEN[7]]), KIND, "kind");
}

#[test]
fn golden_decodes_back_to_the_exemplar() {
    let mut dec = Dec::new(GOLDEN);
    assert_eq!(dec.header(KIND), Ok(()));
    assert_eq!(dec.u8(), Ok(0x01));
    assert_eq!(dec.u16(), Ok(0x0203));
    assert_eq!(dec.u32(), Ok(0x0405_0607));
    assert_eq!(dec.u64(), Ok(0x0809_0a0b_0c0d_0e0f));
    assert_eq!(dec.usize(), Ok(42));
    assert_eq!(dec.bool(), Ok(true));
    assert_eq!(dec.bool(), Ok(false));
    assert_eq!(dec.f64(), Ok(-1.5));
    assert_eq!(dec.str().as_deref(), Ok("masc/bgmp"));
    assert_eq!(dec.bytes(), Ok(&[0xde, 0xad][..]));
    assert_eq!(<[u64; 4]>::decode(&mut dec), Ok([0xaa, 0xbb, 0xcc, 0xdd]));
    assert_eq!(Option::<u32>::decode(&mut dec), Ok(Some(7)));
    assert_eq!(Option::<u32>::decode(&mut dec), Ok(None));
    assert_eq!(Vec::<u16>::decode(&mut dec), Ok(vec![1, 2, 3]));
    assert_eq!(VecDeque::<u8>::decode(&mut dec), Ok(VecDeque::from([9, 8])));
    assert_eq!(
        BTreeSet::<u32>::decode(&mut dec),
        Ok(BTreeSet::from([5, 6]))
    );
    assert_eq!(
        BTreeMap::<u8, u64>::decode(&mut dec),
        Ok(BTreeMap::from([(1, 2), (3, 4)]))
    );
    assert_eq!(<(u8, u16)>::decode(&mut dec), Ok((0x11, 0x2222)));
    assert_eq!(
        <(u8, u16, u32)>::decode(&mut dec),
        Ok((0x33, 0x4444, 0x5555_5555))
    );
    assert_eq!(dec.finish(), Ok(()));
}

#[test]
fn every_other_version_is_rejected_not_misread() {
    for found in [1, 2, FORMAT_VERSION + 1] {
        let mut bytes = GOLDEN.to_vec();
        bytes[4..6].copy_from_slice(&found.to_le_bytes());
        assert_eq!(
            Dec::new(&bytes).header(KIND),
            Err(SnapError::BadVersion { found })
        );
    }
}

#[test]
fn the_v3_golden_is_refused_as_bad_version() {
    assert_eq!(GOLDEN_V3[8..], GOLDEN[8..], "only the header differs");
    assert!(matches!(
        Dec::new(GOLDEN_V3).header(KIND),
        Err(SnapError::BadVersion { found: 3, .. })
    ));
}

#[test]
fn the_v4_golden_is_refused_as_bad_version() {
    assert_eq!(GOLDEN_V4[8..], GOLDEN[8..], "only the header differs");
    assert!(matches!(
        Dec::new(GOLDEN_V4).header(KIND),
        Err(SnapError::BadVersion { found: 4, .. })
    ));
}

/// An interned value is written in full the first time its id appears
/// (tag 0, then its words framed like a `Vec<u32>`) and as tag 1 and
/// the index of that first time after; its words are read only to be
/// written. Decode hands back the id it interned at that index.
#[test]
fn interned_slices_are_written_once_then_referred_to() {
    let id = |n| NonZeroU32::new(n).expect("non-zero");
    let (a, b) = ((id(5), &[7, 3][..]), (id(9), &[9][..]));
    let mut enc = Enc::new();
    let mut reads = 0;
    for (id, words) in [a, b, a, a, b] {
        enc.interned(id, || {
            reads += 1;
            words
        });
    }
    assert_eq!(reads, 2, "only a value written in full is read");
    let bytes = enc.finish();
    let mut want = vec![0];
    want.extend(2u64.to_le_bytes());
    want.extend([7, 0, 0, 0, 3, 0, 0, 0]);
    want.push(0);
    want.extend(1u64.to_le_bytes());
    want.extend([9, 0, 0, 0]);
    want.extend([1, 0, 0, 0, 0]);
    want.extend([1, 0, 0, 0, 0]);
    want.extend([1, 1, 0, 0, 0]);
    assert_eq!(bytes, want);

    let mut interned = Vec::new();
    let mut intern = |words: &[u32]| {
        interned.push(words.to_vec());
        id(100 + interned.len() as u32)
    };
    let mut dec = Dec::new(&bytes);
    let first = dec.interned(&mut intern).expect("in full");
    let second = dec.interned(&mut intern).expect("in full");
    assert_eq!((first, second), (id(101), id(102)));
    for want in [first, first, second] {
        let got = dec.interned(&mut intern).expect("back");
        assert_eq!(got, want, "a reference back is the id read");
    }
    assert_eq!(dec.finish(), Ok(()));
    assert_eq!(
        interned,
        [vec![7, 3], vec![9]],
        "only a value written in full is interned"
    );
}
