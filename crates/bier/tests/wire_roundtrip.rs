//! BIER wire-codec tests: roundtrip of every frame variant, a committed
//! golden byte image, and corruption totality. They live here — not in
//! `src/msg.rs` — because that file denies clippy's panicking lints.

use bier::bitstring::{BfrId, BitString, SetId};
use bier::BierMsg;
use snapshot::{Dec, Enc, Snapshot};

const GOLDEN: &[u8] = include_bytes!("golden/bier_wire.bin");

/// One frame of every variant, with a multi-word bitstring.
fn exemplars() -> Vec<BierMsg> {
    let mut bits = BitString::new(256);
    bits.set(0);
    bits.set(63);
    bits.set(64);
    bits.set(255);
    vec![
        BierMsg::Subscribe {
            group: 9,
            bfr: BfrId(1),
        },
        BierMsg::Unsubscribe {
            group: 9,
            bfr: BfrId(300),
        },
        BierMsg::Packet {
            group: 0x0102_0304,
            si: SetId(2),
            bits,
        },
        BierMsg::AdjDown {
            from: BfrId(7),
            to: BfrId(8),
        },
        BierMsg::AdjUp {
            from: BfrId(7),
            to: BfrId(8),
        },
    ]
}

fn encode_all() -> Vec<u8> {
    let mut enc = Enc::new();
    let msgs = exemplars();
    enc.seq(msgs.len());
    for m in &msgs {
        m.encode(&mut enc);
    }
    enc.finish()
}

#[test]
fn every_variant_roundtrips() {
    for msg in exemplars() {
        let mut enc = Enc::new();
        msg.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(BierMsg::decode(&mut dec).unwrap(), msg);
        dec.finish().unwrap();
    }
}

#[test]
fn wire_format_matches_committed_golden() {
    assert_eq!(
        encode_all(),
        GOLDEN,
        "BIER wire format drifted from the committed golden; if intentional, \
         regenerate with `cargo test -p bier --test wire_roundtrip -- --ignored regen_golden`"
    );
}

#[test]
fn golden_decodes_back_to_the_exemplars() {
    let mut dec = Dec::new(GOLDEN);
    let n = dec.seq().unwrap();
    let want = exemplars();
    assert_eq!(n, want.len());
    for w in &want {
        assert_eq!(BierMsg::decode(&mut dec).unwrap(), *w);
    }
    dec.finish().unwrap();
}

#[test]
fn truncation_is_an_error_never_a_panic() {
    let bytes = encode_all();
    for cut in 0..bytes.len() {
        let mut dec = Dec::new(&bytes[..cut]);
        let mut ok = true;
        if let Ok(n) = dec.seq() {
            for _ in 0..n {
                if BierMsg::decode(&mut dec).is_err() {
                    ok = false;
                    break;
                }
            }
        } else {
            ok = false;
        }
        // A strict prefix can never decode the full frame list and
        // also consume every byte.
        assert!(!(ok && dec.finish().is_ok()), "prefix {cut} decoded fully");
    }
}

#[test]
fn bad_tags_and_zero_bfr_are_rejected() {
    // Unknown frame tag.
    let mut dec = Dec::new(&[9u8]);
    assert!(BierMsg::decode(&mut dec).is_err());
    // BFR-id zero is reserved/invalid on the wire.
    let mut enc = Enc::new();
    enc.u8(0); // Subscribe
    enc.u32(1); // group
    enc.u32(0); // bfr = 0
    let bytes = enc.finish();
    let mut dec = Dec::new(&bytes);
    assert!(BierMsg::decode(&mut dec).is_err());
}

/// Writes the committed golden. Run explicitly after an intentional
/// format change:
/// `cargo test -p bier --test wire_roundtrip -- --ignored regen_golden`
#[test]
#[ignore]
fn regen_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/bier_wire.bin");
    std::fs::write(path, encode_all()).unwrap();
}
