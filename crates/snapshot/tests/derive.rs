//! The `#[derive(Snapshot)]` contract: the derived bytes are the ones a
//! hand-written impl produces through `Enc` calls (fields in declaration
//! order, an enum's declaration index as a `u8` tag), an unknown tag is
//! `Invalid("<Type> tag")`, and no strict prefix of an encoding decodes.

use std::collections::BTreeMap;

use snapshot::{Dec, Enc, SnapError, Snapshot};

#[derive(Debug, PartialEq, Snapshot)]
struct Named {
    id: u32,
    /// A doc comment and a field of a generic container.
    pub weights: BTreeMap<u8, f64>,
    pub(crate) label: Option<String>,
}

#[derive(Debug, PartialEq, Snapshot)]
struct Pair(pub u16, bool);

#[derive(Debug, PartialEq, Snapshot)]
enum Shape {
    Empty,
    Line(u64, Pair),
    Box { corner: Named, depth: u8 },
}

fn bytes_of<T: Snapshot>(v: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    v.encode(&mut enc);
    enc.finish()
}

fn decode<T: Snapshot>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut dec = Dec::new(bytes);
    let v = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

fn named() -> Named {
    Named {
        id: 7,
        weights: [(1, 0.5), (4, -2.0)].into_iter().collect(),
        label: Some("edge".to_string()),
    }
}

fn values() -> Vec<Shape> {
    vec![
        Shape::Empty,
        Shape::Line(u64::MAX - 3, Pair(513, true)),
        Shape::Box {
            corner: named(),
            depth: 9,
        },
    ]
}

#[test]
fn derived_bytes_are_the_hand_written_ones() {
    let mut hand = Enc::new();
    hand.u32(7);
    hand.seq(2);
    hand.u8(1);
    hand.f64(0.5);
    hand.u8(4);
    hand.f64(-2.0);
    hand.u8(1);
    hand.str("edge");
    let named_bytes = hand.finish();
    assert_eq!(bytes_of(&named()), named_bytes);

    let mut hand = Enc::new();
    hand.u16(513);
    hand.bool(true);
    assert_eq!(bytes_of(&Pair(513, true)), hand.finish());

    let mut hand = Enc::new();
    hand.u8(0);
    hand.u8(1);
    hand.u64(u64::MAX - 3);
    hand.u16(513);
    hand.bool(true);
    hand.u8(2);
    let mut want = hand.finish();
    want.extend_from_slice(&named_bytes);
    want.push(9);
    let got: Vec<u8> = values().iter().flat_map(bytes_of).collect();
    assert_eq!(got, want);

    for v in values() {
        assert_eq!(decode::<Shape>(&bytes_of(&v)), Ok(v));
    }
    assert_eq!(decode::<Named>(&named_bytes), Ok(named()));
}

#[test]
fn a_tag_past_the_last_variant_is_invalid() {
    assert_eq!(decode::<Shape>(&[3]), Err(SnapError::Invalid("Shape tag")));
    assert_eq!(
        decode::<Shape>(&[u8::MAX]),
        Err(SnapError::Invalid("Shape tag"))
    );
}

#[test]
fn every_strict_prefix_fails_to_decode() {
    let named = bytes_of(&named());
    for cut in 0..named.len() {
        assert!(
            decode::<Named>(&named[..cut]).is_err(),
            "Named cut at {cut}"
        );
    }
    let pair = bytes_of(&Pair(513, true));
    for cut in 0..pair.len() {
        assert!(decode::<Pair>(&pair[..cut]).is_err(), "Pair cut at {cut}");
    }
    for v in values() {
        let bytes = bytes_of(&v);
        for cut in 0..bytes.len() {
            assert!(
                decode::<Shape>(&bytes[..cut]).is_err(),
                "{v:?} cut at {cut}"
            );
        }
    }
}
