//! The canonical byte codec: little-endian fixed-width integers,
//! length-prefixed sequences, a versioned header.
//!
//! Format rules (see DESIGN.md §11):
//!
//! * every snapshot starts with the 8-byte header
//!   `MAGIC ‖ FORMAT_VERSION:u16 ‖ kind:u16`;
//! * integers are little-endian fixed width; `usize` travels as `u64`;
//! * `f64` travels as its IEEE-754 bit pattern (`to_bits`), so
//!   encode/decode is exact and byte-stable;
//! * sequences are a `u64` element count followed by the elements in
//!   container iteration order — which is why only *ordered*
//!   containers (`BTreeMap`, `BTreeSet`, `Vec`, `VecDeque`) may be
//!   encoded; a set's or map's keys must be strictly increasing, so a
//!   repeated or out-of-order key is refused rather than merged;
//! * enums are a `u8` tag followed by the variant's fields.
//!
//! Decoding is total: every read is bounds-checked and returns
//! [`SnapError`] on truncation or corruption. No `unwrap`, no
//! indexing — the `deny` below makes clippy refuse both.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::panic_in_result_fn,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::Snapshot;

/// Snapshot file magic: "MASC/BGMP SNapshot".
pub const MAGIC: [u8; 4] = *b"MBSN";

/// Current format version. Bump on any incompatible layout change and
/// commit a new `tests/golden/wire_vN.bin`, so format drift fails
/// loudly instead of misdecoding.
///
/// Only the current version decodes: [`Dec::header`] rejects every
/// other with [`SnapError::BadVersion`]. (v3 is the node-major
/// engine blob with keyed events and per-node RNG streams; v1 and v2
/// engine blobs carried a single shared RNG stream and unkeyed events
/// that the engine cannot continue.)
pub const FORMAT_VERSION: u16 = 3;

/// Decode failure. Every variant is a recoverable error — corrupt or
/// truncated snapshots must never panic the host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Input ended before the value did.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes left in the input.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The snapshot is of a different kind than the caller expected
    /// (e.g. resuming an engine snapshot as a fig2 run bundle).
    BadKind {
        /// Kind expected by the caller.
        want: u16,
        /// Kind found in the header.
        found: u16,
    },
    /// A tag or field value is out of range for its type.
    Invalid(&'static str),
    /// Decoding finished with unconsumed bytes.
    Trailing {
        /// Unconsumed byte count.
        remaining: usize,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { need, have } => {
                write!(f, "truncated snapshot: need {need} bytes, have {have}")
            }
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (supported: {FORMAT_VERSION})"
                )
            }
            SnapError::BadKind { want, found } => {
                write!(f, "wrong snapshot kind: want {want}, found {found}")
            }
            SnapError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            SnapError::Trailing { remaining } => {
                write!(f, "snapshot has {remaining} trailing bytes")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// Creates an encoder and writes the snapshot header for `kind`.
    pub fn with_header(kind: u16) -> Self {
        let mut e = Enc::new();
        e.header(kind);
        e
    }

    /// Writes the 8-byte snapshot header.
    pub fn header(&mut self, kind: u16) {
        self.buf.extend_from_slice(&MAGIC);
        self.u16(FORMAT_VERSION);
        self.u16(kind);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends what `body` writes as a length-prefixed byte string: the
    /// bytes of `self.bytes(&inner)` with no `inner`, the length put in last.
    pub fn frame<E>(&mut self, body: impl FnOnce(&mut Enc) -> Result<(), E>) -> Result<(), E> {
        let at = self.buf.len();
        self.u64(0);
        body(self)?;
        let len = (self.buf.len() - at - 8) as u64;
        if let Some(slot) = self.buf.get_mut(at..at + 8) {
            slot.copy_from_slice(&len.to_le_bytes());
        }
        Ok(())
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a sequence length prefix; follow with that many elements.
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked cursor over snapshot bytes.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Unconsumed byte count.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Takes the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapError::Invalid("length overflow"))?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapError::Truncated {
            need: n,
            have: self.remaining(),
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads and validates the snapshot header.
    pub fn header(&mut self, want_kind: u16) -> Result<(), SnapError> {
        let magic = self.take(4)?;
        if magic != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = self.u16()?;
        if version != FORMAT_VERSION {
            return Err(SnapError::BadVersion { found: version });
        }
        let kind = self.u16()?;
        if kind != want_kind {
            return Err(SnapError::BadKind {
                want: want_kind,
                found: kind,
            });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        let mut a = [0u8; 2];
        a.copy_from_slice(b);
        Ok(u16::from_le_bytes(a))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `usize` (encoded as `u64`).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid("usize out of range"))
    }

    /// Reads a bool (one byte, must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid("bool byte")),
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Invalid("utf-8 string"))
    }

    /// Reads a sequence length prefix, sanity-checked against the
    /// remaining input: every element costs at least one byte.
    pub fn seq(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Invalid("sequence length exceeds input"));
        }
        Ok(n)
    }

    /// How many `T` to reserve for a stated count of `n`: no more memory
    /// than there is input left; growth past that is paid for by bytes read.
    pub fn reserve<T>(&self, n: usize) -> usize {
        n.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    /// Checks that every byte was consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Trailing {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Snapshot impls for primitives and ordered std containers
// ---------------------------------------------------------------------

macro_rules! snap_int {
    ($($t:ty => $enc:ident / $dec:ident),* $(,)?) => {$(
        impl Snapshot for $t {
            fn encode(&self, enc: &mut Enc) {
                enc.$enc(*self);
            }
            fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
                dec.$dec()
            }
        }
    )*};
}
snap_int!(
    u8 => u8 / u8,
    u16 => u16 / u16,
    u32 => u32 / u32,
    u64 => u64 / u64,
    usize => usize / usize,
    bool => bool / bool,
    f64 => f64 / f64,
);

impl Snapshot for String {
    fn encode(&self, enc: &mut Enc) {
        enc.str(self);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        dec.str()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, enc: &mut Enc) {
        match self {
            None => enc.u8(0),
            Some(v) => {
                enc.u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            _ => Err(SnapError::Invalid("Option tag")),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.seq(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = dec.seq()?;
        let mut out = Vec::with_capacity(dec.reserve::<T>(n));
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.seq(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = dec.seq()?;
        let mut out = VecDeque::with_capacity(dec.reserve::<T>(n));
        for _ in 0..n {
            out.push_back(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot + Ord> Snapshot for BTreeSet<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.seq(self.len());
        for v in self {
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = dec.seq()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            let v = T::decode(dec)?;
            if out.last().is_some_and(|last| *last >= v) {
                return Err(SnapError::Invalid("BTreeSet out of order"));
            }
            out.insert(v);
        }
        Ok(out)
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Enc) {
        enc.seq(self.len());
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let n = dec.seq()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(dec)?;
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(SnapError::Invalid("BTreeMap keys out of order"));
            }
            let v = V::decode(dec)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

impl Snapshot for [u64; 4] {
    fn encode(&self, enc: &mut Enc) {
        for v in self {
            enc.u64(*v);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok([dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(300);
        e.u32(70_000);
        e.u64(u64::MAX);
        e.usize(42);
        e.bool(true);
        e.f64(0.25);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 300);
        assert_eq!(d.u32().unwrap(), 70_000);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.usize().unwrap(), 42);
        assert!(d.bool().unwrap());
        assert_eq!(d.f64().unwrap(), 0.25);
        d.finish().unwrap();
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<u32> = vec![1, 2, 3];
        let s: BTreeSet<u64> = [9, 4].into_iter().collect();
        let m: BTreeMap<u8, String> = [(1u8, "a".to_string()), (2, "bb".to_string())]
            .into_iter()
            .collect();
        let o: Option<(u8, bool)> = Some((3, false));
        let q: VecDeque<u16> = [5, 6].into_iter().collect();
        let mut e = Enc::new();
        v.encode(&mut e);
        s.encode(&mut e);
        m.encode(&mut e);
        o.encode(&mut e);
        q.encode(&mut e);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(Vec::<u32>::decode(&mut d).unwrap(), v);
        assert_eq!(BTreeSet::<u64>::decode(&mut d).unwrap(), s);
        assert_eq!(BTreeMap::<u8, String>::decode(&mut d).unwrap(), m);
        assert_eq!(Option::<(u8, bool)>::decode(&mut d).unwrap(), o);
        assert_eq!(VecDeque::<u16>::decode(&mut d).unwrap(), q);
        d.finish().unwrap();
    }

    #[test]
    fn header_validates_magic_version_kind() {
        let bytes = Enc::with_header(3).finish();
        assert!(Dec::new(&bytes).header(3).is_ok());
        assert_eq!(
            Dec::new(&bytes).header(4),
            Err(SnapError::BadKind { want: 4, found: 3 })
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Dec::new(&bad).header(3), Err(SnapError::BadMagic));
        let mut vbad = bytes;
        vbad[4] = 0xFF;
        vbad[5] = 0xFF;
        assert_eq!(
            Dec::new(&vbad).header(3),
            Err(SnapError::BadVersion { found: 0xFFFF })
        );
    }

    #[test]
    fn only_the_current_version_is_accepted() {
        let bytes = Enc::with_header(3).finish();
        assert_eq!(Dec::new(&bytes).header(3), Ok(()));
        for found in [0, 1, 2, FORMAT_VERSION + 1] {
            let mut other = bytes.clone();
            other[4..6].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                Dec::new(&other).header(3),
                Err(SnapError::BadVersion { found })
            );
        }
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let mut e = Enc::new();
        vec![1u64, 2, 3].encode(&mut e);
        let bytes = e.finish();
        // Every strict prefix must fail cleanly.
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            let r = Vec::<u64>::decode(&mut d);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocation() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // claimed element count
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert!(Vec::<u8>::decode(&mut d).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        let _ = d.u8().unwrap();
        assert_eq!(d.finish(), Err(SnapError::Trailing { remaining: 1 }));
    }

    fn map_of(pairs: &[(u32, u64)]) -> Result<BTreeMap<u32, u64>, SnapError> {
        let mut e = Enc::new();
        e.seq(pairs.len());
        for (k, v) in pairs {
            e.u32(*k);
            e.u64(*v);
        }
        BTreeMap::decode(&mut Dec::new(&e.finish()))
    }

    #[test]
    fn a_repeated_map_key_is_refused_not_merged() {
        assert_eq!(
            map_of(&[(5, 1), (5, 2)]),
            Err(SnapError::Invalid("BTreeMap keys out of order"))
        );
    }

    #[test]
    fn map_keys_out_of_order_are_refused() {
        assert_eq!(
            map_of(&[(6, 1), (5, 2)]),
            Err(SnapError::Invalid("BTreeMap keys out of order"))
        );
        assert_eq!(map_of(&[(5, 2), (6, 1)]).map(|m| m.len()), Ok(2));
    }

    #[test]
    fn a_repeated_set_element_is_refused() {
        let mut e = Enc::new();
        e.seq(3);
        for _ in 0..3 {
            e.u32(1);
        }
        assert_eq!(
            BTreeSet::<u32>::decode(&mut Dec::new(&e.finish())),
            Err(SnapError::Invalid("BTreeSet out of order"))
        );
    }

    #[test]
    fn bad_tags_are_errors() {
        let bytes = vec![7u8];
        let mut d = Dec::new(&bytes);
        assert_eq!(
            Option::<u8>::decode(&mut d),
            Err(SnapError::Invalid("Option tag"))
        );
        let mut d = Dec::new(&[9u8]);
        assert_eq!(d.bool(), Err(SnapError::Invalid("bool byte")));
    }
}
