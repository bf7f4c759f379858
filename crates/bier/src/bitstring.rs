//! Bitstrings, BFR-ids, and sub-domain set partitioning.
//!
//! Every domain that can receive traffic (a BFER in RFC 8279 terms) is
//! assigned a 1-based **BFR-id**. A packet's receiver set is a
//! **bitstring** of at most `bsl` bits (the BitStringLength); domains
//! whose BFR-id exceeds the BSL fall into higher **sets**: bit position
//! `(id-1) % bsl` of set `(id-1) / bsl`. A packet addressed to
//! receivers in k distinct sets is sent as k copies, one per set —
//! that is the header-size / copy-count tradeoff the BIER-TE paper
//! partitions around, and what keeps this plane viable on the
//! 3326-domain figure-4 topology at a 256-bit BSL.

use topology::DomainId;

/// Default BitStringLength: RFC 8296's common hardware size.
pub const DEFAULT_BSL: usize = 256;

/// A 1-based bit-forwarding router id (0 is reserved / invalid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BfrId(pub u32);

/// A set index (SI): which `bsl`-sized block of BFR-ids a bit lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SetId(pub u32);

/// A fixed-capacity bitstring of `bsl` bits, backed by u64 words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitString {
    /// Capacity in bits.
    bsl: usize,
    /// Little-endian bit storage: bit `i` is word `i / 64`, bit `i % 64`.
    words: Vec<u64>,
}

impl BitString {
    /// An all-zero bitstring of `bsl` bits.
    pub fn new(bsl: usize) -> Self {
        BitString {
            bsl,
            words: vec![0; bsl.div_ceil(64)],
        }
    }

    /// Capacity in bits.
    pub fn bsl(&self) -> usize {
        self.bsl
    }

    /// Sets bit `pos` (0-based; must be `< bsl`).
    pub fn set(&mut self, pos: usize) {
        assert!(pos < self.bsl, "bit {pos} out of range (bsl {})", self.bsl);
        self.words[pos / 64] |= 1u64 << (pos % 64);
    }

    /// Clears bit `pos`.
    pub fn clear(&mut self, pos: usize) {
        assert!(pos < self.bsl, "bit {pos} out of range (bsl {})", self.bsl);
        self.words[pos / 64] &= !(1u64 << (pos % 64));
    }

    /// Whether bit `pos` is set.
    pub fn get(&self, pos: usize) -> bool {
        pos < self.bsl && self.words[pos / 64] & (1u64 << (pos % 64)) != 0
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self |= other` (capacities must match).
    pub fn or_assign(&mut self, other: &BitString) {
        debug_assert_eq!(self.bsl, other.bsl);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self & other` as a new bitstring (capacities must match).
    pub fn and(&self, other: &BitString) -> BitString {
        debug_assert_eq!(self.bsl, other.bsl);
        BitString {
            bsl: self.bsl,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// `self &= !other`: clears every bit set in `other` (RFC 8279's
    /// post-copy bit clearing — the step that makes delivery
    /// exactly-once and termination unconditional).
    pub fn and_not_assign(&mut self, other: &BitString) {
        debug_assert_eq!(self.bsl, other.bsl);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self & other` has any bit set (no allocation).
    pub fn intersects(&self, other: &BitString) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates set bit positions in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.words)
    }

    /// The storage words: bit `i` is word `i / 64`, bit `i % 64`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Set bit positions of little-endian `words`, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, w)| {
        let mut w = *w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(wi * 64 + bit)
        })
    })
}

impl snapshot::Snapshot for BfrId {
    fn encode(&self, enc: &mut snapshot::Enc) {
        enc.u32(self.0);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let v = dec.u32()?;
        if v == 0 {
            return Err(snapshot::SnapError::Invalid("BfrId zero"));
        }
        Ok(BfrId(v))
    }
}

impl snapshot::Snapshot for SetId {
    fn encode(&self, enc: &mut snapshot::Enc) {
        enc.u32(self.0);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(SetId(dec.u32()?))
    }
}

impl snapshot::Snapshot for BitString {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { bsl, words } = self;
        enc.usize(*bsl);
        words.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let bsl = dec.usize()?;
        let words: Vec<u64> = snapshot::Snapshot::decode(dec)?;
        if words.len() != bsl.div_ceil(64) {
            return Err(snapshot::SnapError::Invalid("BitString word count"));
        }
        // Canonical form: no bits above bsl (encode can't produce them,
        // so decode rejects them rather than silently masking).
        if bsl % 64 != 0 {
            if let Some(last) = words.last() {
                if last >> (bsl % 64) != 0 {
                    return Err(snapshot::SnapError::Invalid("BitString stray high bits"));
                }
            }
        }
        Ok(BitString { bsl, words })
    }
}

/// The BIER sub-domain: the deterministic DomainId ↔ BFR-id assignment
/// for one topology, plus the set partitioning parameters.
///
/// Assignment is positional (`BfrId = DomainId + 1`), which is exactly
/// what an IGP extension flooding BFR-ids in domain order would
/// produce, and keeps every derived table reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubDomain {
    /// Number of domains (BFR-id space is `1..=n`).
    n: usize,
    /// BitStringLength: bits per set.
    bsl: usize,
}

impl SubDomain {
    /// A sub-domain over `n` domains at BitStringLength `bsl`.
    pub fn new(n: usize, bsl: usize) -> Self {
        assert!(bsl > 0, "BSL must be positive");
        SubDomain { n, bsl }
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sub-domain is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The BitStringLength.
    pub fn bsl(&self) -> usize {
        self.bsl
    }

    /// Number of sets needed to address every domain.
    pub fn sets(&self) -> usize {
        self.n.div_ceil(self.bsl)
    }

    /// The BFR-id of a domain.
    pub fn bfr_of(&self, d: DomainId) -> BfrId {
        debug_assert!(d.0 < self.n);
        BfrId(d.0 as u32 + 1)
    }

    /// The domain of a BFR-id, if in range.
    pub fn domain_of(&self, b: BfrId) -> Option<DomainId> {
        (b.0 >= 1 && (b.0 as usize) <= self.n).then(|| DomainId(b.0 as usize - 1))
    }

    /// Which (set, bit position) a BFR-id maps to.
    pub fn position(&self, b: BfrId) -> (SetId, usize) {
        let z = b.0 as usize - 1;
        (SetId((z / self.bsl) as u32), z % self.bsl)
    }

    /// Encodes a receiver set as one bitstring per touched set, in
    /// ascending set order. This is the ingress's only per-group state:
    /// the group → bitstring mapping.
    pub fn bitstrings_for(&self, receivers: &[DomainId]) -> Vec<(SetId, BitString)> {
        let mut out: Vec<(SetId, BitString)> = Vec::new();
        let mut sorted: Vec<DomainId> = receivers.to_vec();
        sorted.sort();
        sorted.dedup();
        for d in sorted {
            let (si, pos) = self.position(self.bfr_of(d));
            match out.iter_mut().find(|(s, _)| *s == si) {
                Some((_, bs)) => bs.set(pos),
                None => {
                    let mut bs = BitString::new(self.bsl);
                    bs.set(pos);
                    out.push((si, bs));
                }
            }
        }
        out.sort_by_key(|(s, _)| *s);
        out
    }

    /// Number of distinct sets a receiver list touches (= packet copies
    /// the ingress must emit).
    pub fn sets_touched(&self, receivers: &[DomainId]) -> usize {
        let mut sis: Vec<u32> = receivers
            .iter()
            .map(|d| self.position(self.bfr_of(*d)).0 .0)
            .collect();
        sis.sort_unstable();
        sis.dedup();
        sis.len()
    }
}

impl snapshot::Snapshot for SubDomain {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { n, bsl } = self;
        enc.usize(*n);
        enc.usize(*bsl);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let n = dec.usize()?;
        let bsl = dec.usize()?;
        if bsl == 0 {
            return Err(snapshot::SnapError::Invalid("SubDomain zero BSL"));
        }
        Ok(SubDomain { n, bsl })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapshot::{Dec, Enc, Snapshot};

    #[test]
    fn set_clear_get_count() {
        let mut bs = BitString::new(100);
        assert!(bs.is_empty());
        bs.set(0);
        bs.set(63);
        bs.set(64);
        bs.set(99);
        assert!(bs.get(63) && bs.get(64) && bs.get(99));
        assert!(!bs.get(1));
        assert_eq!(bs.count_ones(), 4);
        bs.clear(63);
        assert!(!bs.get(63));
        assert_eq!(bs.ones().collect::<Vec<_>>(), vec![0, 64, 99]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitString::new(8).set(8);
    }

    #[test]
    fn and_not_and_intersect() {
        let mut a = BitString::new(130);
        a.set(1);
        a.set(65);
        a.set(129);
        let mut b = BitString::new(130);
        b.set(65);
        assert!(a.intersects(&b));
        assert_eq!(a.and(&b).ones().collect::<Vec<_>>(), vec![65]);
        a.and_not_assign(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![1, 129]);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn or_assign_unions() {
        let mut a = BitString::new(16);
        a.set(3);
        let mut b = BitString::new(16);
        b.set(9);
        a.or_assign(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![3, 9]);
    }

    #[test]
    fn subdomain_partitions_past_bsl() {
        // 700 domains at BSL 256 → 3 sets.
        let sub = SubDomain::new(700, 256);
        assert_eq!(sub.sets(), 3);
        assert_eq!(sub.bfr_of(DomainId(0)), BfrId(1));
        assert_eq!(sub.position(BfrId(1)), (SetId(0), 0));
        assert_eq!(sub.position(BfrId(256)), (SetId(0), 255));
        assert_eq!(sub.position(BfrId(257)), (SetId(1), 0));
        assert_eq!(sub.position(BfrId(700)), (SetId(2), 187));
        assert_eq!(sub.domain_of(BfrId(700)), Some(DomainId(699)));
        assert_eq!(sub.domain_of(BfrId(0)), None);
        assert_eq!(sub.domain_of(BfrId(701)), None);
    }

    #[test]
    fn bitstrings_split_by_set_and_dedup() {
        let sub = SubDomain::new(600, 256);
        let rx = [DomainId(5), DomainId(300), DomainId(5), DomainId(599)];
        let per_set = sub.bitstrings_for(&rx);
        assert_eq!(per_set.len(), 3);
        assert_eq!(per_set[0].0, SetId(0));
        assert_eq!(per_set[0].1.ones().collect::<Vec<_>>(), vec![5]);
        assert_eq!(per_set[1].0, SetId(1));
        assert_eq!(per_set[1].1.ones().collect::<Vec<_>>(), vec![300 - 256]);
        assert_eq!(per_set[2].0, SetId(2));
        assert_eq!(per_set[2].1.ones().collect::<Vec<_>>(), vec![599 - 512]);
        assert_eq!(sub.sets_touched(&rx), 3);
        assert_eq!(sub.sets_touched(&[DomainId(1), DomainId(2)]), 1);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut bs = BitString::new(100);
        bs.set(7);
        bs.set(99);
        let sub = SubDomain::new(700, 256);
        let mut e = Enc::new();
        bs.encode(&mut e);
        sub.encode(&mut e);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(BitString::decode(&mut d).unwrap(), bs);
        assert_eq!(SubDomain::decode(&mut d).unwrap(), sub);
        d.finish().unwrap();
    }

    #[test]
    fn snapshot_rejects_stray_high_bits_and_bad_lengths() {
        let mut bs = BitString::new(10);
        bs.set(9);
        let mut e = Enc::new();
        bs.encode(&mut e);
        let mut bytes = e.finish();
        // Corrupt the stored word: set a bit above bsl.
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        assert!(BitString::decode(&mut Dec::new(&bytes)).is_err());

        let mut e = Enc::new();
        e.usize(100); // bsl says 2 words
        vec![0u64].encode(&mut e); // but only 1 present
        let bytes = e.finish();
        assert!(BitString::decode(&mut Dec::new(&bytes)).is_err());
    }
}
