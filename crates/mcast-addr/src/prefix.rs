//! Multicast addresses and CIDR-style address prefixes.
//!
//! The paper's address arithmetic (§4.3.3) operates on contiguous-mask
//! prefixes within the IPv4 class-D space `224.0.0.0/4`. A prefix is
//! written `base/len`, e.g. `224.0.1/24` is the 256 addresses
//! `224.0.1.0 ..= 224.0.1.255`.

use std::fmt;
use std::str::FromStr;

/// A single IPv4 multicast address (class D, `224.0.0.0/4`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct McastAddr(pub u32);

impl McastAddr {
    /// Lowest class-D address, `224.0.0.0`.
    pub const MIN: McastAddr = McastAddr(0xE000_0000);
    /// Highest class-D address, `239.255.255.255`.
    pub const MAX: McastAddr = McastAddr(0xEFFF_FFFF);

    /// Returns true if this is a valid class-D (multicast) address.
    pub fn is_multicast(self) -> bool {
        (self.0 >> 28) == 0xE
    }

    /// Builds an address from dotted-quad octets.
    pub fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        McastAddr(u32::from_be_bytes([a, b, c, d]))
    }

    /// The four dotted-quad octets of this address.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for McastAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for McastAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Error returned when parsing or constructing an invalid prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The mask length is outside `0..=32`.
    BadMaskLen(u8),
    /// The base address has bits set below the mask.
    Unaligned { base: u32, len: u8 },
    /// A textual prefix failed to parse.
    Parse(String),
    /// The prefix lies (partly) outside the class-D multicast space
    /// `224.0.0.0/4`.
    NotMulticast { base: u32, len: u8 },
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::BadMaskLen(l) => write!(f, "mask length {l} out of range 0..=32"),
            PrefixError::Unaligned { base, len } => {
                write!(f, "base {} not aligned to /{len}", McastAddr(*base))
            }
            PrefixError::Parse(s) => write!(f, "cannot parse prefix from {s:?}"),
            PrefixError::NotMulticast { base, len } => {
                write!(
                    f,
                    "{}/{len} is outside the multicast space 224.0.0.0/4",
                    McastAddr(*base)
                )
            }
        }
    }
}

impl std::error::Error for PrefixError {}

/// A contiguous-mask address prefix `base/len`.
///
/// Invariants (enforced by [`Prefix::new`]): `len <= 32` and all bits of
/// `base` below the mask are zero. A `/32` prefix is a single address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    base: u32,
    len: u8,
}

impl Prefix {
    /// The whole IPv4 multicast address space, `224.0.0.0/4`.
    pub const MULTICAST: Prefix = Prefix {
        base: 0xE000_0000,
        len: 4,
    };

    /// Creates a prefix, checking alignment.
    pub fn new(base: u32, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadMaskLen(len));
        }
        let mask = Self::mask_of(len);
        if base & !mask != 0 {
            return Err(PrefixError::Unaligned { base, len });
        }
        Ok(Prefix { base, len })
    }

    /// Creates a prefix, additionally checking that it lies entirely
    /// inside the class-D multicast space `224.0.0.0/4`. MASC claim
    /// handling uses this so a malformed or unicast range can never
    /// enter a domain's claimed address set.
    pub fn new_multicast(base: u32, len: u8) -> Result<Self, PrefixError> {
        let p = Self::new(base, len)?;
        if !Self::MULTICAST.covers(&p) {
            return Err(PrefixError::NotMulticast { base, len });
        }
        Ok(p)
    }

    /// Creates the prefix of length `len` containing `addr` (truncating
    /// the host bits).
    pub fn containing(addr: McastAddr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadMaskLen(len));
        }
        Ok(Prefix {
            base: addr.0 & Self::mask_of(len),
            len,
        })
    }

    fn mask_of(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// The network mask of this prefix as a u32.
    pub fn mask(&self) -> u32 {
        Self::mask_of(self.len)
    }

    /// The base (lowest) address of the prefix.
    pub fn base(&self) -> McastAddr {
        McastAddr(self.base)
    }

    /// The base address as a raw u32.
    pub fn base_u32(&self) -> u32 {
        self.base
    }

    /// The mask length. (A prefix always covers at least one address,
    /// so there is no `is_empty` counterpart.)
    #[expect(
        clippy::len_without_is_empty,
        reason = "a prefix always covers at least one address"
    )]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered; saturates at `u64` width (a `/0`
    /// covers 2^32).
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// The highest address in the prefix.
    pub fn last(&self) -> McastAddr {
        McastAddr(self.base | !self.mask())
    }

    /// Does this prefix contain the address?
    pub fn contains(&self, addr: McastAddr) -> bool {
        addr.0 & self.mask() == self.base
    }

    /// Does this prefix contain (or equal) the other prefix?
    pub fn covers(&self, other: &Prefix) -> bool {
        self.len <= other.len && other.base & self.mask() == self.base
    }

    /// Do the two prefixes share any address?
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The enclosing prefix one bit shorter, or `None` for `/0`.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix {
            base: self.base & Self::mask_of(len),
            len,
        })
    }

    /// The sibling prefix differing only in the last masked bit
    /// ("buddy"), or `None` for `/0`. Doubling a prefix (paper §4.3.3)
    /// is possible exactly when its buddy is free: the union of a
    /// prefix and its buddy is their common parent.
    pub fn buddy(&self) -> Option<Prefix> {
        if self.len == 0 {
            return None;
        }
        let bit = 1u32 << (32 - self.len as u32);
        Some(Prefix {
            base: self.base ^ bit,
            len: self.len,
        })
    }

    /// Splits into the two half-size children, or `None` for `/32`.
    pub fn split(&self) -> Option<(Prefix, Prefix)> {
        if self.len == 32 {
            return None;
        }
        let len = self.len + 1;
        let bit = 1u32 << (32 - len as u32);
        Some((
            Prefix {
                base: self.base,
                len,
            },
            Prefix {
                base: self.base | bit,
                len,
            },
        ))
    }

    /// The first (lowest) sub-prefix of the given length, per the claim
    /// rule of §4.3.3 ("the prefix it then claims is the first
    /// sub-prefix of the desired size within the chosen space").
    pub fn first_subprefix(&self, len: u8) -> Option<Prefix> {
        if len < self.len || len > 32 {
            return None;
        }
        Some(Prefix {
            base: self.base,
            len,
        })
    }

    /// Iterates the `2^(len - self.len)` sub-prefixes of length `len`
    /// in address order. Returns an empty iterator when `len` is
    /// shorter than this prefix.
    pub fn subprefixes(&self, len: u8) -> SubPrefixes {
        if len < self.len || len > 32 {
            return SubPrefixes {
                next: 0,
                remaining: 0,
                len,
            };
        }
        let count = 1u64 << (len - self.len);
        SubPrefixes {
            next: self.base,
            remaining: count,
            len,
        }
    }

    /// The address at `offset` within the prefix, or `None` if out of
    /// range.
    pub fn addr_at(&self, offset: u64) -> Option<McastAddr> {
        if offset >= self.size() {
            return None;
        }
        Some(McastAddr(self.base + offset as u32))
    }

    /// The mask length needed for a prefix covering at least `n`
    /// addresses (e.g. 1024 addresses need a /22, 1025 need a /21).
    pub fn len_for_size(n: u64) -> u8 {
        let n = n.max(1);
        let bits = 64 - (n - 1).leading_zeros().min(63);
        let bits = if n == 1 { 0 } else { bits };
        32u8.saturating_sub(bits as u8)
    }
}

/// Iterator over sub-prefixes of fixed length; see
/// [`Prefix::subprefixes`].
pub struct SubPrefixes {
    next: u32,
    remaining: u64,
    len: u8,
}

impl Iterator for SubPrefixes {
    type Item = Prefix;

    fn next(&mut self) -> Option<Prefix> {
        if self.remaining == 0 {
            return None;
        }
        let p = Prefix {
            base: self.next,
            len: self.len,
        };
        self.remaining -= 1;
        if self.remaining > 0 {
            self.next = self.next.wrapping_add(1u32 << (32 - self.len as u32));
        }
        Some(p)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", McastAddr(self.base), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = PrefixError;

    /// Parses `a.b.c.d/len`; trailing octets may be omitted as in the
    /// paper's notation (`224.0.1/24`, `239/8`).
    fn from_str(s: &str) -> Result<Self, PrefixError> {
        let (addr_part, len_part) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Parse(s.into()))?;
        let len: u8 = len_part.parse().map_err(|_| PrefixError::Parse(s.into()))?;
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in addr_part.split('.') {
            if n >= 4 {
                return Err(PrefixError::Parse(s.into()));
            }
            octets[n] = part.parse().map_err(|_| PrefixError::Parse(s.into()))?;
            n += 1;
        }
        if n == 0 {
            return Err(PrefixError::Parse(s.into()));
        }
        let base = u32::from_be_bytes(octets);
        Prefix::new(base, len)
    }
}

impl snapshot::Snapshot for McastAddr {
    fn encode(&self, enc: &mut snapshot::Enc) {
        enc.u32(self.0);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(McastAddr(dec.u32()?))
    }
}

impl snapshot::Snapshot for Prefix {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { base, len } = self;
        enc.u32(*base);
        enc.u8(*len);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let base = dec.u32()?;
        let len = dec.u8()?;
        // Re-validate through the constructor so a corrupt snapshot
        // cannot smuggle an unaligned prefix past the invariant.
        Prefix::new(base, len).map_err(|_| snapshot::SnapError::Invalid("prefix"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "224.0.1.0/24",
            "224.0.0.0/4",
            "239.255.255.255/32",
            "232.0.0.0/6",
        ] {
            let pre = p(s);
            assert_eq!(pre.to_string(), s);
        }
    }

    #[test]
    fn parse_short_forms_from_paper() {
        assert_eq!(p("224.0.1/24"), p("224.0.1.0/24"));
        assert_eq!(p("239/8"), p("239.0.0.0/8"));
        assert_eq!(p("224/4"), Prefix::MULTICAST);
        assert_eq!(p("228/6"), p("228.0.0.0/6"));
    }

    #[test]
    fn rejects_unaligned() {
        assert!("224.0.1.1/24".parse::<Prefix>().is_err());
        assert!("224.0.0.0/33".parse::<Prefix>().is_err());
        assert!(Prefix::new(0xE000_0001, 24).is_err());
    }

    #[test]
    fn containing_truncates() {
        let a = McastAddr::from_octets(224, 0, 1, 77);
        assert_eq!(Prefix::containing(a, 24).unwrap(), p("224.0.1.0/24"));
        assert_eq!(Prefix::containing(a, 32).unwrap().base(), a);
    }

    #[test]
    fn size_and_last() {
        assert_eq!(p("224.0.1.0/24").size(), 256);
        assert_eq!(
            p("224.0.1.0/24").last(),
            McastAddr::from_octets(224, 0, 1, 255)
        );
        assert_eq!(Prefix::MULTICAST.size(), 1u64 << 28);
        assert_eq!(Prefix::MULTICAST.last(), McastAddr::MAX);
    }

    #[test]
    fn covers_and_overlaps() {
        let parent = p("224.0.0.0/16");
        let child = p("224.0.128.0/24");
        let other = p("224.1.0.0/16");
        assert!(parent.covers(&child));
        assert!(!child.covers(&parent));
        assert!(parent.overlaps(&child));
        assert!(child.overlaps(&parent));
        assert!(!parent.overlaps(&other));
        assert!(parent.covers(&parent));
    }

    #[test]
    fn paper_cidr_example() {
        // 128.8/16 and 128.9/16 aggregate to 128.8/15 — same arithmetic,
        // applied here to the multicast space: 224.8/16 + 224.9/16 = 224.8/15.
        let a = p("224.8.0.0/16");
        let b = p("224.9.0.0/16");
        assert_eq!(a.buddy().unwrap(), b);
        assert_eq!(a.parent().unwrap(), p("224.8.0.0/15"));
        assert_eq!(b.parent().unwrap(), p("224.8.0.0/15"));
    }

    #[test]
    fn split_and_buddy_are_inverse_of_parent() {
        let pre = p("228.0.0.0/6");
        let (l, r) = pre.split().unwrap();
        assert_eq!(l.parent().unwrap(), pre);
        assert_eq!(r.parent().unwrap(), pre);
        assert_eq!(l.buddy().unwrap(), r);
        assert_eq!(r.buddy().unwrap(), l);
    }

    #[test]
    fn paper_claim_example_nonoverlapping_slash6() {
        // §4.3.3: with 224.0.1/24 and 239/8 allocated from 224/4, the
        // largest non-overlapping sub-prefixes are 228/6 and 232/6.
        let allocated = [p("224.0.1.0/24"), p("239.0.0.0/8")];
        let free6: Vec<Prefix> = Prefix::MULTICAST
            .subprefixes(6)
            .filter(|c| !allocated.iter().any(|a| a.overlaps(c)))
            .collect();
        assert_eq!(free6, vec![p("228.0.0.0/6"), p("232.0.0.0/6")]);
        // No non-overlapping /5 exists.
        let free5: Vec<Prefix> = Prefix::MULTICAST
            .subprefixes(5)
            .filter(|c| !allocated.iter().any(|a| a.overlaps(c)))
            .collect();
        assert!(free5.is_empty());
        // First /22 inside each free /6 is what a 1024-address claim takes.
        assert_eq!(free6[0].first_subprefix(22).unwrap(), p("228.0.0.0/22"));
        assert_eq!(free6[1].first_subprefix(22).unwrap(), p("232.0.0.0/22"));
    }

    #[test]
    fn len_for_size() {
        assert_eq!(Prefix::len_for_size(1024), 22);
        assert_eq!(Prefix::len_for_size(1025), 21);
        assert_eq!(Prefix::len_for_size(256), 24);
        assert_eq!(Prefix::len_for_size(1), 32);
        assert_eq!(Prefix::len_for_size(2), 31);
        assert_eq!(Prefix::len_for_size(3), 30);
    }

    #[test]
    fn subprefix_iteration() {
        let pre = p("224.0.0.0/22");
        let subs: Vec<Prefix> = pre.subprefixes(24).collect();
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0], p("224.0.0.0/24"));
        assert_eq!(subs[3], p("224.0.3.0/24"));
        // Degenerate: asking for shorter sub-prefixes yields nothing.
        assert_eq!(pre.subprefixes(20).count(), 0);
        // Same length yields self.
        assert_eq!(pre.subprefixes(22).collect::<Vec<_>>(), vec![pre]);
    }

    #[test]
    fn addr_at_bounds() {
        let pre = p("224.0.1.0/24");
        assert_eq!(
            pre.addr_at(0).unwrap(),
            McastAddr::from_octets(224, 0, 1, 0)
        );
        assert_eq!(
            pre.addr_at(255).unwrap(),
            McastAddr::from_octets(224, 0, 1, 255)
        );
        assert!(pre.addr_at(256).is_none());
    }

    #[test]
    fn multicast_check() {
        assert!(McastAddr::MIN.is_multicast());
        assert!(McastAddr::MAX.is_multicast());
        assert!(!McastAddr(0x0A00_0001).is_multicast());
    }

    #[test]
    fn new_multicast_accepts_class_d_only() {
        // Anything inside 224.0.0.0/4 is fine, including the whole
        // space and a single address.
        assert_eq!(
            Prefix::new_multicast(0xE000_0000, 4).unwrap(),
            Prefix::MULTICAST
        );
        assert_eq!(
            Prefix::new_multicast(0xE001_0200, 24).unwrap(),
            p("224.1.2.0/24")
        );
        assert!(Prefix::new_multicast(0xEFFF_FFFF, 32).is_ok());
        // Unicast space is refused with the dedicated error.
        assert_eq!(
            Prefix::new_multicast(0x0A00_0000, 24),
            Err(PrefixError::NotMulticast {
                base: 0x0A00_0000,
                len: 24
            })
        );
        // A short prefix straddling the class-D boundary is refused
        // even though it contains multicast addresses.
        assert!(matches!(
            Prefix::new_multicast(0xC000_0000, 2),
            Err(PrefixError::NotMulticast { .. })
        ));
        assert!(matches!(
            Prefix::new_multicast(0, 0),
            Err(PrefixError::NotMulticast { .. })
        ));
        // Alignment is still enforced, and reported first.
        assert_eq!(
            Prefix::new_multicast(0xE000_0001, 24),
            Err(PrefixError::Unaligned {
                base: 0xE000_0001,
                len: 24
            })
        );
    }
}
