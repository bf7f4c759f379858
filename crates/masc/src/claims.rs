//! Claim bookkeeping: the outer space a domain claims from, and the
//! states of its own claims.

use mcast_addr::{FreeSpace, Prefix, Secs, SpaceTracker};

use crate::msg::DomainAsn;

/// A claim known to exist in the outer space (a sibling's, or our own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownClaim {
    /// The claiming domain.
    pub owner: DomainAsn,
    /// The claimed range.
    pub prefix: Prefix,
    /// Absolute expiry.
    pub expires: Secs,
    /// When the claim was made (collision tiebreak).
    pub at: Secs,
}

/// A [`KnownClaim`] as [`OuterSpace`] keeps it, in 20 bytes: times in
/// `u32` seconds (800 days are 6.9 × 10⁷ s; decode refuses more).
#[derive(Debug, Clone, Copy)]
struct Held {
    prefix: Prefix,
    owner: DomainAsn,
    expires: u32,
    at: u32,
}

fn secs32(t: Secs) -> u32 {
    debug_assert!(t <= u32::MAX.into(), "claim time {t} past u32 seconds");
    t.min(u32::MAX.into()) as u32
}

impl Held {
    fn new(c: KnownClaim) -> Self {
        Held {
            prefix: c.prefix,
            owner: c.owner,
            expires: secs32(c.expires),
            at: secs32(c.at),
        }
    }

    fn known(self) -> KnownClaim {
        KnownClaim {
            owner: self.owner,
            prefix: self.prefix,
            expires: self.expires.into(),
            at: self.at.into(),
        }
    }
}

/// The space a domain may claim from: the parent's advertised ranges
/// (or the bootstrap/exchange ranges for a top-level domain), minus
/// every known claim. A claim sits in the first range whose root
/// covers it; a range keeps only its root's free decomposition.
#[derive(Debug, Clone, Default)]
pub struct OuterSpace {
    /// One free layer per parent range. The flag marks ranges new
    /// claims may be made from (parent-active).
    ranges: Vec<(Secs, bool, FreeSpace)>,
    /// Every known claim (ours too), one per (prefix, owner), in that
    /// order: prefixes sort by (base, len), so those inside one are a run.
    claims: Vec<Held>,
    /// Derived: the earliest expiry among `claims`, kept exact across
    /// every mutation so the per-event deadline probe is O(1) instead
    /// of a scan. Recomputed on decode; never serialized.
    min_expiry: Option<Secs>,
}

impl OuterSpace {
    /// Creates an empty outer space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the set of parent ranges, keeping claims that still
    /// fall inside some range. All ranges are claimable; use
    /// [`OuterSpace::set_ranges_flagged`] to mark draining ranges.
    pub fn set_ranges(&mut self, ranges: &[(Prefix, Secs)]) {
        let flagged: Vec<(Prefix, Secs, bool)> =
            ranges.iter().map(|(p, e)| (*p, *e, true)).collect();
        self.set_ranges_flagged(&flagged);
    }

    /// Replaces the set of parent ranges with explicit claimable
    /// (active) flags, keeping claims that still fall inside some
    /// range.
    pub fn set_ranges_flagged(&mut self, ranges: &[(Prefix, Secs, bool)]) {
        // Fast path: same roots and flags, only expiries moved (the
        // parent renewed). The free layers and claim placements depend
        // on neither, so nothing needs touching.
        if self.ranges.len() == ranges.len()
            && self
                .ranges
                .iter()
                .zip(ranges)
                .all(|((_, act, f), (p, _, a))| f.root() == *p && act == a)
        {
            for (r, (_, exp, _)) in self.ranges.iter_mut().zip(ranges) {
                r.0 = *exp;
            }
            return;
        }
        // A correct parent's ranges are carved from free space, so its
        // roots neither nest nor repeat and a claim fits one range
        // only: a surviving root's free layer moves over as it stands,
        // and what it lacks of the claims under it sat under a root
        // that overlapped it and has therefore departed. Only the
        // claims under departed roots (what is left in `old`) are
        // placed again — into a doubled root, or nowhere. Nested or
        // repeated roots let a claim fit several ranges: then no layer
        // is kept and every claim is placed afresh.
        let nested = (ranges.iter().enumerate())
            .any(|(i, a)| ranges[..i].iter().any(|b| a.0.overlaps(&b.0)));
        let mut old = std::mem::take(&mut self.ranges);
        self.ranges = ranges
            .iter()
            .map(|(p, exp, act)| {
                let kept = old.iter().position(|(_, _, f)| !nested && f.root() == *p);
                let f = kept.map_or_else(|| FreeSpace::new(*p), |i| old.swap_remove(i).2);
                (*exp, *act, f)
            })
            .collect();
        if !old.is_empty() {
            let mut displaced = Vec::new();
            self.claims.retain(|c| {
                let stays = !nested && !old.iter().any(|(_, _, f)| f.root().covers(&c.prefix));
                if !stays {
                    displaced.push(*c);
                }
                stays
            });
            self.min_expiry = self.claims.iter().map(|k| k.expires.into()).min();
            for c in displaced {
                self.insert_claim(c.known());
            }
        }
        // The rebuild this replaces regrew `claims` from empty, which
        // is what gave back the start-up peak's capacity: keep to what
        // that growth would hold. Copied out, not shrunk in place — the
        // hole a shrink leaves behind each vector cost the figure-2 run
        // 4 MB of resident memory.
        let grown = self.claims.len().next_power_of_two().max(4);
        if self.claims.capacity() > grown {
            let mut fitted = Vec::with_capacity(grown);
            fitted.extend_from_slice(&self.claims);
            self.claims = fitted;
        }
    }

    /// Is `p` within some parent range?
    pub fn in_range(&self, p: &Prefix) -> bool {
        self.home(p).is_some()
    }

    /// The range a claim on `p` sits in: the first whose root covers it.
    fn home(&self, p: &Prefix) -> Option<usize> {
        self.ranges.iter().position(|(_, _, f)| f.root().covers(p))
    }

    /// The index run of the claims inside `p` (`p` included), searched
    /// from `from` on.
    fn run_within(&self, p: &Prefix, from: usize) -> std::ops::Range<usize> {
        let last = p.last().0;
        let start = from + self.claims[from..].partition_point(|c| c.prefix < *p);
        let end = start + self.claims[start..].partition_point(|c| c.prefix.base_u32() <= last);
        start..end
    }

    /// The prefixes of the claims sitting in range `i`, once each, in
    /// order: its root's run, less what an earlier range covers (only
    /// an earlier root that overlaps this one can).
    fn held_in(&self, i: usize) -> impl Iterator<Item = Prefix> + Clone + '_ {
        let root = self.ranges[i].2.root();
        let nested = (self.ranges[..i].iter()).any(|(_, _, f)| f.root().overlaps(&root));
        (self.claims[self.run_within(&root, 0)].chunk_by(|a, b| a.prefix == b.prefix))
            .map(|same| same[0].prefix)
            .filter(move |q| !nested || self.home(q) == Some(i))
    }

    /// Maintains the cached minimum after a claim with `expires` left
    /// the set (rescans only when the departed expiry was the minimum).
    fn note_removed_expiry(&mut self, expires: Secs) {
        if self.min_expiry == Some(expires) {
            self.min_expiry = self.claims.iter().map(|k| k.expires.into()).min();
        }
    }

    /// Position of the claim keyed (prefix, owner), or the insertion
    /// point keeping `claims` sorted.
    fn claim_pos(&self, prefix: &Prefix, owner: DomainAsn) -> Result<usize, usize> {
        self.claims
            .binary_search_by(|k| (k.prefix, k.owner).cmp(&(*prefix, owner)))
    }

    /// Records a claim. Returns false if it falls outside every range
    /// (the caller may then send a collision per §4.4).
    pub fn insert_claim(&mut self, c: KnownClaim) -> bool {
        let c = Held::new(c);
        let Some(home) = self.home(&c.prefix) else {
            return false;
        };
        match self.claim_pos(&c.prefix, c.owner) {
            Ok(pos) => {
                // Re-announcement: replace in place.
                let old = std::mem::replace(&mut self.claims[pos], c);
                self.note_removed_expiry(old.expires.into());
            }
            Err(pos) => {
                // Claims on one prefix sort next to each other.
                let held = |i: usize| self.claims.get(i).is_some_and(|k| k.prefix == c.prefix);
                if !held(pos) && !pos.checked_sub(1).is_some_and(held) {
                    self.ranges[home].2.occupy(c.prefix);
                }
                self.claims.insert(pos, c);
            }
        }
        let expires = c.expires.into();
        self.min_expiry = Some(self.min_expiry.map_or(expires, |m| m.min(expires)));
        true
    }

    /// Removes a claim by owner and prefix.
    pub fn remove_claim(&mut self, owner: DomainAsn, prefix: &Prefix) -> bool {
        let Ok(pos) = self.claim_pos(prefix, owner) else {
            return false;
        };
        let gone = self.claims.remove(pos);
        self.note_removed_expiry(gone.expires.into());
        // The space stays in use while a claim holds the same prefix
        // (waiting overlap) or an ancestor in its range.
        let home = self.home(prefix).expect("every claim sits in a range");
        let root_len = self.ranges[home].2.root().len();
        let mut held = std::iter::successors(Some(*prefix), Prefix::parent)
            .take_while(|a| a.len() >= root_len);
        if held.any(|a| self.claims.binary_search_by(|c| c.prefix.cmp(&a)).is_ok()) {
            return true;
        }
        let inside: Vec<Prefix> = self.claims[self.run_within(prefix, pos)]
            .iter()
            .map(|c| c.prefix)
            .filter(|q| self.home(q) == Some(home))
            .collect();
        self.ranges[home].2.release(prefix, &inside);
        true
    }

    /// Updates the expiry of a claim (renewal).
    pub fn renew_claim(&mut self, owner: DomainAsn, prefix: &Prefix, expires: Secs) -> bool {
        let Ok(pos) = self.claim_pos(prefix, owner) else {
            return false;
        };
        let old = std::mem::replace(&mut self.claims[pos].expires, secs32(expires));
        self.note_removed_expiry(old.into());
        self.min_expiry = self.min_expiry.map(|m| m.min(expires));
        true
    }

    /// Removes all claims expired at `now`, returning them.
    pub fn expire_claims(&mut self, now: Secs) -> Vec<KnownClaim> {
        // Common case on every tick: nothing due — answered by the
        // cached minimum without walking the claims.
        match self.min_expiry {
            Some(first) if first <= now => {}
            _ => return Vec::new(),
        }
        let expired: Vec<KnownClaim> = self
            .claims
            .iter()
            .map(|k| k.known())
            .filter(|k| k.expires <= now)
            .collect();
        for e in &expired {
            self.remove_claim(e.owner, &e.prefix);
        }
        expired
    }

    /// Earliest claim expiry.
    pub fn next_claim_expiry(&self) -> Option<Secs> {
        self.min_expiry
    }

    /// All known claims, sorted by (prefix, owner).
    pub fn claims(&self) -> Vec<KnownClaim> {
        self.claims.iter().map(|k| k.known()).collect()
    }

    /// Claims overlapping `p`, excluding those owned by `except`.
    pub fn overlapping(&self, p: &Prefix, except: Option<DomainAsn>) -> Vec<KnownClaim> {
        self.claims
            .iter()
            .filter(|k| Some(k.owner) != except && k.prefix.overlaps(p))
            .map(|k| k.known())
            .collect()
    }

    /// Is `p` entirely free (inside a range, overlapping no claim)?
    pub fn is_free(&self, p: &Prefix) -> bool {
        self.ranges.iter().any(|(_, _, f)| f.is_free(p))
    }

    /// Claim candidates of the requested mask length, per the paper's
    /// algorithm (§4.3.3): the first sub-prefix of the desired size in
    /// each of the globally-largest free blocks across all ranges.
    pub fn claim_candidates(&self, want_len: u8) -> Vec<Prefix> {
        // A claim must be strictly smaller than the range it is taken
        // from: claiming a parent's whole range would make two domains
        // originate the identical group route (and leave the parent
        // nothing to allocate from), so such candidates take the first
        // half instead.
        //
        // Each range maintains its free blocks, so the globally-largest
        // blocks are found without recomputing any decomposition.
        let Some(min_len) = self
            .ranges
            .iter()
            .filter(|(_, act, _)| *act)
            .filter_map(|(_, _, f)| f.shortest_free_len())
            .filter(|l| *l <= want_len)
            .min()
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (_, act, f) in &self.ranges {
            if !*act {
                continue;
            }
            let effective = want_len + u8::from(want_len == f.root().len());
            out.extend(
                f.free_of_len(min_len)
                    .filter_map(|blk| blk.first_subprefix(effective.min(32))),
            );
        }
        out
    }

    /// If claiming `p.parent()` (doubling) is possible — buddy free and
    /// parent prefix inside a range — returns the doubled prefix.
    pub fn expansion_of(&self, p: &Prefix) -> Option<Prefix> {
        let buddy = p.buddy()?;
        let parent = p.parent()?;
        if !(self.ranges.iter()).any(|(_, act, f)| *act && f.root().covers(&parent)) {
            return None;
        }
        self.is_free(&buddy).then_some(parent)
    }

    /// The expiry of the range containing `p`, capping claim lifetimes
    /// (§4.3.1: "it may only claim a range for a lifetime less than or
    /// equal to the lifetime of the parent's range").
    pub fn range_expiry_for(&self, p: &Prefix) -> Option<Secs> {
        self.ranges
            .iter()
            .find(|(_, _, f)| f.root().covers(p))
            .map(|(exp, _, _)| *exp)
    }
}

/// Lifecycle state of one of our own claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimPhase {
    /// In the collision-detection waiting period, granted at the time
    /// given.
    Waiting {
        /// When the waiting period ends.
        until: Secs,
    },
    /// Granted: the range is ours until expiry.
    Granted,
}

/// Why we made a claim — determines what happens on grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimPurpose {
    /// A fresh range.
    New,
    /// Doubling `of` into its parent prefix.
    Double {
        /// The currently-held prefix being doubled.
        of: Prefix,
    },
    /// Consolidation: on grant, deactivate all other active prefixes.
    Consolidate,
}

/// One of our own claims, waiting or granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnClaim {
    /// The range.
    pub prefix: Prefix,
    /// Current phase.
    pub phase: ClaimPhase,
    /// Why it was claimed.
    pub purpose: ClaimPurpose,
    /// Absolute expiry.
    pub expires: Secs,
    /// When the claim was made (tiebreak).
    pub at: Secs,
}

impl OwnClaim {
    /// Is the claim still in its waiting period?
    pub fn is_waiting(&self) -> bool {
        matches!(self.phase, ClaimPhase::Waiting { .. })
    }
}

impl snapshot::Snapshot for KnownClaim {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            owner,
            prefix,
            expires,
            at,
        } = self;
        enc.u32(*owner);
        prefix.encode(enc);
        enc.u64(*expires);
        enc.u64(*at);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(KnownClaim {
            owner: dec.u32()?,
            prefix: Prefix::decode(dec)?,
            expires: dec.u64()?,
            at: dec.u64()?,
        })
    }
}

impl snapshot::Snapshot for ClaimPhase {
    fn encode(&self, enc: &mut snapshot::Enc) {
        match self {
            ClaimPhase::Waiting { until } => {
                enc.u8(0);
                enc.u64(*until);
            }
            ClaimPhase::Granted => enc.u8(1),
        }
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        match dec.u8()? {
            0 => Ok(ClaimPhase::Waiting { until: dec.u64()? }),
            1 => Ok(ClaimPhase::Granted),
            _ => Err(snapshot::SnapError::Invalid("ClaimPhase tag")),
        }
    }
}

impl snapshot::Snapshot for ClaimPurpose {
    fn encode(&self, enc: &mut snapshot::Enc) {
        match self {
            ClaimPurpose::New => enc.u8(0),
            ClaimPurpose::Double { of } => {
                enc.u8(1);
                of.encode(enc);
            }
            ClaimPurpose::Consolidate => enc.u8(2),
        }
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        match dec.u8()? {
            0 => Ok(ClaimPurpose::New),
            1 => Ok(ClaimPurpose::Double {
                of: Prefix::decode(dec)?,
            }),
            2 => Ok(ClaimPurpose::Consolidate),
            _ => Err(snapshot::SnapError::Invalid("ClaimPurpose tag")),
        }
    }
}

impl snapshot::Snapshot for OwnClaim {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            prefix,
            phase,
            purpose,
            expires,
            at,
        } = self;
        prefix.encode(enc);
        phase.encode(enc);
        purpose.encode(enc);
        enc.u64(*expires);
        enc.u64(*at);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(OwnClaim {
            prefix: Prefix::decode(dec)?,
            phase: ClaimPhase::decode(dec)?,
            purpose: ClaimPurpose::decode(dec)?,
            expires: dec.u64()?,
            at: dec.u64()?,
        })
    }
}

impl snapshot::Snapshot for OuterSpace {
    /// Each range's expiry, flag and the `SpaceTracker` of the claims in
    /// it — its root's run of the sorted claims, so one pass over them
    /// for disjoint roots — then the claims as `KnownClaim`s.
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            ranges,
            claims,
            // derived minimum, recomputed from claims on decode
            min_expiry: _,
        } = self;
        enc.seq(ranges.len());
        for (i, (exp, act, f)) in ranges.iter().enumerate() {
            enc.u64(*exp);
            enc.bool(*act);
            f.encode_tracker(self.held_in(i), enc);
        }
        enc.seq(claims.len());
        claims.iter().for_each(|c| c.known().encode(enc));
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        use snapshot::SnapError::Invalid;
        let trackers: Vec<(Secs, bool, SpaceTracker)> = snapshot::Snapshot::decode(dec)?;
        let claims: Vec<KnownClaim> = snapshot::Snapshot::decode(dec)?;
        if claims
            .windows(2)
            .any(|w| (w[0].prefix, w[0].owner) >= (w[1].prefix, w[1].owner))
        {
            return Err(Invalid("claims out of order"));
        }
        if claims.iter().any(|c| c.expires.max(c.at) > u32::MAX.into()) {
            return Err(Invalid("claim time past u32 seconds"));
        }
        let space = OuterSpace {
            ranges: (trackers.iter())
                .map(|(exp, act, t)| (*exp, *act, FreeSpace::clone(t)))
                .collect(),
            claims: claims.iter().map(|c| Held::new(*c)).collect(),
            min_expiry: claims.iter().map(|k| k.expires).min(),
        };
        if space.claims.iter().any(|c| !space.in_range(&c.prefix))
            || (trackers.iter().enumerate())
                .any(|(i, t)| !t.2.in_use().copied().eq(space.held_in(i)))
        {
            return Err(Invalid("range entries differ from the claims in them"));
        }
        Ok(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn claim(owner: DomainAsn, pfx: &str, expires: Secs) -> KnownClaim {
        KnownClaim {
            owner,
            prefix: p(pfx),
            expires,
            at: 0,
        }
    }

    #[test]
    fn insert_outside_ranges_rejected() {
        let mut s = OuterSpace::new();
        s.set_ranges(&[(p("224.0.0.0/16"), 1000)]);
        assert!(!s.insert_claim(claim(1, "225.0.0.0/24", 500)));
        assert!(s.insert_claim(claim(1, "224.0.1.0/24", 500)));
        assert!(s.in_range(&p("224.0.1.0/24")));
        assert!(!s.in_range(&p("225.0.0.0/24")));
    }

    #[test]
    fn candidates_follow_paper_rule() {
        let mut s = OuterSpace::new();
        s.set_ranges(&[(Prefix::MULTICAST, 10_000)]);
        s.insert_claim(claim(1, "224.0.1.0/24", 5000));
        s.insert_claim(claim(2, "239.0.0.0/8", 5000));
        assert_eq!(
            s.claim_candidates(22),
            vec![p("228.0.0.0/22"), p("232.0.0.0/22")]
        );
    }

    #[test]
    fn candidates_across_multiple_ranges() {
        let mut s = OuterSpace::new();
        s.set_ranges(&[(p("224.0.0.0/16"), 1000), (p("230.0.0.0/16"), 1000)]);
        // Both ranges entirely free: two /16 blocks, candidates in each.
        assert_eq!(s.claim_candidates(24).len(), 2);
        // Fill one range; only the other offers the largest free block.
        s.insert_claim(claim(1, "224.0.0.0/16", 500));
        assert_eq!(s.claim_candidates(24), vec![p("230.0.0.0/24")]);
    }

    #[test]
    fn expiry_frees_space() {
        let mut s = OuterSpace::new();
        s.set_ranges(&[(p("224.0.0.0/24"), 10_000)]);
        s.insert_claim(claim(1, "224.0.0.0/24", 100));
        assert!(s.claim_candidates(24).is_empty());
        let gone = s.expire_claims(100);
        assert_eq!(gone.len(), 1);
        // A claim never equals the whole range: the /24 range yields a
        // /25 candidate.
        assert_eq!(s.claim_candidates(24), vec![p("224.0.0.0/25")]);
        assert!(s.next_claim_expiry().is_none());
    }

    #[test]
    fn renew_extends() {
        let mut s = OuterSpace::new();
        s.set_ranges(&[(p("224.0.0.0/16"), 10_000)]);
        s.insert_claim(claim(1, "224.0.0.0/24", 100));
        assert!(s.renew_claim(1, &p("224.0.0.0/24"), 900));
        assert!(s.expire_claims(100).is_empty());
        assert_eq!(s.next_claim_expiry(), Some(900));
        assert!(!s.renew_claim(2, &p("224.0.0.0/24"), 999));
    }

    #[test]
    fn overlapping_claims_coexist() {
        // During waiting, two domains may claim the same prefix.
        let mut s = OuterSpace::new();
        s.set_ranges(&[(p("224.0.0.0/16"), 10_000)]);
        assert!(s.insert_claim(claim(1, "224.0.0.0/24", 100)));
        assert!(s.insert_claim(claim(2, "224.0.0.0/24", 100)));
        assert_eq!(s.overlapping(&p("224.0.0.0/25"), None).len(), 2);
        assert_eq!(s.overlapping(&p("224.0.0.0/25"), Some(1)).len(), 1);
        // Removing one keeps the space occupied by the other.
        s.remove_claim(1, &p("224.0.0.0/24"));
        assert!(!s.is_free(&p("224.0.0.0/24")));
        s.remove_claim(2, &p("224.0.0.0/24"));
        assert!(s.is_free(&p("224.0.0.0/24")));
    }

    #[test]
    fn expansion_requires_free_buddy() {
        let mut s = OuterSpace::new();
        s.set_ranges(&[(p("224.0.0.0/16"), 10_000)]);
        s.insert_claim(claim(1, "224.0.0.0/24", 100));
        assert_eq!(s.expansion_of(&p("224.0.0.0/24")), Some(p("224.0.0.0/23")));
        s.insert_claim(claim(2, "224.0.1.0/24", 100));
        assert_eq!(s.expansion_of(&p("224.0.0.0/24")), None);
    }

    #[test]
    fn range_expiry_caps() {
        let mut s = OuterSpace::new();
        s.set_ranges(&[(p("224.0.0.0/16"), 777)]);
        assert_eq!(s.range_expiry_for(&p("224.0.1.0/24")), Some(777));
        assert_eq!(s.range_expiry_for(&p("225.0.0.0/24")), None);
    }

    #[test]
    fn set_ranges_preserves_contained_claims() {
        let mut s = OuterSpace::new();
        s.set_ranges(&[(p("224.0.0.0/16"), 1000)]);
        s.insert_claim(claim(1, "224.0.0.0/24", 500));
        // Parent doubles its range: claim survives.
        s.set_ranges(&[(p("224.0.0.0/15"), 2000)]);
        assert_eq!(s.claims().len(), 1);
        assert!(!s.is_free(&p("224.0.0.0/24")));
        // Parent shrinks away from the claim: claim dropped.
        s.set_ranges(&[(p("230.0.0.0/16"), 2000)]);
        assert!(s.claims().is_empty());
    }
}
