//! Block allocation within a domain's claimed ranges.
//!
//! A domain's MAAS hands out individual group addresses and fixed-size
//! blocks to clients *from the ranges MASC claimed for the domain*
//! (§4, §4.3.1). [`BlockAllocator`] is that intra-domain allocator: it
//! holds the domain's owned prefixes (each *active* — eligible for new
//! assignments — or *inactive* — draining until its leases expire, per
//! §4.3.3) and serves aligned sub-prefix blocks first-fit.

use crate::prefix::Prefix;
use crate::space::SpaceTracker;

/// One prefix owned by the domain, with its allocation state.
#[derive(Debug, Clone)]
pub struct OwnedPrefix {
    /// The claimed range.
    pub prefix: Prefix,
    /// Whether new assignments may come from this range (§4.3.3:
    /// "a domain's prefix is *active* if addresses from the prefix's
    /// range will be assigned to new groups").
    pub active: bool,
    blocks: SpaceTracker,
}

impl OwnedPrefix {
    fn new(prefix: Prefix) -> Self {
        OwnedPrefix {
            prefix,
            active: true,
            blocks: SpaceTracker::new(prefix),
        }
    }

    /// Addresses currently assigned out of this prefix.
    pub fn used(&self) -> u64 {
        self.blocks.used_size()
    }

    /// Whether no blocks remain assigned from this prefix.
    pub fn is_drained(&self) -> bool {
        self.blocks.count() == 0
    }
}

/// First-fit block allocator over a domain's owned prefixes.
#[derive(Debug, Clone, Default)]
pub struct BlockAllocator {
    owned: Vec<OwnedPrefix>,
}

impl BlockAllocator {
    /// Creates an allocator owning no prefixes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a newly claimed prefix (active). Returns `false` if it
    /// overlaps an already-owned prefix.
    pub fn add_prefix(&mut self, p: Prefix) -> bool {
        if self.owned.iter().any(|o| o.prefix.overlaps(&p)) {
            return false;
        }
        self.owned.push(OwnedPrefix::new(p));
        self.owned
            .sort_by_key(|o| (o.prefix.base_u32(), o.prefix.len()));
        true
    }

    /// Replaces an owned prefix with a larger covering one (doubling,
    /// §4.3.3), keeping all existing block assignments. Returns `false`
    /// unless `new` covers exactly one owned prefix.
    pub fn grow_prefix(&mut self, old: Prefix, new: Prefix) -> bool {
        if !new.covers(&old) {
            return false;
        }
        let Some(idx) = self.owned.iter().position(|o| o.prefix == old) else {
            return false;
        };
        if self
            .owned
            .iter()
            .enumerate()
            .any(|(i, o)| i != idx && o.prefix.overlaps(&new))
        {
            return false;
        }
        let mut grown = OwnedPrefix::new(new);
        grown.active = self.owned[idx].active;
        for b in self.owned[idx].blocks.in_use() {
            grown.blocks.insert(*b);
        }
        self.owned[idx] = grown;
        true
    }

    /// Removes an owned prefix entirely (lifetime expiry). Any blocks
    /// still assigned from it are lost with it; returns them so the
    /// caller can notify clients (applications "should be prepared to
    /// cope" with early expiry, §4.3.1).
    pub fn remove_prefix(&mut self, p: &Prefix) -> Option<Vec<Prefix>> {
        let idx = self.owned.iter().position(|o| o.prefix == *p)?;
        let o = self.owned.remove(idx);
        Some(o.blocks.in_use().copied().collect())
    }

    /// Marks a prefix inactive: no new assignments, existing blocks
    /// drain as their leases expire.
    pub fn deactivate(&mut self, p: &Prefix) -> bool {
        match self.owned.iter_mut().find(|o| o.prefix == *p) {
            Some(o) => {
                o.active = false;
                true
            }
            None => false,
        }
    }

    /// Allocates a block of `2^(32-len)` addresses from the first
    /// active prefix with room, lowest address first.
    pub fn alloc_block(&mut self, len: u8) -> Option<Prefix> {
        for o in self.owned.iter_mut().filter(|o| o.active) {
            if len < o.prefix.len() {
                continue;
            }
            if let Some(block) = o
                .blocks
                .free_blocks()
                .iter()
                .find(|f| f.len() <= len)
                .and_then(|f| f.first_subprefix(len))
            {
                o.blocks.insert(block);
                return Some(block);
            }
        }
        None
    }

    /// Allocates a single address (a `/32` block).
    pub fn alloc_addr(&mut self) -> Option<Prefix> {
        self.alloc_block(32)
    }

    /// Reserves a *specific* block (e.g. a child domain's claim within
    /// a parent's range, §4.1). Fails if it is not entirely free or
    /// not covered by an owned prefix. Reservation ignores the
    /// active/inactive flag: child claims land wherever they land.
    pub fn reserve_block(&mut self, block: Prefix) -> bool {
        for o in &mut self.owned {
            if o.prefix.covers(&block) {
                if o.blocks.is_free(&block) {
                    return o.blocks.insert(block);
                }
                return false;
            }
        }
        false
    }

    /// Does `p` overlap any currently allocated or reserved block?
    pub fn overlaps_allocation(&self, p: &Prefix) -> bool {
        self.owned
            .iter()
            .any(|o| o.prefix.overlaps(p) && o.blocks.in_use().any(|b| b.overlaps(p)))
    }

    /// Addresses allocated within the owned prefix exactly equal to
    /// `prefix` (0 if not owned).
    pub fn used_within(&self, prefix: &Prefix) -> u64 {
        self.owned
            .iter()
            .find(|o| o.prefix == *prefix)
            .map_or(0, |o| o.used())
    }

    /// Frees a previously allocated block.
    pub fn free_block(&mut self, block: &Prefix) -> bool {
        for o in &mut self.owned {
            if o.prefix.covers(block) {
                return o.blocks.remove(block);
            }
        }
        false
    }

    /// Could a `/len` block be allocated right now, without allocating?
    pub fn can_alloc(&self, len: u8) -> bool {
        self.owned
            .iter()
            .filter(|o| o.active)
            .any(|o| len >= o.prefix.len() && o.blocks.free_blocks().iter().any(|f| f.len() <= len))
    }

    /// Owned prefixes in address order.
    pub fn owned(&self) -> &[OwnedPrefix] {
        &self.owned
    }

    /// The owned prefix covering `p`, if any.
    pub fn owner_of(&self, p: &Prefix) -> Option<&OwnedPrefix> {
        self.owned.iter().find(|o| o.prefix.covers(p))
    }

    /// Addresses assigned to clients across all owned prefixes.
    pub fn used(&self) -> u64 {
        self.owned.iter().map(|o| o.used()).sum()
    }

    /// Total addresses across owned prefixes (active and inactive).
    pub fn capacity(&self) -> u64 {
        self.owned.iter().map(|o| o.prefix.size()).sum()
    }

    /// Total addresses across *active* prefixes only.
    pub fn active_capacity(&self) -> u64 {
        self.owned
            .iter()
            .filter(|o| o.active)
            .map(|o| o.prefix.size())
            .sum()
    }

    /// Number of active prefixes.
    pub fn active_count(&self) -> usize {
        self.owned.iter().filter(|o| o.active).count()
    }

    /// Fraction of owned space currently assigned (0 when nothing is
    /// owned).
    pub fn occupancy(&self) -> f64 {
        let cap = self.capacity();
        if cap == 0 {
            0.0
        } else {
            self.used() as f64 / cap as f64
        }
    }
}

impl snapshot::Snapshot for OwnedPrefix {
    fn encode(&self, enc: &mut snapshot::Enc) {
        self.prefix.encode(enc);
        enc.bool(self.active);
        self.blocks.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(OwnedPrefix {
            prefix: Prefix::decode(dec)?,
            active: dec.bool()?,
            blocks: SpaceTracker::decode(dec)?,
        })
    }
}

impl snapshot::Snapshot for BlockAllocator {
    fn encode(&self, enc: &mut snapshot::Enc) {
        self.owned.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(BlockAllocator {
            owned: snapshot::Snapshot::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn alloc_first_fit() {
        let mut a = BlockAllocator::new();
        a.add_prefix(p("224.0.0.0/22"));
        let b1 = a.alloc_block(24).unwrap();
        let b2 = a.alloc_block(24).unwrap();
        assert_eq!(b1, p("224.0.0.0/24"));
        assert_eq!(b2, p("224.0.1.0/24"));
        assert_eq!(a.used(), 512);
        assert!(a.free_block(&b1));
        // Freed space is reused first-fit.
        assert_eq!(a.alloc_block(24).unwrap(), b1);
    }

    #[test]
    fn alloc_exhaustion() {
        let mut a = BlockAllocator::new();
        a.add_prefix(p("224.0.0.0/23"));
        assert!(a.alloc_block(24).is_some());
        assert!(a.alloc_block(24).is_some());
        assert!(a.alloc_block(24).is_none());
        assert!(!a.can_alloc(24));
        assert!(!a.can_alloc(22)); // bigger than the owned prefix
    }

    #[test]
    fn overlapping_prefixes_rejected() {
        let mut a = BlockAllocator::new();
        assert!(a.add_prefix(p("224.0.0.0/22")));
        assert!(!a.add_prefix(p("224.0.1.0/24")));
        assert!(a.add_prefix(p("224.0.4.0/22")));
    }

    #[test]
    fn inactive_prefix_not_used_for_new_blocks() {
        let mut a = BlockAllocator::new();
        a.add_prefix(p("224.0.0.0/24"));
        a.add_prefix(p("224.0.4.0/24"));
        a.deactivate(&p("224.0.0.0/24"));
        assert_eq!(a.alloc_block(25).unwrap(), p("224.0.4.0/25"));
        assert_eq!(a.active_capacity(), 256);
        assert_eq!(a.capacity(), 512);
        assert_eq!(a.active_count(), 1);
    }

    #[test]
    fn grow_preserves_blocks() {
        let mut a = BlockAllocator::new();
        a.add_prefix(p("224.0.0.0/24"));
        let b = a.alloc_block(25).unwrap();
        assert!(a.grow_prefix(p("224.0.0.0/24"), p("224.0.0.0/23")));
        assert_eq!(a.capacity(), 512);
        assert_eq!(a.used(), 128);
        assert!(!a.free_block(&p("224.0.1.0/25"))); // never allocated
        assert!(a.free_block(&b));
        // Growing to a non-covering prefix fails.
        assert!(!a.grow_prefix(p("224.0.0.0/23"), p("224.0.4.0/22")));
    }

    #[test]
    fn remove_returns_lost_blocks() {
        let mut a = BlockAllocator::new();
        a.add_prefix(p("224.0.0.0/24"));
        let b = a.alloc_block(26).unwrap();
        let lost = a.remove_prefix(&p("224.0.0.0/24")).unwrap();
        assert_eq!(lost, vec![b]);
        assert_eq!(a.capacity(), 0);
        assert!(a.remove_prefix(&p("224.0.0.0/24")).is_none());
    }

    #[test]
    fn single_addr_alloc() {
        let mut a = BlockAllocator::new();
        a.add_prefix(p("224.0.0.0/30"));
        let mut got = Vec::new();
        while let Some(addr) = a.alloc_addr() {
            got.push(addr);
        }
        assert_eq!(got.len(), 4);
        assert_eq!(a.occupancy(), 1.0);
    }

    #[test]
    fn reserve_specific_block() {
        let mut a = BlockAllocator::new();
        a.add_prefix(p("224.0.0.0/22"));
        assert!(a.reserve_block(p("224.0.2.0/24")));
        assert!(!a.reserve_block(p("224.0.2.0/25"))); // overlaps reservation
        assert!(!a.reserve_block(p("225.0.0.0/24"))); // not owned
        assert!(a.overlaps_allocation(&p("224.0.2.0/26")));
        assert!(!a.overlaps_allocation(&p("224.0.1.0/24")));
        // First-fit allocation skips the reserved space.
        assert_eq!(a.alloc_block(24).unwrap(), p("224.0.0.0/24"));
        assert_eq!(a.alloc_block(24).unwrap(), p("224.0.1.0/24"));
        assert_eq!(a.alloc_block(24).unwrap(), p("224.0.3.0/24"));
        assert!(a.alloc_block(24).is_none());
        assert_eq!(a.used_within(&p("224.0.0.0/22")), 1024);
        // Reservations work on inactive prefixes too.
        let mut b = BlockAllocator::new();
        b.add_prefix(p("224.0.0.0/24"));
        b.deactivate(&p("224.0.0.0/24"));
        assert!(b.reserve_block(p("224.0.0.0/25")));
    }

    #[test]
    fn occupancy_math() {
        let mut a = BlockAllocator::new();
        assert_eq!(a.occupancy(), 0.0);
        a.add_prefix(p("224.0.0.0/24"));
        a.alloc_block(26); // 64 of 256
        assert!((a.occupancy() - 0.25).abs() < 1e-9);
    }
}
