//! Lifetime (lease) bookkeeping for claimed address ranges.
//!
//! Every MASC claim carries a lifetime (§4.3.1): once it expires without
//! renewal the range reverts to the parent's free pool. [`LeaseTable`]
//! is a small expiry-ordered table shared by the MASC node (ranges
//! claimed from the parent) and the MAAS (blocks leased to clients).

use std::collections::BTreeMap;

/// Seconds since simulation start; the whole workspace uses the same
/// convention (see `simnet::time`). Kept as a bare `u64` here so this
/// substrate does not depend on the simulator.
pub type Secs = u64;

/// A table of leased items ordered by expiry time.
///
/// Items are compared by equality for renewal/cancellation; an item may
/// appear only once (renewing moves it to the new expiry).
#[derive(Debug, Clone)]
pub struct LeaseTable<T: Ord + Clone> {
    by_expiry: BTreeMap<Secs, Vec<T>>,
    expiry_of: BTreeMap<T, Secs>,
}

impl<T: Ord + Clone> Default for LeaseTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Clone> LeaseTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        LeaseTable {
            by_expiry: BTreeMap::new(),
            expiry_of: BTreeMap::new(),
        }
    }

    /// Inserts `item` expiring at `expires`, replacing any previous
    /// lease for the same item (renewal). Returns the previous expiry.
    pub fn insert(&mut self, item: T, expires: Secs) -> Option<Secs> {
        let prev = self.cancel(&item);
        self.by_expiry
            .entry(expires)
            .or_default()
            .push(item.clone());
        self.expiry_of.insert(item, expires);
        prev
    }

    /// Removes the lease for `item`, returning its expiry if present.
    pub fn cancel(&mut self, item: &T) -> Option<Secs> {
        let expires = self.expiry_of.remove(item)?;
        if let Some(bucket) = self.by_expiry.get_mut(&expires) {
            bucket.retain(|i| i != item);
            if bucket.is_empty() {
                self.by_expiry.remove(&expires);
            }
        }
        Some(expires)
    }

    /// Expiry time of `item`, if leased.
    pub fn expiry_of(&self, item: &T) -> Option<Secs> {
        self.expiry_of.get(item).copied()
    }

    /// Earliest expiry in the table.
    pub fn next_expiry(&self) -> Option<Secs> {
        self.by_expiry.keys().next().copied()
    }

    /// Removes and returns every item whose expiry is `<= now`, in
    /// expiry order.
    pub fn expire(&mut self, now: Secs) -> Vec<T> {
        let mut out = Vec::new();
        let expired: Vec<Secs> = self.by_expiry.range(..=now).map(|(t, _)| *t).collect();
        for t in expired {
            if let Some(bucket) = self.by_expiry.remove(&t) {
                for item in bucket {
                    self.expiry_of.remove(&item);
                    out.push(item);
                }
            }
        }
        out
    }

    /// Number of live leases.
    pub fn len(&self) -> usize {
        self.expiry_of.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.expiry_of.is_empty()
    }

    /// Iterates live leases as `(item, expiry)` in item order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, Secs)> {
        self.expiry_of.iter().map(|(i, t)| (i, *t))
    }
}

/// Common lifetime pools suggested by the paper (§4.3.1): a long pool
/// "on the order of months" for steady-state demand and a short pool
/// "on the order of days" for bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifetimePool {
    /// Months-scale leases for steady-state demand.
    Long,
    /// Days-scale leases for short-term spikes.
    Short,
}

impl LifetimePool {
    /// Default lease duration for the pool, in seconds.
    pub fn default_duration(self) -> Secs {
        match self {
            LifetimePool::Long => 90 * 86_400,
            LifetimePool::Short => 3 * 86_400,
        }
    }
}

impl<T: Ord + Clone + snapshot::Snapshot> snapshot::Snapshot for LeaseTable<T> {
    /// Encodes the expiry-ordered buckets verbatim — within-bucket
    /// `Vec` order feeds [`LeaseTable::expire`]'s output order, which
    /// downstream protocol code turns into message order, so it must
    /// survive a round-trip exactly. The reverse index is recomputed.
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            by_expiry,
            // derived reverse index, rebuilt from by_expiry on decode
            expiry_of: _,
        } = self;
        by_expiry.encode(enc);
    }

    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let by_expiry: BTreeMap<Secs, Vec<T>> = snapshot::Snapshot::decode(dec)?;
        let mut expiry_of = BTreeMap::new();
        for (t, bucket) in &by_expiry {
            if bucket.is_empty() {
                return Err(snapshot::SnapError::Invalid("empty lease bucket"));
            }
            for item in bucket {
                if expiry_of.insert(item.clone(), *t).is_some() {
                    return Err(snapshot::SnapError::Invalid("duplicate lease item"));
                }
            }
        }
        Ok(LeaseTable {
            by_expiry,
            expiry_of,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_expire_order() {
        let mut t = LeaseTable::new();
        t.insert("b", 20);
        t.insert("a", 10);
        t.insert("c", 30);
        assert_eq!(t.next_expiry(), Some(10));
        assert_eq!(t.expire(20), vec!["a", "b"]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.expire(100), vec!["c"]);
        assert!(t.is_empty());
    }

    #[test]
    fn renewal_moves_expiry() {
        let mut t = LeaseTable::new();
        t.insert("x", 10);
        assert_eq!(t.insert("x", 50), Some(10));
        assert!(t.expire(10).is_empty());
        assert_eq!(t.expiry_of(&"x"), Some(50));
        assert_eq!(t.expire(50), vec!["x"]);
    }

    #[test]
    fn cancel_removes() {
        let mut t = LeaseTable::new();
        t.insert(1u32, 10);
        t.insert(2u32, 10);
        assert_eq!(t.cancel(&1), Some(10));
        assert_eq!(t.cancel(&1), None);
        assert_eq!(t.expire(10), vec![2]);
    }

    #[test]
    fn same_expiry_bucket() {
        let mut t = LeaseTable::new();
        for i in 0..5u32 {
            t.insert(i, 42);
        }
        assert_eq!(t.len(), 5);
        let mut e = t.expire(42);
        e.sort();
        assert_eq!(e, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pools() {
        assert!(LifetimePool::Long.default_duration() > LifetimePool::Short.default_duration());
    }
}
