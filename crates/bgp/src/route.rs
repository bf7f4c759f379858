//! Route types: NLRI, path attributes, and next hops.
//!
//! The substrate follows the multiprotocol-BGP framing the paper builds
//! on (§2): one routing protocol carrying multiple *types* of routes,
//! each type giving a logical view of the table. We carry two:
//!
//! * **domain routes** — reachability to a domain (used for both the
//!   unicast view and the M-RIB; in this reproduction the two
//!   topologies are congruent unless a test configures otherwise);
//! * **group routes** — the paper's new type: a multicast address range
//!   bound to its root domain, forming the G-RIB.

use std::num::NonZeroU32;

use mcast_addr::Prefix;

use crate::paths;

/// A BGP router (border router) identity, unique across a simulation.
pub type RouterId = u32;

/// An autonomous-system (domain) number.
pub type Asn = u32;

/// An interned, immutable AS path: a `Copy` 4-byte id of the one copy
/// of its ASNs the process keeps. Equal paths have one id on every
/// thread, so equality and hashing look at the id alone, and the id
/// holds the path's length (up to 30) too. Behaves like `[Asn]` via
/// `Deref`; construct with [`AsPath::new`] / `From<Vec<Asn>>` and extend
/// with [`AsPath::prepend`]. A snapshot writes each path in full once
/// per blob and refers back to it after ([`snapshot::Enc::interned`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsPath(NonZeroU32);

impl AsPath {
    /// Interns `path`: the id every equal path has, in this process.
    pub fn new(path: &[Asn]) -> Self {
        AsPath(paths::intern(path))
    }

    /// The path `[asn]` followed by this path (advertisement across a
    /// domain boundary).
    pub fn prepend(&self, asn: Asn) -> Self {
        AsPath(paths::prepend(asn, self.0))
    }

    /// The number of ASNs on the path, read from the id itself unless
    /// the path is longer than the id can say.
    #[inline]
    pub fn len(&self) -> usize {
        paths::len_of(self.0).unwrap_or_else(|| self.words().len())
    }

    /// Whether the path holds no ASN.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The path's ASNs, nearest first.
    #[inline]
    fn words(&self) -> &'static [Asn] {
        paths::words(self.0)
    }
}

impl std::ops::Deref for AsPath {
    type Target = [Asn];
    #[inline]
    fn deref(&self) -> &[Asn] {
        self.words()
    }
}

impl PartialEq<Vec<Asn>> for AsPath {
    fn eq(&self, other: &Vec<Asn>) -> bool {
        self.words() == &other[..]
    }
}

impl From<Vec<Asn>> for AsPath {
    fn from(v: Vec<Asn>) -> Self {
        Self::new(&v)
    }
}

impl From<&[Asn]> for AsPath {
    fn from(v: &[Asn]) -> Self {
        Self::new(v)
    }
}

impl FromIterator<Asn> for AsPath {
    fn from_iter<I: IntoIterator<Item = Asn>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<_>>())
    }
}

impl std::fmt::Debug for AsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.words().fmt(f)
    }
}

impl snapshot::Snapshot for AsPath {
    /// The first time the path appears in the blob, tag 0 and the path
    /// framed like a `Vec<Asn>` (length, then elements); after that,
    /// tag 1 and its index. Keyed by the id, so a path's words are read
    /// only to be written.
    #[inline]
    fn encode(&self, enc: &mut snapshot::Enc) {
        enc.interned(self.0, || self.words());
    }
    /// Interns only a path written in full; a reference back is the
    /// path already read.
    #[inline]
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        dec.interned(paths::intern).map(AsPath)
    }
}

/// Network-layer reachability information: what a route is *for*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, snapshot::Snapshot)]
pub enum Nlri {
    /// Reachability to a whole domain (unicast / M-RIB view).
    Domain(Asn),
    /// A group route: the multicast range claimed by some root domain
    /// (G-RIB view).
    Group(Prefix),
}

impl Nlri {
    /// The group prefix, if this is a group route.
    pub fn as_group(&self) -> Option<Prefix> {
        match self {
            Nlri::Group(p) => Some(*p),
            Nlri::Domain(_) => None,
        }
    }
}

/// A route to an NLRI as stored in a RIB.
#[derive(Debug, Clone, PartialEq, Eq, snapshot::Snapshot)]
pub struct Route {
    /// What the route reaches.
    pub nlri: Nlri,
    /// Domains the route has traversed, nearest first. The originator
    /// is last. Loop detection discards routes containing our own ASN.
    pub as_path: AsPath,
    /// The border router to forward to ("when X advertises a route for
    /// R to Y, Y can use X to reach R", §2).
    pub next_hop: RouterId,
    /// True when this RIB entry was originated locally (the root
    /// domain for a group route is *here*).
    pub local: bool,
    /// True when the route was learned over an eBGP session (set by
    /// the receiving speaker). Real BGP prefers eBGP over iBGP; so do
    /// we — without this rule two border routers can circularly prefer
    /// each other's next-hop-self iBGP routes.
    pub ebgp: bool,
}

impl Route {
    /// A locally originated route.
    pub fn originate(nlri: Nlri, own_asn: Asn, own_router: RouterId) -> Self {
        Route {
            nlri,
            as_path: AsPath::new(&[own_asn]),
            next_hop: own_router,
            local: true,
            ebgp: false,
        }
    }

    /// Does the AS path contain `asn` (loop check)?
    pub fn path_contains(&self, asn: Asn) -> bool {
        self.as_path.contains(&asn)
    }

    /// The domain that originated the route (root domain for group
    /// routes).
    pub fn origin_asn(&self) -> Option<Asn> {
        self.as_path.last().copied()
    }
}

/// Deterministic total preference order between candidate routes for
/// the same NLRI. Returns true if `a` is preferred over `b`:
/// local origination first, then shortest AS path, then eBGP over
/// iBGP, then lowest next-hop router id as the final tie-break
/// (stands in for BGP's lowest-router-id rule and keeps simulations
/// reproducible).
pub fn prefer(a: &Route, b: &Route) -> bool {
    a.rank() < b.rank()
}

/// The key [`prefer`] orders candidates by, lowest first.
pub(crate) type Rank = (bool, usize, bool, RouterId);

/// A candidate's [`Rank`] from the fields `prefer` reads, so that a
/// candidate stored without its NLRI has one too.
pub(crate) fn rank(local: bool, as_path: AsPath, ebgp: bool, next_hop: RouterId) -> Rank {
    // false sorts first
    (!local, as_path.len(), !ebgp, next_hop)
}

impl Route {
    /// This route's [`Rank`].
    pub(crate) fn rank(&self) -> Rank {
        rank(self.local, self.as_path, self.ebgp, self.next_hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn originate_shape() {
        let r = Route::originate(Nlri::Group(p("224.0.0.0/16")), 7, 70);
        assert!(r.local);
        assert_eq!(r.as_path, vec![7]);
        assert_eq!(r.origin_asn(), Some(7));
        assert!(r.path_contains(7));
        assert!(!r.path_contains(8));
    }

    #[test]
    fn preference_order() {
        let g = Nlri::Group(p("224.0.0.0/16"));
        let local = Route::originate(g, 1, 10);
        let short = Route {
            nlri: g,
            as_path: vec![2, 3].into(),
            next_hop: 20,
            local: false,
            ebgp: false,
        };
        let long = Route {
            nlri: g,
            as_path: vec![2, 3, 4].into(),
            next_hop: 5,
            local: false,
            ebgp: false,
        };
        let short_low = Route {
            nlri: g,
            as_path: vec![9, 3].into(),
            next_hop: 15,
            local: false,
            ebgp: false,
        };
        assert!(prefer(&local, &short));
        assert!(prefer(&short, &long));
        assert!(prefer(&short_low, &short)); // same length, lower next hop
        assert!(!prefer(&long, &short));
        // eBGP beats iBGP at equal path length regardless of next hop.
        let ebgp = Route {
            nlri: g,
            as_path: vec![2, 3].into(),
            next_hop: 99,
            local: false,
            ebgp: true,
        };
        assert!(prefer(&ebgp, &short_low));
    }

    #[test]
    fn nlri_as_group() {
        assert_eq!(Nlri::Domain(3).as_group(), None);
        assert_eq!(
            Nlri::Group(p("224.0.0.0/8")).as_group(),
            Some(p("224.0.0.0/8"))
        );
    }
}
