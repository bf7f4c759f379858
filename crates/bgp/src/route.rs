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

use std::cell::RefCell;

use mcast_addr::Prefix;

/// A BGP router (border router) identity, unique across a simulation.
pub type RouterId = u32;

/// An autonomous-system (domain) number.
pub type Asn = u32;

thread_local! {
    /// Per-thread AS-path intern table. Simulations carry the same few
    /// distinct paths in thousands of RIB entries; interning keeps one
    /// allocation per distinct path and lets equality shortcut on
    /// pointer identity. The table never frees a path, so each one is
    /// leaked once and handed out as a plain `&'static` slice. Thread-local
    /// so the table needs no locking (parallel harnesses run one
    /// simulation per thread).
    #[expect(
        clippy::disallowed_types,
        reason = "the intern table is only probed by key, never iterated"
    )]
    static AS_PATH_INTERN: RefCell<std::collections::HashSet<&'static [Asn], PathHash>> =
        RefCell::new(std::collections::HashSet::default());
    /// The path being prepended, so that only one not yet interned
    /// allocates.
    static BUILDING: RefCell<Vec<Asn>> = const { RefCell::new(Vec::new()) };
}

/// The intern table's hasher: a fixed multiply-rotate over the path's
/// words. The table is only probed by key, and its paths come from the
/// simulation or from configured BGP neighbours, so `RandomState`'s
/// per-process keys and collision-flooding resistance buy it nothing
/// but SipHash's cost.
type PathHash = std::hash::BuildHasherDefault<WordHasher>;

#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl std::hash::Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u32::from_ne_bytes(word).into());
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply leaves its best bits high; the table indexes by the
    /// low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// An interned, immutable AS path: a `Copy` handle to the one copy of
/// its ASNs this thread keeps. Behaves like `[Asn]` via `Deref`;
/// construct with [`AsPath::new`] / `From<Vec<Asn>>` and extend with
/// [`AsPath::prepend`]. A snapshot writes each path in full once per
/// blob and refers back to it after ([`snapshot::Enc::interned`]).
#[derive(Clone, Copy, Eq)]
pub struct AsPath(&'static [Asn]);

impl AsPath {
    /// Interns `path`, sharing storage with all equal paths on this
    /// thread.
    pub fn new(path: &[Asn]) -> Self {
        AS_PATH_INTERN.with_borrow_mut(|t| {
            AsPath(match t.get(path) {
                Some(&a) => a,
                None => {
                    let a: &'static [Asn] = Box::leak(path.into());
                    t.insert(a);
                    a
                }
            })
        })
    }

    /// The path `[asn]` followed by this path (advertisement across a
    /// domain boundary).
    pub fn prepend(&self, asn: Asn) -> Self {
        BUILDING.with_borrow_mut(|path| {
            path.clear();
            path.push(asn);
            path.extend_from_slice(self.0);
            Self::new(path)
        })
    }
}

impl std::ops::Deref for AsPath {
    type Target = [Asn];
    fn deref(&self) -> &[Asn] {
        self.0
    }
}

impl PartialEq for AsPath {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}

impl std::hash::Hash for AsPath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq<Vec<Asn>> for AsPath {
    fn eq(&self, other: &Vec<Asn>) -> bool {
        self.0 == &other[..]
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
        self.0.fmt(f)
    }
}

impl snapshot::Snapshot for AsPath {
    /// The first time the path appears in the blob, tag 0 and the path
    /// framed like a `Vec<Asn>` (length, then elements); after that,
    /// tag 1 and its index.
    #[inline]
    fn encode(&self, enc: &mut snapshot::Enc) {
        enc.interned(self.0);
    }
    /// Interns only a path written in full; a reference back is the
    /// path already read.
    #[inline]
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        dec.interned(|path| AsPath::new(path).0).map(AsPath)
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
    (
        !a.local, // false sorts first
        a.as_path.len(),
        !a.ebgp,
        a.next_hop,
    ) < (!b.local, b.as_path.len(), !b.ebgp, b.next_hop)
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
