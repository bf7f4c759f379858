//! Point-to-point links with latency and failure (partition) state.
//!
//! Links are identified by an unordered node pair. A link that was never
//! configured uses the table's default latency and is always up; this
//! keeps abstract simulations (e.g. the MASC 50×50 hierarchy, where
//! message latency barely matters next to the 48-hour waiting period)
//! free of boilerplate while letting topology-faithful simulations
//! configure every edge.

use std::collections::BTreeMap;

use crate::node::NodeId;
use crate::time::SimDuration;

/// Unordered node pair used as a link key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkKey(NodeId, NodeId);

impl LinkKey {
    /// Canonical (order-independent) key for a pair of nodes.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a.0 <= b.0 {
            LinkKey(a, b)
        } else {
            LinkKey(b, a)
        }
    }
}

/// Configured state of one link.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Whether the link is currently passing traffic.
    pub up: bool,
}

/// The table of all configured links plus defaults for the rest.
///
/// Backed by a `BTreeMap` so the table has a deterministic iteration
/// order if one is ever added — `simnet` carries the workspace's
/// determinism contract, so no hash-ordered container may live here
/// (`clippy.toml` bans them).
#[derive(Debug, Clone)]
pub struct LinkTable {
    links: BTreeMap<LinkKey, Link>,
    default_latency: SimDuration,
}

impl LinkTable {
    /// Creates a table whose unconfigured links have `default_latency`.
    pub fn new(default_latency: SimDuration) -> Self {
        LinkTable {
            links: BTreeMap::new(),
            default_latency,
        }
    }

    /// Configures (or reconfigures) the link between `a` and `b`.
    pub fn set(&mut self, a: NodeId, b: NodeId, latency: SimDuration) {
        self.links
            .insert(LinkKey::new(a, b), Link { latency, up: true });
    }

    /// Brings the link down (messages in flight are unaffected; new
    /// sends are dropped). Creates the link with default latency if it
    /// was unconfigured.
    pub fn set_down(&mut self, a: NodeId, b: NodeId) {
        let lat = self.default_latency;
        self.links
            .entry(LinkKey::new(a, b))
            .or_insert(Link {
                latency: lat,
                up: true,
            })
            .up = false;
    }

    /// Brings the link back up.
    pub fn set_up(&mut self, a: NodeId, b: NodeId) {
        let lat = self.default_latency;
        self.links
            .entry(LinkKey::new(a, b))
            .or_insert(Link {
                latency: lat,
                up: true,
            })
            .up = true;
    }

    /// Is the link currently up? Unconfigured links are up.
    pub fn is_up(&self, a: NodeId, b: NodeId) -> bool {
        self.links.get(&LinkKey::new(a, b)).is_none_or(|l| l.up)
    }

    /// One-way latency between `a` and `b`.
    pub fn latency(&self, a: NodeId, b: NodeId) -> SimDuration {
        self.links
            .get(&LinkKey::new(a, b))
            .map_or(self.default_latency, |l| l.latency)
    }

    /// The default latency for unconfigured links.
    pub fn default_latency(&self) -> SimDuration {
        self.default_latency
    }
}

impl snapshot::Snapshot for LinkKey {
    fn encode(&self, enc: &mut snapshot::Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        // Re-canonicalise rather than trusting the input ordering.
        Ok(LinkKey::new(NodeId::decode(dec)?, NodeId::decode(dec)?))
    }
}

impl snapshot::Snapshot for Link {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { latency, up } = self;
        latency.encode(enc);
        enc.bool(*up);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(Link {
            latency: SimDuration::decode(dec)?,
            up: dec.bool()?,
        })
    }
}

impl snapshot::Snapshot for LinkTable {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            links,
            default_latency,
        } = self;
        links.encode(enc);
        default_latency.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(LinkTable {
            links: snapshot::Snapshot::decode(dec)?,
            default_latency: SimDuration::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_unordered() {
        assert_eq!(
            LinkKey::new(NodeId(1), NodeId(2)),
            LinkKey::new(NodeId(2), NodeId(1))
        );
    }

    #[test]
    fn defaults_apply_to_unconfigured_links() {
        let t = LinkTable::new(SimDuration::from_millis(10));
        assert!(t.is_up(NodeId(0), NodeId(1)));
        assert_eq!(
            t.latency(NodeId(0), NodeId(1)),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn configure_and_fail() {
        let mut t = LinkTable::new(SimDuration::from_millis(10));
        t.set(NodeId(0), NodeId(1), SimDuration::from_millis(50));
        assert_eq!(
            t.latency(NodeId(1), NodeId(0)),
            SimDuration::from_millis(50)
        );
        t.set_down(NodeId(1), NodeId(0));
        assert!(!t.is_up(NodeId(0), NodeId(1)));
        t.set_up(NodeId(0), NodeId(1));
        assert!(t.is_up(NodeId(1), NodeId(0)));
    }

    #[test]
    fn set_down_creates_unconfigured_link() {
        let mut t = LinkTable::new(SimDuration::from_millis(5));
        t.set_down(NodeId(3), NodeId(4));
        assert!(!t.is_up(NodeId(3), NodeId(4)));
        assert_eq!(t.latency(NodeId(3), NodeId(4)), SimDuration::from_millis(5));
    }
}
