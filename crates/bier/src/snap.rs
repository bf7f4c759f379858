//! Checkpointing for the BIER plane.
//!
//! [`BierPlane`] is the control-plane state the overlay signaling
//! builds up — the group → receiver-set map held at the ingress, plus
//! the sub-domain parameters. It is the *only* per-group state in the
//! architecture, so it is also the only thing worth checkpointing
//! beyond the [`Network`](crate::forward::Network) fault view (restored
//! via `SnapshotState`, with the BIFTs rebuilt from topology).

use std::collections::{BTreeMap, BTreeSet};

use crate::bitstring::{BfrId, SubDomain};
use crate::msg::BierMsg;
use snapshot::{Dec, Enc, SnapError, Snapshot};
use topology::DomainId;

/// Snapshot kind tag for [`BierPlane::checkpoint`] blobs.
pub const SNAP_KIND_BIER: u16 = 5;

/// Ingress control state: which receivers subscribed to which group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BierPlane {
    /// Sub-domain parameters (BFR-id space and BSL).
    sub: SubDomain,
    /// Per-group subscriber sets, keyed by overlay group id.
    groups: BTreeMap<u32, BTreeSet<BfrId>>,
}

impl BierPlane {
    /// An empty plane over `sub`.
    pub fn new(sub: SubDomain) -> Self {
        BierPlane {
            sub,
            groups: BTreeMap::new(),
        }
    }

    /// The sub-domain parameters.
    pub fn sub(&self) -> &SubDomain {
        &self.sub
    }

    /// Applies an overlay signaling message; returns whether state
    /// changed. Data packets and adjacency events carry no control
    /// state and return `false`.
    pub fn apply(&mut self, msg: &BierMsg) -> bool {
        match msg {
            BierMsg::Subscribe { group, bfr } => {
                self.groups.entry(*group).or_default().insert(*bfr)
            }
            BierMsg::Unsubscribe { group, bfr } => {
                let Some(set) = self.groups.get_mut(group) else {
                    return false;
                };
                let removed = set.remove(bfr);
                if set.is_empty() {
                    self.groups.remove(group);
                }
                removed
            }
            BierMsg::Packet { .. } | BierMsg::AdjDown { .. } | BierMsg::AdjUp { .. } => false,
        }
    }

    /// Receivers of `group`, as domains, in BFR-id order.
    pub fn receivers(&self, group: u32) -> Vec<DomainId> {
        self.groups
            .get(&group)
            .map(|set| set.iter().filter_map(|b| self.sub.domain_of(*b)).collect())
            .unwrap_or_default()
    }

    /// Number of groups with at least one subscriber.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total ingress state entries: per group, one bitstring per set
    /// its receivers touch (the BIER column of the state comparison).
    pub fn ingress_entries(&self) -> usize {
        self.groups
            .values()
            .map(|set| {
                let rx: Vec<DomainId> = set.iter().filter_map(|b| self.sub.domain_of(*b)).collect();
                self.sub.sets_touched(&rx)
            })
            .sum()
    }

    /// Serializes with the versioned snapshot header.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut enc = Enc::with_header(SNAP_KIND_BIER);
        self.encode(&mut enc);
        enc.finish()
    }

    /// Rebuilds a plane from [`BierPlane::checkpoint`] bytes.
    pub fn resume(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut dec = Dec::new(bytes);
        dec.header(SNAP_KIND_BIER)?;
        let plane = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(plane)
    }
}

impl Snapshot for BierPlane {
    fn encode(&self, enc: &mut Enc) {
        let Self { sub, groups } = self;
        sub.encode(enc);
        groups.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let sub = SubDomain::decode(dec)?;
        let groups: BTreeMap<u32, BTreeSet<BfrId>> = Snapshot::decode(dec)?;
        for set in groups.values() {
            for b in set {
                if sub.domain_of(*b).is_none() {
                    return Err(SnapError::Invalid("BierPlane subscriber out of range"));
                }
            }
        }
        Ok(BierPlane { sub, groups })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstring::{BitString, DEFAULT_BSL};
    use crate::forward::Network;
    use topology::DomainGraph;

    fn plane_with_state() -> BierPlane {
        let mut p = BierPlane::new(SubDomain::new(600, DEFAULT_BSL));
        for (g, b) in [(9, 1), (9, 300), (9, 599), (11, 42)] {
            assert!(p.apply(&BierMsg::Subscribe {
                group: g,
                bfr: BfrId(b),
            }));
        }
        p
    }

    #[test]
    fn apply_tracks_membership() {
        let mut p = plane_with_state();
        assert_eq!(p.group_count(), 2);
        assert_eq!(
            p.receivers(9),
            vec![DomainId(0), DomainId(299), DomainId(598)]
        );
        // Group 9 spans sets {0, 1, 2}; group 11 one set.
        assert_eq!(p.ingress_entries(), 4);
        // Duplicate subscribe is a no-op.
        assert!(!p.apply(&BierMsg::Subscribe {
            group: 9,
            bfr: BfrId(1),
        }));
        // Unsubscribe down to empty removes the group.
        assert!(p.apply(&BierMsg::Unsubscribe {
            group: 11,
            bfr: BfrId(42),
        }));
        assert_eq!(p.group_count(), 1);
        assert!(!p.apply(&BierMsg::Unsubscribe {
            group: 11,
            bfr: BfrId(42),
        }));
        // Data/fault frames never mutate control state.
        assert!(!p.apply(&BierMsg::Packet {
            group: 9,
            si: crate::bitstring::SetId(0),
            bits: BitString::new(DEFAULT_BSL),
        }));
        assert!(!p.apply(&BierMsg::AdjDown {
            from: BfrId(1),
            to: BfrId(2),
        }));
        assert!(!p.apply(&BierMsg::AdjUp {
            from: BfrId(1),
            to: BfrId(2),
        }));
    }

    #[test]
    fn checkpoint_resume_roundtrip() {
        let p = plane_with_state();
        let bytes = p.checkpoint();
        let back = BierPlane::resume(&bytes).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn resume_rejects_corruption() {
        let p = plane_with_state();
        let bytes = p.checkpoint();
        // Wrong kind tag.
        let engine_hdr = Enc::with_header(1).finish();
        assert!(BierPlane::resume(&engine_hdr).is_err());
        // Every strict prefix fails cleanly.
        for cut in 0..bytes.len() {
            assert!(BierPlane::resume(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // Out-of-range subscriber (bfr beyond n).
        let mut small = BierPlane::new(SubDomain::new(4, DEFAULT_BSL));
        small.apply(&BierMsg::Subscribe {
            group: 1,
            bfr: BfrId(4),
        });
        let mut enc = Enc::with_header(SNAP_KIND_BIER);
        SubDomain::new(2, DEFAULT_BSL).encode(&mut enc); // shrink the id space
        small.groups.encode(&mut enc);
        assert!(BierPlane::resume(&enc.finish()).is_err());
    }

    #[test]
    fn network_fault_view_restores_via_snapshot_state() {
        use snapshot::SnapshotState;
        let mut g = DomainGraph::new();
        let a = g.add_domain("a");
        let b = g.add_domain("b");
        let c = g.add_domain("c");
        g.add_peering(a, b);
        g.add_peering(b, c);
        g.add_peering(a, c);
        let sub = SubDomain::new(3, DEFAULT_BSL);
        let mut net = Network::build(&g, &sub);
        net.set_link_down(a, b);
        net.set_node_down(c);
        let mut enc = Enc::new();
        net.encode_state(&mut enc);
        let bytes = enc.finish();
        // Rebuild from topology (static side), restore dynamic state.
        let mut fresh = Network::build(&g, &sub);
        let mut dec = Dec::new(&bytes);
        fresh.restore_state(&mut dec).unwrap();
        dec.finish().unwrap();
        let before = net.deliver_all(a, &[b, c], None);
        let after = fresh.deliver_all(a, &[b, c], None);
        assert_eq!(before, after);
    }
}
