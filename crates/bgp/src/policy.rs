//! Export policy: which routes a border router advertises to whom.
//!
//! §2/§4.2 of the paper: multicast policy is realized "through
//! selective propagation of the group routes in BGP", exactly as for
//! unicast — a provider advertises only routes to its own networks and
//! its customers' networks, so only traffic to/from customers transits
//! it.

use crate::route::{Asn, RouterId};

/// Commercial relationship of a *peer* to this speaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRel {
    /// The peer is our provider.
    Provider,
    /// The peer is our customer.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// Same-domain (iBGP) peer.
    Internal,
}

/// The external-facing classification of a route regardless of iBGP
/// hops: how it entered this *domain*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSourceKind {
    /// Originated in this domain.
    Local,
    /// Entered the domain from a customer.
    Customer,
    /// Entered the domain from a provider.
    Provider,
    /// Entered the domain from a peer.
    Peer,
}

/// Export policy configuration for a speaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportPolicy {
    /// Advertise everything to everyone (a policy-free internet; used
    /// by experiments that measure pure tree shape).
    Open,
    /// Gao–Rexford provider/customer rules: to customers export
    /// everything; to providers and peers export only local and
    /// customer routes.
    ProviderCustomer,
}

impl ExportPolicy {
    /// May a route of `kind` be exported to a peer of relationship
    /// `to`? (iBGP propagation is governed separately by the speaker's
    /// full-mesh rule, not by policy.)
    pub fn allows(self, kind: RouteSourceKind, to: PeerRel) -> bool {
        match self {
            ExportPolicy::Open => true,
            ExportPolicy::ProviderCustomer => match to {
                PeerRel::Customer | PeerRel::Internal => true,
                PeerRel::Provider | PeerRel::Peer => {
                    matches!(kind, RouteSourceKind::Local | RouteSourceKind::Customer)
                }
            },
        }
    }
}

/// Classifies a received route by the relationship of the external peer
/// that delivered it into the domain.
pub fn classify(rel: PeerRel) -> RouteSourceKind {
    match rel {
        PeerRel::Customer => RouteSourceKind::Customer,
        PeerRel::Provider => RouteSourceKind::Provider,
        PeerRel::Peer => RouteSourceKind::Peer,
        PeerRel::Internal => RouteSourceKind::Local, // refined by caller
    }
}

/// Per-peer static configuration held by a speaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerConfig {
    /// The peer's router id.
    pub router: RouterId,
    /// The peer's domain.
    pub asn: Asn,
    /// Relationship of the peer to us.
    pub rel: PeerRel,
}

impl PeerConfig {
    /// Is this an iBGP (same-domain) peer?
    pub fn is_internal(&self) -> bool {
        self.rel == PeerRel::Internal
    }
}

impl snapshot::Snapshot for RouteSourceKind {
    fn encode(&self, enc: &mut snapshot::Enc) {
        enc.u8(match self {
            RouteSourceKind::Local => 0,
            RouteSourceKind::Customer => 1,
            RouteSourceKind::Provider => 2,
            RouteSourceKind::Peer => 3,
        });
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        match dec.u8()? {
            0 => Ok(RouteSourceKind::Local),
            1 => Ok(RouteSourceKind::Customer),
            2 => Ok(RouteSourceKind::Provider),
            3 => Ok(RouteSourceKind::Peer),
            _ => Err(snapshot::SnapError::Invalid("RouteSourceKind tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_policy_allows_all() {
        for kind in [
            RouteSourceKind::Local,
            RouteSourceKind::Customer,
            RouteSourceKind::Provider,
            RouteSourceKind::Peer,
        ] {
            for to in [PeerRel::Provider, PeerRel::Customer, PeerRel::Peer] {
                assert!(ExportPolicy::Open.allows(kind, to));
            }
        }
    }

    #[test]
    fn provider_customer_rules() {
        let p = ExportPolicy::ProviderCustomer;
        // To customers: everything.
        assert!(p.allows(RouteSourceKind::Provider, PeerRel::Customer));
        assert!(p.allows(RouteSourceKind::Peer, PeerRel::Customer));
        // To providers/peers: only local + customer routes.
        assert!(p.allows(RouteSourceKind::Local, PeerRel::Provider));
        assert!(p.allows(RouteSourceKind::Customer, PeerRel::Provider));
        assert!(!p.allows(RouteSourceKind::Provider, PeerRel::Provider));
        assert!(!p.allows(RouteSourceKind::Peer, PeerRel::Provider));
        assert!(!p.allows(RouteSourceKind::Provider, PeerRel::Peer));
        assert!(!p.allows(RouteSourceKind::Peer, PeerRel::Peer));
        assert!(p.allows(RouteSourceKind::Customer, PeerRel::Peer));
    }

    #[test]
    fn classification() {
        assert_eq!(classify(PeerRel::Customer), RouteSourceKind::Customer);
        assert_eq!(classify(PeerRel::Provider), RouteSourceKind::Provider);
        assert_eq!(classify(PeerRel::Peer), RouteSourceKind::Peer);
    }
}
