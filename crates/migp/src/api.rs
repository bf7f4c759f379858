//! The MIGP abstraction: what BGMP requires of an intra-domain
//! multicast routing protocol.
//!
//! §3 of the paper makes *MIGP independence* a requirement: each domain
//! chooses its own protocol, and BGMP interacts with it only through a
//! narrow interface — membership notifications toward the group's best
//! exit router, data delivery between hosts and border routers, and
//! (for source-rooted protocols) RPF entry constraints that force
//! encapsulation between border routers (§5.3).

use mcast_addr::McastAddr;

use crate::domain_net::{DomainNet, LocalRouter};
use crate::membership::Membership;

/// Events the MIGP reports upward to the BGMP component (the paper's
/// Domain-Wide Report role, \[22\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigpEvent {
    /// The domain gained its first member of the group: the best exit
    /// router's BGMP component should join the inter-domain tree.
    FirstMember(McastAddr),
    /// The domain lost its last member: BGMP should prune.
    LastMemberLeft(McastAddr),
}

/// Result of injecting a data packet into the domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The packet was delivered along the protocol's tree.
    Delivered {
        /// Routers with member hosts that received a copy.
        member_routers: Vec<LocalRouter>,
        /// Border routers subscribed as BGMP child targets that
        /// received a copy (the entry router is never echoed back).
        borders: Vec<LocalRouter>,
        /// Internal hops traversed (tree edge count), for the
        /// intra-domain ablation.
        hops: u32,
    },
    /// A source-rooted protocol rejected the packet: it entered at the
    /// wrong border router for this source (internal RPF checks toward
    /// the source would drop it, §5.3). The host must encapsulate to
    /// `required_entry` instead.
    RpfReject {
        /// The border router data for this source must enter through.
        required_entry: LocalRouter,
    },
}

/// An intra-domain multicast routing protocol instance for one domain.
///
/// Implementations are deterministic and synchronous: the surrounding
/// simulation provides timing; the MIGP computes trees and membership
/// directly (protocol chatter inside domains is abstracted away, since
/// the paper measures only inter-domain behaviour).
pub trait Migp: Send {
    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// The domain's router graph.
    fn net(&self) -> &DomainNet;

    /// A host attached to `r` joins `g`. Returns membership events.
    fn host_join(&mut self, r: LocalRouter, g: McastAddr) -> Vec<MigpEvent>;

    /// A host attached to `r` leaves `g`. Returns membership events.
    fn host_leave(&mut self, r: LocalRouter, g: McastAddr) -> Vec<MigpEvent>;

    /// Border router `b` subscribes to `g`'s data (it has downstream
    /// BGMP child targets).
    fn border_subscribe(&mut self, b: LocalRouter, g: McastAddr);

    /// Border router `b` unsubscribes from `g`.
    fn border_unsubscribe(&mut self, b: LocalRouter, g: McastAddr);

    /// Does the domain currently have any member of `g`?
    fn has_members(&self, g: McastAddr) -> bool;

    /// Injects a data packet for `g` at router `entry` (a border
    /// router for transit traffic, or any router for a local sender).
    ///
    /// `expected_entry` is the border router the domain's unicast
    /// routing considers the best exit toward the packet's source
    /// (None for locally sourced packets). Source-rooted protocols
    /// reject mismatched entries with [`Delivery::RpfReject`].
    fn deliver(
        &self,
        entry: LocalRouter,
        g: McastAddr,
        expected_entry: Option<LocalRouter>,
    ) -> Delivery;

    /// Member routers of `g` (diagnostics).
    fn members_of(&self, g: McastAddr) -> Vec<LocalRouter>;

    /// The protocol's membership/subscription state, for checkpointing.
    /// Trees are recomputed from the domain graph on demand, so this is
    /// the only dynamic state a MIGP carries.
    fn membership(&self) -> &Membership;

    /// Mutable membership state, for restore.
    fn membership_mut(&mut self) -> &mut Membership;
}

/// Which MIGP a domain runs — constructor-style selector used by the
/// integrated architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigpKind {
    /// DVMRP: source-rooted reverse shortest-path trees, flood/prune,
    /// strict RPF (rejects wrong-entry transit data).
    Dvmrp,
    /// PIM Dense Mode: like DVMRP operationally.
    PimDm,
    /// PIM Sparse Mode: unidirectional shared tree rooted at an RP.
    PimSm,
    /// Core Based Trees: bidirectional shared tree around a core.
    Cbt,
    /// MOSPF-lite: membership flooding + per-source shortest-path
    /// trees, strict RPF.
    Mospf,
}

impl MigpKind {
    /// All kinds, for sweeps.
    pub const ALL: [MigpKind; 5] = [
        MigpKind::Dvmrp,
        MigpKind::PimDm,
        MigpKind::PimSm,
        MigpKind::Cbt,
        MigpKind::Mospf,
    ];

    /// Instantiates the protocol over a domain graph.
    pub fn build(self, net: DomainNet) -> Box<dyn Migp> {
        match self {
            MigpKind::Dvmrp => Box::new(crate::dvmrp::Dvmrp::new(net, "DVMRP")),
            MigpKind::PimDm => Box::new(crate::dvmrp::Dvmrp::new(net, "PIM-DM")),
            MigpKind::PimSm => Box::new(crate::pim_sm::PimSm::new(net)),
            MigpKind::Cbt => Box::new(crate::cbt::Cbt::new(net)),
            MigpKind::Mospf => Box::new(crate::mospf::Mospf::new(net)),
        }
    }
}
