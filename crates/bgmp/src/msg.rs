//! BGMP protocol messages and engine actions.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::panic_in_result_fn,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use bgp::RouterId;
use mcast_addr::McastAddr;

use crate::entry::SourceId;

/// A BGMP message between peering border routers (carried over their
/// persistent TCP session, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgmpMsg {
    /// Join the shared tree for the group (sets up (*,G) state toward
    /// the root domain).
    Join(McastAddr),
    /// Leave the shared tree.
    Prune(McastAddr),
    /// Join a source-specific branch toward the source (§5.3).
    SourceJoin(SourceId, McastAddr),
    /// Prune a source's data from this direction.
    SourcePrune(SourceId, McastAddr),
}

impl snapshot::Snapshot for BgmpMsg {
    fn encode(&self, enc: &mut snapshot::Enc) {
        match self {
            BgmpMsg::Join(g) => {
                enc.u8(0);
                g.encode(enc);
            }
            BgmpMsg::Prune(g) => {
                enc.u8(1);
                g.encode(enc);
            }
            BgmpMsg::SourceJoin(s, g) => {
                enc.u8(2);
                s.encode(enc);
                g.encode(enc);
            }
            BgmpMsg::SourcePrune(s, g) => {
                enc.u8(3);
                s.encode(enc);
                g.encode(enc);
            }
        }
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        match dec.u8()? {
            0 => Ok(BgmpMsg::Join(McastAddr::decode(dec)?)),
            1 => Ok(BgmpMsg::Prune(McastAddr::decode(dec)?)),
            2 => Ok(BgmpMsg::SourceJoin(
                SourceId::decode(dec)?,
                McastAddr::decode(dec)?,
            )),
            3 => Ok(BgmpMsg::SourcePrune(
                SourceId::decode(dec)?,
                McastAddr::decode(dec)?,
            )),
            _ => Err(snapshot::SnapError::Invalid("BgmpMsg tag")),
        }
    }
}

/// How a group join/prune resolves toward its root domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// The root domain is this router's own domain (we originated the
    /// covering group route).
    Local,
    /// An external BGMP peer is the next hop.
    ExternalPeer(RouterId),
    /// The best exit router is another border router of our own
    /// domain; joins travel through the MIGP to it (paper footnote 9).
    Internal {
        /// The best exit border router.
        exit: RouterId,
    },
}

/// Route lookups BGMP needs, provided by the host (backed by the BGP
/// speaker's G-RIB and M-RIB).
pub trait RouteLookup {
    /// Next hop toward the root domain of `g` (G-RIB longest-prefix
    /// match, §4.2).
    fn toward_group(&self, g: McastAddr) -> Option<NextHop>;

    /// Next hop toward a domain (M-RIB; used for source-specific
    /// joins, §5.3).
    fn toward_domain(&self, asn: bgp::Asn) -> Option<NextHop>;
}

/// Effects requested by the BGMP engine, executed by the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgmpAction {
    /// Transmit a message to a BGMP peer (internal or external).
    SendToPeer {
        /// Destination border router.
        to: RouterId,
        /// Payload.
        msg: BgmpMsg,
    },
    /// Subscribe this border router to the group inside the domain:
    /// the MIGP component becomes a data source/sink for the group
    /// (border_subscribe + joining as a member where the MIGP needs
    /// it).
    MigpSubscribe(McastAddr),
    /// Drop the subscription.
    MigpUnsubscribe(McastAddr),
    /// Ask the MIGP to carry the group between this router and the
    /// best exit router `exit`, and notify `exit`'s BGMP component of
    /// the join (paper: "A2 transmits the join request to its MIGP
    /// component because A3 is an internal BGMP peer").
    JoinViaMigp {
        /// The best exit border router for the group.
        exit: RouterId,
        /// The group.
        group: McastAddr,
    },
    /// Tear down the internal leg.
    PruneViaMigp {
        /// The exit router previously joined through.
        exit: RouterId,
        /// The group.
        group: McastAddr,
    },
    /// Source-specific analogue of [`BgmpAction::JoinViaMigp`]: carry
    /// (S,G) data between this router and the best exit toward the
    /// source, and continue the source-specific join there (§5.3).
    SourceJoinViaMigp {
        /// Best exit router toward the source's domain.
        exit: RouterId,
        /// The source.
        source: crate::entry::SourceId,
        /// The group.
        group: McastAddr,
    },
    /// Tear down a source-specific internal leg.
    SourcePruneViaMigp {
        /// The exit router previously joined through.
        exit: RouterId,
        /// The source.
        source: crate::entry::SourceId,
        /// The group.
        group: McastAddr,
    },
}
