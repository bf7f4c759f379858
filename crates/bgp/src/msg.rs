//! BGP wire messages exchanged between speakers.

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

use crate::policy::RouteSourceKind;
use crate::route::{Nlri, Route, RouterId};

/// A message from one speaker to a specific peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpMsg {
    /// Advertise (or replace) a route. `kind` classifies how the route
    /// entered the sender's domain; it is meaningful only on iBGP
    /// sessions (standing in for the communities real deployments use
    /// to carry this) and ignored on eBGP sessions, where the receiver
    /// classifies by its own relationship to the sender.
    Update {
        /// The route as it should be installed by the receiver.
        route: Route,
        /// Domain-entry classification (iBGP only).
        kind: RouteSourceKind,
    },
    /// Withdraw the sender's route for this NLRI.
    Withdraw(Nlri),
}

/// An outbound message with its destination, as emitted by the sans-io
/// speaker. The host (simulator or TCP shell) owns delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutMsg {
    /// Destination router.
    pub to: RouterId,
    /// Payload.
    pub msg: BgpMsg,
}

impl snapshot::Snapshot for BgpMsg {
    fn encode(&self, enc: &mut snapshot::Enc) {
        match self {
            BgpMsg::Update { route, kind } => {
                enc.u8(0);
                route.encode(enc);
                kind.encode(enc);
            }
            BgpMsg::Withdraw(nlri) => {
                enc.u8(1);
                nlri.encode(enc);
            }
        }
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        match dec.u8()? {
            0 => Ok(BgpMsg::Update {
                route: Route::decode(dec)?,
                kind: snapshot::Snapshot::decode(dec)?,
            }),
            1 => Ok(BgpMsg::Withdraw(Nlri::decode(dec)?)),
            _ => Err(snapshot::SnapError::Invalid("BgpMsg tag")),
        }
    }
}

impl snapshot::Snapshot for OutMsg {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { to, msg } = self;
        enc.u32(*to);
        msg.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(OutMsg {
            to: dec.u32()?,
            msg: BgpMsg::decode(dec)?,
        })
    }
}
