//! BIER wire messages, house codec style.
//!
//! Two planes share the frame type:
//!
//! * **overlay signaling** — receivers subscribe/unsubscribe a group at
//!   the ingress (the role BGP-based BIER overlay signaling or mLDP
//!   plays in deployments; the only per-group state anywhere);
//! * **data + fault notification** — the RFC 8296-shaped packet header
//!   (sub-domain implicit, SI + bitstring) and the adjacency up/down
//!   events the 1:1 protection switchover reacts to.
//!
//! Decoding is total: this file denies clippy's panicking lints, so
//! malformed frames surface as [`snapshot::SnapError`], never a panic. Roundtrip and corruption tests live in
//! `tests/wire_roundtrip.rs` (asserts are banned in decode files).

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

use crate::bitstring::{BfrId, BitString, SetId};
use snapshot::{Dec, Enc, SnapError, Snapshot};

/// A BIER frame: overlay signaling, a data packet header, or an
/// adjacency fault notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BierMsg {
    /// Receiver `bfr` joins `group` (overlay signaling to the ingress).
    Subscribe {
        /// Group identifier (overlay-assigned, opaque to the plane).
        group: u32,
        /// The subscribing receiver's BFR-id.
        bfr: BfrId,
    },
    /// Receiver `bfr` leaves `group`.
    Unsubscribe {
        /// Group identifier.
        group: u32,
        /// The leaving receiver's BFR-id.
        bfr: BfrId,
    },
    /// A data packet header: which set the bitstring addresses, and the
    /// bitstring itself.
    Packet {
        /// Group identifier (for accounting; forwarding ignores it).
        group: u32,
        /// Set index the bitstring is relative to.
        si: SetId,
        /// Destination bits.
        bits: BitString,
    },
    /// Local detection of a failed adjacency (triggers 1:1 protection
    /// switchover at the point of local repair).
    AdjDown {
        /// Detecting router's BFR-id.
        from: BfrId,
        /// Far end of the failed adjacency.
        to: BfrId,
    },
    /// The adjacency came back; revert to the primary path.
    AdjUp {
        /// Detecting router's BFR-id.
        from: BfrId,
        /// Far end of the restored adjacency.
        to: BfrId,
    },
}

impl Snapshot for BierMsg {
    fn encode(&self, enc: &mut Enc) {
        match self {
            BierMsg::Subscribe { group, bfr } => {
                enc.u8(0);
                enc.u32(*group);
                bfr.encode(enc);
            }
            BierMsg::Unsubscribe { group, bfr } => {
                enc.u8(1);
                enc.u32(*group);
                bfr.encode(enc);
            }
            BierMsg::Packet { group, si, bits } => {
                enc.u8(2);
                enc.u32(*group);
                si.encode(enc);
                bits.encode(enc);
            }
            BierMsg::AdjDown { from, to } => {
                enc.u8(3);
                from.encode(enc);
                to.encode(enc);
            }
            BierMsg::AdjUp { from, to } => {
                enc.u8(4);
                from.encode(enc);
                to.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        match dec.u8()? {
            0 => Ok(BierMsg::Subscribe {
                group: dec.u32()?,
                bfr: BfrId::decode(dec)?,
            }),
            1 => Ok(BierMsg::Unsubscribe {
                group: dec.u32()?,
                bfr: BfrId::decode(dec)?,
            }),
            2 => Ok(BierMsg::Packet {
                group: dec.u32()?,
                si: SetId::decode(dec)?,
                bits: BitString::decode(dec)?,
            }),
            3 => Ok(BierMsg::AdjDown {
                from: BfrId::decode(dec)?,
                to: BfrId::decode(dec)?,
            }),
            4 => Ok(BierMsg::AdjUp {
                from: BfrId::decode(dec)?,
                to: BfrId::decode(dec)?,
            }),
            _ => Err(SnapError::Invalid("BierMsg tag")),
        }
    }
}
