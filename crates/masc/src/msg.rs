//! MASC protocol messages and the actions a node emits.
//!
//! Messages travel between MASC nodes of different domains (parent,
//! children, siblings). Actions are everything else a node wants done —
//! transmissions, BGP originations, MAAS notifications — returned from
//! the sans-io engine for the host (simulator or actor runtime) to
//! execute.

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

use mcast_addr::{Prefix, Secs};

/// Domain identity used at the MASC layer (the domain's ASN).
pub type DomainAsn = u32;

/// A MASC protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MascMsg {
    /// Parent → children: the parent's current address ranges with
    /// their expiry times (§4.1 "A advertises its address range ... to
    /// all its children"). The flag marks *active* ranges: children
    /// claim new space only from active ranges, but may keep renewing
    /// existing claims inside a draining (inactive) range up to that
    /// range's fixed expiry (§4.3.3: old prefixes "timeout when the
    /// currently allocated addresses timeout").
    ParentAdvertise {
        /// Ranges: (prefix, absolute expiry, active).
        ranges: Vec<(Prefix, Secs, bool)>,
    },
    /// A claim for a sub-range of the parent's space, sent to the
    /// parent and propagated to siblings (§4.1).
    Claim {
        /// The claiming domain.
        claimer: DomainAsn,
        /// The claimed range.
        prefix: Prefix,
        /// Absolute expiry the claimer wants.
        expires: Secs,
        /// When the claim was made — the collision tiebreak (earlier
        /// claim wins; ties break to the lower domain id).
        at: Secs,
    },
    /// A collision announcement: `holder` asserts `prefix` against the
    /// offending claim (§4.1).
    Collision {
        /// Domain asserting the range.
        holder: DomainAsn,
        /// The asserted range (overlapping the offender's claim).
        prefix: Prefix,
    },
    /// Renew a granted range to a new expiry.
    Renew {
        /// Renewing domain.
        claimer: DomainAsn,
        /// The renewed range.
        prefix: Prefix,
        /// New absolute expiry.
        expires: Secs,
    },
    /// A child tells its parent it could not find claimable space for
    /// `demand` addresses. The parent expands its own range in
    /// response ("A claims more address space when the utilization
    /// exceeds a given threshold", §4.1 — unmet child demand is the
    /// signal when free space is exhausted or fragmented).
    SpaceNeeded {
        /// The starved child.
        claimer: DomainAsn,
        /// Addresses it could not obtain.
        demand: u64,
    },
    /// Release a range before its lifetime ends.
    Release {
        /// Releasing domain.
        claimer: DomainAsn,
        /// The released range.
        prefix: Prefix,
    },
}

impl snapshot::Snapshot for MascMsg {
    fn encode(&self, enc: &mut snapshot::Enc) {
        match self {
            MascMsg::ParentAdvertise { ranges } => {
                enc.u8(0);
                ranges.encode(enc);
            }
            MascMsg::Claim {
                claimer,
                prefix,
                expires,
                at,
            } => {
                enc.u8(1);
                enc.u32(*claimer);
                prefix.encode(enc);
                enc.u64(*expires);
                enc.u64(*at);
            }
            MascMsg::Collision { holder, prefix } => {
                enc.u8(2);
                enc.u32(*holder);
                prefix.encode(enc);
            }
            MascMsg::Renew {
                claimer,
                prefix,
                expires,
            } => {
                enc.u8(3);
                enc.u32(*claimer);
                prefix.encode(enc);
                enc.u64(*expires);
            }
            MascMsg::SpaceNeeded { claimer, demand } => {
                enc.u8(4);
                enc.u32(*claimer);
                enc.u64(*demand);
            }
            MascMsg::Release { claimer, prefix } => {
                enc.u8(5);
                enc.u32(*claimer);
                prefix.encode(enc);
            }
        }
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        match dec.u8()? {
            0 => Ok(MascMsg::ParentAdvertise {
                ranges: snapshot::Snapshot::decode(dec)?,
            }),
            1 => Ok(MascMsg::Claim {
                claimer: dec.u32()?,
                prefix: Prefix::decode(dec)?,
                expires: dec.u64()?,
                at: dec.u64()?,
            }),
            2 => Ok(MascMsg::Collision {
                holder: dec.u32()?,
                prefix: Prefix::decode(dec)?,
            }),
            3 => Ok(MascMsg::Renew {
                claimer: dec.u32()?,
                prefix: Prefix::decode(dec)?,
                expires: dec.u64()?,
            }),
            4 => Ok(MascMsg::SpaceNeeded {
                claimer: dec.u32()?,
                demand: dec.u64()?,
            }),
            5 => Ok(MascMsg::Release {
                claimer: dec.u32()?,
                prefix: Prefix::decode(dec)?,
            }),
            _ => Err(snapshot::SnapError::Invalid("MascMsg tag")),
        }
    }
}

/// An effect requested by the MASC engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MascAction {
    /// Transmit `msg` to the MASC node of domain `to`.
    Send {
        /// Destination domain.
        to: DomainAsn,
        /// Payload.
        msg: MascMsg,
    },
    /// A claim completed its waiting period: the range is ours. The
    /// host injects it into BGP as a group route and hands it to the
    /// MAAS (§4.2).
    RangeGranted {
        /// The granted range.
        prefix: Prefix,
        /// Absolute expiry.
        expires: Secs,
    },
    /// A previously granted range was lost (lifetime expiry, release,
    /// or a forced collision from the parent). The host withdraws the
    /// group route.
    RangeLost {
        /// The lost range.
        prefix: Prefix,
    },
    /// A queued MAAS block request was satisfied.
    BlockReady {
        /// The request id given to `request_block`.
        request: u64,
        /// The allocated block.
        block: Prefix,
        /// Absolute expiry of the block lease.
        expires: Secs,
    },
    /// A block lease expired and was reclaimed.
    BlockExpired {
        /// The reclaimed block.
        block: Prefix,
    },
    /// No free space could satisfy a claim; the node backs off and
    /// retries at the returned deadline.
    ClaimFailed {
        /// Addresses that could not be obtained.
        demand: u64,
    },
}

impl snapshot::Snapshot for MascAction {
    fn encode(&self, enc: &mut snapshot::Enc) {
        match self {
            MascAction::Send { to, msg } => {
                enc.u8(0);
                enc.u32(*to);
                msg.encode(enc);
            }
            MascAction::RangeGranted { prefix, expires } => {
                enc.u8(1);
                prefix.encode(enc);
                enc.u64(*expires);
            }
            MascAction::RangeLost { prefix } => {
                enc.u8(2);
                prefix.encode(enc);
            }
            MascAction::BlockReady {
                request,
                block,
                expires,
            } => {
                enc.u8(3);
                enc.u64(*request);
                block.encode(enc);
                enc.u64(*expires);
            }
            MascAction::BlockExpired { block } => {
                enc.u8(4);
                block.encode(enc);
            }
            MascAction::ClaimFailed { demand } => {
                enc.u8(5);
                enc.u64(*demand);
            }
        }
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        match dec.u8()? {
            0 => Ok(MascAction::Send {
                to: dec.u32()?,
                msg: MascMsg::decode(dec)?,
            }),
            1 => Ok(MascAction::RangeGranted {
                prefix: Prefix::decode(dec)?,
                expires: dec.u64()?,
            }),
            2 => Ok(MascAction::RangeLost {
                prefix: Prefix::decode(dec)?,
            }),
            3 => Ok(MascAction::BlockReady {
                request: dec.u64()?,
                block: Prefix::decode(dec)?,
                expires: dec.u64()?,
            }),
            4 => Ok(MascAction::BlockExpired {
                block: Prefix::decode(dec)?,
            }),
            5 => Ok(MascAction::ClaimFailed { demand: dec.u64()? }),
            _ => Err(snapshot::SnapError::Invalid("MascAction tag")),
        }
    }
}
