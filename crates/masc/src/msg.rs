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
#[derive(Debug, Clone, PartialEq, Eq, snapshot::Snapshot)]
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

/// An effect requested by the MASC engine.
#[derive(Debug, Clone, PartialEq, Eq, snapshot::Snapshot)]
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
