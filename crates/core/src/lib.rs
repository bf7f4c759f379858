//! The integrated MASC/BGMP architecture.
//!
//! This crate assembles the substrates into the system the paper
//! describes: domains with border routers running BGP (with group
//! routes) and BGMP, any MIGP inside each domain, and MASC allocating
//! the address ranges that bind groups to root domains.
//!
//! * [`domain`] — one administrative domain as a simulation actor
//!   (border routers + MIGP + MASC + data plane + delivery log);
//! * [`internet`] — building a runnable internet from a
//!   [`topology::DomainGraph`] and orchestrating group sessions;
//! * [`trees`] — analytic tree construction for the figure-4 study;
//! * [`analysis`] — extraction and verification of protocol state
//!   (tree invariants, G-RIB sizes, exact-once delivery).

pub mod analysis;
pub mod chaos;
pub mod domain;
pub mod internet;
pub mod invariants;
pub mod trees;

pub use domain::{BorderRouter, DataPacket, DeliveryLog, DomainActor, HostId, Wire};
pub use internet::{
    asn_of, domain_actors, domain_of, Addressing, BorderPlan, Internet, InternetConfig,
    SNAP_KIND_INTERNET,
};
pub use invariants::Violation;
pub use trees::{compare_trees, compare_trees_full, BidirTree, PathLengths, TreeComparison};
