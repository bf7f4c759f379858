//! Multicast address-space substrate for the MASC/BGMP reproduction.
//!
//! This crate provides the address arithmetic the MASC protocol (and the
//! G-RIB in the BGP substrate) is built on:
//!
//! * [`prefix`] — class-D addresses and contiguous-mask prefixes with
//!   the buddy/split/first-sub-prefix operations of the paper's claim
//!   algorithm (§4.3.3);
//! * [`space`] — free-space tracking over a root prefix (largest free
//!   blocks, claim candidates, doubling checks);
//! * [`block`] — the intra-domain (MAAS-side) first-fit block allocator
//!   with active/inactive prefixes;
//! * [`lifetimes`] — expiry-ordered lease tables (§4.3.1);
//! * [`kampai`] — non-contiguous-mask ranges (the paper's suggested
//!   Kampai extension, used by the utilization ablation).
//!
//! Everything here is pure data structure: no I/O, no clock, no
//! randomness, so the same code serves the deterministic simulator and
//! the TCP border-router host.

pub mod block;
pub mod kampai;
pub mod lifetimes;
pub mod prefix;
pub mod space;

pub use block::{BlockAllocator, OwnedPrefix};
pub use lifetimes::{LeaseTable, LifetimePool, Secs};
pub use prefix::{McastAddr, Prefix, PrefixError};
pub use space::{FreeSpace, SpaceTracker};
