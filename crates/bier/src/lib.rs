//! BIER / BIER-TE stateless bitstring forwarding over the inter-domain
//! topology — the third architecture in the multicast-scalability
//! ablation (ROADMAP item 2).
//!
//! The paper's core tension is per-group tree state at border routers
//! (BGMP shared trees) against multicast address-space burn (MASC).
//! The modern answer to the *state* half of that tension is Bit Index
//! Explicit Replication (RFC 8279): the ingress router encodes the
//! receiver set as a bitstring in the packet header, and transit
//! routers forward by ANDing that bitstring against a Bit Index
//! Forwarding Table (BIFT) derived purely from unicast routing — no
//! per-group, per-tree, or per-flow state anywhere but the ingress.
//!
//! What this crate models (and what it deliberately simplifies vs
//! RFC 8279 / RFC 8296 — see DESIGN.md §14):
//!
//! * [`bitstring`] — bitstrings, 1-based BFR-ids, and the
//!   sub-domain/set partitioning that keeps headers bounded when the
//!   domain count exceeds the bitstring length (SI = (id-1)/BSL, one
//!   packet copy per set touched);
//! * [`bift`] — the BIFT: per destination bit, the forwarding bit mask
//!   (F-BM) and neighbor, derived from [`topology::bfs_first_hops`]
//!   (the M-RIB's unicast next hops on these topologies);
//! * [`forward`] — hop-by-hop forwarding of a bitstring packet across
//!   a network of BIFTs, with per-receiver hop counts, link-copy
//!   accounting, and exactly-once delivery by construction;
//! * [`protect`] — BIER-TE-style 1:1 link protection (per-adjacency
//!   precomputed backup *paths*, used after a fixed detection delay
//!   instead of a routing reconvergence);
//! * [`state`] — [`Plane`], the closed list of architectures compared
//!   (BGMP shared tree, BIER, map-and-encap ingress replication) and
//!   the state / traffic / repair model each one owns;
//! * [`sim`] — a deterministic analytic replay of the shared
//!   `topology::ChaosSchedule` through the stateless planes, yielding
//!   delivery ratio and recovery time for the fault ablation;
//! * [`msg`] — the wire codec for BIER messages in the house style
//!   (total decode; clippy's panicking lints denied);
//! * [`snap`] — `Snapshot`/`SnapshotState` impls and the checkpoint
//!   kind tag, so checkpoints carry BIER plane state like everything
//!   else.

pub mod bift;
pub mod bitstring;
pub mod forward;
pub mod msg;
pub mod protect;
pub mod sim;
pub mod snap;
pub mod state;

pub use bift::Bift;
pub use bitstring::{BfrId, BitString, SetId, SubDomain, DEFAULT_BSL};
pub use forward::{Delivery, Network};
pub use msg::BierMsg;
pub use protect::Protection;
pub use sim::{replay, ReplayOutcome};
pub use snap::{BierPlane, SNAP_KIND_BIER};
pub use state::Plane;
