//! A simplified BGP substrate with multiprotocol route types.
//!
//! The paper uses BGP as the glue between MASC and BGMP (§2, §4.2):
//! MASC-claimed ranges are injected as *group routes*, propagated with
//! the same policy machinery as unicast routes, and collected into the
//! G-RIB that BGMP consults to find the next hop toward a group's root
//! domain. This crate implements exactly that slice of BGP:
//!
//! * [`route`] — NLRI (domain reachability + group routes), path
//!   attributes, deterministic preference order;
//! * [`rib`] — Adj-RIB-In / Loc-RIB with longest-prefix-match G-RIB
//!   queries;
//! * [`policy`] — provider/customer export rules and peer
//!   relationships;
//! * [`aggregate`](mod@aggregate) — CIDR aggregation of group routes (§4.3.2);
//! * [`msg`] — update/withdraw messages;
//! * [`speaker`] — the sans-io speaker engine shared by the simulator
//!   and the TCP border-router host.

pub mod aggregate;
pub mod msg;
mod paths;
pub mod policy;
pub mod rib;
pub mod route;
pub mod session;
pub mod speaker;
pub mod trie;

pub use aggregate::aggregate;
pub use msg::{BgpMsg, OutMsg};
pub use policy::{ExportPolicy, PeerConfig, PeerRel, RouteSourceKind};
pub use rib::Rib;
pub use route::{AsPath, Asn, Nlri, Route, RouterId};
pub use session::{Session, SessionAction, SessionEvent, SessionState, SessionTimers};
pub use speaker::{BgpEvent, BgpSpeaker};
pub use trie::PrefixTrie;
