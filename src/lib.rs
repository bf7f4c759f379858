//! # masc-bgmp — a reproduction of the MASC/BGMP architecture
//!
//! This is a from-scratch Rust implementation of *The MASC/BGMP
//! Architecture for Inter-domain Multicast Routing* (Kumar,
//! Radoslavov, Thaler, Alaettinoglu, Estrin, Handley; SIGCOMM 1998):
//!
//! * **MASC** — hierarchical, decentralized multicast address
//!   allocation by claim–collide ([`masc`]);
//! * **BGMP** — bidirectional inter-domain shared trees rooted at each
//!   group's root domain, with source-specific branches ([`bgmp`]);
//! * the **BGP substrate** carrying group routes between them
//!   ([`bgp`]), five intra-domain multicast protocols ([`migp`]), the
//!   address arithmetic ([`mcast_addr`]), a deterministic
//!   discrete-event simulator ([`simnet`]), AS-level topologies
//!   ([`topology`]), and the integrated architecture gluing it all
//!   together ([`core`]);
//! * the same domain actor over real TCP, one thread per domain
//!   behind a socket shell ([`actors`]).
//!
//! Quick start (see `examples/quickstart.rs` for the runnable
//! version):
//!
//! ```
//! use masc_bgmp::core::{Addressing, BorderPlan, HostId, Internet, InternetConfig};
//! use masc_bgmp::migp::MigpKind;
//! use masc_bgmp::topology::{hierarchical, HierSpec};
//!
//! // A small provider hierarchy with live BGP + BGMP + DVMRP.
//! let h = hierarchical(&HierSpec { fanouts: vec![2, 2], mesh_top: true });
//! let cfg = InternetConfig {
//!     migp: MigpKind::Dvmrp,
//!     borders: BorderPlan::PerEdge,
//!     addressing: Addressing::Static,
//!     ..Default::default()
//! };
//! let mut net = Internet::build(h.graph.clone(), &cfg);
//! net.converge();
//!
//! // A group rooted in the first child domain; a member elsewhere.
//! let root = h.levels[1][0];
//! let g = net.group_addr(root);
//! let member = HostId { domain: masc_bgmp::core::asn_of(h.levels[1][3]), host: 1 };
//! net.host_join(member, g);
//! net.converge();
//!
//! // A non-member sender reaches the member through the shared tree.
//! let sender = HostId { domain: masc_bgmp::core::asn_of(h.levels[0][1]), host: 7 };
//! let id = net.send_data(sender, g);
//! net.converge();
//! assert_eq!(net.deliveries(id), vec![member]);
//! ```

pub use bgmp;
pub use bgp;
pub use bier;
pub use masc;
pub use masc_bgmp_actors as actors;
pub use masc_bgmp_core as core;
pub use mcast_addr;
pub use metrics;
pub use migp;
pub use simnet;
pub use snapshot;
pub use topology;
