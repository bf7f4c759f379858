//! Inter-domain (AS-level) topology substrate.
//!
//! * [`graph`] — the domain graph with provider/customer/peer edges;
//! * [`routing`] — hop-count BFS and valley-free policy routing;
//! * [`gen_hier`] — regular provider hierarchies (the paper's 50×50
//!   figure-2 topology and deeper variants);
//! * [`gen_internet`] — Internet-like graphs for the figure-4 tree
//!   quality study (substitute for the paper's 1998 BGP-dump topology,
//!   see DESIGN.md);
//! * [`hierarchy`] — MASC parent selection heuristics (§4);
//! * [`schedule`] — the fault + traffic schedule the forwarding planes
//!   are compared under (shared by `core::chaos` and `bier::sim`).

pub mod gen_hier;
pub mod gen_internet;
pub mod graph;
pub mod hierarchy;
pub mod routing;
pub mod schedule;

pub use gen_hier::{hierarchical, HierSpec, Hierarchy};
pub use gen_internet::{internet_like, InternetSpec};
pub use graph::{DomainGraph, DomainId, Rel};
pub use hierarchy::MascHierarchy;
pub use routing::{bfs, bfs_first_hops, hop_dist, policy_bfs, PolicyDists, SpTree};
pub use schedule::{ChaosSchedule, LinkWindow, NodeWindow};
