//! The MASC/BGMP border-router host over real TCP.
//!
//! One thread per domain runs the simulator's own
//! [`masc_bgmp_core::DomainActor`] in a one-domain engine, behind a
//! socket shell: the persistent peering connections §5.2 of the paper
//! describes carry the simulator's [`masc_bgmp_core::Wire`] messages.
//! The actor knows nothing of its transport; the shell turns frames,
//! connection changes and ticks into engine events.
//!
//! * [`codec`] — length-delimited framing of snapshot bytes;
//! * `conn` — the shell's clock, acceptor, dialers and one reader per
//!   peering connection (the hello handshake, then frames);
//! * [`router_task`] — the per-domain shell around the engine;
//! * [`harness`] — a localhost internet built from a
//!   [`topology::DomainGraph`], and its host-level API.

pub mod codec;
mod conn;
pub mod harness;
pub mod router_task;

pub use harness::{config, ActorNet, View};
pub use router_task::RouterHandle;
