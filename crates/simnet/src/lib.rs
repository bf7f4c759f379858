//! A deterministic discrete-event network simulator.
//!
//! This is the substrate every protocol simulation in the MASC/BGMP
//! reproduction runs on. Design follows the event-driven ethos of the
//! session's networking guides (smoltcp): a poll-style core, no hidden
//! global state, all randomness from seeded per-node streams, so that every
//! figure in `EXPERIMENTS.md` is reproducible bit-for-bit.
//!
//! * [`time`] — millisecond-resolution virtual clock types;
//! * [`event`] — the time-ordered queue (ties broken by a
//!   `(rank, seq)` key that names the event's source);
//! * [`fault`] — deterministic fault injection (loss, duplication,
//!   jitter reordering, crash/restart), each send drawing from the
//!   sending node's seeded stream;
//! * [`link`] — per-pair latency and up/down (partition) state;
//! * [`node`] — the actor trait and its effect context;
//! * [`engine`] — the dispatcher: register nodes, inject workload,
//!   run; one queue, one thread, byte-deterministic.

pub mod engine;
pub mod event;
pub mod fault;
pub mod link;
pub mod node;
pub mod time;
pub mod trace;

pub use engine::{Engine, EngineStats, ScheduleError, SNAP_KIND_ENGINE};
pub use event::{Event, EventQueue, WHEEL_SPAN};
pub use fault::{FaultModel, FaultPlane, FaultStats};
pub use link::{Link, LinkKey, LinkTable};
pub use node::{Ctx, Node, NodeId};
pub use time::{SimDuration, SimTime};
pub use trace::Trace;
