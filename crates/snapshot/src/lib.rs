//! Deterministic state capture and resume for the MASC/BGMP stack.
//!
//! The paper's long-horizon behaviour (48 h collision waits, 30-day
//! lease lifetimes, 800-day figure-2 runs) makes monolithic re-runs the
//! dominant debugging cost: a chaos schedule that violates an invariant
//! at hour 40 forces a replay from tick zero. This crate is the
//! checkpoint plane that removes that cost:
//!
//! * [`codec`] — a canonical, versioned, length-prefixed byte encoding
//!   (no serde: the workspace builds against offline vendor stubs, and
//!   a hand-rolled codec keeps the format auditable and stable);
//! * [`Snapshot`] / [`SnapshotState`] — the two capture traits. Every
//!   state-bearing crate (`simnet`, `bgp`, `bgmp`, `masc`, `mcast-addr`,
//!   `migp`, `core`) implements them for its own types, with private
//!   field access and no orphan-rule contortions — this crate is a leaf
//!   dependency. A plain-data type writes `#[derive(Snapshot)]` (the
//!   derive of the same name, from `snapshot-derive`): each field in
//!   declaration order, an enum's declaration index as its `u8` tag. A
//!   type that skips, recomputes or validates a field, or is generic,
//!   implements the trait by hand;
//! * [`bisect`](mod@bisect) — O(log T) localisation of a failing invariant to one
//!   checkpoint interval, generic over how checkpoints are resumed and
//!   replayed.
//!
//! # Determinism contract
//!
//! The whole design rests on the workspace's replay guarantee: a
//! simulation is a pure function of (topology, config, seed). A
//! snapshot therefore only captures *dynamic* state — event queue, RNG
//! stream position, protocol tables, counters — and resume rebuilds the
//! static side (wiring maps, fault predicates, configs) by running the
//! same constructor path as tick zero. The contract is
//! `run(0→T2) == checkpoint(T1) + resume(T1→T2)`, byte-identical.
//!
//! Decoding is total: malformed, truncated, or corrupt input surfaces
//! as a [`SnapError`], never a panic ([`codec`] denies clippy's
//! panicking lints).

pub mod bisect;
pub mod codec;
mod interned;

pub use bisect::{bisect, BisectReport, Probe};
pub use codec::{Dec, Enc, SnapError, FORMAT_VERSION, MAGIC};
pub use snapshot_derive::Snapshot;

/// A value type with a canonical byte encoding.
///
/// Implementations must be *deterministic* (identical state encodes to
/// identical bytes — iterate ordered containers only) and *total* on
/// decode (corrupt input returns `Err`, never panics).
pub trait Snapshot: Sized {
    /// Appends this value's canonical encoding.
    fn encode(&self, enc: &mut Enc);

    /// Decodes one value, consuming exactly what [`Snapshot::encode`]
    /// wrote.
    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError>;
}

/// A stateful component restored *onto* a freshly rebuilt instance.
///
/// Used by types that cannot be decoded from bytes alone — actors
/// holding trait objects, function pointers, or wiring derived from
/// topology. The host rebuilds the instance exactly as at tick zero
/// (same constructor path, same config) and then overwrites its dynamic
/// state from the snapshot.
pub trait SnapshotState {
    /// Appends the dynamic state's canonical encoding.
    fn encode_state(&self, enc: &mut Enc);

    /// Restores dynamic state onto `self`, consuming exactly what
    /// [`SnapshotState::encode_state`] wrote.
    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError>;
}
