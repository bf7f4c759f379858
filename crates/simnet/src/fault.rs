//! Deterministic fault injection: lossy links and failing nodes.
//!
//! The paper's robustness story (BGMP tree repair after peer loss,
//! MASC claim–collide under message loss) only means something if the
//! chaos itself is reproducible. This module therefore injects every
//! fault from the sending node's seeded RNG stream:
//!
//! * **per-link [`FaultModel`]s** — independent message loss,
//!   duplication, and bounded-jitter re-enqueue (reordering) applied at
//!   send time in [`Ctx::send`](crate::node::Ctx::send);
//! * **scheduled link flaps** — the existing
//!   [`Engine::schedule_partition`](crate::engine::Engine::schedule_partition)
//!   events, usually driven from a seeded chaos plan;
//! * **node crash/restart** — fail-stop semantics via
//!   [`Engine::schedule_crash`](crate::engine::Engine::schedule_crash):
//!   while a node is down the engine blackholes its messages and
//!   suppresses its timers; on restart the node's
//!   [`Node::on_restart`](crate::node::Node::on_restart) hook runs.
//!
//! # Determinism contract
//!
//! Fault decisions draw from the sender's RNG in a fixed order per send
//! (loss, then jitter, then duplication, then the duplicate's jitter),
//! and **only** when the link's model is active and the message class
//! is faultable. A run with no models configured performs zero draws,
//! so enabling the fault plane for one link leaves every other
//! simulation byte-identical. No wall-clock time and no ambient RNG is
//! consulted anywhere (repolint's `wall-clock`/`ambient-rng` rules
//! cover this module like the rest of `simnet`).
//!
//! The faultable-class filter is a plain `fn(&M) -> bool`, not a
//! closure, so a fault plane carries no hidden captured state. Harness
//! code uses it to model transport semantics: messages that ride a
//! reliable transport (e.g. BGP/BGMP updates over TCP) are exempt from
//! loss, while liveness probes and data packets are fair game.

use std::collections::{BTreeMap, BTreeSet};

use snapshot::Snapshot;

use crate::link::LinkKey;
use crate::node::NodeId;

/// Per-link fault model. Probabilities are independent per message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability a message is silently lost.
    pub loss: f64,
    /// Probability a message is delivered twice.
    pub dup: f64,
    /// Maximum extra delivery delay in ms (uniform in `0..=jitter_ms`),
    /// drawn per copy — this is what produces reordering.
    pub jitter_ms: u64,
}

impl FaultModel {
    /// The identity model: no faults, and — critically — no RNG draws.
    pub const NONE: FaultModel = FaultModel {
        loss: 0.0,
        dup: 0.0,
        jitter_ms: 0,
    };

    /// A pure-loss model.
    pub fn lossy(loss: f64) -> Self {
        FaultModel {
            loss,
            dup: 0.0,
            jitter_ms: 0,
        }
    }

    /// Does this model inject nothing (and therefore draw nothing)?
    pub fn is_none(&self) -> bool {
        self.loss <= 0.0 && self.dup <= 0.0 && self.jitter_ms == 0
    }
}

/// Counters for every fault the plane has injected.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultStats {
    /// Messages dropped by a loss model.
    pub lost: u64,
    /// Extra copies enqueued by a duplication model.
    pub duplicated: u64,
    /// Copies delivered late by a non-zero jitter draw.
    pub jittered: u64,
    /// Messages blackholed because the recipient was crashed.
    pub dropped_at_down_node: u64,
    /// Timer firings suppressed on crashed nodes.
    pub timers_suppressed: u64,
    /// NodeDown events processed.
    pub crashes: u64,
    /// NodeUp events processed.
    pub restarts: u64,
}

fn faultable_default<M>(_: &M) -> bool {
    true
}

/// The engine's fault state: per-link models, the crashed-node set,
/// the faultable-class filter, and injection counters.
pub struct FaultPlane<M> {
    default_model: FaultModel,
    per_link: BTreeMap<LinkKey, FaultModel>,
    down: BTreeSet<NodeId>,
    // lint:allow(snapshot-field-coverage) — fn-pointer filter, volatile by design; resume keeps the rebuilt plane's filter
    pub(crate) faultable: fn(&M) -> bool,
    pub(crate) stats: FaultStats,
}

impl<M> Default for FaultPlane<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> FaultPlane<M> {
    /// An inert fault plane (all models [`FaultModel::NONE`], every
    /// message class faultable).
    pub fn new() -> Self {
        FaultPlane {
            default_model: FaultModel::NONE,
            per_link: BTreeMap::new(),
            down: BTreeSet::new(),
            faultable: faultable_default::<M>,
            stats: FaultStats::default(),
        }
    }

    /// Sets the model applied to links without a per-link override.
    pub fn set_default_model(&mut self, model: FaultModel) {
        self.default_model = model;
    }

    /// Sets (or, with [`FaultModel::NONE`], effectively clears) the
    /// model for the link between `a` and `b`.
    pub fn set_link_model(&mut self, a: NodeId, b: NodeId, model: FaultModel) {
        self.per_link.insert(LinkKey::new(a, b), model);
    }

    /// Removes every configured model (faults cease; RNG draws stop).
    pub fn clear_models(&mut self) {
        self.default_model = FaultModel::NONE;
        self.per_link.clear();
    }

    /// The model in effect for the link between `a` and `b`.
    pub fn model_for(&self, a: NodeId, b: NodeId) -> FaultModel {
        self.per_link
            .get(&LinkKey::new(a, b))
            .copied()
            .unwrap_or(self.default_model)
    }

    /// Restricts fault injection to messages for which `f` returns
    /// true (e.g. exempting reliable-transport control traffic).
    pub fn set_faultable(&mut self, f: fn(&M) -> bool) {
        self.faultable = f;
    }

    /// Is `node` currently crashed?
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// The currently crashed nodes.
    pub fn down_nodes(&self) -> &BTreeSet<NodeId> {
        &self.down
    }

    /// Injection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    pub(crate) fn mark_down(&mut self, node: NodeId) {
        if self.down.insert(node) {
            self.stats.crashes += 1;
        }
    }

    /// Marks `node` as restarted; true if it was down.
    pub(crate) fn mark_up(&mut self, node: NodeId) -> bool {
        let was_down = self.down.remove(&node);
        if was_down {
            self.stats.restarts += 1;
        }
        was_down
    }
}

impl<M> snapshot::SnapshotState for FaultPlane<M> {
    /// Captures models, the crashed-node set, and counters. The
    /// faultable-class filter is a plain `fn` pointer derived from the
    /// harness's message type — volatile by design; resume keeps
    /// whatever filter the rebuilt plane was configured with.
    fn encode_state(&self, enc: &mut snapshot::Enc) {
        self.default_model.encode(enc);
        self.per_link.encode(enc);
        self.down.encode(enc);
        self.stats.encode(enc);
    }

    fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), snapshot::SnapError> {
        self.default_model = FaultModel::decode(dec)?;
        self.per_link = Snapshot::decode(dec)?;
        self.down = Snapshot::decode(dec)?;
        self.stats = FaultStats::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_link_model_overrides_default() {
        let mut fp: FaultPlane<u32> = FaultPlane::new();
        fp.set_default_model(FaultModel::lossy(0.5));
        fp.set_link_model(NodeId(0), NodeId(1), FaultModel::NONE);
        assert!(fp.model_for(NodeId(1), NodeId(0)).is_none());
        assert_eq!(fp.model_for(NodeId(0), NodeId(2)).loss, 0.5);
        fp.clear_models();
        assert!(fp.model_for(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn down_set_tracks_crash_and_restart() {
        let mut fp: FaultPlane<u32> = FaultPlane::new();
        fp.mark_down(NodeId(3));
        fp.mark_down(NodeId(3)); // idempotent
        assert!(fp.is_down(NodeId(3)));
        assert_eq!(fp.stats().crashes, 1);
        assert!(fp.mark_up(NodeId(3)));
        assert!(!fp.mark_up(NodeId(3)));
        assert_eq!(fp.stats().restarts, 1);
    }

    #[test]
    fn none_model_is_none() {
        assert!(FaultModel::NONE.is_none());
        assert!(!FaultModel::lossy(0.1).is_none());
        assert!(!FaultModel {
            loss: 0.0,
            dup: 0.0,
            jitter_ms: 5
        }
        .is_none());
    }
}
