//! Node identity and the actor trait driven by the engine.

use std::any::Any;

use rand::rngs::StdRng;
use rand::Rng;

use crate::event::{Event, EventQueue};
use crate::fault::FaultPlane;
use crate::link::LinkTable;
use crate::time::{SimDuration, SimTime};

/// Identifies a node registered with the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Pseudo-sender for messages injected from outside the simulation
    /// (test drivers, workload generators).
    pub const EXTERNAL: NodeId = NodeId(usize::MAX);
}

/// An actor in the simulation. Implementations are plain state
/// machines: all effects go through the [`Ctx`], which keeps them
/// deterministic and replayable.
///
/// `Node` requires `Any` so simulations can downcast registered nodes
/// back to their concrete type for inspection
/// (see `Engine::node_as`).
pub trait Node<M>: Any {
    /// A message sent by another node (or injected externally) has
    /// arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A timer set via [`Ctx::set_timer`] has fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _key: u64) {}

    /// Called once when the simulation starts (before any event).
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Called when the node restarts after a scheduled crash (see
    /// `Engine::schedule_crash`). Messages and timers addressed to the
    /// node while it was down were blackholed, so implementations
    /// should re-arm timers and re-announce state here.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_, M>) {}
}

/// The effect interface handed to a node while it handles an event.
///
/// Every effect the node emits is keyed `(time, rank, seq)` — rank is
/// the node's id + 1 (0 is reserved for external injections), seq its
/// private emit counter — so its place in the global order is a
/// function of who emitted it, not of when it reached the queue.
pub struct Ctx<'a, M> {
    pub(crate) id: NodeId,
    pub(crate) now: SimTime,
    pub(crate) queue: &'a mut EventQueue<M>,
    pub(crate) links: &'a LinkTable,
    pub(crate) rng: &'a mut StdRng,
    /// The handling node's monotone emit counter.
    pub(crate) emit: &'a mut u64,
    pub(crate) faults: &'a mut FaultPlane<M>,
    pub(crate) dropped: &'a mut u64,
}

impl<'a, M> Ctx<'a, M> {
    /// Enqueues `ev` under this node's next key.
    #[inline]
    fn enqueue(&mut self, at: SimTime, ev: Event<M>) {
        let (rank, seq) = (self.id.0 as u64 + 1, *self.emit);
        *self.emit += 1;
        self.queue.push(at, rank, seq, ev);
    }

    #[inline]
    fn push_msg(&mut self, at: SimTime, to: NodeId, msg: M) {
        let from = self.id;
        self.enqueue(at, Event::Message { from, to, msg });
    }

    /// The handling node's own id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to` over the (implicit or configured) link.
    /// If the link is down the message is silently dropped — partition
    /// semantics per §4.1 — and the engine's drop counter increments.
    /// If the link carries an active [`FaultModel`] and the message
    /// class is faultable, loss/duplication/jitter are applied here
    /// (see [`crate::fault`] for the draw-order contract).
    ///
    /// [`FaultModel`]: crate::fault::FaultModel
    pub fn send(&mut self, to: NodeId, msg: M)
    where
        M: Clone,
    {
        self.send_after(SimDuration::ZERO, to, msg);
    }

    /// Sends with an explicit extra delay on top of link latency
    /// (e.g. modelling processing time).
    pub fn send_after(&mut self, delay: SimDuration, to: NodeId, msg: M)
    where
        M: Clone,
    {
        if !self.links.is_up(self.id, to) {
            *self.dropped += 1;
            return;
        }
        let at = self.now + self.links.latency(self.id, to) + delay;
        let model = self.faults.model_for(self.id, to);
        if model.is_none() || !(self.faults.faultable)(&msg) {
            self.push_msg(at, to, msg);
            return;
        }
        // Fault draws happen in a fixed order — loss, primary jitter,
        // duplication, duplicate jitter — and each draw only when its
        // knob is non-zero, so a given model consumes a stable slice
        // of the RNG stream per send.
        if model.loss > 0.0 && self.rng.gen_bool(model.loss) {
            self.faults.stats.lost += 1;
            return;
        }
        let mut primary_at = at;
        if model.jitter_ms > 0 {
            let j = self.rng.gen_range(0..=model.jitter_ms);
            if j > 0 {
                self.faults.stats.jittered += 1;
            }
            primary_at += SimDuration::from_millis(j);
        }
        if model.dup > 0.0 && self.rng.gen_bool(model.dup) {
            let mut dup_at = at;
            if model.jitter_ms > 0 {
                let j = self.rng.gen_range(0..=model.jitter_ms);
                if j > 0 {
                    self.faults.stats.jittered += 1;
                }
                dup_at += SimDuration::from_millis(j);
            }
            self.faults.stats.duplicated += 1;
            self.push_msg(dup_at, to, msg.clone());
        }
        self.push_msg(primary_at, to, msg);
    }

    /// Schedules `on_timer(key)` on this node after `delay`.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, key: u64) {
        let node = self.id;
        self.enqueue(self.now + delay, Event::Timer { node, key });
    }

    /// The handling node's own seeded RNG stream
    /// (`seed ^ splitmix64(id)`): draws depend only on the events this
    /// node has handled, never on what other nodes drew.
    pub fn rng(&mut self) -> &mut impl Rng {
        self.rng
    }

    /// Is the link from this node to `to` currently up?
    pub fn link_up(&self, to: NodeId) -> bool {
        self.links.is_up(self.id, to)
    }
}
