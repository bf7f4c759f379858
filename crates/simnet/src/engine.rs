//! The discrete-event engine tying nodes, links, and the queue together.
//!
//! There is one engine, one queue and one thread: every registered
//! node sits in a slot indexed by its [`NodeId`], every pending event
//! in one bucket-wheel [`EventQueue`], and a run is a plain
//! pop-and-dispatch loop on the caller's thread. Parallelism lives a
//! level up, over independent simulations (`bench::par`), where it
//! needs no synchronisation at all.
//!
//! # The determinism contract
//!
//! 1. **Keys.** Every event carries a `(time, rank, seq)` key: rank is
//!    the source node's id + 1 (0 for external injections), seq the
//!    source's private emit counter (one engine-wide counter for
//!    external injections). The queue pops in key order whatever the
//!    push order was, so same-tick order is a function of *who sent
//!    what*, never of how the queue happened to be filled.
//! 2. **RNG.** Each node owns a `StdRng` seeded from
//!    `seed ^ splitmix64(id)`; fault draws for a send use the sending
//!    node's stream. No draw order is shared across nodes, so the
//!    order in which *different* nodes run cannot leak into results.
//!
//! Popping the single queue in key order *is* the global order, so
//! zero-latency links (a send that lands in the tick being drained)
//! are legal. Neither rule mentions how nodes are laid out in memory:
//! an engine that spread them over several queues would, on the same
//! keys and streams, deliver the same per-node event sequences. One
//! was built (conservative-lookahead windows) and removed because it
//! never measured above 1×; DESIGN.md §13 has the numbers and what
//! bringing it back would take.

use std::any::Any;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snapshot::{SnapError, Snapshot, SnapshotState};

use crate::event::{Event, EventQueue};
use crate::fault::FaultPlane;
use crate::link::LinkTable;
use crate::node::{Ctx, Node, NodeId};
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;

/// Snapshot kind tag for an [`Engine`] checkpoint.
pub const SNAP_KIND_ENGINE: u16 = 1;

/// A rejected fault-schedule request. Returned instead of silently
/// mis-scheduling: a release build used to accept a backwards window
/// (`until < at`) and enqueue a heal *before* its failure, leaving the
/// link down or the node crashed forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The recovery time precedes the failure time.
    BackwardsWindow {
        /// Scheduled failure time.
        at: SimTime,
        /// Scheduled recovery time (earlier than `at`).
        until: SimTime,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::BackwardsWindow { at, until } => write!(
                f,
                "backwards fault window: recovery at {} precedes failure at {}",
                until.0, at.0
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Running counters maintained by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Messages delivered to a node's `on_message`.
    pub delivered: u64,
    /// Messages dropped because the link was down at send time.
    pub dropped: u64,
    /// Timer firings dispatched.
    pub timers: u64,
    /// Events processed in total.
    pub events: u64,
}

/// splitmix64 finalizer — the same per-stream seed derivation the
/// bench harness uses for task seeds, here keyed by node id.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The node a message or timer event is delivered to.
fn target<M>(ev: &Event<M>) -> NodeId {
    match ev {
        Event::Message { to, .. } => *to,
        Event::Timer { node, .. } => *node,
        _ => unreachable!("only messages and timers are delivered to a node"),
    }
}

fn trace_line<M>(ev: &Event<M>) -> String {
    match ev {
        Event::Message { from, to, .. } => format!("msg {}->{}", from.0, to.0),
        Event::Timer { node, key } => format!("timer node={} key={key}", node.0),
        Event::LinkDown(a, b) => format!("link down {}-{}", a.0, b.0),
        Event::LinkUp(a, b) => format!("link up {}-{}", a.0, b.0),
        Event::NodeDown(n) => format!("node down {}", n.0),
        Event::NodeUp(n) => format!("node up {}", n.0),
    }
}

/// A registered node with the two pieces of per-node engine state the
/// determinism contract rests on.
struct Slot<M> {
    /// `None` only while the node is handling an event.
    node: Option<Box<dyn Node<M> + Send>>,
    /// The node's private RNG stream.
    rng: StdRng,
    /// The node's emit counter: the `seq` of the next event it emits.
    emit: u64,
}

/// A deterministic discrete-event simulator over message type `M`.
///
/// Typical use: register nodes, configure links (or rely on the default
/// latency), call [`Engine::start`], inject workload via
/// [`Engine::schedule_message`], then [`Engine::run_until`] /
/// [`Engine::run_until_idle`]. See the module docs for the execution
/// and determinism model.
pub struct Engine<M> {
    /// Registered nodes, indexed by [`NodeId`].
    slots: Vec<Slot<M>>,
    queue: EventQueue<M>,
    links: LinkTable,
    faults: FaultPlane<M>,
    stats: EngineStats,
    /// Time of the last event dispatched, or the end of the last
    /// [`Engine::run_until`] slice if that is later.
    now: SimTime,
    seed: u64,
    /// Sequence counter for externally injected events (rank 0).
    ext_seq: u64,
    started: bool,
    /// Dispatch-level event trace; `None` (the default) costs nothing.
    trace: Option<Trace>,
}

impl<M: Send + 'static> Engine<M> {
    /// Creates an engine with the given RNG seed and default link
    /// latency for unconfigured links.
    pub fn new(seed: u64, default_latency: SimDuration) -> Self {
        Engine {
            slots: Vec::new(),
            queue: EventQueue::new(),
            links: LinkTable::new(default_latency),
            faults: FaultPlane::new(),
            stats: EngineStats::default(),
            now: SimTime::ZERO,
            seed,
            ext_seq: 0,
            started: false,
            trace: None,
        }
    }

    /// Enables the dispatch-level event trace, retaining the last
    /// `cap` lines. Tracing only changes what is recorded, never the
    /// schedule, so enabling it cannot perturb a deterministic run.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace = Some(Trace::new(cap));
    }

    /// The dispatch trace, if enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Registers a node, returning its (sequential) id.
    pub fn add_node(&mut self, node: Box<dyn Node<M> + Send>) -> NodeId {
        let id = self.slots.len();
        self.slots.push(Slot {
            node: Some(node),
            rng: StdRng::seed_from_u64(self.seed ^ splitmix64(id as u64)),
            emit: 0,
        });
        NodeId(id)
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Immutable access to a node downcast to its concrete type.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        let node = self.slots.get(id.0)?.node.as_deref()?;
        (node as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to a node downcast to its concrete type.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        let node = self.slots.get_mut(id.0)?.node.as_deref_mut()?;
        (node as &mut dyn Any).downcast_mut::<T>()
    }

    /// The link table, for configuration.
    pub fn links_mut(&mut self) -> &mut LinkTable {
        &mut self.links
    }

    /// The link table, read-only.
    pub fn links(&self) -> &LinkTable {
        &self.links
    }

    /// The fault-injection plane, for configuration.
    pub fn faults_mut(&mut self) -> &mut FaultPlane<M> {
        &mut self.faults
    }

    /// The fault-injection plane, read-only.
    pub fn faults(&self) -> &FaultPlane<M> {
        &self.faults
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Pending event count (diagnostics).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues an external injection: rank 0, engine-wide sequence.
    fn inject(&mut self, at: SimTime, ev: Event<M>) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.ext_seq;
        self.ext_seq += 1;
        self.queue.push(at, 0, seq, ev);
    }

    /// Injects a message from [`NodeId::EXTERNAL`] to `to` at absolute
    /// time `at` (must not be in the past).
    pub fn schedule_message(&mut self, at: SimTime, to: NodeId, msg: M) {
        self.schedule_message_from(at, NodeId::EXTERNAL, to, msg);
    }

    /// Injects a message with an explicit sender. Still an external
    /// injection for ordering purposes (rank 0).
    pub fn schedule_message_from(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        self.inject(at, Event::Message { from, to, msg });
    }

    /// Schedules a timer firing on `node` at absolute time `at`.
    pub fn schedule_timer(&mut self, at: SimTime, node: NodeId, key: u64) {
        self.inject(at, Event::Timer { node, key });
    }

    /// Schedules the link between `a` and `b` to fail at `at` and
    /// recover at `until` (a network partition of one link).
    ///
    /// A backwards window (`until < at`) is rejected deterministically
    /// — nothing is enqueued — instead of silently scheduling a heal
    /// before its failure (which left the link down forever in release
    /// builds, where the old `debug_assert!` compiled out).
    pub fn schedule_partition(
        &mut self,
        a: NodeId,
        b: NodeId,
        at: SimTime,
        until: SimTime,
    ) -> Result<(), ScheduleError> {
        if until < at {
            return Err(ScheduleError::BackwardsWindow { at, until });
        }
        self.inject(at, Event::LinkDown(a, b));
        self.inject(until, Event::LinkUp(a, b));
        Ok(())
    }

    /// Schedules `node` to crash (fail-stop) at `at` and restart at
    /// `until`. While down the node receives no messages or timers; on
    /// restart its [`Node::on_restart`] hook runs.
    ///
    /// Backwards windows are rejected like
    /// [`Engine::schedule_partition`]'s.
    pub fn schedule_crash(
        &mut self,
        node: NodeId,
        at: SimTime,
        until: SimTime,
    ) -> Result<(), ScheduleError> {
        if until < at {
            return Err(ScheduleError::BackwardsWindow { at, until });
        }
        self.inject(at, Event::NodeDown(node));
        self.inject(until, Event::NodeUp(node));
        Ok(())
    }

    /// Calls every node's `on_start` in id order (idempotent; also
    /// invoked by the first run).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.slots.len() {
            self.with_node(self.now, NodeId(id), |n, ctx| n.on_start(ctx));
        }
    }

    /// Runs all events scheduled up to and including `until`, then
    /// advances the clock to `until`.
    ///
    /// Fast path: `pop_le` locates and removes the next due event in
    /// one queue operation, so same-timestamp batches drain without a
    /// peek-then-pop double scan per event. `more_at` keeps the sparse
    /// case — one event per (timestamp, node), the bulk of timer-driven
    /// load — on the plain path: batching only engages when another
    /// same-tick event is actually pending, and consecutive same-tick
    /// events for one node are delivered in a single node borrow
    /// ([`Engine::dispatch_node_batch`]).
    pub fn run_until(&mut self, until: SimTime) {
        self.start();
        while let Some((at, event)) = self.queue.pop_le(until) {
            match event {
                ev @ (Event::Message { .. } | Event::Timer { .. }) if self.queue.more_at(at) => {
                    self.dispatch_node_batch(at, ev)
                }
                other => self.dispatch(at, other),
            }
        }
        self.now = self.now.max(until);
    }

    /// Runs until no events remain or `max_events` have been processed
    /// (a guard against livelocked protocols), leaving the clock at
    /// the last event run. Returns the number of events processed.
    /// The cap is exact and events run one at a time
    /// (`run_until_idle(1)` is a single step).
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        self.start();
        let before = self.stats.events;
        while self.stats.events - before < max_events {
            let Some((at, ev)) = self.queue.pop() else {
                break;
            };
            self.dispatch(at, ev);
        }
        self.stats.events - before
    }

    /// Dispatches one popped event.
    fn dispatch(&mut self, at: SimTime, event: Event<M>) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.stats.events += 1;
        if let Some(trace) = &mut self.trace {
            trace.push(at, trace_line(&event));
        }
        match event {
            Event::Message { from, to, msg } => {
                if self.faults.is_down(to) {
                    self.faults.stats.dropped_at_down_node += 1;
                    return;
                }
                self.stats.delivered += 1;
                self.with_node(at, to, |node, ctx| node.on_message(ctx, from, msg));
            }
            Event::Timer { node, key } => {
                if self.faults.is_down(node) {
                    self.faults.stats.timers_suppressed += 1;
                    return;
                }
                self.stats.timers += 1;
                self.with_node(at, node, |n, ctx| n.on_timer(ctx, key));
            }
            Event::LinkDown(a, b) => self.links.set_down(a, b),
            Event::LinkUp(a, b) => self.links.set_up(a, b),
            Event::NodeDown(n) => self.faults.mark_down(n),
            Event::NodeUp(n) => {
                if self.faults.mark_up(n) {
                    self.with_node(at, n, |node, ctx| node.on_restart(ctx));
                }
            }
        }
    }

    fn with_node(
        &mut self,
        at: SimTime,
        id: NodeId,
        f: impl FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>),
    ) {
        let Some(slot) = self.slots.get_mut(id.0) else {
            return; // addressed to a node that was never registered
        };
        let Some(mut node) = slot.node.take() else {
            return; // re-entrant dispatch cannot happen; treat as gone
        };
        let mut ctx = Ctx {
            id,
            now: at,
            queue: &mut self.queue,
            links: &self.links,
            rng: &mut slot.rng,
            emit: &mut slot.emit,
            faults: &mut self.faults,
            dropped: &mut self.stats.dropped,
        };
        f(node.as_mut(), &mut ctx);
        slot.node = Some(node);
    }

    /// Dispatches `first` to its target node, then drains the
    /// contiguous run of same-timestamp events for that same node
    /// without returning the node to its slot in between (one
    /// take/put-back per batch instead of per event). Pop order —
    /// and so every observable outcome — is identical to dispatching
    /// one event at a time: only the queue's head is ever taken (see
    /// [`EventQueue::pop_if_for`]). A handler cannot crash or restart
    /// a node (only scheduled events do, and those end the batch), so
    /// the down check holds for the whole batch.
    fn dispatch_node_batch(&mut self, at: SimTime, first: Event<M>) {
        let id = target(&first);
        let Some(slot) = self.slots.get_mut(id.0) else {
            return self.dispatch(at, first);
        };
        debug_assert!(at >= self.now);
        self.now = at;
        let mut node = slot.node.take();
        let down = self.faults.is_down(id);
        let mut next = Some(first);
        while let Some(ev) = next {
            self.stats.events += 1;
            if let Some(trace) = &mut self.trace {
                trace.push(at, trace_line(&ev));
            }
            let is_msg = matches!(ev, Event::Message { .. });
            match (is_msg, down) {
                (true, true) => self.faults.stats.dropped_at_down_node += 1,
                (false, true) => self.faults.stats.timers_suppressed += 1,
                (true, false) => self.stats.delivered += 1,
                (false, false) => self.stats.timers += 1,
            }
            if let (false, Some(n)) = (down, node.as_mut()) {
                let mut ctx = Ctx {
                    id,
                    now: at,
                    queue: &mut self.queue,
                    links: &self.links,
                    rng: &mut slot.rng,
                    emit: &mut slot.emit,
                    faults: &mut self.faults,
                    dropped: &mut self.stats.dropped,
                };
                match ev {
                    Event::Message { from, msg, .. } => n.on_message(&mut ctx, from, msg),
                    Event::Timer { key, .. } => n.on_timer(&mut ctx, key),
                    _ => unreachable!("batch dispatch is only for node-delivered events"),
                }
            }
            next = self.queue.pop_if_for(at, id);
        }
        slot.node = node;
    }
}

impl<M: Snapshot + Send + 'static> Engine<M> {
    /// Captures the engine's complete dynamic state as one node-major
    /// blob: clock, counters, link table, fault plane and trace, then
    /// per-node state (RNG stream, emit counter, node state) in id
    /// order, then all pending events with their keys in key order.
    /// Nothing in it depends on how the queue is laid out in memory.
    ///
    /// `N` is the concrete node type (the engine stores `dyn Node<M>`,
    /// so capture requires a homogeneous node population, which every
    /// harness in this workspace has). Call only between runs, never
    /// from inside a dispatch.
    ///
    /// Contract: `run(0→T2)` ≡ `checkpoint(T1)` + `resume(T1→T2)` —
    /// the resumed engine produces byte-identical state, stats, and
    /// fault counters to the uninterrupted run.
    pub fn checkpoint<N: Node<M> + SnapshotState>(&self) -> Result<Vec<u8>, SnapError> {
        let mut enc = snapshot::Enc::new();
        self.checkpoint_into::<N>(&mut enc)?;
        Ok(enc.finish())
    }

    /// Appends the [`Engine::checkpoint`] blob, header and all, to `enc`:
    /// a harness frames it in its own snapshot ([`snapshot::Enc::frame`]).
    pub fn checkpoint_into<N: Node<M> + SnapshotState>(
        &self,
        enc: &mut snapshot::Enc,
    ) -> Result<(), SnapError> {
        enc.header(SNAP_KIND_ENGINE);
        enc.u64(self.now.0);
        enc.u64(self.ext_seq);
        enc.bool(self.started);
        self.stats.encode(enc);
        self.links.encode(enc);
        self.faults.encode_state(enc);
        self.trace.encode(enc);
        enc.seq(self.slots.len());
        for slot in &self.slots {
            slot.rng.state().encode(enc);
            enc.u64(slot.emit);
            let node = slot
                .node
                .as_deref()
                .ok_or(SnapError::Invalid("checkpoint during dispatch"))?;
            let node = (node as &dyn Any)
                .downcast_ref::<N>()
                .ok_or(SnapError::Invalid("node is not the expected type"))?;
            node.encode_state(enc);
        }
        let mut items: Vec<_> = self.queue.items_keyed().collect();
        items.sort_unstable_by_key(|&(t, rank, seq, _)| (t, rank, seq));
        enc.seq(items.len());
        for (t, rank, seq, ev) in items {
            enc.u64(t);
            enc.u64(rank);
            enc.u64(seq);
            ev.encode(enc);
        }
        Ok(())
    }

    /// Restores the dynamic state captured by [`Engine::checkpoint`]
    /// onto this engine, which must have been rebuilt exactly as at
    /// tick zero (same topology, node count, and construction order);
    /// whatever it had queued is discarded. On error the engine is
    /// left half-restored and must be discarded.
    ///
    /// A captured trace records a `resume @ tick` marker so failure
    /// reports show the restore boundary.
    pub fn resume<N: Node<M> + SnapshotState>(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut dec = snapshot::Dec::new(bytes);
        dec.header(SNAP_KIND_ENGINE)?;
        self.now = SimTime(dec.u64()?);
        self.ext_seq = dec.u64()?;
        self.started = dec.bool()?;
        self.stats = EngineStats::decode(&mut dec)?;
        self.links = LinkTable::decode(&mut dec)?;
        self.faults.restore_state(&mut dec)?;
        self.trace = Option::<Trace>::decode(&mut dec)?;
        if let Some(trace) = &mut self.trace {
            trace.mark_resume(self.now);
        }
        if dec.seq()? != self.slots.len() {
            return Err(SnapError::Invalid("node count differs from snapshot"));
        }
        for slot in &mut self.slots {
            slot.rng = StdRng::from_state(<[u64; 4]>::decode(&mut dec)?);
            slot.emit = dec.u64()?;
            let node = slot
                .node
                .as_deref_mut()
                .ok_or(SnapError::Invalid("resume during dispatch"))?;
            let node = (node as &mut dyn Any)
                .downcast_mut::<N>()
                .ok_or(SnapError::Invalid("node is not the expected type"))?;
            node.restore_state(&mut dec)?;
        }
        self.queue = EventQueue::new();
        for _ in 0..dec.seq()? {
            let t = SimTime(dec.u64()?);
            let rank = dec.u64()?;
            let seq = dec.u64()?;
            self.queue.push(t, rank, seq, Event::decode(&mut dec)?);
        }
        dec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultModel, FaultStats};
    use rand::Rng;

    /// A node that counts pings and echoes pongs back.
    struct Echo {
        pings: u32,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Node<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
            if msg == Msg::Ping {
                self.pings += 1;
                if from != NodeId::EXTERNAL {
                    ctx.send(from, Msg::Pong);
                }
            }
        }
    }

    /// A node that pings a peer on start and counts pongs.
    struct Pinger {
        peer: NodeId,
        pongs: u32,
    }

    impl Node<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.send(self.peer, Msg::Ping);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
            if msg == Msg::Pong {
                self.pongs += 1;
            }
        }
    }

    #[test]
    fn ping_pong_roundtrip_with_latency() {
        let mut eng: Engine<Msg> = Engine::new(1, SimDuration::from_millis(10));
        let echo = eng.add_node(Box::new(Echo { pings: 0 }));
        let pinger = eng.add_node(Box::new(Pinger {
            peer: echo,
            pongs: 0,
        }));
        eng.run_until_idle(100);
        assert_eq!(eng.node_as::<Echo>(echo).unwrap().pings, 1);
        assert_eq!(eng.node_as::<Pinger>(pinger).unwrap().pongs, 1);
        // One RTT at 10 ms each way.
        assert_eq!(eng.now(), SimTime(20));
        assert_eq!(eng.stats().delivered, 2);
    }

    #[test]
    fn external_injection() {
        let mut eng: Engine<Msg> = Engine::new(1, SimDuration::from_millis(1));
        let echo = eng.add_node(Box::new(Echo { pings: 0 }));
        eng.schedule_message(SimTime(100), echo, Msg::Ping);
        eng.schedule_message(SimTime(200), echo, Msg::Ping);
        eng.run_until(SimTime(150));
        assert_eq!(eng.node_as::<Echo>(echo).unwrap().pings, 1);
        assert_eq!(eng.now(), SimTime(150));
        eng.run_until(SimTime(300));
        assert_eq!(eng.node_as::<Echo>(echo).unwrap().pings, 2);
    }

    #[test]
    fn partition_drops_messages() {
        let mut eng: Engine<Msg> = Engine::new(1, SimDuration::from_millis(10));
        let echo = eng.add_node(Box::new(Echo { pings: 0 }));
        let pinger = eng.add_node(Box::new(Pinger {
            peer: echo,
            pongs: 0,
        }));
        // Link down before start: the on_start ping is dropped.
        eng.links_mut().set_down(echo, pinger);
        eng.run_until_idle(100);
        assert_eq!(eng.node_as::<Echo>(echo).unwrap().pings, 0);
        assert_eq!(eng.stats().dropped, 1);
    }

    #[test]
    fn scheduled_partition_heals() {
        let mut eng: Engine<Msg> = Engine::new(1, SimDuration::from_millis(10));
        let echo = eng.add_node(Box::new(Echo { pings: 0 }));
        eng.schedule_partition(NodeId::EXTERNAL, echo, SimTime(0), SimTime(50))
            .unwrap();
        // EXTERNAL delivery is scheduled directly, so it arrives even
        // while the link is down.
        eng.schedule_message(SimTime(10), echo, Msg::Ping);
        eng.run_until_idle(10);
        assert_eq!(eng.node_as::<Echo>(echo).unwrap().pings, 1);
        assert!(eng.links().is_up(NodeId::EXTERNAL, echo));
    }

    #[test]
    fn backwards_fault_windows_are_rejected_not_enqueued() {
        let mut eng: Engine<Msg> = Engine::new(1, SimDuration::from_millis(10));
        let echo = eng.add_node(Box::new(Echo { pings: 0 }));
        let err = eng
            .schedule_partition(NodeId::EXTERNAL, echo, SimTime(100), SimTime(50))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "backwards fault window: recovery at 50 precedes failure at 100"
        );
        assert!(matches!(
            eng.schedule_crash(echo, SimTime(9), SimTime(8)),
            Err(ScheduleError::BackwardsWindow {
                at: SimTime(9),
                until: SimTime(8),
            })
        ));
        // Nothing was enqueued: the link never goes down, the node
        // never crashes, and no stray Up/Down events run.
        assert_eq!(eng.pending(), 0);
        eng.run_until_idle(10);
        assert!(eng.links().is_up(NodeId::EXTERNAL, echo));
        assert_eq!(eng.faults().stats().crashes, 0);
        assert_eq!(eng.stats().events, 0);
        // Zero-length windows (at == until) remain legal.
        eng.schedule_crash(echo, SimTime(5), SimTime(5)).unwrap();
        eng.run_until_idle(10);
        assert_eq!(eng.faults().stats().crashes, 1);
        assert_eq!(eng.faults().stats().restarts, 1);
    }

    /// Timers fire in order and deterministically.
    struct TimerNode {
        fired: Vec<u64>,
    }
    impl Node<Msg> for TimerNode {
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(SimDuration::from_millis(30), 3);
            ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.set_timer(SimDuration::from_millis(20), 2);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, key: u64) {
            self.fired.push(key);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut eng: Engine<Msg> = Engine::new(1, SimDuration::from_millis(1));
        let n = eng.add_node(Box::new(TimerNode { fired: vec![] }));
        eng.run_until_idle(10);
        assert_eq!(eng.node_as::<TimerNode>(n).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(eng.stats().timers, 3);
    }

    #[test]
    fn crash_blackholes_messages_and_restart_hook_runs() {
        /// Counts restarts and re-arms a timer from `on_restart`.
        struct Phoenix {
            restarts: u32,
            late_timers: u32,
        }
        impl Node<Msg> for Phoenix {
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
                self.restarts += 1;
                ctx.set_timer(SimDuration::from_millis(5), 7);
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, Msg>, key: u64) {
                if key == 7 {
                    self.late_timers += 1;
                }
            }
        }
        let mut eng: Engine<Msg> = Engine::new(1, SimDuration::from_millis(1));
        let echo = eng.add_node(Box::new(Echo { pings: 0 }));
        let ph = eng.add_node(Box::new(Phoenix {
            restarts: 0,
            late_timers: 0,
        }));
        eng.schedule_crash(echo, SimTime(10), SimTime(50)).unwrap();
        eng.schedule_crash(ph, SimTime(10), SimTime(60)).unwrap();
        // Pings during the outage are blackholed; afterwards delivered.
        eng.schedule_message(SimTime(20), echo, Msg::Ping);
        eng.schedule_message(SimTime(49), echo, Msg::Ping);
        eng.schedule_message(SimTime(55), echo, Msg::Ping);
        eng.run_until_idle(100);
        assert_eq!(eng.node_as::<Echo>(echo).unwrap().pings, 1);
        let ph = eng.node_as::<Phoenix>(ph).unwrap();
        assert_eq!(ph.restarts, 1);
        assert_eq!(ph.late_timers, 1);
        let fs = eng.faults().stats();
        assert_eq!(fs.crashes, 2);
        assert_eq!(fs.restarts, 2);
        assert_eq!(fs.dropped_at_down_node, 2);
    }

    #[test]
    fn loss_and_duplication_are_seed_deterministic() {
        fn run(seed: u64, loss: f64, dup: f64) -> (u32, FaultStats) {
            let mut eng: Engine<Msg> = Engine::new(seed, SimDuration::from_millis(1));
            let echo = eng.add_node(Box::new(Echo { pings: 0 }));
            let src = eng.add_node(Box::new(Pinger {
                peer: echo,
                pongs: 0,
            }));
            eng.faults_mut().set_link_model(
                src,
                echo,
                FaultModel {
                    loss,
                    dup,
                    jitter_ms: 3,
                },
            );
            for i in 0..200 {
                eng.schedule_message_from(SimTime(i), src, echo, Msg::Ping);
            }
            eng.run_until_idle(10_000);
            (
                eng.node_as::<Echo>(echo).unwrap().pings,
                eng.faults().stats(),
            )
        }
        // Externally scheduled pings bypass Ctx::send; the faults fire
        // on the echoed Pongs, which cross the modelled link.
        let (pings_a, stats_a) = run(9, 0.3, 0.2);
        let (pings_b, stats_b) = run(9, 0.3, 0.2);
        assert_eq!(pings_a, pings_b);
        assert_eq!(stats_a.lost, stats_b.lost);
        assert_eq!(stats_a.duplicated, stats_b.duplicated);
        // With 200 pings at 30% loss some faults must have fired.
        assert!(stats_a.lost > 0);
        assert!(stats_a.duplicated > 0);
        // A different seed gives a different trace (overwhelmingly).
        let (_, stats_c) = run(10, 0.3, 0.2);
        assert!(stats_c.lost != stats_a.lost || stats_c.duplicated != stats_a.duplicated);
    }

    #[test]
    fn inert_fault_plane_changes_nothing() {
        fn run(configure: bool) -> (u64, SimTime) {
            let mut eng: Engine<Msg> = Engine::new(3, SimDuration::from_millis(7));
            let echo = eng.add_node(Box::new(Echo { pings: 0 }));
            let _p = eng.add_node(Box::new(Pinger {
                peer: echo,
                pongs: 0,
            }));
            if configure {
                // A NONE model on some other link must not perturb the
                // RNG streams or the schedule.
                eng.faults_mut()
                    .set_link_model(NodeId(7), NodeId(8), FaultModel::NONE);
            }
            eng.run_until_idle(1000);
            (eng.stats().events, eng.now())
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn zero_latency_links_are_legal() {
        let mut eng: Engine<Msg> = Engine::new(1, SimDuration::ZERO);
        let echo = eng.add_node(Box::new(Echo { pings: 0 }));
        let pinger = eng.add_node(Box::new(Pinger {
            peer: echo,
            pongs: 0,
        }));
        eng.run_until(SimTime(5));
        assert_eq!(eng.node_as::<Pinger>(pinger).unwrap().pongs, 1);
        assert_eq!(eng.stats().delivered, 2);
    }

    impl Snapshot for Msg {
        fn encode(&self, enc: &mut snapshot::Enc) {
            enc.u8(match self {
                Msg::Ping => 0,
                Msg::Pong => 1,
            });
        }
        fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, SnapError> {
            match dec.u8()? {
                0 => Ok(Msg::Ping),
                1 => Ok(Msg::Pong),
                _ => Err(SnapError::Invalid("Msg tag")),
            }
        }
    }

    impl SnapshotState for Echo {
        fn encode_state(&self, enc: &mut snapshot::Enc) {
            enc.u32(self.pings);
        }
        fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), SnapError> {
            self.pings = dec.u32()?;
            Ok(())
        }
    }

    /// Builds the lossy echo rig used by the resume tests.
    fn lossy_echo_rig() -> (Engine<Msg>, NodeId) {
        let mut eng: Engine<Msg> = Engine::new(11, SimDuration::from_millis(3));
        let echo = eng.add_node(Box::new(Echo { pings: 0 }));
        let peer = eng.add_node(Box::new(Echo { pings: 0 }));
        eng.faults_mut().set_link_model(
            peer,
            echo,
            FaultModel {
                loss: 0.25,
                dup: 0.15,
                jitter_ms: 4,
            },
        );
        for i in 0..300 {
            eng.schedule_message_from(SimTime(i * 2), peer, echo, Msg::Ping);
        }
        (eng, echo)
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted_run() {
        let (mut mono, echo) = lossy_echo_rig();
        mono.run_until(SimTime(200));
        let t1_blob = {
            // Checkpoint a *separate* engine at T1, then resume it.
            let (mut eng, _) = lossy_echo_rig();
            eng.run_until(SimTime(90));
            eng.checkpoint::<Echo>().unwrap()
        };
        mono.run_until(SimTime(600));

        let (mut resumed, echo2) = lossy_echo_rig();
        resumed.resume::<Echo>(&t1_blob).unwrap();
        assert_eq!(resumed.now(), SimTime(90));
        resumed.run_until(SimTime(200));
        resumed.run_until(SimTime(600));

        assert_eq!(
            resumed.node_as::<Echo>(echo2).unwrap().pings,
            mono.node_as::<Echo>(echo).unwrap().pings
        );
        assert_eq!(mono.stats(), resumed.stats());
        let (fa, fb) = (mono.faults().stats(), resumed.faults().stats());
        assert_eq!(fa.lost, fb.lost);
        assert_eq!(fa.duplicated, fb.duplicated);
        assert_eq!(fa.jittered, fb.jittered);
        assert_eq!(mono.pending(), resumed.pending());
        assert_eq!(mono.now(), resumed.now());
        assert_eq!(
            mono.checkpoint::<Echo>().unwrap(),
            resumed.checkpoint::<Echo>().unwrap()
        );
        // The fault model actually fired, so the equality is earned.
        assert!(fa.lost > 0 && fa.duplicated > 0);
    }

    #[test]
    fn checkpoint_is_checkpoint_into_and_frames_in_place() {
        let (mut eng, _) = lossy_echo_rig();
        eng.run_until(SimTime(90));
        let blob = eng.checkpoint::<Echo>().unwrap();
        let mut copied = snapshot::Enc::new();
        copied.u8(7);
        copied.bytes(&blob);
        let mut framed = snapshot::Enc::new();
        framed.u8(7);
        framed
            .frame(|enc| eng.checkpoint_into::<Echo>(enc))
            .unwrap();
        assert_eq!(framed.finish(), copied.finish());
    }

    #[test]
    fn resume_marks_trace_and_preserves_total() {
        let (mut eng, _) = lossy_echo_rig();
        eng.enable_trace(16);
        eng.run_until(SimTime(120));
        let total_at_t1 = eng.trace().unwrap().total();
        assert!(total_at_t1 > 16, "trace should have evicted lines");
        let blob = eng.checkpoint::<Echo>().unwrap();

        let (mut resumed, _) = lossy_echo_rig();
        resumed.resume::<Echo>(&blob).unwrap();
        let tr = resumed.trace().unwrap();
        // total() survives (plus exactly the resume marker line)...
        assert_eq!(tr.total(), total_at_t1 + 1);
        // ...and the marker is the newest retained line.
        let last = tr.lines().last().unwrap();
        assert_eq!(last.1, "resume @ 120");
    }

    #[test]
    fn resume_rejects_corrupt_and_mismatched_snapshots() {
        let (eng, _) = lossy_echo_rig();
        let blob = eng.checkpoint::<Echo>().unwrap();

        // Truncations error out, never panic.
        for cut in [0, 4, 7, blob.len() / 2, blob.len() - 1] {
            let (mut fresh, _) = lossy_echo_rig();
            assert!(fresh.resume::<Echo>(&blob[..cut]).is_err());
        }
        // A smaller topology refuses the blob.
        let mut tiny: Engine<Msg> = Engine::new(11, SimDuration::from_millis(3));
        tiny.add_node(Box::new(Echo { pings: 0 }));
        assert!(tiny.resume::<Echo>(&blob).is_err());
        // Wrong node type refuses too.
        let mut wrong: Engine<Msg> = Engine::new(11, SimDuration::from_millis(3));
        wrong.add_node(Box::new(TimerNode { fired: vec![] }));
        wrong.add_node(Box::new(TimerNode { fired: vec![] }));
        assert!(wrong.resume::<Echo>(&blob).is_err());
    }

    /// A node that accumulates a digest of everything it observes and
    /// pings a random peer back — RNG-dependent, order-sensitive.
    struct Gossip {
        peers: usize,
        digest: u64,
        hops: u64,
    }

    impl Node<u64> for Gossip {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.digest = self
                .digest
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(msg ^ from.0 as u64 ^ ctx.now().0);
            if self.hops < 40 {
                self.hops += 1;
                let next = NodeId(ctx.rng().gen_range(0..self.peers));
                ctx.send(next, msg.wrapping_add(1));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, key: u64) {
            self.digest = self.digest.wrapping_add(key ^ ctx.now().0);
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let delay = ctx.rng().gen_range(1..50);
            ctx.set_timer(SimDuration::from_millis(delay), 7);
        }
    }

    impl SnapshotState for Gossip {
        fn encode_state(&self, enc: &mut snapshot::Enc) {
            enc.usize(self.peers);
            enc.u64(self.digest);
            enc.u64(self.hops);
        }
        fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), SnapError> {
            self.peers = dec.usize()?;
            self.digest = dec.u64()?;
            self.hops = dec.u64()?;
            Ok(())
        }
    }

    fn gossip(n: usize) -> Engine<u64> {
        let mut eng = Engine::new(42, SimDuration::from_millis(5));
        for _ in 0..n {
            eng.add_node(Box::new(Gossip {
                peers: n,
                digest: 0,
                hops: 0,
            }));
        }
        for i in 0..n {
            eng.schedule_message(SimTime(3 + (i as u64 % 7)), NodeId(i), i as u64);
        }
        eng
    }

    fn fingerprint(eng: &Engine<u64>, n: usize) -> (Vec<u64>, EngineStats, SimTime) {
        let digests = (0..n)
            .map(|i| eng.node_as::<Gossip>(NodeId(i)).unwrap().digest)
            .collect();
        (digests, eng.stats(), eng.now())
    }

    #[test]
    fn run_until_and_run_until_idle_agree() {
        let n = 24;
        let mut sliced = gossip(n);
        sliced.run_until(SimTime(10_000));
        let mut idle = gossip(n);
        idle.run_until_idle(u64::MAX);
        // The batched `pop_le` loop and the one-at-a-time loop deliver
        // the same per-node sequences; only the final clock differs.
        let (a, b) = (fingerprint(&sliced, n), fingerprint(&idle, n));
        assert_eq!((a.0, a.1), (b.0, b.1));
        assert!(b.2 < a.2 && a.2 == SimTime(10_000));
        assert!(a.1.events > 0, "events actually ran");
    }

    #[test]
    fn partitions_crashes_and_faults_do_not_depend_on_run_slicing() {
        let n = 16;
        let run = |slices: &[u64]| {
            let mut eng = gossip(n);
            eng.faults_mut().set_default_model(FaultModel {
                loss: 0.1,
                dup: 0.05,
                jitter_ms: 3,
            });
            eng.schedule_partition(NodeId(0), NodeId(1), SimTime(20), SimTime(400))
                .unwrap();
            eng.schedule_partition(NodeId(n - 1), NodeId(n / 2), SimTime(25), SimTime(9_000))
                .unwrap();
            eng.schedule_crash(NodeId(2), SimTime(30), SimTime(500))
                .unwrap();
            eng.schedule_crash(NodeId(n - 1), SimTime(40), SimTime(9_000))
                .unwrap();
            for &t in slices {
                eng.run_until(SimTime(t));
            }
            let fs = eng.faults().stats();
            (
                fingerprint(&eng, n),
                (fs.lost, fs.duplicated, fs.crashes, fs.restarts),
                eng.faults().down_nodes().clone(),
                eng.links().is_up(NodeId(0), NodeId(1)),
                eng.links().is_up(NodeId(n - 1), NodeId(n / 2)),
                eng.checkpoint::<Gossip>().unwrap(),
            )
        };
        let a = run(&[5_000]);
        assert_eq!(a, run(&[300, 5_000]));
        assert!(a.1 .0 > 0 && a.1 .1 > 0, "the fault model fired");
        assert_eq!((a.1 .2, a.1 .3), (2, 1), "two crashes, one restart so far");
        assert!(a.2.contains(&NodeId(n - 1)) && a.3 && !a.4);
    }

    #[test]
    fn checkpoint_resumes_onto_a_preloaded_engine() {
        let n = 16;
        let mid = SimTime(60);
        let done = SimTime(5_000);
        let crashed = || {
            let mut eng = gossip(n);
            eng.schedule_crash(NodeId(n - 1), SimTime(40), SimTime(900))
                .unwrap();
            eng
        };
        let mut mono = crashed();
        mono.run_until(mid);
        let blob = mono.checkpoint::<Gossip>().unwrap();
        mono.run_until(done);

        // A fresh engine pre-queues workload; resume wipes it.
        let mut eng = gossip(n);
        eng.resume::<Gossip>(&blob).unwrap();
        assert_eq!(eng.now(), mid);
        assert_eq!(eng.checkpoint::<Gossip>().unwrap(), blob);
        eng.run_until(done);
        assert_eq!(fingerprint(&eng, n), fingerprint(&mono, n));
        assert_eq!(
            eng.checkpoint::<Gossip>().unwrap(),
            mono.checkpoint::<Gossip>().unwrap()
        );
    }
}
