//! The time-ordered event queue.
//!
//! Every event carries a `(time, rank, seq)` key supplied by the
//! engine — rank is the emitting node's id + 1 (0 for injections from
//! outside the simulation), seq that source's private emit counter —
//! and the queue pops in key order whatever the push order was, so
//! same-tick order is a function of who emitted what.
//!
//! # Structure
//!
//! MASC workloads mix two very different time scales: dense
//! millisecond-latency protocol messages around the current instant,
//! and standing far-future timers (48 h waiting periods, 30-day lease
//! lifetimes, hour-scale retry jitter). A single binary heap makes
//! every near-term message pay `O(log n)` sift costs against the
//! standing timer population, so [`EventQueue`] is a two-tier
//! scheduler instead:
//!
//! * a **near-horizon wheel**: one bucket per millisecond for the
//!   [`WHEEL_SPAN`] ms starting at the earliest pending event, with a
//!   bitmap for constant-time next-bucket scans. Buckets are intrusive
//!   singly-linked lists over one slab of slots, so steady-state
//!   operation performs no allocation at all;
//! * an **overflow map** (`BTreeMap<(time, rank, seq), event>`) for
//!   everything past the wheel horizon; when the wheel drains, it
//!   re-anchors at the earliest overflow time and the next window of
//!   events moves over in one batch.
//!
//! # How a bucket gets its order
//!
//! A push into a bucket is an O(1) append, in whatever order pushes
//! arrive; an append that lands below the bucket's tail key marks the
//! bucket in the `unsorted` bitmap. The bucket is put into key order
//! **once**, when the pop cursor first reaches it. A flood that
//! scatters thousands of same-tick sends across receivers therefore
//! costs one `n log n` sort per tick instead of a list walk per send.
//! Only a push into the bucket *currently being drained* (a zero-delay
//! timer, a zero-latency send) walks the list to its place, and only
//! when it sorts below the tail.
//!
//! Pop order is property-tested against a binary-heap oracle in
//! `tests/prop_event.rs`.

use std::collections::BTreeMap;

use crate::node::NodeId;
use crate::time::SimTime;

/// A scheduled occurrence.
#[derive(Debug)]
pub enum Event<M> {
    /// Deliver `msg` from `from` to `to`.
    Message {
        /// Sender (may be [`NodeId::EXTERNAL`]).
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// Fire timer `key` on `node`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// Caller-chosen timer key.
        key: u64,
    },
    /// Bring the link between the two nodes down.
    LinkDown(NodeId, NodeId),
    /// Bring the link between the two nodes back up.
    LinkUp(NodeId, NodeId),
    /// Crash the node (fail-stop: messages blackholed, timers
    /// suppressed until the matching [`Event::NodeUp`]).
    NodeDown(NodeId),
    /// Restart the node (its `on_restart` hook runs).
    NodeUp(NodeId),
}

/// Width of the near-horizon wheel in milliseconds (one bucket each).
pub const WHEEL_SPAN: u64 = 16_384;
const OCC_WORDS: usize = (WHEEL_SPAN as usize) / 64;

/// Sentinel for "no slot" in the wheel's intrusive lists.
const NIL: u32 = u32::MAX;

/// Sentinel for "no bucket is being drained".
const NO_BUCKET: usize = usize::MAX;

/// One slab entry: an event threaded into its bucket's list.
struct Slot<M> {
    /// Next slot in the same bucket (or the slot free list); [`NIL`]
    /// terminates.
    next: u32,
    /// Major tie-break: the source's rank.
    rank: u64,
    /// Minor tie-break: the source's emit sequence.
    seq: u64,
    /// The event; `None` once popped (slot is then on the free list).
    ev: Option<Event<M>>,
}

/// Priority queue of pending events: near-horizon bucket wheel plus a
/// far-future overflow map. See the module docs for the design.
pub struct EventQueue<M> {
    /// Slot arena; bucket lists and the free list index into it.
    slots: Vec<Slot<M>>,
    /// Head of the free-slot list ([`NIL`] when exhausted).
    free: u32,
    /// Per-millisecond bucket list heads over
    /// `[wheel_start, wheel_start + WHEEL_SPAN)`; [`NIL`] = empty.
    head: Vec<u32>,
    /// Per-bucket list tails (valid only when the head is not [`NIL`]).
    tail: Vec<u32>,
    /// Occupancy bitmap over buckets (bit set ⇔ bucket non-empty).
    occ: [u64; OCC_WORDS],
    /// Buckets holding an append that landed below the then-tail key:
    /// their list is not in key order until the cursor reaches them.
    unsorted: [u64; OCC_WORDS],
    /// Absolute time (ms) of bucket 0.
    wheel_start: u64,
    /// No non-empty bucket lies below this index.
    cursor: usize,
    /// The bucket the last wheel pop came from: its list is in key
    /// order and it is the wheel's earliest, so its head is the
    /// wheel's head. [`NO_BUCKET`] after a re-anchor or a push below
    /// the cursor.
    draining: usize,
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Far-future (or, defensively, past-of-window) events; map order
    /// is pop order.
    overflow: BTreeMap<(u64, u64, u64), Event<M>>,
    /// Cached time of the overflow head (`u64::MAX` when empty), so
    /// the pop fast path costs one compare instead of a tree descent.
    overflow_min: u64,
    /// Reused `(rank, seq, slot)` buffer for bucket sorts.
    scratch: Vec<(u64, u64, u32)>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: NIL,
            head: vec![NIL; WHEEL_SPAN as usize],
            tail: vec![NIL; WHEEL_SPAN as usize],
            occ: [0; OCC_WORDS],
            unsorted: [0; OCC_WORDS],
            wheel_start: 0,
            cursor: 0,
            draining: NO_BUCKET,
            wheel_len: 0,
            overflow: BTreeMap::new(),
            overflow_min: u64::MAX,
            scratch: Vec::new(),
        }
    }

    /// Takes a slot from the free list (or grows the slab) and fills it.
    #[inline]
    fn alloc_slot(&mut self, rank: u64, seq: u64, ev: Event<M>) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let s = &mut self.slots[i as usize];
            self.free = s.next;
            s.next = NIL;
            s.rank = rank;
            s.seq = seq;
            s.ev = Some(ev);
            i
        } else {
            self.slots.push(Slot {
                next: NIL,
                rank,
                seq,
                ev: Some(ev),
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Appends to bucket `idx`'s list; see the module docs for when
    /// the list is put in order.
    #[inline]
    fn bucket_push(&mut self, idx: usize, rank: u64, seq: u64, ev: Event<M>) {
        let i = self.alloc_slot(rank, seq, ev);
        self.wheel_len += 1;
        if self.head[idx] == NIL {
            self.head[idx] = i;
            self.tail[idx] = i;
            self.occ[idx >> 6] |= 1 << (idx & 63);
            if idx < self.cursor {
                // Scheduling below the scan cursor (into the window's
                // past) — only possible from misuse the engine's
                // debug_asserts catch, but stay well-ordered anyway.
                self.cursor = idx;
                self.draining = NO_BUCKET;
            }
            return;
        }
        let t = self.tail[idx] as usize;
        if (self.slots[t].rank, self.slots[t].seq) > (rank, seq) {
            if idx == self.draining {
                return self.insert_sorted(idx, i, rank, seq);
            }
            self.unsorted[idx >> 6] |= 1 << (idx & 63);
        }
        self.slots[t].next = i;
        self.tail[idx] = i;
    }

    /// Walks the bucket being drained (already in key order) to the
    /// new slot's place. The slot sorts below the tail, so it lands
    /// strictly before some existing slot and the tail is unchanged.
    #[cold]
    fn insert_sorted(&mut self, idx: usize, i: u32, rank: u64, seq: u64) {
        let mut prev = NIL;
        let mut cur = self.head[idx];
        while cur != NIL {
            let s = &self.slots[cur as usize];
            if (s.rank, s.seq) > (rank, seq) {
                break;
            }
            prev = cur;
            cur = s.next;
        }
        self.slots[i as usize].next = cur;
        if prev == NIL {
            self.head[idx] = i;
        } else {
            self.slots[prev as usize].next = i;
        }
    }

    /// Relinks bucket `idx` in `(rank, seq)` order.
    fn sort_bucket(&mut self, idx: usize) {
        let mut order = std::mem::take(&mut self.scratch);
        order.clear();
        let mut i = self.head[idx];
        while i != NIL {
            let s = &self.slots[i as usize];
            order.push((s.rank, s.seq, i));
            i = s.next;
        }
        order.sort_unstable();
        let mut next = NIL;
        for &(_, _, i) in order.iter().rev() {
            self.slots[i as usize].next = next;
            next = i;
        }
        self.head[idx] = next;
        self.tail[idx] = order.last().expect("an unsorted bucket is non-empty").2;
        self.unsorted[idx >> 6] &= !(1 << (idx & 63));
        self.scratch = order;
    }

    /// Pops the front of (non-empty) bucket `idx`, recycling its slot.
    #[inline]
    fn bucket_pop(&mut self, idx: usize) -> Event<M> {
        let i = self.head[idx];
        let s = &mut self.slots[i as usize];
        let ev = s.ev.take().expect("occupied slot");
        self.head[idx] = s.next;
        s.next = self.free;
        self.free = i;
        if self.head[idx] == NIL {
            self.occ[idx >> 6] &= !(1 << (idx & 63));
        }
        self.wheel_len -= 1;
        ev
    }

    /// Schedules `event` at `at` under the tie-break key
    /// `(rank, seq)`. Same-time events pop in key order regardless of
    /// push order; callers must keep keys unique per timestamp (the
    /// engine derives them from the source node and its emit counter).
    #[inline]
    pub fn push(&mut self, at: SimTime, rank: u64, seq: u64, event: Event<M>) {
        let t = at.0;
        if t >= self.wheel_start && t - self.wheel_start < WHEEL_SPAN {
            self.bucket_push((t - self.wheel_start) as usize, rank, seq, event);
        } else {
            self.overflow.insert((t, rank, seq), event);
            if t < self.overflow_min {
                self.overflow_min = t;
            }
        }
    }

    /// First non-empty bucket at or above the cursor, if any.
    #[inline]
    fn first_bucket(&self) -> Option<usize> {
        let mut w = self.cursor >> 6;
        if w >= OCC_WORDS {
            return None;
        }
        let mut word = self.occ[w] & (!0u64 << (self.cursor & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= OCC_WORDS {
                return None;
            }
            word = self.occ[w];
        }
    }

    /// Re-anchors the (empty) wheel at the earliest overflow time and
    /// moves the next window of overflow events into it. Map order is
    /// key order, so every move is an in-order append.
    fn refill(&mut self) {
        debug_assert_eq!(self.wheel_len, 0);
        if self.overflow_min == u64::MAX {
            return;
        }
        let start = self.overflow_min;
        self.wheel_start = start;
        self.cursor = 0;
        self.draining = NO_BUCKET;
        while let Some((&(t, _, _), _)) = self.overflow.first_key_value() {
            if t - start >= WHEEL_SPAN {
                self.overflow_min = t;
                return;
            }
            let ((_, rank, seq), ev) = self.overflow.pop_first().expect("checked non-empty");
            self.bucket_push((t - start) as usize, rank, seq, ev);
        }
        self.overflow_min = u64::MAX;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event<M>)> {
        self.pop_le(SimTime(u64::MAX))
    }

    /// Removes and returns the earliest event if its time is `<= until`
    /// — one bucket scan, no separate peek. This is the engine's
    /// `run_until` fast path: while draining a same-timestamp batch the
    /// cursor already rests on the hot bucket, so each pop is O(1).
    ///
    /// A widened variant returning a same-tick hint as a third tuple
    /// element was tried and *measured slower* than this pop plus a
    /// separate [`EventQueue::more_at`] probe: the three-element
    /// `Option` return defeated the optimizer at every call-site shape
    /// (interleaved wheel-microbench A/B, ~48 vs ~37 M ev/s), even
    /// though the hint itself was free to compute. Keep the narrow
    /// return type.
    #[inline]
    pub fn pop_le(&mut self, until: SimTime) -> Option<(SimTime, Event<M>)> {
        if self.wheel_len == 0 {
            if self.overflow_min == u64::MAX || self.overflow_min > until.0 {
                return None;
            }
            self.refill();
        }
        let idx = self.first_bucket().expect("wheel_len > 0");
        let wheel_t = self.wheel_start + idx as u64;
        // An event can sit in overflow *below* the window only after a
        // past-of-window push (see `push`); honour it first.
        if self.overflow_min < wheel_t {
            let t = self.overflow_min;
            if t > until.0 {
                return None;
            }
            let (_, ev) = self.overflow.pop_first().expect("overflow_min is live");
            self.overflow_min = match self.overflow.first_key_value() {
                Some((&(t2, _, _), _)) => t2,
                None => u64::MAX,
            };
            return Some((SimTime(t), ev));
        }
        if wheel_t > until.0 {
            return None;
        }
        if self.unsorted[idx >> 6] & (1 << (idx & 63)) != 0 {
            self.sort_bucket(idx);
        }
        self.cursor = idx;
        self.draining = idx;
        Some((SimTime(wheel_t), self.bucket_pop(idx)))
    }

    /// Pops the earliest event only when it is due at exactly `t` and
    /// is delivered to `node` (a message to it or one of its timers).
    /// Returns `None` — popping nothing — in every other case. This is
    /// the engine's same-tick batching probe: after dispatching an
    /// event to a node, the engine drains the contiguous run of
    /// same-timestamp events for that same node in one node borrow.
    /// Only the global head is ever taken, so pop order is identical
    /// to repeated [`EventQueue::pop`].
    ///
    /// The probe must cost O(1) on a miss — it runs once per
    /// dispatched event — so it never scans the occupancy bitmap.
    /// While `t`'s bucket is the one being drained, every same-time
    /// event sits in it in key order (one tier per timestamp), so a
    /// drained bucket ends the batch immediately. The guards refuse to
    /// batch in states where bucket-head ≠ global head: another bucket
    /// is (or none is) being drained, or an overflow stray sits at or
    /// below `t`. Refusing is always sound — the engine just falls
    /// back to `pop_le`.
    #[inline]
    pub fn pop_if_for(&mut self, t: SimTime, node: NodeId) -> Option<Event<M>> {
        let off = t.0.wrapping_sub(self.wheel_start) as usize;
        if off >= WHEEL_SPAN as usize || off != self.draining || self.overflow_min <= t.0 {
            return None;
        }
        let head = self.head[off];
        if head == NIL {
            return None;
        }
        let hit = match self.slots[head as usize]
            .ev
            .as_ref()
            .expect("occupied slot")
        {
            Event::Message { to, .. } => *to == node,
            Event::Timer { node: n, .. } => *n == node,
            _ => false,
        };
        if !hit {
            return None;
        }
        Some(self.bucket_pop(off))
    }

    /// True when at least one more event is pending at exactly `t`
    /// (which must be inside the wheel window). One array load: the
    /// engine uses it to skip the batching machinery entirely for the
    /// common sparse case of a single event per (timestamp, node).
    /// (Folding this into [`EventQueue::pop_le`]'s return value was
    /// tried and measured slower — see that method's docs.)
    #[inline]
    pub fn more_at(&self, t: SimTime) -> bool {
        let off = t.0.wrapping_sub(self.wheel_start) as usize;
        off < WHEEL_SPAN as usize && self.head[off] != NIL
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel_t = if self.wheel_len > 0 {
            self.first_bucket().map(|i| self.wheel_start + i as u64)
        } else {
            None
        };
        let over_t = (self.overflow_min != u64::MAX).then_some(self.overflow_min);
        match (wheel_t, over_t) {
            (Some(w), Some(o)) => Some(SimTime(w.min(o))),
            (Some(w), None) => Some(SimTime(w)),
            (None, Some(o)) => Some(SimTime(o)),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every pending event with its full `(time, rank, seq)` key, in
    /// no particular order. The engine's checkpoint sorts them once,
    /// so the blob does not depend on how the queue is laid out.
    pub(crate) fn items_keyed(&self) -> impl Iterator<Item = (u64, u64, u64, &Event<M>)> {
        let wheel = self.head.iter().enumerate().flat_map(move |(idx, &head)| {
            let t = self.wheel_start + idx as u64;
            std::iter::successors((head != NIL).then(|| &self.slots[head as usize]), |s| {
                (s.next != NIL).then(|| &self.slots[s.next as usize])
            })
            .filter_map(move |s| s.ev.as_ref().map(|ev| (t, s.rank, s.seq, ev)))
        });
        let far = self
            .overflow
            .iter()
            .map(|(&(t, rank, seq), ev)| (t, rank, seq, ev));
        wheel.chain(far)
    }
}

impl<M: snapshot::Snapshot> snapshot::Snapshot for Event<M> {
    fn encode(&self, enc: &mut snapshot::Enc) {
        match self {
            Event::Message { from, to, msg } => {
                enc.u8(0);
                from.encode(enc);
                to.encode(enc);
                msg.encode(enc);
            }
            Event::Timer { node, key } => {
                enc.u8(1);
                node.encode(enc);
                enc.u64(*key);
            }
            Event::LinkDown(a, b) => {
                enc.u8(2);
                a.encode(enc);
                b.encode(enc);
            }
            Event::LinkUp(a, b) => {
                enc.u8(3);
                a.encode(enc);
                b.encode(enc);
            }
            Event::NodeDown(n) => {
                enc.u8(4);
                n.encode(enc);
            }
            Event::NodeUp(n) => {
                enc.u8(5);
                n.encode(enc);
            }
        }
    }

    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(match dec.u8()? {
            0 => Event::Message {
                from: NodeId::decode(dec)?,
                to: NodeId::decode(dec)?,
                msg: M::decode(dec)?,
            },
            1 => Event::Timer {
                node: NodeId::decode(dec)?,
                key: dec.u64()?,
            },
            2 => Event::LinkDown(NodeId::decode(dec)?, NodeId::decode(dec)?),
            3 => Event::LinkUp(NodeId::decode(dec)?, NodeId::decode(dec)?),
            4 => Event::NodeDown(NodeId::decode(dec)?),
            5 => Event::NodeUp(NodeId::decode(dec)?),
            _ => return Err(snapshot::SnapError::Invalid("Event tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes timer `key` under `(rank, seq)`.
    fn timer(q: &mut EventQueue<u32>, t: u64, rank: u64, seq: u64, key: u64) {
        let node = NodeId(rank as usize);
        q.push(SimTime(t), rank, seq, Event::Timer { node, key });
    }

    /// Drains the queue into `(time, timer key)` pairs.
    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u64)> {
        let mut got = Vec::new();
        while let Some((t, Event::Timer { key, .. })) = q.pop() {
            got.push((t.0, key));
        }
        got
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        timer(&mut q, 30, 0, 0, 3);
        timer(&mut q, 10, 0, 1, 1);
        timer(&mut q, 20, 0, 2, 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_break_by_seq_within_a_rank() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            timer(&mut q, 5, 0, i, i);
        }
        let want: Vec<(u64, u64)> = (0..10).map(|i| (5, i)).collect();
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        timer(&mut q, 7, 0, 0, 1);
        timer(&mut q, 3, 0, 1, 2);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Events beyond WHEEL_SPAN land in overflow and come back out
        // in order across several refills.
        let mut q = EventQueue::new();
        let times = [
            0,
            WHEEL_SPAN - 1,
            WHEEL_SPAN,
            3 * WHEEL_SPAN + 17,
            48 * 3_600_000,  // a MASC 48 h waiting period
            30 * 86_400_000, // a 30-day lease lifetime
        ];
        for (i, t) in times.iter().enumerate().rev() {
            timer(&mut q, *t, 0, i as u64, i as u64);
        }
        let want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (*t, i as u64))
            .collect();
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn ties_preserved_across_refill() {
        // Same far-future timestamp, pushed both before and after an
        // unrelated pop forces a refill: key order must survive.
        let far = 10 * WHEEL_SPAN;
        let mut q = EventQueue::new();
        timer(&mut q, far, 0, 0, 0);
        timer(&mut q, 1, 0, 1, 99);
        timer(&mut q, far, 0, 2, 1);
        assert!(matches!(
            q.pop(),
            Some((SimTime(1), Event::Timer { key: 99, .. }))
        ));
        timer(&mut q, far, 0, 3, 2);
        assert_eq!(drain(&mut q), vec![(far, 0), (far, 1), (far, 2)]);
    }

    #[test]
    fn pop_le_respects_limit() {
        let mut q = EventQueue::new();
        timer(&mut q, 10, 0, 0, 1);
        timer(&mut q, WHEEL_SPAN + 50, 0, 1, 2);
        assert!(q.pop_le(SimTime(5)).is_none());
        assert!(matches!(q.pop_le(SimTime(10)), Some((SimTime(10), _))));
        // Limit below the earliest remaining (overflow) event: nothing,
        // and the wheel is not disturbed.
        assert!(q.pop_le(SimTime(100)).is_none());
        assert_eq!(q.len(), 1);
        assert!(matches!(
            q.pop_le(SimTime(u64::MAX)),
            Some((SimTime(t), _)) if t == WHEEL_SPAN + 50
        ));
        assert!(q.is_empty());
    }

    #[test]
    fn past_of_window_push_still_ordered() {
        // Anchor the wheel at a far-future event, then (mis)schedule
        // below the window: the early event must still pop first.
        let mut q = EventQueue::new();
        timer(&mut q, 100 * WHEEL_SPAN, 0, 0, 1);
        assert!(q.pop_le(SimTime(0)).is_none()); // no refill past the limit
        timer(&mut q, 100 * WHEEL_SPAN + 1, 0, 1, 2);
        let (t1, _) = q.pop().unwrap();
        assert_eq!(t1.0, 100 * WHEEL_SPAN);
        timer(&mut q, 3, 0, 2, 0);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(drain(&mut q), vec![(3, 0), (100 * WHEEL_SPAN + 1, 2)]);
    }

    #[test]
    fn scrambled_pushes_pop_by_rank_then_seq() {
        // Push in scrambled key order at one timestamp; pops must come
        // back in (rank, seq) order — the layout-invariant contract —
        // with rank 0 (external injections) ahead of every node.
        let mut q = EventQueue::new();
        timer(&mut q, 5, 2, 0, 20);
        timer(&mut q, 5, 1, 7, 17);
        timer(&mut q, 5, 1, 3, 13);
        timer(&mut q, 5, 0, 4, 90);
        timer(&mut q, 5, 3, 1, 31);
        let keys: Vec<u64> = drain(&mut q).into_iter().map(|(_, k)| k).collect();
        assert_eq!(keys, vec![90, 13, 17, 20, 31]);
    }

    #[test]
    fn pushes_into_the_draining_bucket_land_in_key_order() {
        let mut q = EventQueue::new();
        timer(&mut q, 5, 4, 0, 40);
        timer(&mut q, 5, 2, 0, 20);
        timer(&mut q, 5, 6, 0, 60);
        // The first pop sorts the bucket; later pushes must find their
        // place among what is left, below and above the tail.
        assert!(matches!(q.pop(), Some((_, Event::Timer { key: 20, .. }))));
        timer(&mut q, 5, 5, 0, 50);
        timer(&mut q, 5, 3, 0, 30);
        timer(&mut q, 5, 7, 0, 70);
        let keys: Vec<u64> = drain(&mut q).into_iter().map(|(_, k)| k).collect();
        assert_eq!(keys, vec![30, 40, 50, 60, 70]);
    }

    #[test]
    fn keyed_order_survives_overflow_and_refill() {
        // Scrambled keys landing beyond the wheel horizon cross
        // overflow and a re-anchor before popping.
        let far = 12 * WHEEL_SPAN;
        let mut q = EventQueue::new();
        timer(&mut q, far, 2, 0, 20);
        timer(&mut q, far, 1, 7, 17);
        timer(&mut q, 1, 0, 0, 0);
        timer(&mut q, far, 1, 3, 13);
        assert!(matches!(q.pop(), Some((SimTime(1), _)))); // forces later refill
        timer(&mut q, far, 0, 9, 9);
        assert_eq!(
            drain(&mut q),
            vec![(far, 9), (far, 13), (far, 17), (far, 20)]
        );
    }

    #[test]
    fn more_at_flags_same_tick_batches_after_pop() {
        let mut q = EventQueue::new();
        timer(&mut q, 4, 0, 0, 0);
        timer(&mut q, 4, 0, 1, 1);
        timer(&mut q, 9, 0, 2, 2);
        let (t, _) = q.pop_le(SimTime(100)).unwrap();
        assert_eq!((t, q.more_at(t)), (SimTime(4), true));
        let (t, _) = q.pop_le(SimTime(100)).unwrap();
        assert_eq!((t, q.more_at(t)), (SimTime(4), false));
        let (t, _) = q.pop_le(SimTime(100)).unwrap();
        assert_eq!((t, q.more_at(t)), (SimTime(9), false));
        assert!(q.pop_le(SimTime(100)).is_none());
    }
}
