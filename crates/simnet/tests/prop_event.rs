//! Differential property tests: the two-tier wheel [`EventQueue`]
//! must pop the exact `(time, rank, seq)` order of a binary-heap
//! oracle on arbitrary push/pop interleavings — scrambled same-tick
//! keys, pushes into the bucket being drained, far-future horizon
//! crossings and wheel re-anchors included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use simnet::{Event, EventQueue, NodeId, SimTime, WHEEL_SPAN};

/// The executable specification of pop order: a plain `BinaryHeap`
/// over `(time, rank, seq)`, carrying the payload tag.
#[derive(Default)]
struct HeapOracle {
    heap: BinaryHeap<Reverse<(u64, u64, u64, u64)>>,
}

impl HeapOracle {
    fn push(&mut self, at: u64, rank: u64, seq: u64, tag: u64) {
        self.heap.push(Reverse((at, rank, seq, tag)));
    }
    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((at, _, _, tag))| (at, tag))
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, ..))| SimTime(*at))
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The wheel queue and the oracle fed the same pushes. Keys follow
/// the engine's scheme — rank names the source, seq is that source's
/// counter — so they are unique, but arrive in whatever order the
/// script pushes them.
#[derive(Default)]
struct Pair {
    wheel: EventQueue<u64>,
    heap: HeapOracle,
    emit: [u64; RANKS],
}

const RANKS: usize = 6;

impl Pair {
    fn push(&mut self, at: u64, rank: usize, tag: u64) {
        let seq = self.emit[rank];
        self.emit[rank] += 1;
        let ev = Event::Message {
            from: NodeId(rank),
            to: NodeId(1),
            msg: tag,
        };
        self.wheel.push(SimTime(at), rank as u64, seq, ev);
        self.heap.push(at, rank as u64, seq, tag);
    }

    /// Pops both; `Ok(None)` when both are empty.
    fn pop(&mut self) -> Result<Option<u64>, TestCaseError> {
        prop_assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
        let w = self.wheel.pop().map(|(t, ev)| match ev {
            Event::Message { msg, .. } => (t.0, msg),
            _ => unreachable!("script only pushes messages"),
        });
        prop_assert_eq!(w, self.heap.pop());
        prop_assert_eq!(self.wheel.len(), self.heap.len());
        Ok(w.map(|(t, _)| t))
    }

    fn drain(&mut self) -> Result<(), TestCaseError> {
        while self.pop()?.is_some() {}
        prop_assert!(self.wheel.is_empty());
        Ok(())
    }
}

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `time_of_last_pop + offset`.
    Push(u64),
    /// Pop one event.
    Pop,
}

/// Decodes a raw (selector, magnitude) pair into an operation.
///
/// Offsets mix the tick being drained (offset 0), dense near-term
/// times, wheel-boundary times, and MASC-scale far-future times
/// (hours/days), so pushes land on both tiers and refills happen
/// mid-run.
fn decode(sel: u64, mag: u64) -> Op {
    match sel % 12 {
        0..=2 => Op::Push(mag % 64),
        3 => Op::Push(mag % 16), // extra equal-time density
        4 | 5 => Op::Push(0),    // into the bucket being drained
        6 => Op::Push(WHEEL_SPAN - 96 + mag % 200), // straddles the wheel boundary
        7 => Op::Push(172_800_000 + mag % 100), // 48 h waits
        8 => Op::Push(2_592_000_000 + mag % 50), // 30-day lifetimes
        _ => Op::Pop,
    }
}

fn arb_ops() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    // (selector, magnitude, payload tag) per op; the tag also picks
    // the rank, so same-tick keys arrive scrambled.
    prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wheel queue ≡ heap oracle on random interleavings. Pushes are
    /// kept monotone relative to the last popped time, as the engine
    /// guarantees.
    #[test]
    fn wheel_matches_heap_reference(ops in arb_ops()) {
        let mut q = Pair::default();
        let mut now = 0u64;
        for (sel, mag, tag) in &ops {
            match decode(*sel, *mag) {
                Op::Push(offset) => q.push(now + offset, (*tag % RANKS as u64) as usize, *tag),
                Op::Pop => now = q.pop()?.unwrap_or(now),
            }
        }
        q.drain()?;
    }

    /// Scrambled keyed pushes into a handful of ticks, then a drain
    /// during which every pop pushes more events into the tick being
    /// drained (what a zero-latency send or zero-delay timer does) —
    /// below, between and above the keys still waiting there.
    #[test]
    fn scrambled_same_tick_pushes_and_pushes_into_the_draining_bucket(
        first in prop::collection::vec((0u64..4, 0usize..RANKS), 1..120),
        echoes in prop::collection::vec((any::<bool>(), 0usize..RANKS), 0..200),
        base in 0usize..4,
    ) {
        // Bucket 0 of a fresh wheel, mid-wheel, straddling the span's
        // end, and beyond it (served after a re-anchor).
        let base = [0, 7, WHEEL_SPAN - 2, 5 * WHEEL_SPAN + 3][base];
        let mut q = Pair::default();
        for (i, (dt, rank)) in first.iter().enumerate() {
            q.push(base + dt, *rank, i as u64);
        }
        let mut echoes = echoes.into_iter();
        let mut tag = 1_000_000;
        while let Some(now) = q.pop()? {
            if let Some((same_tick, rank)) = echoes.next() {
                q.push(now + u64::from(!same_tick), rank, tag);
                tag += 1;
            }
        }
        prop_assert!(q.wheel.is_empty());
    }

    /// Scrambled same-tick keys that start life in the overflow map
    /// (beyond the initial span, or beyond a span the wheel later
    /// re-anchors to) must come back in key order, together with
    /// keys pushed straight into the re-anchored wheel at the same
    /// tick.
    #[test]
    fn scrambled_keys_survive_a_wheel_reanchor(
        far in prop::collection::vec((WHEEL_SPAN..3 * WHEEL_SPAN, 0usize..RANKS), 1..60),
        ties in prop::collection::vec(0usize..RANKS, 2..24),
        fresh in prop::collection::vec((0u64..2 * WHEEL_SPAN, 0usize..RANKS), 0..40),
    ) {
        let mut q = Pair::default();
        let boundary = 2 * WHEEL_SPAN; // first in overflow, later inside the wheel
        for (i, rank) in ties.iter().enumerate() {
            q.push(boundary, *rank, 1_000_000 + i as u64);
        }
        for (i, (t, rank)) in far.iter().enumerate() {
            q.push(*t, *rank, i as u64);
        }
        // Every event is beyond the initial span, so this pop forces a
        // re-anchor before it can be served.
        let now = q.pop()?.expect("non-empty");
        // Fresh pushes span the re-anchored wheel and its new overflow,
        // and land on the tied tick again from the wheel side.
        for (i, (off, rank)) in fresh.iter().enumerate() {
            q.push(now + off, *rank, 10_000_000 + i as u64);
        }
        for (i, rank) in ties.iter().enumerate() {
            q.push(boundary.max(now), *rank, 20_000_000 + i as u64);
        }
        q.drain()?;
    }

    /// `pop_le` never returns an event past the limit and never skips
    /// one at or before it.
    #[test]
    fn pop_le_agrees_with_peek(
        times in prop::collection::vec(0u64..20_000, 1..100),
        limit in 0u64..20_000,
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            let ev = Event::Timer { node: NodeId(0), key: i as u64 };
            q.push(SimTime(*t), (i % RANKS) as u64, i as u64, ev);
        }
        let mut due: Vec<u64> = times.iter().copied().filter(|t| *t <= limit).collect();
        due.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, _)) = q.pop_le(SimTime(limit)) {
            got.push(t.0);
        }
        prop_assert_eq!(got, due.clone());
        prop_assert_eq!(q.len(), times.len() - due.len());
    }
}
