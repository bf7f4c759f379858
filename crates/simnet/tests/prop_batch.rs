//! Differential property test for same-tick event batching:
//! [`Engine::run_until`] (which batches consecutive same-time events
//! to one node around a single node checkout) must be observationally
//! identical to the unbatched one-event-at-a-time
//! `run_until_idle(1)` loop — same per-node logs, same counters, same
//! fault accounting —
//! on arbitrary workloads, including zero-latency message storms and
//! crash windows.

use proptest::prelude::*;
use simnet::{Ctx, Engine, Node, NodeId, SimDuration, SimTime};

const NODES: usize = 4;

/// Logs every delivery, relays messages while their low nibble is
/// non-zero (bounded chains), and arms same-tick or near-tick timers —
/// the densest mix of batchable and non-batchable events.
struct Chatter {
    log: Vec<(u64, u64, &'static str)>,
}

impl Node<u32> for Chatter {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        self.log.push((ctx.now().as_millis(), msg as u64, "msg"));
        let ttl = msg & 0xF;
        if ttl > 0 {
            // Relay target derives from the payload, so fan-out shape
            // is workload-controlled but deterministic.
            let _ = from;
            ctx.send(NodeId((msg >> 4) as usize % NODES), msg - 1);
        }
        if msg.is_multiple_of(3) {
            // Delay 0 arms a timer in the *current* tick: the
            // strongest batching stress (message + timer, same node,
            // same time).
            ctx.set_timer(SimDuration::from_millis((msg % 2) as u64), msg as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32>, key: u64) {
        self.log.push((ctx.now().as_millis(), key, "timer"));
    }
}

#[derive(Debug, Clone)]
struct Workload {
    latency: u64,                    // 0 ⇒ same-tick cross-node delivery
    injections: Vec<(u64, u8, u32)>, // (time, node, payload)
    crashes: Vec<(u8, u64, u64)>,    // (node, at, until)
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        0u64..3,
        // Times collide on purpose: a handful of distinct ticks shared
        // by up to 60 injections.
        prop::collection::vec((0u64..12, 0u8..NODES as u8, any::<u32>()), 1..60),
        prop::collection::vec((0u8..NODES as u8, 0u64..20, 20u64..40), 0..3),
    )
        .prop_map(|(latency, injections, crashes)| Workload {
            latency,
            injections,
            crashes,
        })
}

/// One per-node observation log: (time, payload/key, kind).
type NodeLog = Vec<(u64, u64, &'static str)>;

/// Builds the engine, runs it via `batched`/unbatched dispatch, and
/// returns everything observable.
fn run(w: &Workload, seed: u64, batched: bool) -> (Vec<NodeLog>, Vec<u64>) {
    let mut eng: Engine<u32> = Engine::new(seed, SimDuration::from_millis(w.latency));
    let mut ids = Vec::new();
    for _ in 0..NODES {
        ids.push(eng.add_node(Box::new(Chatter { log: Vec::new() })));
    }
    for (node, at, until) in &w.crashes {
        // Generator ranges guarantee `until >= at` (20..40 vs 0..20).
        eng.schedule_crash(ids[*node as usize], SimTime(*at), SimTime(*until))
            .unwrap();
    }
    for (t, n, p) in &w.injections {
        eng.schedule_message(SimTime(*t), ids[*n as usize], *p);
    }
    if batched {
        // Far past every chain (12 ms injections + 15 hops × 3 ms).
        eng.run_until(SimTime(1_000_000));
    } else {
        while eng.run_until_idle(1) == 1 {}
    }
    assert_eq!(eng.pending(), 0, "run left events queued");
    let logs = ids
        .iter()
        .map(|id| eng.node_as::<Chatter>(*id).unwrap().log.clone())
        .collect();
    let s = eng.stats();
    let f = eng.faults().stats();
    let counters = vec![
        s.events,
        s.delivered,
        s.timers,
        s.dropped,
        f.dropped_at_down_node,
        f.timers_suppressed,
        f.crashes,
    ];
    (logs, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Batched dispatch ≡ unbatched dispatch: identical per-node event
    /// logs (order included) and identical engine + fault counters.
    #[test]
    fn batched_matches_unbatched(w in arb_workload(), seed in any::<u64>()) {
        let a = run(&w, seed, true);
        let b = run(&w, seed, false);
        prop_assert_eq!(a.0, b.0, "per-node logs diverged");
        prop_assert_eq!(a.1, b.1, "counters diverged");
    }
}
