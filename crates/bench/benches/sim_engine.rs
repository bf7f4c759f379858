//! Discrete-event engine throughput: how many message events per
//! second the substrate sustains (bounds every protocol simulation),
//! plus the raw queue on the timer mix real simulations produce —
//! dense near-horizon traffic interleaved with long-lived MASC
//! lifetimes (48 h waiting periods, 30-day leases).

use criterion::{criterion_group, criterion_main, Criterion};
use simnet::{Ctx, Engine, Event, EventQueue, Node, NodeId, SimDuration, SimTime};
use std::hint::black_box;

/// The MASC-like timer mix: a standing population of far timers (every
/// allocation server holds a 30-day lease expiry / 48 h waiting-period
/// deadline — fig2 runs ~2500 of them) while near-horizon protocol
/// chatter churns at the front of the queue.
fn timer_mix(q: &mut EventQueue<u32>) -> u64 {
    let mut rng: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut seq = 0u64;
    let mut push = |q: &mut EventQueue<u32>, t: u64| {
        let node = NodeId(0);
        q.push(SimTime(t), 0, seq, Event::Timer { node, key: 0 });
        seq += 1;
    };
    // Standing far timers: uniform over [48 h, 30 d].
    for _ in 0..8_192u64 {
        push(q, 172_800_000 + next() % (2_592_000_000 - 172_800_000));
    }
    let mut now = 0u64;
    let mut popped = 0u64;
    // Steady state: long sims push orders of magnitude more near
    // events past the standing far population than they ever hold far
    // timers (800 fig2 days of chatter vs one lease per server).
    for step in 0..16_000u64 {
        // Burst of near events (chatter within ~1 s of now).
        for _ in 0..3 {
            push(q, now + next() % 1_000);
        }
        // Occasional fresh far timer (a renewal).
        if step % 64 == 0 {
            push(q, now + 172_800_000);
        }
        // Drain a few, advancing the clock.
        for _ in 0..3 {
            if let Some((t, _)) = q.pop() {
                now = t.0;
                popped += 1;
            }
        }
    }
    while q.pop().is_some() {
        popped += 1;
    }
    popped
}

fn queue_benches(c: &mut Criterion) {
    c.bench_function("queue_timer_mix_wheel", |b| {
        b.iter(|| black_box(timer_mix(&mut EventQueue::new())));
    });
    // Same-timestamp batches: the run_until fast path's common case.
    c.bench_function("queue_same_time_batches_wheel", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for batch in 0..1_000u64 {
                for i in 0..16u32 {
                    q.push(
                        SimTime(batch * 10),
                        0,
                        batch * 16 + i as u64,
                        Event::Timer {
                            node: NodeId(0),
                            key: i as u64,
                        },
                    );
                }
            }
            let mut n = 0u64;
            while q.pop_le(SimTime(u64::MAX)).is_some() {
                n += 1;
            }
            black_box(n)
        });
    });
}

struct Relay {
    next: NodeId,
    left: u32,
}
impl Node<u32> for Relay {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(self.next, msg + 1);
        }
    }
}

fn benches(c: &mut Criterion) {
    c.bench_function("engine_10k_events", |b| {
        b.iter(|| {
            let mut eng: Engine<u32> = Engine::new(1, SimDuration::from_millis(1));
            let a = eng.add_node(Box::new(Relay {
                next: NodeId(1),
                left: 5000,
            }));
            let bb = eng.add_node(Box::new(Relay {
                next: NodeId(0),
                left: 5000,
            }));
            let _ = (a, bb);
            eng.schedule_message(simnet::SimTime(0), a, 0);
            black_box(eng.run_until_idle(20_000))
        });
    });
}

criterion_group!(b, benches, queue_benches);
criterion_main!(b);
