//! Layer probes: small fixed jobs timed against one layer's public
//! functions, run once per traced run outside the timed section. A
//! probe bounds what a change to that layer alone can buy.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bgmp::{BgmpRouter, NextHop, RouteLookup, SourceId, Target};
use bgp::{Rib, Route, RouterId};
use masc::msg::MascAction;
use masc::{MascConfig, MascNode};
use mcast_addr::{McastAddr, Prefix, SpaceTracker};
use migp::{DomainNet, MigpKind};
use simnet::{Ctx, Engine, Node, NodeId, SimDuration, SimTime};
use snapshot::{Dec, Enc};
use topology::{bfs, DomainGraph, DomainId};

use crate::drive::Env;
use crate::stats::median;

/// How long one probe keeps sampling.
const PROBE_TIME: Duration = Duration::from_millis(30);

/// Median cost of one operation, in ns: `once` is called for
/// [`PROBE_TIME`] (five times at least) and returns what it timed and
/// how many operations that covered.
fn sample_ns(mut once: impl FnMut() -> (Duration, usize)) -> f64 {
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || began.elapsed() < PROBE_TIME {
        let (took, ops) = once();
        samples.push(took.as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples)
}

/// [`sample_ns`] for a batch of `ops` operations timed as a whole.
fn ns_per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    sample_ns(|| {
        let t0 = Instant::now();
        batch();
        (t0.elapsed(), ops)
    })
}

/// Runs one probe as a span and records its reading.
fn probe(env: &mut Env<'_>, metric: &'static str, f: impl FnOnce() -> f64) {
    let (value, _) = env.tr.time(&format!("probe.{metric}"), f);
    env.samples.push(metric, value);
}

/// `masc.claim_round_ns`: a claim-to-grant round on a fresh node.
pub fn claim_round(env: &mut Env<'_>) {
    probe(env, "masc.claim_round_ns", || {
        ns_per_op(1, || {
            let mut n = MascNode::new(1, None, vec![], vec![2], MascConfig::fast_test(), 7);
            n.bootstrap_ranges(&[(Prefix::MULTICAST, u64::MAX)]);
            let mut acts: Vec<MascAction> = Vec::new();
            n.request_block(0, 24, 100_000, &mut acts);
            let grant_at = n.next_deadline().expect("a claim is waiting");
            black_box(n.on_tick(grant_at));
        })
    });
}

/// `mcast-addr.claim_candidates_ns` and `mcast-addr.insert_remove_ns`
/// on a tracker holding 1 024 scattered /24s: the query beside the
/// mutation that keeps its index.
pub fn space_tracker(env: &mut Env<'_>) {
    let scattered = |i: u32| {
        let base = 0xE000_0000u32 | (i.wrapping_mul(2_654_435_761) & 0x0FFF_FF00);
        Prefix::new(base, 24).expect("a /24 inside 224/4")
    };
    let mut t = SpaceTracker::new(Prefix::MULTICAST);
    for i in 0..1024 {
        t.insert(scattered(i));
    }
    probe(env, "mcast-addr.claim_candidates_ns", || {
        ns_per_op(1, || {
            black_box(t.claim_candidates(20));
        })
    });
    let extra: Vec<Prefix> = (1024..1280).map(scattered).collect();
    probe(env, "mcast-addr.insert_remove_ns", || {
        ns_per_op(2 * extra.len(), || {
            for p in &extra {
                black_box(t.insert(*p));
            }
            for p in &extra {
                black_box(t.remove(p));
            }
        })
    });
}

/// `bgp.rib_update_ns` and `bgp.rib_withdraw_ns`: the selected routes
/// of a converged RIB replayed into a fresh one from the peers they
/// came from, then taken out again — half by withdraw, the rest by
/// flushing their peers.
pub fn rib_replay(env: &mut Env<'_>, converged: &Rib) {
    let heard: Vec<(RouterId, Route)> = converged
        .loc_rib()
        .filter(|r| !r.local)
        .filter_map(|r| Some((converged.best_with_source(r.nlri)?.0, r.clone())))
        .collect();
    assert!(!heard.is_empty(), "a converged RIB holds learned routes");
    let fill = |rib: &mut Rib| {
        for (peer, route) in &heard {
            black_box(rib.update_from(*peer, route.clone()));
        }
    };
    probe(env, "bgp.rib_update_ns", || {
        ns_per_op(heard.len(), || {
            let mut rib = Rib::new();
            fill(&mut rib);
            black_box(rib.grib_size());
        })
    });
    probe(env, "bgp.rib_withdraw_ns", || {
        sample_ns(|| {
            let mut rib = Rib::new();
            fill(&mut rib);
            let t0 = Instant::now();
            for (peer, route) in heard.iter().step_by(2) {
                black_box(rib.withdraw_from(*peer, route.nlri));
            }
            for (peer, _) in &heard {
                black_box(rib.flush_peer(*peer));
            }
            (t0.elapsed(), heard.len())
        })
    });
}

/// `bgp.lookup_ns`: longest-prefix match of the workload's group
/// addresses on a converged RIB.
pub fn rib_lookup(env: &mut Env<'_>, converged: &Rib, addrs: &[McastAddr]) {
    probe(env, "bgp.lookup_ns", || {
        ns_per_op(addrs.len(), || {
            for a in addrs {
                black_box(converged.lookup_group(*a));
            }
        })
    });
}

/// A route lookup that always points at one external peer.
struct OnePeer;

impl RouteLookup for OnePeer {
    fn toward_group(&self, _g: McastAddr) -> Option<NextHop> {
        Some(NextHop::ExternalPeer(99))
    }
    fn toward_domain(&self, _asn: bgp::Asn) -> Option<NextHop> {
        Some(NextHop::ExternalPeer(98))
    }
}

/// `bgmp.join_ns`, `bgmp.prune_ns`, `bgmp.forward_ns` on a router
/// holding the workload's groups.
pub fn bgmp_router(env: &mut Env<'_>, addrs: &[McastAddr]) {
    let joined = || {
        let mut r = BgmpRouter::new(1);
        for a in addrs {
            black_box(r.join(Target::Peer(2), *a, &OnePeer));
        }
        r
    };
    probe(env, "bgmp.join_ns", || {
        ns_per_op(addrs.len(), || {
            black_box(joined());
        })
    });
    probe(env, "bgmp.prune_ns", || {
        sample_ns(|| {
            let mut r = joined();
            let t0 = Instant::now();
            for a in addrs {
                black_box(r.prune(Target::Peer(2), *a));
            }
            (t0.elapsed(), addrs.len())
        })
    });
    let r = joined();
    let source = SourceId { domain: 7, host: 1 };
    probe(env, "bgmp.forward_ns", || {
        ns_per_op(addrs.len(), || {
            for a in addrs {
                black_box(r.forward(Some(Target::Peer(99)), source, *a, &OnePeer));
            }
        })
    });
}

/// `migp.op_ns`: join, deliver, leave on PIM-SM over the two-leaf star
/// every single-border domain of the internet workloads runs.
pub fn migp_ops(env: &mut Env<'_>, addrs: &[McastAddr]) {
    let mut migp = MigpKind::PimSm.build(DomainNet::star(2, 1));
    let border = migp.net().border_routers()[0];
    probe(env, "migp.op_ns", || {
        ns_per_op(3 * addrs.len(), || {
            for a in addrs {
                black_box(migp.host_join(1, *a));
                black_box(migp.deliver(border, *a, None));
                black_box(migp.host_leave(1, *a));
            }
        })
    });
}

/// A node with no protocol: forwards every message round the ring and
/// re-arms every timer.
struct Idle {
    next: NodeId,
}

fn idle_period() -> SimDuration {
    SimDuration::from_millis(10)
}

impl Node<()> for Idle {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
        ctx.send(self.next, ());
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, key: u64) {
        ctx.set_timer(idle_period(), key);
    }
}

/// `simnet.bare_ns_per_event`: the serial engine with the workload's
/// node count and its share of message events among all events, but no
/// protocol behind them — what queue and dispatch cost by themselves.
pub fn bare_engine(env: &mut Env<'_>, nodes: usize, msg_share: f64) {
    probe(env, "simnet.bare_ns_per_event", || {
        // Message hops and timer periods both take the same 10 ms, so the
        // event mix is the mix of chains started.
        let chains = 4 * nodes;
        let tokens = (msg_share.clamp(0.0, 1.0) * chains as f64).round() as usize;
        let mut engine: Engine<()> = Engine::new(1, idle_period());
        for i in 0..nodes {
            engine.add_node(Box::new(Idle {
                next: NodeId((i + 1) % nodes),
            }));
        }
        for c in 0..chains {
            let node = NodeId(c % nodes);
            if c < tokens {
                engine.schedule_message(SimTime::ZERO, node, ());
            } else {
                engine.schedule_timer(SimTime::ZERO, node, c as u64);
            }
        }
        // One simulated second is 100 events per chain.
        let mut until = SimTime::ZERO;
        sample_ns(|| {
            let before = engine.stats().events;
            until += SimDuration::from_secs(1);
            let t0 = Instant::now();
            engine.run_until(until);
            (t0.elapsed(), (engine.stats().events - before) as usize)
        })
    });
}

/// `topology.bfs_us`: one-source hop BFS over the workload's graph.
pub fn hop_bfs(env: &mut Env<'_>, graph: &DomainGraph) {
    probe(env, "topology.bfs_us", || {
        let mut src = 0;
        ns_per_op(1, || {
            src = (src + 97) % graph.len();
            black_box(bfs(graph, DomainId(src)));
        }) / 1e3
    });
}

/// `snapshot.codec_mb_s`: raw `Enc`/`Dec` of a `u64` vector as large as
/// the internet blob — the codec without the state walk.
pub fn raw_codec(env: &mut Env<'_>, bytes: usize) {
    probe(env, "snapshot.codec_mb_s", || {
        let words: Vec<u64> = (0..bytes as u64 / 8).collect();
        let ns = ns_per_op(1, || {
            let mut enc = Enc::new();
            enc.seq(words.len());
            for w in &words {
                enc.u64(*w);
            }
            let blob = enc.finish();
            let mut dec = Dec::new(&blob);
            let n = dec.seq().expect("length decodes");
            let mut sum = 0u64;
            for _ in 0..n {
                sum = sum.wrapping_add(dec.u64().expect("word decodes"));
            }
            black_box(sum);
        });
        // Encoded once and decoded once: twice the bytes per pass.
        2.0 * bytes as f64 / (1024.0 * 1024.0) / (ns / 1e9)
    });
}
