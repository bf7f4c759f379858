//! `bgp_converge`: cold BGP group-route flood on an Internet-like
//! graph, then backbone link flaps. Also home of the internet inputs
//! `group_churn` and `snap_cycle` share.

use std::time::Duration;

use masc_bgmp_core::{analysis, Addressing, BorderPlan, Internet, InternetConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use topology::{internet_like, DomainGraph, DomainId, InternetSpec};

use crate::drive::{Env, Size, Workload};
use crate::probes;

/// Backbone clique size of the generated graph.
const BACKBONES: usize = 8;

/// A seeded RNG for one purpose (`salt`), independent of the others
/// drawn from the same `--seed`.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Domains in the internet of the three internet workloads.
pub fn domains(size: Size) -> usize {
    match size {
        Size::Full => 300,
        Size::Smoke => 96,
    }
}

/// The Internet-like graph of the three internet workloads.
pub fn graph(seed: u64, size: Size) -> DomainGraph {
    let extra_peerings = match size {
        Size::Full => 20,
        Size::Smoke => 6,
    };
    internet_like(&InternetSpec {
        n: domains(size),
        backbones: BACKBONES,
        attach: 2,
        extra_peerings,
        seed,
    })
}

/// One border router per domain, static ranges, no session timers:
/// failures are signalled, so every BGP message is a route message.
pub fn config(seed: u64) -> InternetConfig {
    InternetConfig {
        borders: BorderPlan::Single,
        addressing: Addressing::Static,
        sessions: None,
        seed,
        ..Default::default()
    }
}

/// FNV-1a over a stream of words.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one word in.
    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of every router's selected routes (NLRI order, with path and
/// next hop). Unlike `chaos::state_fingerprint` it leaves out the clock
/// and the message totals, so the state before a flap and after its
/// heal can be compared.
pub fn routes_fingerprint(net: &Internet) -> u64 {
    let mut h = Fnv::new();
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            h.word(u64::from(br.id));
            for r in br.speaker.rib().loc_rib() {
                h.word(u64::from(r.next_hop));
                h.word(r.as_path.len() as u64);
                for asn in r.as_path.iter() {
                    h.word(u64::from(*asn));
                }
            }
        }
    }
    h.0
}

/// The domain with the most neighbours (lowest id among equals).
pub fn busiest_domain(g: &DomainGraph) -> DomainId {
    g.domains()
        .max_by_key(|d| (g.degree(*d), std::cmp::Reverse(d.0)))
        .expect("graph has domains")
}

/// See the module docs.
pub struct BgpConverge {
    seed: u64,
    size: Size,
    first: Option<(u64, u64)>,
}

impl BgpConverge {
    /// The workload for one seed and size.
    pub fn new(seed: u64, size: Size) -> Self {
        BgpConverge {
            seed,
            size,
            first: None,
        }
    }

    fn flaps(&self) -> usize {
        match self.size {
            Size::Full => 10,
            Size::Smoke => 3,
        }
    }
}

/// A built internet, the links to flap, and what the timed section saw.
pub struct State {
    net: Internet,
    flaps: Vec<(DomainId, DomainId)>,
    grib_full: bool,
    before_flaps: u64,
}

impl Workload for BgpConverge {
    type State = State;

    /// (domain, prefix) pairs that must hold a best route.
    fn ops(&self) -> u64 {
        let n = domains(self.size) as u64;
        n * n
    }

    fn setup(&mut self, env: &mut Env<'_>) -> State {
        let (seed, size) = (self.seed, self.size);
        let (g, _) = env.tr.time("topology.internet_like", || graph(seed, size));
        // Flap links are drawn from the backbone clique: every pair of
        // its members is adjacent and carries transit routes.
        let mut links: Vec<(DomainId, DomainId)> = (0..BACKBONES)
            .flat_map(|a| (a + 1..BACKBONES).map(move |b| (DomainId(a), DomainId(b))))
            .collect();
        links.shuffle(&mut rng(self.seed, 0xF1A9));
        links.truncate(self.flaps());
        let cfg = config(self.seed);
        let (net, _) = env.tr.time("core.build", || Internet::build(g, &cfg));
        State {
            net,
            flaps: links,
            grib_full: false,
            before_flaps: 0,
        }
    }

    fn timed(&mut self, st: &mut State, env: &mut Env<'_>) -> Duration {
        let net = &mut st.net;
        let s0 = net.engine.stats();
        let ((), cold) = env.tr.time("bgp.converge", || net.converge());
        let s1 = net.engine.stats();

        // Untimed: the flood must have filled every G-RIB, and the
        // routes it chose are what the last heal must restore.
        let n = net.graph.len();
        let sizes = analysis::grib_sizes(net);
        st.grib_full = sizes.iter().all(|s| *s == n);
        st.before_flaps = routes_fingerprint(net);

        let flaps = &st.flaps;
        let ((), flap) = env.tr.time("bgp.flap_cycles", || {
            for &(a, b) in flaps {
                net.fail_link(a, b);
                net.converge();
                net.heal_link(a, b);
                net.converge();
            }
        });
        let s2 = net.engine.stats();

        let s = &mut *env.samples;
        s.push("bgp.converge_ms", cold.as_secs_f64() * 1e3);
        s.push("bgp.flap_ms", flap.as_secs_f64() * 1e3);
        s.push("bgp.msgs_converge", (s1.delivered - s0.delivered) as f64);
        s.push("bgp.msgs_flap", (s2.delivered - s1.delivered) as f64);
        s.push(
            "bgp.grib_avg",
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64,
        );
        s.push_engine(s0, s2, cold + flap);
        cold + flap
    }

    /// The flood walks ~200 MB of routes, so its speed follows whatever
    /// else the host's memory system is doing: between processes a few
    /// seconds apart it moved by 10–15 %, within one process by 3 %.
    fn min_reps(&self) -> u32 {
        4
    }

    fn verify(&mut self, st: State, env: &mut Env<'_>) {
        let n = st.net.graph.len();
        env.checks.check(st.grib_full, || {
            format!("a G-RIB holds fewer than {n} routes after the cold flood")
        });
        let after = routes_fingerprint(&st.net);
        env.checks.check(after == st.before_flaps, || {
            "selected routes after the last heal differ from those before the first flap".into()
        });
        let fp = (after, st.net.engine.stats().events);
        let first = *self.first.get_or_insert(fp);
        env.checks.check(fp == first, || {
            format!(
                "repetition {} ran differently: {fp:?} vs {first:?}",
                env.rep
            )
        });

        if env.probe {
            let stats = st.net.engine.stats();
            let msg_share = stats.delivered as f64 / (stats.delivered + stats.timers).max(1) as f64;
            probes::bare_engine(env, n, msg_share);
            let hub = busiest_domain(&st.net.graph);
            probes::rib_replay(env, st.net.domain(hub).routers[0].speaker.rib());
        }
    }
}
