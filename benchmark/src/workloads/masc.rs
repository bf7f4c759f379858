//! `masc_hier` and `masc_shard`: the paper's figure-2 MASC hierarchy,
//! on the serial engine and on two shards.

use std::time::Duration;

use masc::sim::{HierarchyMetrics, HierarchySim, HierarchySimParams};
use simnet::EngineStats;

use crate::drive::{Env, Size, Workload};
use crate::{host, probes};

/// Shards `masc_shard` always uses, whatever the host offers.
pub const SHARDS: usize = 2;

/// The hierarchy both MASC workloads (and `snap_cycle`) run.
pub fn params(seed: u64, size: Size) -> HierarchySimParams {
    let mut p = HierarchySimParams::paper_fig2(seed);
    if size == Size::Smoke {
        p.top_level = 16;
        p.children_per = 16;
    }
    p
}

/// Events processed plus the figure-2 statistics at the horizon: equal
/// fingerprints mean the same simulated run.
type Fingerprint = (u64, u64, u64, u64, usize);

fn fingerprint(stats: EngineStats, m: &HierarchyMetrics) -> Fingerprint {
    (
        stats.events,
        m.leased,
        m.claimed_top,
        m.grib_avg.to_bits(),
        m.global_prefixes,
    )
}

/// See the module docs; `shards == 0` is the serial engine.
pub struct Masc {
    shards: usize,
    seed: u64,
    size: Size,
    days: u64,
    first: Option<Fingerprint>,
    one_shard_checked: bool,
}

impl Masc {
    /// `masc_hier`: 120 days on the serial engine.
    pub fn hier(seed: u64, size: Size) -> Self {
        Self::new(0, seed, size, 120)
    }

    /// `masc_shard`: 45 days on [`SHARDS`] shards.
    pub fn shard(seed: u64, size: Size) -> Self {
        Self::new(SHARDS, seed, size, 45)
    }

    fn new(shards: usize, seed: u64, size: Size, days: u64) -> Self {
        Masc {
            shards,
            seed,
            size,
            days,
            first: None,
            one_shard_checked: false,
        }
    }

    fn domains(&self) -> u64 {
        let p = params(self.seed, self.size);
        (p.top_level * (1 + p.children_per)) as u64
    }
}

/// The simulation and how long its timed run took.
pub struct State {
    sim: HierarchySim,
    wall: Duration,
}

impl Workload for Masc {
    type State = State;

    fn ops(&self) -> u64 {
        self.domains() * self.days
    }

    fn setup(&mut self, env: &mut Env<'_>) -> State {
        let (p, shards) = (params(self.seed, self.size), self.shards);
        let (sim, _) = env
            .tr
            .time("masc.new", || HierarchySim::new_sharded(p, shards));
        State {
            sim,
            wall: Duration::ZERO,
        }
    }

    fn timed(&mut self, st: &mut State, env: &mut Env<'_>) -> Duration {
        let days = self.days;
        let ((), wall) = env.tr.time("masc.run_to_day", || st.sim.run_to_day(days));
        st.wall = wall;
        wall
    }

    fn verify(&mut self, st: State, env: &mut Env<'_>) {
        let stats = st.sim.engine.stats();
        let m = st.sim.sample();
        let fp = fingerprint(stats, &m);
        let first = *self.first.get_or_insert(fp);
        env.checks.check(fp == first, || {
            format!(
                "repetition {} ran differently: {fp:?} vs {first:?}",
                env.rep
            )
        });
        env.checks.check(stats.events > 0 && m.leased > 0, || {
            format!("hierarchy did no work: {stats:?} {m:?}")
        });

        let s = &mut *env.samples;
        s.push_engine(EngineStats::default(), stats, st.wall);
        s.push("masc.utilization", m.utilization);
        s.push("masc.grib_avg", m.grib_avg);
        s.push("masc.global_prefixes", m.global_prefixes as f64);
        drop(st.sim);

        if self.shards > 0 && !self.one_shard_checked {
            // Once per run: the same input on one shard must simulate the
            // same run, and its wall time is the speed-up's base.
            self.one_shard_checked = true;
            let mut one = HierarchySim::new_sharded(params(self.seed, self.size), 1);
            let days = self.days;
            let ((), wall1) = env
                .tr
                .time("masc.run_to_day.1shard", || one.run_to_day(days));
            let fp1 = fingerprint(one.engine.stats(), &one.sample());
            env.checks.check(fp1 == fp, || {
                format!("1 shard and {SHARDS} shards disagree: {fp1:?} vs {fp:?}")
            });
            let speedup = wall1.as_secs_f64() / st.wall.as_secs_f64();
            env.samples.push("simnet.shard_speedup", speedup);
            if host::nproc() < SHARDS {
                eprintln!(
                    "masc_shard: undersubscribed ({} core for {SHARDS} shards)",
                    host::nproc()
                );
            }
        }

        if env.probe {
            let msg_share = stats.delivered as f64 / (stats.delivered + stats.timers).max(1) as f64;
            probes::bare_engine(env, self.domains() as usize, msg_share);
            probes::claim_round(env);
            probes::space_tracker(env);
        }
    }
}
