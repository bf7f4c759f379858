//! `snap_cycle`: checkpoint → resume → checkpoint of a MASC hierarchy
//! and of an internet with live groups. `snapshot` and every
//! `Snapshot`/`SnapshotState` impl do the work.

use std::time::Duration;

use masc::sim::HierarchySim;
use masc_bgmp_core::Internet;

use super::bgp::{config, domains};
use super::churn::{converged_internet, place_groups, schedule_membership};
use super::masc::params;
use crate::drive::{Env, Size, Workload};
use crate::probes;

/// See the module docs.
pub struct SnapCycle {
    seed: u64,
    size: Size,
    first: Option<(usize, usize)>,
}

impl SnapCycle {
    /// The workload for one seed and size.
    pub fn new(seed: u64, size: Size) -> Self {
        SnapCycle {
            seed,
            size,
            first: None,
        }
    }

    /// (hierarchy day, groups joined, member domains each, cycles).
    fn shape(&self) -> (u64, usize, usize, u64) {
        match self.size {
            Size::Full => (40, 200, 30, 3),
            Size::Smoke => (20, 24, 12, 2),
        }
    }
}

/// The two states to snapshot, and what the cycles produced.
pub struct State {
    hier: HierarchySim,
    inet: Internet,
    hier_bytes: usize,
    inet_bytes: usize,
    mismatches: usize,
}

const MB: f64 = 1024.0 * 1024.0;

impl Workload for SnapCycle {
    type State = State;

    /// Node states taken through a cycle: (hierarchy domains + internet
    /// domains) × cycles. Not bytes: a smaller encoding must read as
    /// faster, not as less work.
    fn ops(&self) -> u64 {
        let p = params(self.seed, self.size);
        let hier = p.top_level * (1 + p.children_per);
        (hier + domains(self.size)) as u64 * self.shape().3
    }

    fn setup(&mut self, env: &mut Env<'_>) -> State {
        let (day, groups, members, _) = self.shape();
        let mut hier = HierarchySim::new(params(self.seed, self.size));
        env.tr.time("masc.run_to_day", || hier.run_to_day(day));
        let mut inet = converged_internet(self.seed, self.size, env);
        let groups = place_groups(&mut inet, self.seed, groups, members);
        env.tr.time("core.join", || {
            schedule_membership(&mut inet, &groups, true);
            inet.converge();
        });
        State {
            hier,
            inet,
            hier_bytes: 0,
            inet_bytes: 0,
            mismatches: 0,
        }
    }

    fn timed(&mut self, st: &mut State, env: &mut Env<'_>) -> Duration {
        let cfg = config(self.seed);
        let mut timed = Duration::ZERO;
        let (mut hier_enc, mut hier_dec, mut inet_enc, mut inet_dec) = (
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
            Duration::ZERO,
        );
        for _ in 0..self.shape().3 {
            let tr = &mut *env.tr;
            let (blob, e1) = tr.time("snapshot.hier.checkpoint", || {
                st.hier.checkpoint().expect("encodes")
            });
            let (back, d) = tr.time("snapshot.hier.resume", || {
                HierarchySim::resume(&blob).expect("decodes")
            });
            let (again, e2) = tr.time("snapshot.hier.checkpoint", || {
                back.checkpoint().expect("encodes")
            });
            st.mismatches += usize::from(blob != again);
            st.hier_bytes = blob.len();
            hier_enc += e1 + e2;
            hier_dec += d;
            timed += e1 + d + e2;

            let (blob, e1) = tr.time("snapshot.inet.checkpoint", || {
                st.inet.checkpoint().expect("encodes")
            });
            // Resume restores onto an instance built from the same
            // graph and config; the build is part of the decode path.
            let g = st.inet.graph.clone();
            let (back, d) = tr.time("snapshot.inet.resume", || {
                let mut fresh = Internet::build(g, &cfg);
                fresh.resume_from(&blob).expect("decodes");
                fresh
            });
            let (again, e2) = tr.time("snapshot.inet.checkpoint", || {
                back.checkpoint().expect("encodes")
            });
            st.mismatches += usize::from(blob != again);
            st.inet_bytes = blob.len();
            inet_enc += e1 + e2;
            inet_dec += d;
            timed += e1 + d + e2;
        }

        let cycles = self.shape().3 as f64;
        let rate =
            |bytes: usize, passes: f64, t: Duration| bytes as f64 * passes / MB / t.as_secs_f64();
        let s = &mut *env.samples;
        s.push(
            "snapshot.hier_encode_mb_s",
            rate(st.hier_bytes, 2.0 * cycles, hier_enc),
        );
        s.push(
            "snapshot.hier_decode_mb_s",
            rate(st.hier_bytes, cycles, hier_dec),
        );
        s.push(
            "snapshot.inet_encode_mb_s",
            rate(st.inet_bytes, 2.0 * cycles, inet_enc),
        );
        s.push(
            "snapshot.inet_decode_mb_s",
            rate(st.inet_bytes, cycles, inet_dec),
        );
        s.push("snapshot.hier_blob_mb", st.hier_bytes as f64 / MB);
        s.push("snapshot.inet_blob_mb", st.inet_bytes as f64 / MB);
        timed
    }

    fn verify(&mut self, st: State, env: &mut Env<'_>) {
        let c = &mut *env.checks;
        c.check(st.mismatches == 0, || {
            format!(
                "{} re-encoded snapshots differ from the bytes they were resumed from",
                st.mismatches
            )
        });
        let sizes = (st.hier_bytes, st.inet_bytes);
        let first = *self.first.get_or_insert(sizes);
        c.check(sizes == first && sizes.0 > 0 && sizes.1 > 0, || {
            format!(
                "repetition {} produced blobs of {sizes:?} bytes, the first {first:?}",
                env.rep
            )
        });

        if env.probe {
            probes::raw_codec(env, st.inet_bytes);
        }
    }
}
