//! `chaos_ring`: the full stack on a ring under loss, duplication,
//! silent link flaps and a crash — `simnet` and `bgp` on the fault path.

use std::time::Duration;

use masc_bgmp_core::chaos::{derive_schedule, run_chaos, ChaosConfig, ChaosOutcome};

use crate::drive::{Env, Size, Workload};
use crate::probes;

/// See the module docs.
pub struct ChaosRing {
    seed: u64,
    size: Size,
    first: Option<Vec<u64>>,
}

impl ChaosRing {
    /// The workload for one seed and size.
    pub fn new(seed: u64, size: Size) -> Self {
        ChaosRing {
            seed,
            size,
            first: None,
        }
    }

    /// (cells, ring size, chaos seconds, flaps).
    fn shape(&self) -> (u64, usize, u64, usize) {
        match self.size {
            Size::Full => (8, 24, 1800, 24),
            Size::Smoke => (2, 12, 600, 8),
        }
    }
}

/// The cells to run, how many packets each one's schedule sends, and,
/// afterwards, their outcomes.
pub struct State {
    cells: Vec<ChaosConfig>,
    scheduled_sends: Vec<usize>,
    outcomes: Vec<ChaosOutcome>,
}

impl Workload for ChaosRing {
    type State = State;

    /// Simulated seconds of chaos, over all cells.
    fn ops(&self) -> u64 {
        let (cells, _, secs, _) = self.shape();
        cells * secs
    }

    fn setup(&mut self, _env: &mut Env<'_>) -> State {
        let (cells, domains, chaos_secs, flaps) = self.shape();
        let cells: Vec<ChaosConfig> = (0..cells)
            .map(|c| ChaosConfig {
                domains,
                loss: 0.10,
                dup: 0.05,
                jitter_ms: 40,
                flaps,
                crashes: 1,
                chaos_secs,
                seed: self.seed.wrapping_add(c),
                check_mid_run: true,
                shards: 0,
            })
            .collect();
        // The schedule each cell will face, derived here as well so that
        // the outcome can be held against it.
        let scheduled_sends = cells
            .iter()
            .map(|c| derive_schedule(c).sends.len())
            .collect();
        State {
            cells,
            scheduled_sends,
            outcomes: Vec::new(),
        }
    }

    fn timed(&mut self, st: &mut State, env: &mut Env<'_>) -> Duration {
        let mut timed = Duration::ZERO;
        for cfg in &st.cells {
            let (out, wall) = env.tr.time("core.run_chaos", || run_chaos(cfg));
            st.outcomes.push(out);
            timed += wall;
        }
        let events: u64 = st.outcomes.iter().map(|o| o.events).sum();
        env.samples.push("simnet.events", events as f64);
        env.samples.push(
            "simnet.ns_per_event",
            timed.as_nanos() as f64 / events as f64,
        );
        timed
    }

    fn verify(&mut self, st: State, env: &mut Env<'_>) {
        let c = &mut *env.checks;
        for (i, o) in st.outcomes.iter().enumerate() {
            c.check(o.probe_clean, || {
                format!("cell {i}: final probe missed a member or duplicated")
            });
            c.check(o.quiescent_violations.is_empty(), || {
                format!("cell {i}: {:?}", o.quiescent_violations)
            });
            c.check(o.convergence_ms.is_some(), || {
                format!("cell {i}: never re-converged")
            });
            c.check(o.sent as usize == st.scheduled_sends[i], || {
                format!(
                    "cell {i}: sent {} packets, the schedule holds {}",
                    o.sent, st.scheduled_sends[i]
                )
            });
        }
        let fps: Vec<u64> = st.outcomes.iter().map(|o| o.fingerprint).collect();
        let first = self.first.get_or_insert_with(|| fps.clone());
        c.check(fps == *first, || {
            format!("repetition {} ran differently", env.rep)
        });

        let sum = |f: fn(&ChaosOutcome) -> u64| st.outcomes.iter().map(f).sum::<u64>() as f64;
        let s = &mut *env.samples;
        s.push(
            "simnet.fault_draws",
            sum(|o| {
                let f = o.fault_stats;
                f.lost + f.duplicated + f.jittered + f.dropped_at_down_node + f.timers_suppressed
            }),
        );
        s.push("simnet.crashes", sum(|o| o.fault_stats.crashes));
        s.push("core.deliveries", sum(|o| o.delivered));
        let worst = st.outcomes.iter().filter_map(|o| o.convergence_ms).max();
        s.push("core.chaos_convergence_ms", worst.unwrap_or(0) as f64);
        let ratio = st.outcomes.iter().map(|o| o.delivery_ratio).sum::<f64>();
        s.push(
            "core.chaos_delivery_ratio",
            ratio / st.outcomes.len() as f64,
        );

        if env.probe {
            // `ChaosOutcome` gives the event total only; keepalive timers
            // and the messages they send are about one to one.
            probes::bare_engine(env, self.shape().1, 0.5);
        }
    }
}
