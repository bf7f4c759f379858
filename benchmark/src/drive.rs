//! The repetition loop every workload runs through, and what a run
//! reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use simnet::EngineStats;

use crate::stats::median;
use crate::trace::Tracer;
use crate::{alloc, host, metrics};

/// Input size of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `README.md` freezes.
    Full,
    /// About a tenth of that: `--smoke`, and the layer walk of a
    /// traced run.
    Smoke,
}

/// Verification checks attempted and failed; `failed / attempted` is
/// the run's `fail_ratio`.
#[derive(Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// What failed.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` is evaluated only on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Per-layer samples a workload reports from a repetition, by metric
/// name. Counts repeat exactly, so a count that differs between two
/// repetitions of one run is a failed check.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::layer(name).is_some(), "unknown metric {name}");
        self.0.entry(name).or_default().push(value);
    }

    /// The four engine counters and the cost per event of a timed
    /// section that took `wall` and moved the counters from `before`
    /// to `after`.
    pub fn push_engine(&mut self, before: EngineStats, after: EngineStats, wall: Duration) {
        let events = after.events - before.events;
        self.push("simnet.events", events as f64);
        self.push(
            "simnet.delivered",
            (after.delivered - before.delivered) as f64,
        );
        self.push("simnet.timers", (after.timers - before.timers) as f64);
        self.push("simnet.dropped", (after.dropped - before.dropped) as f64);
        self.push(
            "simnet.ns_per_event",
            wall.as_nanos() as f64 / events as f64,
        );
    }

    /// Folds the samples into one value per metric: the median, which
    /// for a count is the value every repetition gave.
    fn fold(&self, checks: &mut Checks) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, values) in &self.0 {
            if metrics::layer(name).is_some_and(|l| l.count) {
                checks.check(values.iter().all(|v| *v == values[0]), || {
                    format!("count {name} differs between repetitions of one seed: {values:?}")
                });
            }
            out.insert(*name, median(values));
        }
        // What the protocols above the engine cost, as a share of the
        // cost per event: what is left once queue and dispatch are paid.
        if let (Some(per_event), Some(bare)) = (
            out.get("simnet.ns_per_event"),
            out.get("simnet.bare_ns_per_event"),
        ) {
            out.insert("simnet.protocol_share", 1.0 - bare / per_event);
        }
        out
    }
}

/// What a workload's methods are handed.
pub struct Env<'a> {
    /// Span recorder.
    pub tr: &'a mut Tracer,
    /// Per-layer samples.
    pub samples: &'a mut Samples,
    /// Verification gate.
    pub checks: &'a mut Checks,
    /// True in the repetitions of a traced run that record spans:
    /// extra passes run only then, outside the timed section.
    pub traced: bool,
    /// True in the first of those: the layer probes run once per run.
    pub probe: bool,
    /// Repetition index.
    pub rep: u32,
}

/// One of the seven workloads, as the repetition loop sees it.
pub trait Workload {
    /// What set-up builds and the timed section runs on.
    type State;

    /// Operations one repetition performs: fixed by the input, not by
    /// how many events the program spends on them.
    fn ops(&self) -> u64;

    /// Input generation from the seed plus state construction.
    fn setup(&mut self, env: &mut Env<'_>) -> Self::State;

    /// The timed section; returns the time it counts (verification
    /// pauses between its phases are left out).
    fn timed(&mut self, state: &mut Self::State, env: &mut Env<'_>) -> Duration;

    /// The correctness gate, outside the timed section.
    fn verify(&mut self, state: Self::State, env: &mut Env<'_>);

    /// Fewest repetitions a run makes. Two lets every run compare two
    /// repetitions' fingerprints; a workload whose timing the host
    /// disturbs more asks for more, so that its median can shed them.
    fn min_reps(&self) -> u32 {
        2
    }
}

/// How many repetitions a run makes, and which of them are traced.
#[derive(Clone, Copy, Debug)]
pub enum Reps {
    /// Plain repetitions until the timed sections add up to this many
    /// seconds, and at least [`Workload::min_reps`].
    Plain(f64),
    /// The same count, alternating plain, traced, plain, …
    Traced(f64),
    /// One traced repetition: the layer walk.
    WalkOnce,
}

/// Result of [`drive`].
pub struct Outcome {
    /// Operations per repetition.
    pub ops: u64,
    /// Timed-section seconds of the plain repetitions.
    pub plain_walls: Vec<f64>,
    /// Timed-section seconds of the traced repetitions.
    pub traced_walls: Vec<f64>,
    /// Every set-up sample, seconds.
    pub setup_walls: Vec<f64>,
    /// Per-layer values.
    pub layer: BTreeMap<&'static str, f64>,
}

/// A set-up shorter than this is sampled again within the repetition,
/// so that its median does not rest on two or three microsecond-scale
/// readings.
const CHEAP_SETUP: Duration = Duration::from_millis(50);
const CHEAP_SETUP_SAMPLES: usize = 9;

/// A run stops starting repetitions this long after it began, whatever
/// `--seconds` asks, to stay inside the caller's 180 s limit.
const WALL_CAP: Duration = Duration::from_secs(120);

/// Runs `w` through set-up → timed → verify repetitions.
///
/// In a traced run the repetitions alternate plain, traced, plain, …:
/// the traced ones record spans and count allocations, and the two
/// groups' medians give `trace.overhead_pct` from one process.
pub fn drive<W: Workload>(
    name: &str,
    w: &mut W,
    reps: Reps,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Outcome {
    let began = Instant::now();
    let ops = w.ops();
    let mut samples = Samples::default();
    let (mut plain_walls, mut traced_walls, mut setup_walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    let mut rep = 0u32;
    loop {
        let traced = match reps {
            Reps::Plain(_) => false,
            Reps::Traced(_) => rep % 2 == 1,
            Reps::WalkOnce => true,
        };
        tr.set_enabled(traced);
        tr.set_context(name, rep);
        let rep_span = tr.enter("rep");
        let mut env = Env {
            tr,
            samples: &mut samples,
            checks,
            traced,
            probe: traced && traced_walls.is_empty(),
            rep,
        };

        let setup_span = env.tr.enter("setup");
        let mut spent = Duration::ZERO;
        let mut state = None;
        for _ in 0..CHEAP_SETUP_SAMPLES {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(w.setup(&mut env));
            let took = t0.elapsed();
            setup_walls.push(took.as_secs_f64());
            spent += took;
            if spent >= CHEAP_SETUP {
                break;
            }
        }
        let mut state = state.expect("set-up ran at least once");
        env.tr.exit(setup_span);

        let timed_span = env.tr.enter("timed");
        alloc::set_enabled(traced);
        let (heap0, cpu0) = (alloc::counts(), host::cpu_seconds());
        let took = w.timed(&mut state, &mut env).as_secs_f64();
        let (heap, cpu) = (alloc::counts().since(heap0), host::cpu_seconds() - cpu0);
        alloc::set_enabled(false);
        env.tr.exit(timed_span);
        cpu_s += cpu;
        wall_s += took;
        if traced {
            traced_walls.push(took);
            let per_op = |v: u64| v as f64 / ops as f64;
            env.samples.push("heap.allocs_per_op", per_op(heap.allocs));
            env.samples.push("heap.bytes_per_op", per_op(heap.bytes));
            let live = heap.bytes as f64 - heap.freed as f64;
            env.samples
                .push("heap.live_mb_end", live / (1024.0 * 1024.0));
        } else {
            plain_walls.push(took);
        }

        let verify_span = env.tr.enter("verify");
        let t0 = Instant::now();
        w.verify(state, &mut env);
        let verify_ms = t0.elapsed().as_secs_f64() * 1e3;
        env.samples.push("core.verify_ms", verify_ms);
        env.tr.exit(verify_span);
        tr.exit(rep_span);

        rep += 1;
        let done = match reps {
            Reps::WalkOnce => true,
            Reps::Plain(s) | Reps::Traced(s) => {
                rep >= w.min_reps() && (wall_s >= s || began.elapsed() >= WALL_CAP)
            }
        };
        if done {
            break;
        }
    }
    tr.set_enabled(false);

    samples.push("simnet.cpu_per_wall", cpu_s / wall_s);
    if let (false, false) = (plain_walls.is_empty(), traced_walls.is_empty()) {
        let (plain, traced) = (median(&plain_walls), median(&traced_walls));
        samples.push("trace.overhead_pct", (traced - plain) / plain * 100.0);
    }
    Outcome {
        ops,
        plain_walls,
        traced_walls,
        setup_walls,
        layer: samples.fold(checks),
    }
}
