//! PERF — four pinned workloads whose engine-event counts are the
//! repository's schedule fingerprint, and the one committed
//! `results/perf/BENCH_scale.json`.
//!
//! Every workload here is pinned (fixed seed, fixed horizon, fixed
//! grid) and returns one [`BenchRecord`]. Its event count comes from
//! the deterministic engines and must be byte-stable for a fixed mode
//! and seed: a changed count means the schedule changed. The four
//! quick, seed-1 counts are pinned by Tier-1 `tests/event_counts.rs`,
//! so a behaviour change edits its constant in the same commit.
//!
//! The timing fields measure the *host*, not the simulation — the only
//! place in the workspace allowed to look at a real clock (the
//! `wall-clock` repolint rule is suppressed line-by-line below). They
//! are printed for orientation and gated nowhere: time and bytes are
//! compared by the repository benchmark (`benchmark/run.sh --compare`).
//!
//! Areas (unit = engine events throughout):
//! * `fig2`  — the default 50×50 MASC hierarchy (the paper's figure-2
//!   setup), short fixed horizon.
//! * `faults` — the smoke chaos grid (loss × flaps with a crash),
//!   summed over cells.
//! * `wheel` — a timer-mix micro-workload exercising the bucket-wheel
//!   event queue (short periodic timers, mid-range timers, overflow
//!   timers beyond the wheel span, plus ring messages).
//! * `scale` — a ≥100k-domain MASC hierarchy, run once: the one
//!   measurement nothing else in the repository makes. Run it alone
//!   (`--areas scale`) and its `peak_rss_kb` is the footprint of that
//!   one population.

use std::path::{Path, PathBuf};
use std::time::Duration;
use std::time::Instant;

use masc::sim::{HierarchySim, HierarchySimParams};
use serde::Serialize;
use simnet::{Engine, NodeId, SimDuration, SimTime};

use crate::faults::{self, FaultsParams};

/// Fixed knobs of a perf run.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Small variants of every workload, sized for Tier-1.
    pub quick: bool,
    /// Base seed for all workloads.
    pub seed: u64,
}

/// One emitted `BENCH_<area>.json` record.
#[derive(Clone, Debug, Serialize)]
pub struct BenchRecord {
    /// Workload id: one of [`AREAS`].
    pub area: String,
    /// Human-readable pinned parameters.
    pub params: String,
    /// What `events` counts: `engine-events` in every area.
    pub unit: String,
    /// Whether this was the `--quick` variant.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Deterministic engine-event count.
    pub events: u64,
    /// Host wall-clock for the measured section, milliseconds.
    pub wall_ms: f64,
    /// `events / wall seconds`.
    pub events_per_sec: f64,
    /// `wall nanoseconds / events`.
    pub ns_per_event: f64,
    /// Peak resident set (`VmHWM`) after the workload, in kB. The
    /// value is the process's, not the area's, and monotonic: only a
    /// single-area run (`--areas scale`) attributes it. `null` when
    /// the reading is unavailable (non-Linux, or a restricted `/proc`)
    /// — never a fabricated `0`, which would read as an impossibly
    /// good number.
    pub peak_rss_kb: Option<u64>,
}

impl BenchRecord {
    fn new(area: &str, params: String, cfg: &PerfConfig, events: u64, wall: Duration) -> Self {
        let wall_ns = wall.as_nanos().max(1) as f64;
        BenchRecord {
            area: area.to_string(),
            params,
            unit: "engine-events".to_string(),
            quick: cfg.quick,
            seed: cfg.seed,
            events,
            wall_ms: wall_ns / 1e6,
            events_per_sec: events as f64 * 1e9 / wall_ns,
            ns_per_event: wall_ns / events.max(1) as f64,
            peak_rss_kb: peak_rss_kb(),
        }
    }

    /// File name this record is written to.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.area)
    }
}

/// Reads the process peak resident set size (`VmHWM`) in kB from
/// `/proc/self/status`. Std-only; returns `None` off Linux.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

/// All known areas, in run order.
pub const AREAS: [&str; 4] = ["fig2", "faults", "wheel", "scale"];

/// Runs one area by name. Panics on an unknown area (the CLI validates
/// first).
pub fn run_area(area: &str, cfg: &PerfConfig) -> BenchRecord {
    match area {
        "fig2" => run_fig2(cfg),
        "faults" => run_faults(cfg),
        "wheel" => run_wheel(cfg),
        "scale" => run_scale(cfg),
        other => panic!("unknown perf area `{other}` (known: {})", AREAS.join(", ")),
    }
}

/// FIG2: the default paper hierarchy (50 tops × 50 children) run to a
/// fixed short horizon: the same population as the benchmark's
/// `masc_hier` workload, which is where its ns/event is compared.
pub fn run_fig2(cfg: &PerfConfig) -> BenchRecord {
    let days = if cfg.quick { 20 } else { 120 };
    let mut sim = HierarchySim::new(HierarchySimParams::paper_fig2(cfg.seed));
    let t0 = Instant::now(); // lint:allow(wall-clock) — host-side throughput measurement is this harness's purpose
    sim.run_to_day(days);
    let wall = t0.elapsed();
    let events = sim.engine.stats().events;
    BenchRecord::new(
        "fig2",
        format!("50x50 hierarchy, {days} days, seed {}", cfg.seed),
        cfg,
        events,
        wall,
    )
}

/// FAULTS: the smoke chaos grid (loss × flaps, one crash per cell).
/// Engine events summed over cells; exercises fault draws, restarts
/// and tree repair.
pub fn run_faults(cfg: &PerfConfig) -> BenchRecord {
    let p = FaultsParams {
        domains: if cfg.quick { 5 } else { 6 },
        chaos_secs: if cfg.quick { 60 } else { 240 },
        seed: cfg.seed.wrapping_add(6),
        threads: 1,
        smoke: true,
    };
    let t0 = Instant::now(); // lint:allow(wall-clock) — host-side throughput measurement is this harness's purpose
    let cells = faults::run(&p);
    let wall = t0.elapsed();
    let events: u64 = cells.iter().map(|c| c.events).sum();
    BenchRecord::new(
        "faults",
        format!(
            "smoke grid ({} cells), ring of {}, {}s chaos, seed {}",
            cells.len(),
            p.domains,
            p.chaos_secs,
            p.seed
        ),
        cfg,
        events,
        wall,
    )
}

/// SCALE: a large MASC hierarchy (full: 100 tops × 1000 children =
/// 100 100 domains; quick: 20 × 100) run once. The one workload here
/// far past the paper's population (2 550 domains), so events/sec and
/// peak RSS at that size have a trend line.
pub fn run_scale(cfg: &PerfConfig) -> BenchRecord {
    let (tops, children, days) = if cfg.quick {
        (20, 100, 8)
    } else {
        (100, 1_000, 10)
    };
    let mut sim = HierarchySim::new(HierarchySimParams {
        top_level: tops,
        children_per: children,
        ..HierarchySimParams::paper_fig2(cfg.seed)
    });
    let t0 = Instant::now(); // lint:allow(wall-clock) — host-side throughput measurement is this harness's purpose
    sim.run_to_day(days);
    let wall = t0.elapsed();
    BenchRecord::new(
        "scale",
        format!(
            "{tops}x{children} hierarchy ({} domains), {days} days, seed {}",
            tops * (1 + children),
            cfg.seed
        ),
        cfg,
        sim.engine.stats().events,
        wall,
    )
}

/// Message type of the wheel micro-workload: a token passed around a
/// ring.
#[derive(Clone)]
struct Token;

/// A node in the wheel micro-workload: re-arms a mix of timers whose
/// delays land in the wheel's near buckets, far buckets, and overflow
/// map, and forwards a ring token, so the measurement covers every
/// queue path (bitmap scan, cursor advance, overflow refill).
struct WheelNode {
    ring_next: NodeId,
}

/// Timer keys and their re-arm delays (ms). Key 3 exceeds the wheel
/// span (16384 one-ms buckets), forcing overflow traffic.
const WHEEL_DELAYS_MS: [u64; 4] = [7, 131, 4099, 20011];

impl simnet::Node<Token> for WheelNode {
    fn on_message(&mut self, ctx: &mut simnet::Ctx<'_, Token>, _from: NodeId, _msg: Token) {
        ctx.send(self.ring_next, Token);
    }

    fn on_timer(&mut self, ctx: &mut simnet::Ctx<'_, Token>, key: u64) {
        let delay = WHEEL_DELAYS_MS[key as usize % WHEEL_DELAYS_MS.len()];
        ctx.set_timer(SimDuration::from_millis(delay), key);
    }

    fn on_start(&mut self, ctx: &mut simnet::Ctx<'_, Token>) {
        for (key, delay) in WHEEL_DELAYS_MS.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(*delay), key as u64);
        }
    }
}

/// WHEEL: the timer-mix micro-workload (pure `simnet`, no protocol
/// code), isolating event-queue and dispatch overhead.
pub fn run_wheel(cfg: &PerfConfig) -> BenchRecord {
    let nodes = 64usize;
    let secs: u64 = if cfg.quick { 40 } else { 160 };
    let mut engine: Engine<Token> = Engine::new(cfg.seed, SimDuration::from_millis(3));
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| {
            engine.add_node(Box::new(WheelNode {
                ring_next: NodeId((i + 1) % nodes),
            }))
        })
        .collect();
    // One circulating token per 8 nodes keeps a message mix in flight.
    for id in ids.iter().step_by(8) {
        engine.schedule_message(SimTime::ZERO, *id, Token);
    }
    let t0 = Instant::now(); // lint:allow(wall-clock) — host-side throughput measurement is this harness's purpose
    engine.run_until(SimTime::ZERO + SimDuration::from_secs(secs));
    let wall = t0.elapsed();
    let events = engine.stats().events;
    BenchRecord::new(
        "wheel",
        format!(
            "{nodes} nodes, {secs}s, timer mix {WHEEL_DELAYS_MS:?} ms, seed {}",
            cfg.seed
        ),
        cfg,
        events,
        wall,
    )
}

/// Writes `record` as pretty JSON (plus trailing newline) into `dir`,
/// creating it as needed. Returns the file path.
pub fn write_record(dir: &Path, record: &BenchRecord) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(record.file_name());
    let mut body = serde_json::to_string_pretty(record).expect("record serializes");
    body.push('\n');
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_reader_parses_self() {
        // On Linux this must parse to a sane non-zero value.
        let kb = peak_rss_kb().expect("VmHWM present");
        assert!(kb > 100, "peak RSS {kb} kB implausibly small");
    }

    #[test]
    fn wheel_workload_is_deterministic() {
        let cfg = PerfConfig {
            quick: true,
            seed: 9,
        };
        let a = run_wheel(&cfg);
        let b = run_wheel(&cfg);
        assert_eq!(a.events, b.events);
        assert!(
            a.events > 100_000,
            "wheel too small to measure: {}",
            a.events
        );
    }
}
