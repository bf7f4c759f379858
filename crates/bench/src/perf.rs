//! PERF — pinned performance workloads emitting `BENCH_<area>.json`.
//!
//! The paper's scalability claim (§1, §6) is only testable if the
//! simulator itself scales, so events/sec is a first-class, regression
//! gated metric: every workload here is pinned (fixed seed, fixed
//! horizon, fixed grid) and emits one JSON record with events/sec,
//! ns/event, event counts, peak RSS and wall-clock. CI's `perf-smoke`
//! job runs the `--quick` variants and fails when events/sec regresses
//! more than the tolerance against the committed baseline (see
//! [`check_against_baseline`]).
//!
//! Wall-clock here measures the *host*, not the simulation — the only
//! place in the workspace allowed to look at a real clock (the
//! `wall-clock` repolint rule is suppressed line-by-line below).
//! Event counts, by contrast, come from the deterministic engines and
//! must be byte-stable for a fixed mode and seed: a changed count
//! means the schedule changed, which the checker reports loudly even
//! when throughput is fine.
//!
//! Areas:
//! * `fig2`  — the default 50×50 MASC hierarchy (the paper's figure-2
//!   setup), short fixed horizon; unit = engine events.
//! * `fig4`  — the small tree-quality grid (same shape CI's
//!   bench-smoke diffs); unit = grid cells.
//! * `faults` — the smoke chaos grid (loss × flaps with a crash);
//!   unit = engine events summed over cells.
//! * `wheel` — a timer-mix micro-workload exercising the bucket-wheel
//!   event queue (short periodic timers, mid-range timers, overflow
//!   timers beyond the wheel span, plus ring messages); unit = engine
//!   events.
//! * `scale` — a ≥100k-domain MASC hierarchy, run once; unit = engine
//!   events. Run it alone (`--areas scale`) and its `peak_rss_kb` is
//!   the footprint of that one population.
//! * `bier` — BIFT construction for every ingress of an Internet-like
//!   graph plus bitstring forwarding to a fixed membership; unit =
//!   BIFT entries built + link copies forwarded (both deterministic).

use std::path::{Path, PathBuf};
use std::time::Duration;
use std::time::Instant;

use bier::{Network, SubDomain, DEFAULT_BSL};
use masc::sim::{HierarchySim, HierarchySimParams};
use serde::{Deserialize, Serialize};
use simnet::{Engine, NodeId, SimDuration, SimTime};
use topology::{internet_like, DomainId, InternetSpec};

use crate::faults::{self, FaultsParams};
use crate::fig4::{self, Fig4Params};

/// Fixed knobs of a perf run.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Small CI-sized variants of every workload.
    pub quick: bool,
    /// Base seed for all workloads.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            quick: false,
            seed: 1,
        }
    }
}

/// One emitted `BENCH_<area>.json` record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Workload id: one of [`AREAS`].
    pub area: String,
    /// Human-readable pinned parameters.
    pub params: String,
    /// What one "event" is for this area.
    pub unit: String,
    /// Whether this was the `--quick` variant.
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Deterministic work-unit count (engine events or grid cells).
    pub events: u64,
    /// Host wall-clock for the measured section, milliseconds.
    pub wall_ms: f64,
    /// `events / wall seconds`.
    pub events_per_sec: f64,
    /// `wall nanoseconds / events`.
    pub ns_per_event: f64,
    /// Peak resident set (`VmHWM`) after the workload, in kB. Process
    /// wide and monotonic, so only the first workload in a process
    /// attributes it cleanly; still recorded per area for trend lines.
    /// `null` when the reading is unavailable (non-Linux, or a
    /// restricted `/proc`) — never a fabricated `0`, which would read
    /// as an impossibly good number in trend tooling.
    pub peak_rss_kb: Option<u64>,
}

impl BenchRecord {
    fn new(
        area: &str,
        params: String,
        unit: &str,
        cfg: &PerfConfig,
        events: u64,
        wall: Duration,
    ) -> Self {
        let wall_ns = wall.as_nanos().max(1) as f64;
        BenchRecord {
            area: area.to_string(),
            params,
            unit: unit.to_string(),
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
pub const AREAS: [&str; 6] = ["fig2", "fig4", "faults", "wheel", "scale", "bier"];

/// Runs one area by name. Panics on an unknown area (the CLI validates
/// first).
pub fn run_area(area: &str, cfg: &PerfConfig) -> BenchRecord {
    match area {
        "fig2" => run_fig2(cfg),
        "fig4" => run_fig4(cfg),
        "faults" => run_faults(cfg),
        "wheel" => run_wheel(cfg),
        "scale" => run_scale(cfg),
        "bier" => run_bier(cfg),
        other => panic!("unknown perf area `{other}` (known: {})", AREAS.join(", ")),
    }
}

/// FIG2: the default paper hierarchy (50 tops × 50 children) run to a
/// fixed short horizon. This is the headline events/sec number the
/// perf trajectory tracks (ROADMAP item 5).
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
        "engine-events",
        cfg,
        events,
        wall,
    )
}

/// FIG4: the small tree-quality grid (the same shape CI's bench-smoke
/// golden uses), repeated enough times to be measurable — one grid
/// pass is sub-millisecond after the incremental-SPF work of earlier
/// PRs. Cells per second; dominated by graph/tree construction.
pub fn run_fig4(cfg: &PerfConfig) -> BenchRecord {
    let p = Fig4Params {
        domains: 200,
        trials: 4,
        seed: cfg.seed.wrapping_add(6), // the CI golden pins seed 7
        maxrx: 50,
        threads: 1,
    };
    let reps: usize = if cfg.quick { 40 } else { 200 };
    let t0 = Instant::now(); // lint:allow(wall-clock) — host-side throughput measurement is this harness's purpose
    let mut cells = 0u64;
    let mut first: Option<Vec<fig4::Fig4Point>> = None;
    for _ in 0..reps {
        let points = fig4::run(&p);
        cells += (points.len() * p.trials) as u64;
        match &first {
            None => first = Some(points),
            // Repetitions are purely for measurement: they must not
            // disagree, or the workload itself is non-deterministic.
            Some(f) => assert_eq!(*f, points, "fig4 grid must be deterministic across reps"),
        }
    }
    let wall = t0.elapsed();
    BenchRecord::new(
        "fig4",
        format!(
            "{} domains, {} trials, maxrx {}, seed {}, x{reps} reps",
            p.domains, p.trials, p.maxrx, p.seed
        ),
        "grid-cells",
        cfg,
        cells,
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
        "engine-events",
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
        "engine-events",
        cfg,
        sim.engine.stats().events,
        wall,
    )
}

/// BIER: the stateless-plane hot paths. Phase 1 builds a BIFT for
/// every ingress of an Internet-like graph (n BFS passes + F-BM
/// accumulation); phase 2 forwards packets from rotating ingresses to
/// a fixed every-third-domain membership. Both phases are pure
/// functions of the seed, so the event count (BIFT entries built plus
/// link copies forwarded) is deterministic and baseline-checked.
pub fn run_bier(cfg: &PerfConfig) -> BenchRecord {
    let (n, sends) = if cfg.quick {
        (600, 400)
    } else {
        (2_000, 2_000)
    };
    let spec = InternetSpec {
        n,
        backbones: 10,
        attach: 2,
        extra_peerings: 30,
        seed: cfg.seed.wrapping_add(6),
    };
    let graph = internet_like(&spec);
    let sub = SubDomain::new(n, DEFAULT_BSL);
    let receivers: Vec<DomainId> = (0..n).step_by(3).map(DomainId).collect();

    let t0 = Instant::now(); // lint:allow(wall-clock) — host-side throughput measurement is this harness's purpose
    let net = Network::build(&graph, &sub);
    let mut events = net.total_entries() as u64;
    for k in 0..sends {
        let ingress = DomainId(k * 17 % n);
        let d = net.deliver_all(ingress, &receivers, None);
        events += d.link_copies as u64;
    }
    let wall = t0.elapsed();
    BenchRecord::new(
        "bier",
        format!(
            "{n} domains, BSL {DEFAULT_BSL}, {} receivers, {sends} sends, seed {}",
            receivers.len(),
            spec.seed
        ),
        "bift-entries+copies",
        cfg,
        events,
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
        "engine-events",
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

/// Reads a previously written record.
pub fn read_record(path: &Path) -> Result<BenchRecord, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Outcome of comparing one fresh record against its baseline.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckOutcome {
    /// Within tolerance.
    Ok,
    /// events/sec fell below `baseline * (1 - tolerance)`.
    Regressed { baseline_eps: f64, current_eps: f64 },
    /// No baseline file for this area — informational, not a failure
    /// (new areas land before their first baseline).
    MissingBaseline,
    /// Same mode + seed but a different deterministic event count:
    /// the schedule changed. A failure, and reported ahead of
    /// throughput — a different schedule's rate compares to nothing.
    EventCountChanged { baseline: u64, current: u64 },
}

/// Compares `current` against `<baseline_dir>/BENCH_<area>.json` with
/// the given relative tolerance on events/sec (0.30 = allow a 30%
/// drop).
pub fn check_against_baseline(
    current: &BenchRecord,
    baseline_dir: &Path,
    tolerance: f64,
) -> CheckOutcome {
    let path = baseline_dir.join(current.file_name());
    let Ok(base) = read_record(&path) else {
        return CheckOutcome::MissingBaseline;
    };
    if base.quick == current.quick && base.seed == current.seed && base.events != current.events {
        return CheckOutcome::EventCountChanged {
            baseline: base.events,
            current: current.events,
        };
    }
    if current.events_per_sec < base.events_per_sec * (1.0 - tolerance) {
        return CheckOutcome::Regressed {
            baseline_eps: base.events_per_sec,
            current_eps: current.events_per_sec,
        };
    }
    CheckOutcome::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(area: &str, eps: f64, events: u64) -> BenchRecord {
        BenchRecord {
            area: area.to_string(),
            params: "test".to_string(),
            unit: "engine-events".to_string(),
            quick: true,
            seed: 1,
            events,
            wall_ms: 1.0,
            events_per_sec: eps,
            ns_per_event: 1e9 / eps.max(1.0),
            peak_rss_kb: None,
        }
    }

    #[test]
    fn rss_reader_parses_self() {
        // On Linux this must parse to a sane non-zero value.
        let kb = peak_rss_kb().expect("VmHWM present");
        assert!(kb > 100, "peak RSS {kb} kB implausibly small");
    }

    #[test]
    fn record_roundtrip_and_check() {
        let dir = std::env::temp_dir().join(format!("perf-check-{}", std::process::id()));
        let base = rec("wheel", 1000.0, 42);
        write_record(&dir, &base).unwrap();
        let read = read_record(&dir.join("BENCH_wheel.json")).unwrap();
        assert_eq!(read.events, 42);

        // Same speed: fine. 20% slower: fine at 30% tolerance.
        assert_eq!(
            check_against_baseline(&rec("wheel", 1000.0, 42), &dir, 0.30),
            CheckOutcome::Ok
        );
        assert_eq!(
            check_against_baseline(&rec("wheel", 800.0, 42), &dir, 0.30),
            CheckOutcome::Ok
        );
        // 40% slower: regression.
        assert!(matches!(
            check_against_baseline(&rec("wheel", 600.0, 42), &dir, 0.30),
            CheckOutcome::Regressed { .. }
        ));
        // Same mode but different deterministic count: flagged, and
        // ahead of a throughput drop.
        for eps in [1000.0, 600.0] {
            assert_eq!(
                check_against_baseline(&rec("wheel", eps, 43), &dir, 0.30),
                CheckOutcome::EventCountChanged {
                    baseline: 42,
                    current: 43
                }
            );
        }
        // Unknown area: missing baseline.
        assert_eq!(
            check_against_baseline(&rec("nope", 1.0, 1), &dir, 0.30),
            CheckOutcome::MissingBaseline
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bier_workload_is_deterministic() {
        let cfg = PerfConfig {
            quick: true,
            seed: 9,
        };
        let a = run_bier(&cfg);
        let b = run_bier(&cfg);
        assert_eq!(a.events, b.events);
        assert!(
            a.events > 10_000,
            "bier workload too small to measure: {}",
            a.events
        );
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
