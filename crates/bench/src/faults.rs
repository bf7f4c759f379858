//! FAULTS — the fault-tolerance ablation: convergence time and
//! end-to-end delivery ratio over a (loss × flap-count) grid of
//! deterministic chaos runs ([`masc_bgmp_core::chaos::run_chaos`]),
//! factored out of the `ablation_faults` binary so the parallel
//! harness and the determinism regression test share one code path.
//!
//! Every grid cell is an independent chaos scenario seeded with
//! [`task_seed`]`(seed, cell-index)`, so the result — and hence the
//! emitted CSV/JSON — is byte-identical for any `--threads` value.
//! Mid-run invariants stay asserted inside the harness: a cell that
//! corrupts tree state panics the sweep instead of emitting numbers.

use bier::sim::{replay, Crash, FaultTimeline, Flap, ReplayParams, Send};
use bier::{SubDomain, DEFAULT_BSL};
use masc_bgmp_core::chaos::{derive_schedule, ring_graph, run_chaos, ChaosConfig, ChaosSchedule};
use metrics::Series;
use topology::DomainId;

use crate::par::{run_tasks, task_seed};

/// Local failure-detection delay charged to the protection plane
/// (BFD-style liveness on the adjacency).
const DETECT_MS: u64 = 50;
/// Routing reconvergence delay charged when a fault has no 1:1 backup
/// and repair must wait for the control plane.
const REROUTE_MS: u64 = 1_000;

/// Inputs of a FAULTS run (`ablation_faults` CLI defaults in
/// brackets; `--smoke` switches to the small committed-golden grid).
#[derive(Clone, Copy, Debug)]
pub struct FaultsParams {
    /// Ring size per chaos cell [6; smoke 5].
    pub domains: usize,
    /// Chaos-phase length per cell, seconds [120; smoke 60].
    pub chaos_secs: u64,
    /// Base seed; cell seeds derive via [`task_seed`] [7].
    pub seed: u64,
    /// Harness workers; 1 = serial [1].
    pub threads: usize,
    /// Small grid for CI (diffed against the committed golden CSV).
    pub smoke: bool,
    /// Engine shards per cell; the grid is byte-identical at every
    /// count, 0 and 1 being the same run [0].
    pub shards: usize,
}

/// One grid cell's outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultCell {
    /// Per-message loss probability swept on the x axis.
    pub loss: f64,
    /// Silent link flaps injected during the chaos phase.
    pub flaps: usize,
    /// `delivered / expected` for chaos-phase packets.
    pub delivery_ratio: f64,
    /// Simulated ms from fault cessation to a clean quiescent check.
    pub convergence_ms: u64,
    /// Whether the post-quiesce probe reached every member once.
    pub probe_clean: bool,
    /// Engine events processed in the cell (deterministic per seed).
    pub events: u64,
    /// BIER delivery ratio over the same fault schedule, with the
    /// BIER-TE 1:1 backup-path protection plane active.
    pub bier_delivery: f64,
    /// Worst *link*-fault repair latency (ms) with protection:
    /// detection-only for covered flaps. Link-only on purpose — the
    /// cell's crash is unprotected under every plane and would swamp
    /// the column (see `ReplayOutcome::max_link_recovery_ms`).
    pub bier_recovery_ms: u64,
    /// Map-and-encap delivery ratio over the same schedule — ingress
    /// replication on unicast routes, no protection plane, so every
    /// fault waits for reconvergence.
    pub mapencap_delivery: f64,
    /// Worst link-fault repair latency (ms) without protection: full
    /// outage + reconvergence.
    pub mapencap_recovery_ms: u64,
}

/// Loss probabilities swept (x axis).
pub fn loss_grid(smoke: bool) -> Vec<f64> {
    if smoke {
        vec![0.0, 0.10]
    } else {
        vec![0.0, 0.05, 0.10, 0.20]
    }
}

/// Flap counts swept (one series pair per count).
pub fn flap_grid(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![0, 5]
    } else {
        vec![0, 3, 5, 8]
    }
}

/// Runs the full (loss × flaps) grid; cells come back row-major in
/// loss-then-flaps order. Every cell must re-converge — a cell that
/// never comes back clean is an invariant failure, not a data point.
pub fn run(p: &FaultsParams) -> Vec<FaultCell> {
    let losses = loss_grid(p.smoke);
    let flaps = flap_grid(p.smoke);
    let tasks: Vec<(f64, usize)> = losses
        .iter()
        .flat_map(|&l| flaps.iter().map(move |&f| (l, f)))
        .collect();
    run_tasks(p.threads, &tasks, |i, &(loss, flaps)| {
        let cfg = ChaosConfig {
            domains: p.domains,
            loss,
            dup: loss / 2.0,
            jitter_ms: 40,
            flaps,
            crashes: 1,
            chaos_secs: p.chaos_secs,
            seed: task_seed(p.seed, i as u64),
            check_mid_run: true,
            shards: p.shards,
        };
        let out = run_chaos(&cfg);
        assert!(
            out.quiescent_violations.is_empty(),
            "cell (loss={loss}, flaps={flaps}) left violations: {:?}",
            out.quiescent_violations
        );

        // Replay the *same* derived fault schedule through the two
        // stateless planes: BIER with 1:1 protection on, map-and-encap
        // with reconvergence-only repair. Same ring, same flap/crash
        // windows, same send times as the BGMP chaos run above.
        let ring = ring_graph(p.domains);
        let sub = SubDomain::new(p.domains, DEFAULT_BSL);
        let timeline = timeline_of(&derive_schedule(&cfg), p.domains);
        let base = ReplayParams {
            loss,
            detect_ms: DETECT_MS,
            reroute_ms: REROUTE_MS,
            protection: true,
            seed: cfg.seed,
        };
        let bier = replay(&ring, &sub, &timeline, &base);
        let mapencap = replay(
            &ring,
            &sub,
            &timeline,
            &ReplayParams {
                protection: false,
                ..base
            },
        );

        FaultCell {
            loss,
            flaps,
            delivery_ratio: out.delivery_ratio,
            convergence_ms: out
                .convergence_ms
                .unwrap_or_else(|| panic!("cell (loss={loss}, flaps={flaps}) never re-converged")),
            probe_clean: out.probe_clean,
            events: out.events,
            bier_delivery: bier.delivery_ratio,
            bier_recovery_ms: bier.max_link_recovery_ms,
            mapencap_delivery: mapencap.delivery_ratio,
            mapencap_recovery_ms: mapencap.max_link_recovery_ms,
        }
    })
}

/// Converts a chaos schedule into the BIER replay timeline: ring edge
/// `e` connects domains `e` and `(e + 1) % n`.
fn timeline_of(s: &ChaosSchedule, n: usize) -> FaultTimeline {
    FaultTimeline {
        flaps: s
            .flaps
            .iter()
            .map(|f| Flap {
                a: DomainId(f.edge),
                b: DomainId((f.edge + 1) % n),
                at: f.at,
                dur: f.dur,
            })
            .collect(),
        crashes: s
            .crashes
            .iter()
            .map(|c| Crash {
                d: DomainId(c.domain),
                at: c.at,
                dur: c.down,
            })
            .collect(),
        sends: s
            .sends
            .iter()
            .map(|&(at, idx)| Send {
                at,
                from: DomainId(idx),
            })
            .collect(),
    }
}

/// The output series (`ablation_faults`): per flap count, delivery
/// ratio and convergence time against loss on the x axis — BGMP's
/// columns first (pinned column order), then the BIER and map-and-encap
/// replay columns for the same flap counts.
pub fn series(cells: &[FaultCell], smoke: bool) -> Vec<Series> {
    let flaps = flap_grid(smoke);
    let mut out = Vec::new();
    for &f in &flaps {
        let mut d = Series::new(format!("delivery_f{f}"));
        let mut c = Series::new(format!("convergence_ms_f{f}"));
        for cell in cells.iter().filter(|x| x.flaps == f) {
            d.push(cell.loss, cell.delivery_ratio);
            c.push(cell.loss, cell.convergence_ms as f64);
        }
        out.push(d);
        out.push(c);
    }
    for &f in &flaps {
        let mut bd = Series::new(format!("bier_delivery_f{f}"));
        let mut br = Series::new(format!("bier_recovery_ms_f{f}"));
        let mut md = Series::new(format!("mapencap_delivery_f{f}"));
        let mut mr = Series::new(format!("mapencap_recovery_ms_f{f}"));
        for cell in cells.iter().filter(|x| x.flaps == f) {
            bd.push(cell.loss, cell.bier_delivery);
            br.push(cell.loss, cell.bier_recovery_ms as f64);
            md.push(cell.loss, cell.mapencap_delivery);
            mr.push(cell.loss, cell.mapencap_recovery_ms as f64);
        }
        out.push(bd);
        out.push(br);
        out.push(md);
        out.push(mr);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_the_issue_floor() {
        // The acceptance scenario needs loss >= 10% with flaps and a
        // crash in at least one cell of even the smoke grid.
        assert!(loss_grid(true).iter().any(|l| *l >= 0.10));
        assert!(flap_grid(true).iter().any(|f| *f >= 5));
        assert!(loss_grid(false).len() * flap_grid(false).len() >= 16);
    }
}
