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

use bier::{replay, Plane, SubDomain, DEFAULT_BSL};
use masc_bgmp_core::chaos::{derive_schedule, ring_graph, run_schedule, ChaosConfig};
use metrics::Series;

use crate::par::{run_tasks, task_seed};

/// Inputs of a FAULTS run (`ablation_faults` CLI defaults in
/// brackets; `--smoke` switches to the small committed-golden grid).
#[derive(Clone, Copy, Debug)]
pub struct FaultsParams {
    /// Ring size per chaos cell [6; smoke 5].
    pub domains: usize,
    /// Chaos-phase length per cell, seconds [120; smoke 60].
    pub chaos_secs: u64,
    /// Base seed; cell seeds derive via [`task_seed`] \[7\].
    pub seed: u64,
    /// Harness workers; 1 = serial \[1\].
    pub threads: usize,
    /// Small grid for CI (diffed against the committed golden CSV).
    pub smoke: bool,
}

/// One grid cell's outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultCell {
    /// Per-message loss probability swept on the x axis.
    pub loss: f64,
    /// Silent link flaps injected during the chaos phase.
    pub flaps: usize,
    /// Whether the post-quiesce probe reached every member once.
    pub probe_clean: bool,
    /// Engine events processed in the cell (deterministic per seed).
    pub events: u64,
    /// Every plane's result under the cell's one schedule, in
    /// [`Plane::ALL`] order.
    pub planes: [PlaneCell; 3],
}

/// One plane's result in one cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlaneCell {
    /// `delivered / expected` for chaos-phase packets.
    pub delivery: f64,
    /// BGMP (event-driven): simulated ms from fault cessation to a
    /// clean quiescent check. BIER / map-and-encap (replayed): worst
    /// *link*-fault repair latency in ms — link-only on purpose, the
    /// cell's crash is unprotected under every plane and would swamp
    /// the column (see `ReplayOutcome::max_link_recovery_ms`).
    pub recovery_ms: u64,
}

/// The two series a plane contributes per flap count. The event-driven
/// plane's are the harness's original, unprefixed columns.
fn column_names(plane: Plane, flaps: usize) -> [String; 2] {
    if plane.stateless() {
        let name = plane.name();
        [
            format!("{name}_delivery_f{flaps}"),
            format!("{name}_recovery_ms_f{flaps}"),
        ]
    } else {
        [
            format!("delivery_f{flaps}"),
            format!("convergence_ms_f{flaps}"),
        ]
    }
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
            ..ChaosConfig::default()
        };
        // One derived schedule per cell, faced by every plane: BGMP
        // runs it event by event, the stateless planes replay it over
        // the same ring.
        let schedule = derive_schedule(&cfg);
        let out = run_schedule(&cfg, &schedule);
        assert!(
            out.quiescent_violations.is_empty(),
            "cell (loss={loss}, flaps={flaps}) left violations: {:?}",
            out.quiescent_violations
        );
        let ring = ring_graph(p.domains);
        let sub = SubDomain::new(p.domains, DEFAULT_BSL);
        let planes = Plane::ALL.map(|plane| {
            if plane.stateless() {
                let r = replay(&ring, &sub, &schedule, plane, loss, cfg.seed);
                PlaneCell {
                    delivery: r.delivery_ratio,
                    recovery_ms: r.max_link_recovery_ms,
                }
            } else {
                PlaneCell {
                    delivery: out.delivery_ratio,
                    recovery_ms: out.convergence_ms.unwrap_or_else(|| {
                        panic!("cell (loss={loss}, flaps={flaps}) never re-converged")
                    }),
                }
            }
        });

        FaultCell {
            loss,
            flaps,
            probe_clean: out.probe_clean,
            events: out.events,
            planes,
        }
    })
}

/// The output series (`ablation_faults`): per flap count and plane,
/// delivery ratio and recovery time against loss on the x axis —
/// BGMP's columns for every flap count first (pinned column order),
/// then the replayed planes' for the same flap counts.
pub fn series(cells: &[FaultCell], smoke: bool) -> Vec<Series> {
    let mut columns = Vec::new();
    for f in flap_grid(smoke) {
        for plane in Plane::ALL {
            let [delivery, recovery] = column_names(plane, f);
            let (mut d, mut r) = (Series::new(delivery), Series::new(recovery));
            for cell in cells.iter().filter(|x| x.flaps == f) {
                d.push(cell.loss, cell.planes[plane as usize].delivery);
                r.push(cell.loss, cell.planes[plane as usize].recovery_ms as f64);
            }
            columns.push((plane, [d, r]));
        }
    }
    // Stable: within each half the (flaps, plane) order stands.
    columns.sort_by_key(|(plane, _)| plane.stateless());
    columns.into_iter().flat_map(|(_, pair)| pair).collect()
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
