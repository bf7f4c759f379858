//! FIG2A / FIG2B — the MASC claim-algorithm simulation (paper §4.3.3,
//! figure 2): 50 top-level domains × 50 children, each child's
//! allocation server requesting 256-address blocks with 30-day
//! lifetimes at inter-request times ~ U(1 h, 95 h), run for 800
//! simulated days.
//!
//! Emits `results/fig2_utilization.{csv,json}` and
//! `results/fig2_grib.{csv,json}`, prints the series, and summarizes
//! steady-state values against the paper's reported numbers
//! (utilization ≈ 50 %; G-RIB mean ≈ 175, max ≤ 180).
//!
//! `--seeds K` runs K independent replications (seed 0 is `--seed`
//! itself, the rest derive via `task_seed`) and reports the per-day
//! mean across them; `--threads N` fans the replications across
//! workers without changing the output.
//!
//! Long runs can be checkpointed and resumed without changing the
//! output: `--checkpoint-every N` writes one snapshot file per
//! replication to `--checkpoint-dir DIR` (default
//! `<results>/checkpoints`) every N simulated days, `--stop-at D`
//! ends the run early at day D, and `--resume-from DIR` continues
//! each replication from its snapshot. A run stopped at the midpoint
//! and resumed emits byte-identical CSVs to one uninterrupted run,
//! at any `--threads`.
//!
//! Usage: `fig2_masc [--days 800] [--seed 1] [--sample 5] [--tops 50]
//! [--children 50] [--seeds 1] [--threads 1]
//! [--checkpoint-every N] [--checkpoint-dir DIR] [--stop-at D]
//! [--resume-from DIR]`

use std::path::{Path, PathBuf};

use masc::{HierarchySim, HierarchySimParams, MascConfig, Workload};
use masc_bgmp_bench::{banner, results_dir, run_tasks, task_seed, Args, Fig2Checkpoint, Fig2Row};
use metrics::{emit, Series};

/// Checkpoint/resume knobs of one invocation, shared by every
/// replication (paths are per task seed).
#[derive(Clone)]
struct CheckpointPlan {
    /// Write a snapshot every this many days (0 = never).
    every: u64,
    /// Where snapshots land.
    dir: PathBuf,
    /// Continue each replication from its snapshot in this directory.
    resume_from: Option<PathBuf>,
}

/// Runs (or continues) one replication and samples it on the fixed
/// day grid. `stop_at` caps the horizon so a run can be split; the
/// concatenation of the split halves equals one uninterrupted run.
fn run_one(
    days: u64,
    stop_at: u64,
    sample_every: u64,
    tops: usize,
    children: usize,
    seed: u64,
    plan: &CheckpointPlan,
) -> Vec<Fig2Row> {
    let (mut sim, mut rows, mut d) = match &plan.resume_from {
        Some(dir) => {
            let ck = Fig2Checkpoint::load(dir, seed).expect("load checkpoint");
            assert_eq!(
                (ck.sample_every, ck.tops, ck.children, ck.seed),
                (sample_every, tops, children, seed),
                "checkpoint was taken with different run parameters"
            );
            let sim = HierarchySim::resume(&ck.sim).expect("resume checkpoint");
            (sim, ck.rows, ck.day)
        }
        None => {
            let sim = HierarchySim::new(HierarchySimParams {
                top_level: tops,
                children_per: children,
                workload: Workload::paper_fig2(),
                config: MascConfig::default(),
                seed,
            });
            (sim, Vec::new(), 0)
        }
    };
    while d < stop_at.min(days) {
        d = (d + sample_every).min(days);
        sim.run_to_day(d);
        let m = sim.sample();
        rows.push(Fig2Row {
            day: m.day,
            util: m.utilization,
            leased: m.leased as f64,
            claimed: m.claimed_top as f64,
            grib_avg: m.grib_avg,
            grib_max: m.grib_max as f64,
            global: m.global_prefixes as f64,
            pending: m.pending as f64,
        });
        if plan.every > 0 && (d.is_multiple_of(plan.every) || d >= stop_at.min(days)) {
            save_checkpoint(
                &sim,
                &rows,
                d,
                sample_every,
                tops,
                children,
                seed,
                &plan.dir,
            );
        }
    }
    rows
}

#[expect(
    clippy::too_many_arguments,
    reason = "one call site; the arguments are the checkpoint's fields"
)]
fn save_checkpoint(
    sim: &HierarchySim,
    rows: &[Fig2Row],
    day: u64,
    sample_every: u64,
    tops: usize,
    children: usize,
    seed: u64,
    dir: &Path,
) {
    let ck = Fig2Checkpoint {
        day,
        sample_every,
        tops,
        children,
        seed,
        rows: rows.to_vec(),
        sim: sim.checkpoint().expect("checkpoint hierarchy"),
    };
    ck.save(dir).expect("write checkpoint");
}

fn main() {
    let args = Args::parse();
    let days = args.u64("days", 800);
    let seed = args.seed(1);
    let sample_every = args.u64("sample", 5);
    let tops = args.usize("tops", 50);
    let children = args.usize("children", 50);
    let seeds = args.usize("seeds", 1).max(1);
    let threads = args.threads();
    let stop_at = args.u64("stop-at", days);
    let plan = CheckpointPlan {
        every: args.u64("checkpoint-every", 0),
        dir: args
            .str_opt("checkpoint-dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| results_dir().join("checkpoints")),
        resume_from: args.str_opt("resume-from").map(PathBuf::from),
    };
    args.finish();

    banner(
        "FIG2",
        &format!(
            "MASC claim algorithm: {tops} top-level x {children} children, {days} days, \
             seed {seed}, {seeds} replication(s), {threads} thread(s)"
        ),
    );

    // Replication 0 keeps the historical seed so a single-seed run is
    // unchanged; extra replications get harness-derived seeds.
    let task_seeds: Vec<u64> = (0..seeds as u64)
        .map(|i| if i == 0 { seed } else { task_seed(seed, i) })
        .collect();
    let runs = run_tasks(threads, &task_seeds, |_, &s| {
        run_one(days, stop_at, sample_every, tops, children, s, &plan)
    });

    if stop_at < days {
        println!(
            "stopped at day {stop_at} of {days}; checkpoints in {}",
            plan.dir.display()
        );
        return;
    }

    let mut util = Series::new("utilization");
    let mut grib_avg = Series::new("grib_avg");
    let mut grib_max = Series::new("grib_max");
    let mut global = Series::new("global_prefixes");
    let mut leased = Series::new("leased_addrs");
    let mut claimed = Series::new("claimed_addrs");

    println!(
        "{:>6} {:>7} {:>12} {:>12} {:>9} {:>9} {:>7} {:>8}",
        "day", "util", "leased", "claimed", "grib_avg", "grib_max", "global", "pending"
    );
    // Per-day mean across replications (every run samples the same
    // day grid, so index j lines up).
    let points = runs[0].len();
    let k = runs.len() as f64;
    let mut last_leased = 0.0;
    for j in 0..points {
        let mut m = Fig2Row {
            day: runs[0][j].day,
            util: 0.0,
            leased: 0.0,
            claimed: 0.0,
            grib_avg: 0.0,
            grib_max: 0.0,
            global: 0.0,
            pending: 0.0,
        };
        for r in &runs {
            m.util += r[j].util / k;
            m.leased += r[j].leased / k;
            m.claimed += r[j].claimed / k;
            m.grib_avg += r[j].grib_avg / k;
            m.grib_max += r[j].grib_max / k;
            m.global += r[j].global / k;
            m.pending += r[j].pending / k;
        }
        util.push(m.day, m.util);
        grib_avg.push(m.day, m.grib_avg);
        grib_max.push(m.day, m.grib_max);
        global.push(m.day, m.global);
        leased.push(m.day, m.leased);
        claimed.push(m.day, m.claimed);
        last_leased = m.leased;
        let d = m.day as u64;
        if d.is_multiple_of(sample_every * 4) || d == days {
            println!(
                "{:>6.0} {:>7.3} {:>12.0} {:>12.0} {:>9.1} {:>9.0} {:>7.0} {:>8.1}",
                m.day, m.util, m.leased, m.claimed, m.grib_avg, m.grib_max, m.global, m.pending
            );
        }
    }

    let dir = results_dir();
    emit::write_results(&dir, "fig2_utilization", &[util.clone(), leased, claimed])
        .expect("write results");
    emit::write_results(
        &dir,
        "fig2_grib",
        &[grib_avg.clone(), grib_max.clone(), global],
    )
    .expect("write results");

    // Steady-state summary over the last third of the run.
    let from = days as f64 * 2.0 / 3.0;
    let steady_util = util.mean_y_from(from).unwrap_or(0.0);
    let steady_avg = grib_avg.mean_y_from(from).unwrap_or(0.0);
    let steady_max = grib_max.mean_y_from(from).unwrap_or(0.0);
    let peak_avg = grib_avg.max_y().unwrap_or(0.0);

    println!();
    println!("util      {}", util.sparkline(60));
    println!("grib_avg  {}", grib_avg.sparkline(60));
    println!();
    println!("-- steady state (day > {from:.0}) vs paper --");
    println!(
        "utilization:     measured {:.3}   paper ~0.50 (converges after startup transient)",
        steady_util
    );
    println!(
        "G-RIB avg:       measured {:.0}     paper ~175 (startup peak ~290; ours peaks {:.0})",
        steady_avg, peak_avg
    );
    println!(
        "G-RIB max:       measured {:.0}     paper <=180 in steady state",
        steady_max
    );
    println!(
        "aggregation:     {:.0} outstanding blocks held in {:.0} G-RIB entries",
        last_leased / 256.0,
        steady_avg
    );
    println!("results written to {}", dir.display());
}
