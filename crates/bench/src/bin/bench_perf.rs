//! PERF — pinned performance workloads (see `bench::perf`).
//!
//! ```text
//! bench_perf [--quick] [--seed N] [--areas fig2,fig4,faults,wheel,scale,bier]
//!            [--out DIR] [--check DIR] [--tolerance PCT]
//! ```
//!
//! Runs every requested area, writes one `BENCH_<area>.json` per area
//! into `--out` (default `results/perf`, quick mode
//! `results/perf/quick`), and — when `--check DIR` names a baseline
//! directory — exits non-zero if any area's deterministic event count
//! differs from its baseline's, or its events/sec regressed more than
//! `--tolerance` percent (default 30) below it.
//!
//! CI runs `bench_perf --quick --out target/perf --check results/perf/quick`.

use std::path::PathBuf;
use std::process::ExitCode;

use masc_bgmp_bench::perf::{check_against_baseline, run_area, CheckOutcome, PerfConfig, AREAS};
use masc_bgmp_bench::{banner, results_dir, Args};

fn main() -> ExitCode {
    let args = Args::parse();
    let cfg = PerfConfig {
        quick: args.flag("quick"),
        seed: args.seed(1),
    };
    let areas: Vec<String> = match args.str_opt("areas") {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => AREAS.iter().map(|s| s.to_string()).collect(),
    };
    for a in &areas {
        assert!(
            AREAS.contains(&a.as_str()),
            "unknown area `{a}` (known: {})",
            AREAS.join(", ")
        );
    }
    let out_dir = match args.str_opt("out") {
        Some(d) => PathBuf::from(d),
        None => {
            let mut d = results_dir();
            d.push("perf");
            if cfg.quick {
                d.push("quick");
            }
            d
        }
    };
    let tolerance = args.u64("tolerance", 30) as f64 / 100.0;
    let baseline = args.str_opt("check").map(PathBuf::from);

    banner(
        "PERF",
        &format!(
            "pinned perf workloads ({}{})",
            areas.join(","),
            if cfg.quick { ", quick" } else { "" }
        ),
    );

    let mut failed = false;
    for area in &areas {
        let rec = run_area(area, &cfg);
        println!(
            "{:<6} {:>12} {:<13} {:>10.0} ev/s {:>9.1} ns/ev {:>9.1} ms {:>8} kB peak",
            rec.area,
            rec.events,
            rec.unit,
            rec.events_per_sec,
            rec.ns_per_event,
            rec.wall_ms,
            rec.peak_rss_kb
                .map_or_else(|| "n/a".to_string(), |kb| kb.to_string())
        );
        let path = masc_bgmp_bench::perf::write_record(&out_dir, &rec).expect("write record");
        println!("       wrote {}", path.display());
        if let Some(base_dir) = &baseline {
            match check_against_baseline(&rec, base_dir, tolerance) {
                CheckOutcome::Ok => {}
                CheckOutcome::MissingBaseline => {
                    println!(
                        "       no baseline for {area} in {} (skipped)",
                        base_dir.display()
                    );
                }
                CheckOutcome::EventCountChanged { baseline, current } => {
                    println!(
                        "       FAIL: {area} deterministic event count changed \
                         {baseline} -> {current}: the schedule moved"
                    );
                    failed = true;
                }
                CheckOutcome::Regressed {
                    baseline_eps,
                    current_eps,
                } => {
                    println!(
                        "       FAIL: {area} events/sec regressed {:.0} -> {:.0} \
                         (tolerance {:.0}%)",
                        baseline_eps,
                        current_eps,
                        tolerance * 100.0
                    );
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
