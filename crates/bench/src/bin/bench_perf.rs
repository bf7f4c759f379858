//! PERF — the four pinned workloads of `bench::perf`.
//!
//! ```text
//! bench_perf [--quick] [--areas fig2,faults,wheel,scale] [--seed N] [--out DIR]
//! ```
//!
//! Prints one line per requested area: its deterministic event count
//! (at `--quick`, seed 1, the four counts Tier-1 `tests/event_counts.rs`
//! pins) and the host's timing of it, which nothing gates. Records are
//! written, as `DIR/BENCH_<area>.json`, only when `--out DIR` is given.
//!
//! The one committed record is the full 100 100-domain run (12 min,
//! 4 GB): `bench_perf --areas scale --out results/perf`.

use std::path::PathBuf;
use std::process::ExitCode;

use masc_bgmp_bench::perf::{run_area, write_record, PerfConfig, AREAS};
use masc_bgmp_bench::{banner, Args};

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
    let out_dir = args.str_opt("out").map(PathBuf::from);
    args.finish();
    if let Some(a) = areas.iter().find(|a| !AREAS.contains(&a.as_str())) {
        eprintln!("unknown area `{a}` (known: {})", AREAS.join(", "));
        return ExitCode::from(2);
    }

    banner(
        "PERF",
        &format!(
            "pinned perf workloads ({}{})",
            areas.join(","),
            if cfg.quick { ", quick" } else { "" }
        ),
    );
    for area in &areas {
        let rec = run_area(area, &cfg);
        println!(
            "{:<6} {:>12} events {:>10.0} ev/s {:>9.1} ns/ev {:>9.1} ms {:>8} kB peak",
            rec.area,
            rec.events,
            rec.events_per_sec,
            rec.ns_per_event,
            rec.wall_ms,
            rec.peak_rss_kb
                .map_or_else(|| "n/a".to_string(), |kb| kb.to_string())
        );
        if let Some(dir) = &out_dir {
            let path = write_record(dir, &rec).expect("write record");
            println!("       wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
