//! The schedule fingerprint: the deterministic engine-event counts of
//! the four pinned `bench::perf` workloads at `--quick`, seed 1 (what
//! `bench_perf --quick` prints). A golden CSV can stay byte-identical
//! while the schedule under it moves; these counts cannot.

use std::process::Command;

use masc_bgmp_bench::perf::{self, BenchRecord, PerfConfig};

const PINNED: PerfConfig = PerfConfig {
    quick: true,
    seed: 1,
};

fn assert_pinned(rec: BenchRecord, pinned: u64) {
    assert_eq!(
        rec.events, pinned,
        "{}: event count {pinned} -> {}: the schedule moved: if intended, change this \
         constant in the same commit and record old -> new in EXPERIMENTS.md",
        rec.area, rec.events
    );
}

#[test]
fn fig2_event_count_is_pinned() {
    assert_pinned(perf::run_fig2(&PINNED), 2_599_288);
}

#[test]
fn scale_event_count_is_pinned() {
    assert_pinned(perf::run_scale(&PINNED), 1_129_391);
}

#[test]
fn faults_event_count_is_pinned() {
    assert_pinned(perf::run_faults(&PINNED), 104_828);
}

#[test]
fn wheel_event_count_is_pinned() {
    assert_pinned(perf::run_wheel(&PINNED), 492_528);
}

/// `bench_perf` given `args` must exit 2 naming `offender` on stderr
/// with nothing on stdout: the banner precedes the first area, so an
/// empty stdout means nothing ran (unrejected, `--quik` would run the
/// full suite — 12 minutes, 4 GB).
fn assert_bench_perf_rejects(args: &[&str], offender: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_perf"))
        .args(args)
        .output()
        .expect("run bench_perf");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "bench_perf {args:?}: {stderr}");
    assert!(stderr.contains(offender), "bench_perf {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "bench_perf {args:?} ran something");
}

#[test]
fn bench_perf_rejects_a_misspelt_flag() {
    assert_bench_perf_rejects(&["--quik"], "--quik");
}

#[test]
fn bench_perf_rejects_a_deleted_area() {
    assert_bench_perf_rejects(&["--quick", "--areas", "wheel,fig4"], "`fig4`");
}
