//! The fig-2 goldens' reader: the `fig2_masc` binary, on a small
//! grid, must emit the two committed CSVs byte for byte — at any
//! `--threads`, and when the run is stopped at its midpoint and
//! resumed from the checkpoints, serially or at `--threads 4`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const GRID: [&str; 12] = [
    "--days",
    "40",
    "--sample",
    "5",
    "--tops",
    "4",
    "--children",
    "4",
    "--seeds",
    "2",
    "--seed",
    "3",
];

/// A fresh per-test directory (tests share the process id).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fig2-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `fig2_masc` on the grid plus `extra`, results under `out`.
fn fig2(out: &Path, extra: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_fig2_masc"))
        .args(GRID)
        .args(extra)
        .env("MASC_BGMP_RESULTS", out)
        .stdout(Stdio::null())
        .status()
        .expect("run fig2_masc");
    assert!(status.success(), "fig2_masc {extra:?} exited with {status}");
}

fn assert_golden(out: &Path, what: &str) {
    for (file, golden) in [
        (
            "fig2_utilization.csv",
            include_str!("golden/fig2_small_utilization.csv"),
        ),
        ("fig2_grib.csv", include_str!("golden/fig2_small_grib.csv")),
    ] {
        let got = std::fs::read_to_string(out.join(file)).expect("fig2_masc wrote its CSV");
        assert_eq!(
            got, golden,
            "{what}: {file} no longer reproduces the committed golden"
        );
    }
}

#[test]
fn fig2_grid_matches_golden_at_any_thread_count() {
    for threads in ["1", "4"] {
        let out = scratch(&format!("threads{threads}"));
        fig2(&out, &["--threads", threads]);
        assert_golden(&out, &format!("--threads {threads}"));
        std::fs::remove_dir_all(&out).ok();
    }
}

#[test]
fn fig2_grid_stopped_and_resumed_matches_golden() {
    let out = scratch("split");
    let cp = out.join("cp");
    let cp = cp.to_str().expect("utf-8 temp path");
    fig2(
        &out,
        &[
            "--checkpoint-every",
            "20",
            "--stop-at",
            "20",
            "--checkpoint-dir",
            cp,
        ],
    );
    assert!(
        !out.join("fig2_grib.csv").exists(),
        "the stopped half must not emit results"
    );
    // A resume writes no checkpoint of its own, so both start from
    // the same day-20 state.
    for threads in ["1", "4"] {
        let resumed = out.join(format!("resumed{threads}"));
        fig2(&resumed, &["--resume-from", cp, "--threads", threads]);
        assert_golden(
            &resumed,
            &format!("stopped at day 20, resumed at --threads {threads}"),
        );
    }
    std::fs::remove_dir_all(&out).ok();
}
