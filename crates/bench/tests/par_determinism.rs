//! Determinism regression: the parallel harness must emit CSV/JSON
//! that is **byte-identical** to the serial run — the merge happens in
//! task order and every grid cell is independently seeded, so thread
//! count and scheduling cannot leak into the output.

use masc_bgmp_bench::fig4::{run, series, Fig4Params};
use masc_bgmp_bench::{run_tasks, task_seed};
use metrics::emit;

fn fig4_output(domains: usize, threads: usize) -> (String, String) {
    let points = run(&Fig4Params {
        domains,
        trials: 4,
        seed: 7,
        maxrx: 50,
        threads,
    });
    let s = series(&points);
    (
        emit::to_csv(&s),
        emit::to_json(&s).expect("series serialize"),
    )
}

#[test]
fn fig4_parallel_run_matches_golden() {
    // What `fig4_trees --domains 200 --trials 4 --maxrx 50 --seed 7
    // --threads 4` writes: the golden carries the per-plane state,
    // stretch and link-copy columns after the paper's six.
    assert_eq!(
        fig4_output(200, 4).0,
        include_str!("golden/fig4_small_serial.csv"),
        "fig4 grid no longer reproduces the committed golden CSV"
    );
}

#[test]
fn fig4_parallel_output_is_byte_identical_to_serial() {
    let (csv1, json1) = fig4_output(150, 1);
    let (csv4, json4) = fig4_output(150, 4);
    assert_eq!(csv1, csv4, "CSV diverged between --threads 1 and 4");
    assert_eq!(json1, json4, "JSON diverged between --threads 1 and 4");
    // Sanity: the output actually contains the swept points.
    assert!(csv1.contains("unidirectional_avg"));
    assert!(csv1.lines().count() > 5);
}

#[test]
fn fig4_rerun_is_reproducible() {
    // Same seed, same thread count, fresh graph build: identical bytes.
    assert_eq!(fig4_output(150, 4), fig4_output(150, 4));
}

#[test]
fn harness_merge_order_is_task_order_under_contention() {
    // Tasks of wildly different cost: with 4 workers the *completion*
    // order scrambles, but the merged result must still be task order.
    let tasks: Vec<u64> = (0..64).collect();
    let out = run_tasks(4, &tasks, |i, &t| {
        // Unbalanced busy-work so late tasks often finish first.
        let spin = if i % 7 == 0 { 200_000 } else { 10 };
        let mut acc = task_seed(1, t);
        for _ in 0..spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(t);
        }
        (i, acc)
    });
    let serial: Vec<(usize, u64)> = run_tasks(1, &tasks, |i, &t| {
        let spin = if i % 7 == 0 { 200_000 } else { 10 };
        let mut acc = task_seed(1, t);
        for _ in 0..spin {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(t);
        }
        (i, acc)
    });
    assert_eq!(out, serial);
}
