//! Determinism regression for the fault ablation: the chaos sweep is
//! seeded per cell and merged in task order, so its CSV must be
//! byte-identical across thread counts *and* engine shard counts,
//! and must reproduce the one committed golden file — the same file
//! CI regenerates and diffs.

use masc_bgmp_bench::faults::{run, series, FaultsParams};
use metrics::emit;

fn smoke_csv(threads: usize, shards: usize) -> String {
    let cells = run(&FaultsParams {
        domains: 5,
        chaos_secs: 60,
        seed: 7,
        threads,
        smoke: true,
        shards,
    });
    emit::to_csv(&series(&cells, true))
}

#[test]
fn faults_smoke_is_thread_invariant_and_matches_golden() {
    let serial = smoke_csv(1, 0);
    let par = smoke_csv(4, 0);
    assert_eq!(serial, par, "CSV diverged between --threads 1 and 4");
    // The committed golden is the smoke run with the binary's
    // defaults; a mismatch means chaos runs stopped being replayable.
    assert_eq!(
        serial,
        include_str!("golden/faults_small_serial.csv"),
        "smoke sweep no longer reproduces the committed golden CSV"
    );
    assert!(serial.contains("delivery_f5"));
}

#[test]
fn protection_never_recovers_slower_than_reconvergence() {
    let cells = run(&FaultsParams {
        domains: 5,
        chaos_secs: 60,
        seed: 7,
        threads: 4,
        smoke: true,
        shards: 0,
    });
    for c in &cells {
        // Same fault schedule, same detection delay: 1:1 backup paths
        // can only remove the outage+reconvergence term, never add one.
        assert!(
            c.bier_recovery_ms <= c.mapencap_recovery_ms,
            "flaps={} loss={}: protected {}ms > unprotected {}ms",
            c.flaps,
            c.loss,
            c.bier_recovery_ms,
            c.mapencap_recovery_ms
        );
        assert!((0.0..=1.0).contains(&c.bier_delivery));
        assert!((0.0..=1.0).contains(&c.mapencap_delivery));
        if c.flaps == 0 {
            // No link faults: the link-recovery column is exactly zero
            // under both planes (the crash is accounted elsewhere).
            assert_eq!(c.bier_recovery_ms, 0);
            assert_eq!(c.mapencap_recovery_ms, 0);
        }
    }
    // On a 5-ring every adjacency has a way around, so flap cells show
    // the headline gap: detection-only vs outage + reconvergence.
    let flapped = cells.iter().find(|c| c.flaps > 0).unwrap();
    assert!(flapped.bier_recovery_ms < flapped.mapencap_recovery_ms);
}

#[test]
fn faults_smoke_is_shard_count_invariant_and_matches_golden() {
    let golden = include_str!("golden/faults_small_serial.csv");
    for shards in [1, 2, 4] {
        assert_eq!(
            smoke_csv(1, shards),
            golden,
            "smoke sweep at --shards {shards} no longer reproduces the committed golden CSV"
        );
    }
}
