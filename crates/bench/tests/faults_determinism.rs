//! Determinism regression for the fault ablation: the chaos sweep is
//! seeded per cell and merged in task order, so its CSV must be
//! byte-identical across thread counts, and must reproduce the one
//! committed golden file — the same bytes CI's `stale-results` job
//! regenerates from the release binary as `results/ablation_faults.csv`.

use bier::Plane;
use masc_bgmp_bench::faults::{run, series, FaultsParams};
use metrics::emit;

fn smoke_csv(threads: usize) -> String {
    let cells = run(&FaultsParams {
        domains: 5,
        chaos_secs: 60,
        seed: 7,
        threads,
        smoke: true,
    });
    emit::to_csv(&series(&cells, true))
}

#[test]
fn faults_smoke_is_thread_invariant_and_matches_golden() {
    let serial = smoke_csv(1);
    let par = smoke_csv(4);
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
    });
    let of = |c: &masc_bgmp_bench::faults::FaultCell, plane: Plane| c.planes[plane as usize];
    for c in &cells {
        // Same fault schedule, same detection delay: 1:1 backup paths
        // can only remove the outage+reconvergence term, never add one.
        let (bier, mapencap) = (of(c, Plane::Bier), of(c, Plane::MapEncap));
        assert!(
            bier.recovery_ms <= mapencap.recovery_ms,
            "flaps={} loss={}: protected {}ms > unprotected {}ms",
            c.flaps,
            c.loss,
            bier.recovery_ms,
            mapencap.recovery_ms
        );
        for (plane, pc) in Plane::ALL.iter().zip(&c.planes) {
            assert!((0.0..=1.0).contains(&pc.delivery), "{plane:?}");
            if c.flaps == 0 && plane.stateless() {
                // No link faults: the modelled link-recovery column is
                // exactly zero (the crash is accounted elsewhere).
                assert_eq!(pc.recovery_ms, 0, "{plane:?}");
            }
        }
    }
    // On a 5-ring every adjacency has a way around, so flap cells show
    // the headline gap: detection-only vs outage + reconvergence.
    let flapped = cells.iter().find(|c| c.flaps > 0).unwrap();
    assert!(of(flapped, Plane::Bier).recovery_ms < of(flapped, Plane::MapEncap).recovery_ms);
}

/// Column names and order are an interface (the golden, CI's diff, the
/// plots): pin the whole list, so a reorder of the plane list or of the
/// series loops cannot pass by regenerating the golden.
#[test]
fn smoke_csv_columns_are_pinned() {
    let header = include_str!("golden/faults_small_serial.csv")
        .lines()
        .next()
        .unwrap();
    let mut want = vec!["x".to_string()];
    for f in [0, 5] {
        want.extend([format!("delivery_f{f}"), format!("convergence_ms_f{f}")]);
    }
    for f in [0, 5] {
        for plane in ["bier", "mapencap"] {
            want.extend([
                format!("{plane}_delivery_f{f}"),
                format!("{plane}_recovery_ms_f{f}"),
            ]);
        }
    }
    assert_eq!(header.split(',').collect::<Vec<_>>(), want);
    let empty = series(&[], true).into_iter().map(|s| s.name);
    assert_eq!(empty.collect::<Vec<_>>(), want[1..]);
}
