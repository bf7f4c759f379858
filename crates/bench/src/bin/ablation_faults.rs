//! FAULTS — fault-tolerance ablation over the deterministic chaos
//! harness: a (loss × flap-count) grid of full-protocol chaos runs
//! (per-message loss/dup/jitter, silent link flaps, one fail-stop
//! crash/restart each), reporting end-to-end delivery ratio during the
//! chaos phase and re-convergence time after the faults cease.
//!
//! Each cell is independently seeded, so the emitted CSV is
//! byte-identical across `--threads` values and reruns; Tier-1
//! `tests/faults_determinism.rs` diffs the `--smoke` grid against the
//! committed golden (`tests/golden/faults_small_serial.csv`). Mid-run
//! invariants are asserted inside every cell — a chaos run that
//! corrupts tree state aborts the sweep instead of producing numbers.
//!
//! Usage: `ablation_faults [--smoke] [--threads N] [--seed S]
//!         [--domains D] [--secs T]`

use bier::Plane;
use masc_bgmp_bench::faults::{flap_grid, run, series, FaultsParams};
use masc_bgmp_bench::{banner, results_dir, Args};
use metrics::emit;

fn main() {
    let args = Args::parse();
    let smoke = args.flag("smoke");
    let p = FaultsParams {
        domains: args.usize("domains", if smoke { 5 } else { 6 }),
        chaos_secs: args.u64("secs", if smoke { 60 } else { 120 }),
        seed: args.seed(7),
        threads: args.threads(),
        smoke,
    };
    args.finish();
    banner(
        "FAULTS",
        &format!(
            "loss x flaps chaos sweep ({} domains, {} s chaos, seed {}{})",
            p.domains,
            p.chaos_secs,
            p.seed,
            if smoke { ", smoke grid" } else { "" }
        ),
    );

    let cells = run(&p);
    print!("{:>8} {:>7} {:>6}", "loss", "flaps", "probe");
    for plane in Plane::ALL {
        print!(
            " | {:>14} {:>12}",
            format!("{}_deliv", plane.name()),
            "recover_ms"
        );
    }
    println!();
    for c in &cells {
        print!("{:>8.2} {:>7} {:>6}", c.loss, c.flaps, c.probe_clean);
        for pc in &c.planes {
            print!(" | {:>14.4} {:>12}", pc.delivery, pc.recovery_ms);
        }
        println!();
        assert!(c.probe_clean, "post-quiesce probe lost or duplicated");
    }
    // One series pair per flap count, loss on the x axis.
    assert_eq!(cells.len() % flap_grid(smoke).len(), 0);
    emit::write_results(&results_dir(), "ablation_faults", &series(&cells, smoke))
        .expect("write results");
    println!();
    println!("shape: delivery ratio degrades smoothly with loss (chaos-phase packets ride");
    println!("the faulted links), while convergence time is dominated by the hold/retry");
    println!("timers — flaps stretch it, loss barely moves it, and every cell still ends");
    println!("invariant-clean with an exactly-once probe: repair is lossy-channel-proof.");
    println!();
    println!("recover_ms is measured for bgmp (fault cessation to a clean quiescent");
    println!("check) and modelled for the stateless planes, which replay the cell's one");
    println!("schedule: with 1:1 backup paths a flap costs bier only the detection delay,");
    println!("while mapencap waits out the outage plus reconvergence; crashes are");
    println!("unprotected under both and show up in the delivery columns instead.");
}
