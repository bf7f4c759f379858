//! Checkpoint, kill, resume, bisect: the snapshot subsystem's whole
//! lifecycle on a 20-domain internet.
//!
//! 1. run a 20-domain network with sessions and members, taking a
//!    checkpoint every 10 simulated seconds;
//! 2. "kill" the process (drop the network mid-run), leaving the
//!    latest checkpoint only as a file in the temp directory;
//! 3. read that file back, resume it onto a freshly built shell and
//!    finish the run — landing on the exact state fingerprint an
//!    uninterrupted run reaches;
//! 4. seed a structural violation and let `snapshot::bisect` localise
//!    it to one checkpoint interval, with the trace window attached.
//!
//! Run with: `cargo run --example checkpoint_resume`

use masc_bgmp::bgmp::Target;
use masc_bgmp::core::chaos::{chaos_session_timers, state_fingerprint};
use masc_bgmp::core::invariants::check_quiescent;
use masc_bgmp::core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig};
use masc_bgmp::simnet::SimDuration;
use masc_bgmp::snapshot::bisect;
use masc_bgmp::topology::{DomainGraph, DomainId};

const DOMAINS: usize = 20;
const CP_EVERY_MS: u64 = 10_000;
const END_MS: u64 = 60_000;
const INJECT_MS: u64 = 43_000; // only the bisect phase applies this

/// Construction-time inputs — everything a resuming process must
/// rebuild itself; the snapshot carries only what time has changed.
fn build() -> (Internet, Vec<DomainId>) {
    let mut g = DomainGraph::new();
    let ids: Vec<DomainId> = (0..DOMAINS)
        .map(|i| g.add_domain(format!("D{i}")))
        .collect();
    for i in 0..DOMAINS {
        g.add_peering(ids[i], ids[(i + 1) % DOMAINS]);
        // Chords give the ring alternate paths, like figure 1.
        if i % 5 == 0 && i < DOMAINS / 2 {
            g.add_peering(ids[i], ids[i + DOMAINS / 2]);
        }
    }
    let cfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        sessions: Some(chaos_session_timers()),
        seed: 42,
        ..Default::default()
    };
    let mut net = Internet::build(g, &cfg);
    net.engine.enable_trace(2048);
    (net, ids)
}

/// Brings a fresh shell to the run's starting line (converged, one
/// group, a member in every domain).
fn setup(net: &mut Internet, ids: &[DomainId]) -> masc_bgmp::mcast_addr::McastAddr {
    net.converge();
    let g = net.group_addr(ids[0]);
    for d in ids {
        net.host_join(
            HostId {
                domain: asn_of(*d),
                host: 1,
            },
            g,
        );
    }
    net.converge();
    g
}

fn main() {
    // ---- 1. The long run, checkpointed every 10 s ----------------
    let (mut net, ids) = build();
    let g = setup(&mut net, &ids);
    let t0 = net.engine.now();
    println!(
        "20-domain internet up: group {:?}, {} members, checkpoints every {} s",
        g,
        ids.len(),
        CP_EVERY_MS / 1000
    );

    let mut checkpoints: Vec<(u64, Vec<u8>)> = Vec::new();
    for k in 1..=(END_MS / CP_EVERY_MS) {
        let at = k * CP_EVERY_MS;
        net.engine.run_until(t0 + SimDuration::from_millis(at));
        let blob = net.checkpoint().expect("checkpoint");
        println!("  checkpoint @ {:>2} s: {} bytes", at / 1000, blob.len());
        checkpoints.push((at, blob));
        if at == 30_000 {
            break; // ---- 2. "kill" the process mid-run -----------
        }
    }
    let reference = state_fingerprint(&net);
    drop(net);
    // The latest checkpoint survives only on disk.
    let (tick, blob) = checkpoints.pop().expect("have a checkpoint");
    let image =
        std::env::temp_dir().join(format!("masc_bgmp_checkpoint_{}.snap", std::process::id()));
    std::fs::write(&image, &blob).expect("write the disk image");
    drop(blob);
    println!(
        "process killed at 30 s (state dropped); resuming from disk image {}...",
        image.display()
    );

    // ---- 3. Resume the latest checkpoint and finish --------------
    let blob = std::fs::read(&image).expect("read the disk image");
    std::fs::remove_file(&image).expect("remove the disk image");
    let (mut resumed, _ids2) = build();
    resumed.resume_from(&blob).expect("resume");
    assert_eq!(
        state_fingerprint(&resumed),
        reference,
        "resume must land exactly where the killed process stopped"
    );
    println!(
        "resumed @ {} s: fingerprint matches the killed run",
        tick / 1000
    );
    checkpoints.push((tick, blob));
    for k in (tick / CP_EVERY_MS + 1)..=(END_MS / CP_EVERY_MS) {
        let at = k * CP_EVERY_MS;
        resumed.engine.run_until(t0 + SimDuration::from_millis(at));
        checkpoints.push((at, resumed.checkpoint().expect("checkpoint")));
    }
    assert!(check_quiescent(&resumed).is_empty());
    println!(
        "finished at {} s: fingerprint {:#018x}, invariants clean",
        END_MS / 1000,
        state_fingerprint(&resumed)
    );

    // ---- 4. Bisect a seeded failure ------------------------------
    // Replay the run once more, wedging a stray child (a router id no
    // domain owns) into a (*,G) entry at 43 s. The final state is
    // dirty; which 10 s interval broke it?
    println!(
        "\nseeding a structural violation at {} s and re-running...",
        INJECT_MS / 1000
    );
    let replay_to = |to_ms: u64| -> Internet {
        let (mut n, is) = build();
        setup(&mut n, &is);
        if to_ms >= INJECT_MS {
            n.engine.run_until(t0 + SimDuration::from_millis(INJECT_MS));
            let actor = n.domain_mut(is[3]);
            let br = &mut actor.routers[0];
            if let Some(e) = br.bgmp.table_mut().star_exact_mut(g) {
                e.children.insert(Target::Peer(999_999));
            }
        }
        n.engine.run_until(t0 + SimDuration::from_millis(to_ms));
        n
    };
    let broken = replay_to(END_MS);
    assert!(!check_quiescent(&broken).is_empty(), "violation surfaced");
    let cps: Vec<(u64, Vec<u8>)> = (1..=(END_MS / CP_EVERY_MS))
        .map(|k| {
            let at = k * CP_EVERY_MS;
            (at, replay_to(at).checkpoint().expect("checkpoint"))
        })
        .collect();

    let report = bisect(
        &cps,
        END_MS,
        |blob| {
            let (mut probe, _) = build();
            probe.resume_from(blob)?;
            Ok::<_, masc_bgmp::snapshot::SnapError>(
                check_quiescent(&probe)
                    .iter()
                    .map(|v| format!("{v:?}"))
                    .collect(),
            )
        },
        |blob, to| {
            let (mut probe, pis) = build();
            probe.resume_from(blob)?;
            let from = probe.engine.now();
            let from_rel = from.as_millis() - t0.as_millis();
            // Replays re-apply the external stimulus, so the guilty
            // interval reproduces the violation under trace.
            if from_rel <= INJECT_MS && INJECT_MS < to {
                probe
                    .engine
                    .run_until(t0 + SimDuration::from_millis(INJECT_MS));
                let br = &mut probe.domain_mut(pis[3]).routers[0];
                if let Some(e) = br.bgmp.table_mut().star_exact_mut(g) {
                    e.children.insert(Target::Peer(999_999));
                }
            }
            probe.engine.run_until(t0 + SimDuration::from_millis(to));
            let window: Vec<(u64, String)> = probe
                .engine
                .trace()
                .expect("trace enabled")
                .lines()
                .filter(|(at, _)| *at >= from)
                .map(|(at, l)| (at.as_millis() - t0.as_millis(), l.to_string()))
                .collect();
            let v = check_quiescent(&probe)
                .iter()
                .map(|v| format!("{v:?}"))
                .collect();
            Ok((v, window))
        },
    )
    .expect("search runs")
    .expect("checkpoints exist");

    println!(
        "bisect: broke in ({} s, {} s] using {} probes of {} checkpoints",
        report.from_tick / 1000,
        report.to_tick / 1000,
        report.probes.len(),
        cps.len()
    );
    println!(
        "  violation: {}",
        report
            .violations
            .first()
            .map(String::as_str)
            .unwrap_or("(at checkpoint)")
    );
    println!(
        "  trace window: {} lines across the guilty interval",
        report.trace_window.len()
    );
    assert!(report.from_tick <= INJECT_MS && INJECT_MS <= report.to_tick);
}
