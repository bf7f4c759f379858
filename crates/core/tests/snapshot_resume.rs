//! Resume equivalence at the full-internet level: a run checkpointed
//! mid-chaos and resumed onto a freshly built network must be
//! indistinguishable — byte-identical state fingerprint, identical
//! fault counters, identical invariant verdicts — from the same run
//! left uninterrupted.
//!
//! Also exercises the decode failure paths: every truncation of a
//! real checkpoint must come back as an error, never a panic.

use masc_bgmp_core::chaos::{chaos_session_timers, state_fingerprint};
use masc_bgmp_core::invariants::check_quiescent;
use masc_bgmp_core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig, Wire};
use mcast_addr::McastAddr;
use simnet::{FaultModel, SimDuration, SimTime};
use topology::{internet_like, DomainGraph, DomainId, InternetSpec};

fn ring(n: usize) -> (DomainGraph, Vec<DomainId>) {
    let mut g = DomainGraph::new();
    let ids: Vec<DomainId> = (0..n).map(|i| g.add_domain(format!("S{i}"))).collect();
    for i in 0..n {
        g.add_peering(ids[i], ids[(i + 1) % n]);
    }
    (g, ids)
}

/// Builds the network shell. Everything here is *construction-time*
/// configuration that a resuming caller must reproduce; all dynamic
/// state comes from the snapshot.
fn build_net(n: usize, seed: u64) -> (Internet, Vec<DomainId>) {
    let (graph, ids) = ring(n);
    let cfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        sessions: Some(chaos_session_timers()),
        seed,
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    // The faultable-class filter is a fn pointer — configuration, not
    // snapshotted state — so it is re-applied on every build.
    net.engine
        .faults_mut()
        .set_faultable(|m| matches!(m, Wire::Keepalive { .. } | Wire::Data { .. }));
    (net, ids)
}

/// One externally driven action in the scripted fault schedule.
#[derive(Clone, Copy)]
enum Action {
    /// Silently cut ring edge (i, i+1).
    Cut(usize),
    /// Silently restore it.
    Restore(usize),
    /// Send a data packet from a host in domain `i`.
    Send(usize),
}

/// Applies every schedule entry with `from_ms <= t < to_ms` at its
/// absolute time, then runs to `to_ms`. Splitting a run at any
/// boundary and re-driving the tail therefore replays the exact same
/// external stimulus.
fn drive(
    net: &mut Internet,
    ids: &[DomainId],
    g: McastAddr,
    schedule: &[(u64, Action)],
    t0: SimTime,
    from_ms: u64,
    to_ms: u64,
) {
    let n = ids.len();
    for &(ms, act) in schedule {
        if ms < from_ms || ms >= to_ms {
            continue;
        }
        net.engine.run_until(t0 + SimDuration::from_millis(ms));
        match act {
            Action::Cut(e) => net.cut_link(ids[e], ids[(e + 1) % n]),
            Action::Restore(e) => net.restore_link(ids[e], ids[(e + 1) % n]),
            Action::Send(d) => {
                let h = HostId {
                    domain: asn_of(ids[d]),
                    host: 9,
                };
                net.send_data(h, g);
            }
        }
    }
    net.engine.run_until(t0 + SimDuration::from_millis(to_ms));
}

/// Shared scenario: members everywhere, ambient loss/dup/jitter, a
/// scheduled crash, and silent flaps — checkpointed mid-chaos.
///
/// Returns (monolithic net, resumed net) both driven to the same
/// simulated time over the same schedule.
fn run_split(seed: u64, cp_ms: u64, end_ms: u64) -> (Internet, Internet) {
    let n = 6;
    let schedule: &[(u64, Action)] = &[
        (2_000, Action::Send(2)),
        (5_000, Action::Cut(0)),
        (9_000, Action::Send(3)),
        (16_000, Action::Restore(0)),
        (21_000, Action::Send(1)),
        (27_000, Action::Cut(2)),
        (33_000, Action::Send(4)),
        (41_000, Action::Restore(2)),
        (47_000, Action::Send(5)),
        (55_000, Action::Send(0)),
    ];

    // ---- Monolithic reference run ------------------------------
    let (mut mono, ids) = build_net(n, seed);
    mono.converge();
    let g = mono.group_addr(ids[0]);
    for d in &ids {
        mono.host_join(
            HostId {
                domain: asn_of(*d),
                host: 1,
            },
            g,
        );
    }
    mono.converge();
    assert!(check_quiescent(&mono).is_empty(), "never clean pre-fault");
    mono.engine.faults_mut().set_default_model(FaultModel {
        loss: 0.10,
        dup: 0.05,
        jitter_ms: 30,
    });
    // Crash scheduled *before* the checkpoint: the NodeDown/NodeUp
    // events live in the engine queue and must survive the snapshot.
    mono.schedule_crash(
        ids[3],
        SimDuration::from_secs(12),
        SimDuration::from_secs(10),
    );
    let t0 = mono.engine.now();

    drive(&mut mono, &ids, g, schedule, t0, 0, cp_ms);
    let bytes = mono.checkpoint().expect("checkpoint mid-chaos");
    drive(&mut mono, &ids, g, schedule, t0, cp_ms, end_ms);

    // ---- Resumed run -------------------------------------------
    // A fresh shell with the same construction inputs; every piece of
    // dynamic state — RIBs, trees, sessions, leases, logs, engine
    // queue, RNG, fault counters — comes from the snapshot.
    let (mut resumed, ids2) = build_net(n, seed);
    resumed.resume_from(&bytes).expect("resume");
    drive(&mut resumed, &ids2, g, schedule, t0, cp_ms, end_ms);

    (mono, resumed)
}

/// The headline contract: run(0→T2) ≡ checkpoint(T1) + resume(T1→T2),
/// with the checkpoint taken in the middle of the chaos phase (link
/// down, crash pending, lossy fault models armed, packets in flight).
#[test]
fn resume_mid_chaos_is_byte_identical_to_monolithic_run() {
    let (mono, resumed) = run_split(7, 30_500, 70_000);

    assert_eq!(mono.engine.now(), resumed.engine.now());
    assert_eq!(
        state_fingerprint(&mono),
        state_fingerprint(&resumed),
        "resumed run diverged from the monolithic reference"
    );
    assert_eq!(
        format!("{:?}", mono.engine.faults().stats()),
        format!("{:?}", resumed.engine.faults().stats()),
        "fault counters diverged"
    );
    assert_eq!(
        format!("{:?}", mono.engine.stats()),
        format!("{:?}", resumed.engine.stats()),
        "engine counters diverged"
    );
    assert_eq!(check_quiescent(&mono), check_quiescent(&resumed));

    let fs = mono.engine.faults().stats();
    assert!(fs.lost > 0, "loss model never fired before comparison");
    assert!(fs.crashes >= 1, "crash never fired before comparison");
}

/// After the faults cease, both copies must reconverge to the same
/// clean state: the snapshot carries enough to finish the run, not
/// just to match an instantaneous fingerprint.
#[test]
fn resumed_run_reconverges_identically() {
    let (mut mono, mut resumed) = run_split(11, 24_000, 60_000);

    for net in [&mut mono, &mut resumed] {
        net.engine.faults_mut().clear_models();
        net.run_for(SimDuration::from_secs(120));
    }
    let (va, vb) = (check_quiescent(&mono), check_quiescent(&resumed));
    assert_eq!(va, vb, "post-quiesce verdicts diverged");
    assert!(va.is_empty(), "monolithic run never re-converged: {va:?}");
    assert_eq!(state_fingerprint(&mono), state_fingerprint(&resumed));
}

/// Checkpoint placement must not matter: several split points across
/// the same schedule all land on the monolithic fingerprint.
#[test]
fn any_split_point_lands_on_the_same_state() {
    let (reference, _) = run_split(19, 30_000, 48_000);
    let want = state_fingerprint(&reference);
    for cp in [6_500, 20_000, 39_000] {
        let (_, resumed) = run_split(19, cp, 48_000);
        assert_eq!(
            state_fingerprint(&resumed),
            want,
            "split at {cp}ms diverged"
        );
    }
}

/// Every truncation of a real checkpoint must decode to an error —
/// never a panic, never a silent success.
#[test]
fn truncated_checkpoints_error_cleanly() {
    let (mut net, ids) = build_net(4, 3);
    net.converge();
    let g = net.group_addr(ids[0]);
    net.host_join(
        HostId {
            domain: asn_of(ids[1]),
            host: 1,
        },
        g,
    );
    net.converge();
    let bytes = net.checkpoint().expect("checkpoint");

    // Cut at every prefix length (stride 1 would take minutes on a
    // multi-kilobyte blob for no extra coverage; primes avoid hitting
    // only field boundaries).
    let (mut fresh, _) = build_net(4, 3);
    for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
        let err = fresh.resume_from(&bytes[..cut]);
        assert!(err.is_err(), "truncation at {cut} decoded successfully");
    }

    // Flipped bytes must never panic; most flips are decode errors,
    // and any that decode leave the shell still usable.
    for pos in (0..bytes.len()).step_by(131) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xff;
        let _ = fresh.resume_from(&bad);
    }

    // The pristine blob still restores after all the failed attempts.
    fresh.resume_from(&bytes).expect("clean blob restores");
    assert_eq!(state_fingerprint(&fresh), state_fingerprint(&net));
}

/// Checkpoint → resume ≡ uninterrupted on an Internet-like graph with
/// several live groups (the other tests in this file use rings): data
/// on every group, a backbone failure and heal, and a leave, split
/// after step 5 of 9.
#[test]
fn live_groups_checkpoint_resumes_identically() {
    let seed = 13;
    let groups = 6;
    let inet = || {
        let graph = internet_like(&InternetSpec {
            n: 40,
            backbones: 4,
            attach: 2,
            extra_peerings: 4,
            seed,
        });
        let cfg = InternetConfig {
            borders: BorderPlan::Single,
            addressing: Addressing::Static,
            seed,
            ..Default::default()
        };
        Internet::build(graph, &cfg)
    };
    // Group `k` is rooted at domain `k`; its members are every
    // seventh domain from `k + 1`.
    let member = |k: usize, i: usize| HostId {
        domain: asn_of(DomainId((k + 1 + 7 * i) % 40)),
        host: 1,
    };
    let join_all = |net: &mut Internet| -> Vec<McastAddr> {
        net.converge();
        let addrs: Vec<McastAddr> = (0..groups).map(|k| net.group_addr(DomainId(k))).collect();
        for (k, g) in addrs.iter().enumerate() {
            for i in 0..5 {
                net.host_join(member(k, i), *g);
            }
        }
        net.converge();
        addrs
    };
    // Step `s`: every group carries one packet from a rotating member;
    // a backbone link fails at step 2 and heals at step 6; one member
    // leaves at step 4.
    let steps = |net: &mut Internet, addrs: &[McastAddr], from: usize, to: usize| {
        for s in from..to {
            match s {
                2 => net.fail_link(DomainId(0), DomainId(1)),
                4 => net.host_leave(member(3, 2), addrs[3]),
                6 => net.heal_link(DomainId(0), DomainId(1)),
                _ => {}
            }
            for (k, g) in addrs.iter().enumerate() {
                net.send_data(member(k, s % 5), *g);
            }
            net.run_for(SimDuration::from_millis(700));
        }
    };
    let observe = |net: &Internet| {
        (
            state_fingerprint(net),
            net.engine.stats(),
            format!("{:?}", net.engine.faults().stats()),
            net.deliveries_by_packet(),
            net.checkpoint().expect("checkpoint"),
        )
    };

    let mut mono = inet();
    let addrs = join_all(&mut mono);
    steps(&mut mono, &addrs, 0, 9);
    let want = observe(&mono);
    assert!(want.3.values().all(|rx| rx.len() >= 3), "groups went dark");

    let mut head = inet();
    assert_eq!(join_all(&mut head), addrs);
    steps(&mut head, &addrs, 0, 5);
    let bytes = head.checkpoint().expect("checkpoint with live groups");
    let mut resumed = inet();
    resumed.resume_from(&bytes).expect("resume");
    steps(&mut resumed, &addrs, 5, 9);
    assert!(observe(&resumed) == want, "the resumed run diverged");
}

/// A shell with the wrong shape must be rejected up front.
#[test]
fn resume_rejects_mismatched_topology() {
    let (mut small, _) = build_net(4, 5);
    small.converge();
    let bytes = small.checkpoint().expect("checkpoint");
    let (mut big, _) = build_net(5, 5);
    assert!(
        big.resume_from(&bytes).is_err(),
        "resume onto a different topology must fail"
    );
}

// ---------------------------------------------------------------
// Property: resume equivalence on random topologies under random
// fault schedules, with the checkpoint taken at a random tick.
// ---------------------------------------------------------------

mod random_cases {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct Case {
        domains: usize,
        /// Chord endpoints (reduced mod `domains`, deduped at build).
        extras: Vec<(usize, usize)>,
        /// (edge index, start s, duration s) silent flaps.
        flaps: Vec<(usize, u64, u64)>,
        /// (victim index ≥ 1, start s, outage s) fail-stop crash.
        crash: Option<(usize, u64, u64)>,
        /// (domain index, send time s) data packets.
        sends: Vec<(usize, u64)>,
        lossy: bool,
        seed: u64,
        /// Checkpoint tick as a permille of the horizon.
        cp_permille: u64,
    }

    fn arb_case() -> impl Strategy<Value = Case> {
        (
            (
                4usize..=6,
                prop::collection::vec((0usize..6, 0usize..6), 0..=2),
                prop::collection::vec((0usize..8, 2u64..28, 4u64..=14), 1..=3),
                prop::option::of((1usize..6, 4u64..24, 6u64..=16)),
            ),
            (
                prop::collection::vec((0usize..6, 1u64..38), 1..=3),
                any::<bool>(),
                0u64..1_000,
                80u64..920,
            ),
        )
            .prop_map(
                |((domains, extras, flaps, crash), (sends, lossy, seed, cp_permille))| Case {
                    domains,
                    extras,
                    flaps,
                    crash,
                    sends,
                    lossy,
                    seed,
                    cp_permille,
                },
            )
    }

    /// Edge list (as domain indices) for the case's graph: the ring
    /// plus whatever chords survive dedup.
    fn case_edges(case: &Case) -> Vec<(usize, usize)> {
        let n = case.domains;
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        for &(a, b) in &case.extras {
            let (a, b) = (a % n, b % n);
            let (lo, hi) = (a.min(b), a.max(b));
            let adjacent = hi - lo == 1 || (lo == 0 && hi == n - 1);
            if lo == hi || adjacent || edges.contains(&(lo, hi)) {
                continue;
            }
            edges.push((lo, hi));
        }
        edges
    }

    fn build_case_net(case: &Case) -> (Internet, Vec<DomainId>) {
        let n = case.domains;
        let mut graph = DomainGraph::new();
        let ids: Vec<DomainId> = (0..n).map(|i| graph.add_domain(format!("Q{i}"))).collect();
        for &(a, b) in &case_edges(case) {
            graph.add_peering(ids[a], ids[b]);
        }
        let cfg = InternetConfig {
            borders: BorderPlan::PerEdge,
            addressing: Addressing::Static,
            sessions: Some(chaos_session_timers()),
            seed: case.seed,
            ..Default::default()
        };
        let mut net = Internet::build(graph, &cfg);
        net.engine
            .faults_mut()
            .set_faultable(|m| matches!(m, Wire::Keepalive { .. } | Wire::Data { .. }));
        (net, ids)
    }

    /// The scripted external stimulus: flaps become cut/restore pairs,
    /// sends become data packets, all at absolute times.
    fn case_schedule(case: &Case, edges: &[(usize, usize)]) -> (Vec<(u64, usize, bool)>, u64) {
        let mut horizon = 40_000u64;
        let mut events = Vec::new(); // (ms, edge, up?)
        for &(e, at, dur) in &case.flaps {
            let e = e % edges.len();
            events.push((at * 1000, e, false));
            events.push(((at + dur) * 1000, e, true));
            horizon = horizon.max((at + dur) * 1000 + 8_000);
        }
        if let Some((_, at, down)) = case.crash {
            horizon = horizon.max((at + down) * 1000 + 8_000);
        }
        events.sort_by_key(|&(ms, e, up)| (ms, e, up));
        (events, horizon)
    }

    /// Replays [from_ms, to_ms) of the schedule. Cuts and restores
    /// are edge-index based; sends are interleaved by time.
    #[expect(
        clippy::too_many_arguments,
        reason = "test driver; each argument is one axis of the schedule"
    )]
    fn drive_window(
        net: &mut Internet,
        ids: &[DomainId],
        edges: &[(usize, usize)],
        g: McastAddr,
        case: &Case,
        events: &[(u64, usize, bool)],
        t0: SimTime,
        from_ms: u64,
        to_ms: u64,
    ) {
        let mut acts: Vec<(u64, u8, usize)> = events
            .iter()
            .map(|&(ms, e, up)| (ms, u8::from(up), e))
            .collect();
        for &(d, at) in &case.sends {
            acts.push((at * 1000, 2, d % ids.len()));
        }
        acts.sort();
        for (ms, kind, idx) in acts {
            if ms < from_ms || ms >= to_ms {
                continue;
            }
            net.engine.run_until(t0 + SimDuration::from_millis(ms));
            match kind {
                0 => {
                    let (a, b) = edges[idx];
                    net.cut_link(ids[a], ids[b]);
                }
                1 => {
                    let (a, b) = edges[idx];
                    net.restore_link(ids[a], ids[b]);
                }
                _ => {
                    let h = HostId {
                        domain: asn_of(ids[idx]),
                        host: 7,
                    };
                    net.send_data(h, g);
                }
            }
        }
        net.engine.run_until(t0 + SimDuration::from_millis(to_ms));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For any topology, fault schedule, and checkpoint tick:
        /// checkpoint + resume onto a fresh shell ends at the same
        /// fingerprint, fault counters, and invariant verdicts as
        /// the uninterrupted run.
        #[test]
        fn resume_equivalence_holds_everywhere(case in arb_case()) {
            let edges = case_edges(&case);
            let (mut mono, ids) = build_case_net(&case);
            mono.converge();
            let g = mono.group_addr(ids[0]);
            for d in &ids {
                mono.host_join(HostId { domain: asn_of(*d), host: 1 }, g);
            }
            mono.converge();
            prop_assert!(check_quiescent(&mono).is_empty(), "never clean pre-fault");

            if case.lossy {
                mono.engine.faults_mut().set_default_model(FaultModel {
                    loss: 0.10,
                    dup: 0.05,
                    jitter_ms: 30,
                });
            }
            if let Some((v, at, down)) = case.crash {
                let v = ids[v % (case.domains - 1) + 1];
                mono.schedule_crash(
                    v,
                    SimDuration::from_secs(at),
                    SimDuration::from_secs(down),
                );
            }
            let t0 = mono.engine.now();
            let (events, horizon) = case_schedule(&case, &edges);
            let cp_ms = horizon * case.cp_permille / 1000;

            drive_window(&mut mono, &ids, &edges, g, &case, &events, t0, 0, cp_ms);
            let bytes = mono.checkpoint().expect("checkpoint");
            drive_window(&mut mono, &ids, &edges, g, &case, &events, t0, cp_ms, horizon);

            let (mut resumed, ids2) = build_case_net(&case);
            resumed.resume_from(&bytes).expect("resume");
            drive_window(&mut resumed, &ids2, &edges, g, &case, &events, t0, cp_ms, horizon);

            prop_assert_eq!(mono.engine.now(), resumed.engine.now());
            prop_assert_eq!(
                state_fingerprint(&mono),
                state_fingerprint(&resumed),
                "diverged (checkpoint at {}ms of {}ms)", cp_ms, horizon
            );
            prop_assert_eq!(
                format!("{:?}", mono.engine.faults().stats()),
                format!("{:?}", resumed.engine.faults().stats())
            );
            prop_assert_eq!(check_quiescent(&mono), check_quiescent(&resumed));
        }
    }
}

/// FNV-1a over the blob, so a format change shows as one number.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A converged 40-domain internet (per-edge borders, so iBGP and
/// every entry kind occur) with one backbone link signalled down: its
/// checkpoint is pinned byte for byte. The constants were computed at
/// commit 4993540, before the BGP speaker's five maps became one
/// table; recomputed at commit 5d8e5b9, where `FORMAT_VERSION` went
/// from 3 to 4, by rewriting the version of both headers in that image;
/// and recomputed after it, when each speaker's table came to be
/// written row by row (2 746 887 → 1 525 395 bytes); then recomputed
/// when `FORMAT_VERSION` went from 4 to 5, again by rewriting the
/// version of both headers, and after it, when each AS path came to be
/// written once per blob and referred back to after (1 525 395 →
/// 1 072 031 bytes). The blob must not move again.
#[test]
fn converged_internet_blob_is_pinned() {
    const BLOB_LEN: usize = 1_072_031;
    const BLOB_FNV1A: u64 = 4_819_659_827_045_276_340;

    let build = || {
        let graph = internet_like(&InternetSpec {
            n: 40,
            backbones: 4,
            attach: 2,
            extra_peerings: 4,
            seed: 7,
        });
        let cfg = InternetConfig {
            borders: BorderPlan::PerEdge,
            addressing: Addressing::Static,
            sessions: None,
            seed: 7,
            ..Default::default()
        };
        Internet::build(graph, &cfg)
    };
    let mut net = build();
    net.converge();
    net.fail_link(DomainId(0), DomainId(1));
    net.converge();
    let blob = net.checkpoint().expect("checkpoint");
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (BLOB_LEN, BLOB_FNV1A),
        "the internet checkpoint's bytes changed"
    );

    let mut resumed = build();
    resumed.resume_from(&blob).expect("resume");
    let again = resumed.checkpoint().expect("checkpoint after resume");
    assert!(
        blob == again,
        "checkpoint → resume → checkpoint moved bytes"
    );
}
