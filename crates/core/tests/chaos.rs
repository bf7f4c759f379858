//! End-to-end chaos runs: loss + duplication + jitter + silent link
//! flaps + a node crash/restart, with invariants checked mid-run and
//! full re-convergence demanded afterwards.

use masc_bgmp_core::analysis::grib_sizes;
use masc_bgmp_core::chaos::chaos_session_timers;
use masc_bgmp_core::chaos::{run_chaos, ChaosConfig};
use masc_bgmp_core::invariants::check_quiescent;
use masc_bgmp_core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig, Wire};
use mcast_addr::Secs;
use simnet::{FaultModel, SimDuration};
use topology::{internet_like, DomainGraph, DomainId, InternetSpec};

/// The issue's acceptance scenario: loss ≥ 10%, at least 5 flaps and a
/// crash/restart. The run must stay invariant-clean mid-run (asserted
/// inside the harness), re-converge after the faults cease, and pass a
/// final exactly-once delivery probe.
#[test]
fn chaos_run_reconverges_with_clean_invariants() {
    let out = run_chaos(&ChaosConfig::default());
    assert!(
        out.quiescent_violations.is_empty(),
        "violations after quiesce: {:?}",
        out.quiescent_violations
    );
    assert!(out.convergence_ms.is_some(), "never re-converged");
    assert!(out.probe_clean, "post-quiesce probe lost or duplicated");
    assert!(out.fault_stats.lost > 0, "loss model never fired");
    assert!(out.fault_stats.duplicated > 0, "dup model never fired");
    assert!(out.fault_stats.crashes >= 1, "no crash was injected");
    assert!(
        out.fault_stats.restarts >= 1,
        "crashed node never restarted"
    );
    assert!(
        out.sent > 0 && out.delivery_ratio > 0.2,
        "chaos ate everything: {}",
        out.delivery_ratio
    );
}

/// Byte-reproducibility: the same seed gives the same fingerprint
/// (forwarding state, logs, fault counters), a different seed does
/// not.
#[test]
fn chaos_is_byte_reproducible_for_a_fixed_seed() {
    let cfg = ChaosConfig {
        seed: 42,
        ..ChaosConfig::default()
    };
    let a = run_chaos(&cfg);
    let b = run_chaos(&cfg);
    assert_eq!(
        a.fingerprint, b.fingerprint,
        "same seed must replay identically"
    );
    assert_eq!(a.fault_stats.lost, b.fault_stats.lost);
    assert_eq!(a.fault_stats.duplicated, b.fault_stats.duplicated);
    assert_eq!(a.delivered, b.delivered);

    let c = run_chaos(&ChaosConfig {
        seed: 43,
        ..ChaosConfig::default()
    });
    assert_ne!(
        a.fingerprint, c.fingerprint,
        "different seeds should diverge"
    );
}

/// Replay where same-tick order is densest: a cold BGP flood over an
/// Internet-like graph (every tick carries hundreds of updates pushed
/// in scattered key order) and four backbone flap/heal cycles. Two
/// runs must choose the same routes, count the same events and fill
/// every G-RIB.
#[test]
fn flood_and_backbone_flaps_replay_identically() {
    let n = 150;
    let run = || {
        let graph = internet_like(&InternetSpec {
            n,
            backbones: 8,
            attach: 2,
            extra_peerings: 10,
            seed: 5,
        });
        let cfg = InternetConfig {
            borders: BorderPlan::Single,
            addressing: Addressing::Static,
            ..Default::default()
        };
        let mut net = Internet::build(graph, &cfg);
        net.converge();
        for (a, b) in [(0, 1), (2, 5), (3, 7), (4, 6)] {
            net.fail_link(DomainId(a), DomainId(b));
            net.converge();
            net.heal_link(DomainId(a), DomainId(b));
            net.converge();
        }
        let mut loc_rib = Vec::new();
        for d in net.graph.domains() {
            for br in &net.domain(d).routers {
                for r in br.speaker.rib().loc_rib() {
                    loc_rib.push((br.id, r.next_hop, r.as_path.to_vec()));
                }
            }
        }
        (
            loc_rib,
            grib_sizes(&net),
            net.engine.stats(),
            format!("{:?}", net.engine.faults().stats()),
        )
    };
    let one = run();
    assert!(one.1.iter().all(|size| *size == n), "a G-RIB is not full");
    assert!(one.2.delivered > 100_000, "the flood did not happen");
    assert!(run() == one, "the second run diverged");
}

fn ring(n: usize) -> (DomainGraph, Vec<DomainId>) {
    let mut g = DomainGraph::new();
    let ids: Vec<DomainId> = (0..n).map(|i| g.add_domain(format!("R{i}"))).collect();
    for i in 0..n {
        g.add_peering(ids[i], ids[(i + 1) % n]);
    }
    (g, ids)
}

/// A silent cut (no control event) must be detected by hold expiry and
/// repaired; the silent restore must be found by the retry machinery.
#[test]
fn sessions_detect_silent_cut_and_silent_heal() {
    let (graph, ids) = ring(4);
    let cfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        sessions: Some(chaos_session_timers()),
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    net.converge();
    let (a, b, c) = (ids[0], ids[1], ids[2]);
    let g = net.group_addr(c);
    let ha = HostId {
        domain: asn_of(a),
        host: 1,
    };
    let hc = HostId {
        domain: asn_of(c),
        host: 1,
    };
    net.host_join(ha, g);
    net.host_join(hc, g);
    net.converge();
    assert!(check_quiescent(&net).is_empty());

    // Cut silently; within hold + repair time the tree must have moved
    // off the dead link and data must flow the long way round.
    net.cut_link(a, b);
    net.run_for(SimDuration::from_secs(60));
    let v = check_quiescent(&net);
    assert!(v.is_empty(), "state not repaired after silent cut: {v:?}");
    let sender = HostId {
        domain: asn_of(ids[3]),
        host: 5,
    };
    let id = net.send_data(sender, g);
    net.run_for(SimDuration::from_secs(20));
    assert_eq!(net.deliveries(id), vec![ha, hc]);

    // Restore silently; sessions re-establish and the next probe still
    // delivers exactly once.
    net.restore_link(a, b);
    net.run_for(SimDuration::from_secs(60));
    let v = check_quiescent(&net);
    assert!(v.is_empty(), "state broken after silent heal: {v:?}");
    let id2 = net.send_data(sender, g);
    net.run_for(SimDuration::from_secs(20));
    assert_eq!(net.deliveries(id2), vec![ha, hc]);
    assert_eq!(net.total_duplicates(), 0);
}

/// Asymmetric keepalive loss: only one direction of a peering loses
/// its keepalives, so exactly one side hold-expires and flushes while
/// the other side's session never drops. On reconnect the flushed
/// side's bumped session epoch must bounce the survivor into a full
/// resync — without it, the survivor never replays its table and the
/// flushed side's routes (and the member behind them) stay gone.
#[test]
fn one_sided_hold_expiry_resyncs_on_reconnect() {
    let mut graph = DomainGraph::new();
    let a = graph.add_domain("A");
    let b = graph.add_domain("B");
    graph.add_peering(a, b);
    let cfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        sessions: Some(chaos_session_timers()),
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    net.converge();
    let g = net.group_addr(a);
    let member = HostId {
        domain: asn_of(b),
        host: 1,
    };
    net.host_join(member, g);
    net.converge();
    assert!(check_quiescent(&net).is_empty());

    // Drop only the keepalives A's border router sends toward B; B's
    // keepalives keep arriving at A, so A's session never dies.
    assert_eq!(
        net.domain(a).routers[0].id,
        1,
        "router ids are allocation-ordered"
    );
    net.engine
        .faults_mut()
        .set_faultable(|m| matches!(m, Wire::Keepalive { from: 1, .. }));
    net.engine.faults_mut().set_default_model(FaultModel {
        loss: 1.0,
        dup: 0.0,
        jitter_ms: 0,
    });
    net.run_for(SimDuration::from_secs(60));
    assert!(net.engine.faults().stats().lost > 0, "drop never fired");

    // Heal: B reconnects and its bumped epoch must force A to flush
    // and resync, re-advertising the group range B lost.
    net.engine.faults_mut().clear_models();
    net.run_for(SimDuration::from_secs(120));
    let v = check_quiescent(&net);
    assert!(v.is_empty(), "state broken after one-sided expiry: {v:?}");
    let sender = HostId {
        domain: asn_of(a),
        host: 5,
    };
    let id = net.send_data(sender, g);
    net.run_for(SimDuration::from_secs(20));
    assert_eq!(net.deliveries(id), vec![member]);
    assert_eq!(net.total_duplicates(), 0);
}

/// A crash shorter than the hold time: neighbours never see the
/// session die, but the boot-generation bump in the restarted node's
/// keepalives must force a flush/resync bounce, and members in the
/// crashed domain must be re-joined onto the tree.
#[test]
fn short_crash_is_recovered_via_generation_bounce() {
    let (graph, ids) = ring(5);
    let cfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        sessions: Some(chaos_session_timers()),
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    net.converge();
    let root = ids[0];
    let victim = ids[2];
    let g = net.group_addr(root);
    let members: Vec<HostId> = ids
        .iter()
        .map(|d| HostId {
            domain: asn_of(*d),
            host: 1,
        })
        .collect();
    for m in &members {
        net.host_join(*m, g);
    }
    net.converge();
    assert!(check_quiescent(&net).is_empty());

    // 8 s outage < 15 s hold: detection must come from the generation
    // bounce, not hold expiry.
    net.schedule_crash(victim, SimDuration::from_secs(2), SimDuration::from_secs(8));
    net.run_for(SimDuration::from_secs(120));
    let v = check_quiescent(&net);
    assert!(v.is_empty(), "state broken after short crash: {v:?}");
    assert_eq!(net.engine.faults().stats().crashes, 1);
    assert_eq!(net.engine.faults().stats().restarts, 1);

    let sender = HostId {
        domain: asn_of(ids[4]),
        host: 5,
    };
    let id = net.send_data(sender, g);
    net.run_for(SimDuration::from_secs(20));
    assert_eq!(net.deliveries(id), members, "crashed domain's member lost");
}

/// MASC claims under lost and duplicated claim messages: allocation
/// must still converge (the waiting period simply restarts on retry)
/// and sibling domains must end up with disjoint ranges.
#[test]
fn masc_claims_survive_loss_and_duplication() {
    use masc::MascConfig;
    let (graph, ids) = ring(4);
    let mc = MascConfig {
        wait_period: 30,
        claim_retry_backoff: 15,
        ..MascConfig::default()
    };
    let cfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Masc(mc),
        sessions: Some(chaos_session_timers()),
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    // Only MASC traffic is disturbed: claims and collision
    // announcements get lost, duplicated and delayed.
    net.engine
        .faults_mut()
        .set_faultable(|m| matches!(m, Wire::Masc { .. }));
    net.engine.faults_mut().set_default_model(FaultModel {
        loss: 0.2,
        dup: 0.2,
        jitter_ms: 500,
    });
    net.converge();

    // Two sibling domains request blocks concurrently.
    let mut got = [None, None];
    for round in 0..40 {
        if got[0].is_none() {
            got[0] = net.try_group_addr(ids[1]);
        }
        if got[1].is_none() {
            got[1] = net.try_group_addr(ids[2]);
        }
        if got.iter().all(|x| x.is_some()) {
            break;
        }
        net.run_for(SimDuration::from_secs(60));
        let _ = round;
    }
    assert!(net.engine.faults().stats().lost > 0, "loss never fired");
    let (a, b) = (
        got[0].expect("domain 1 allocated"),
        got[1].expect("domain 2 allocated"),
    );
    assert_ne!(a, b, "colliding allocations must not both be granted");

    // The granted ranges themselves must be disjoint.
    let ra = net.domain(ids[1]).masc.as_ref().unwrap().granted_ranges();
    let rb = net.domain(ids[2]).masc.as_ref().unwrap().granted_ranges();
    let live = |v: &[(mcast_addr::Prefix, Secs)]| -> Vec<mcast_addr::Prefix> {
        v.iter().map(|(p, _)| *p).collect()
    };
    for pa in live(&ra) {
        for pb in live(&rb) {
            // Prefixes overlap iff one contains the other's base.
            assert!(
                !pa.contains(pb.base()) && !pb.contains(pa.base()),
                "overlapping grants: {pa:?} vs {pb:?}"
            );
        }
    }
}
