//! Differential property test for group-scoped tree repair.
//!
//! A domain repairs, after each BGP/BGMP message, only the groups that
//! message (or anything since the last pass) could have disturbed. The
//! claim is that this is *the same protocol* as re-examining every
//! group every time: same wire messages in the same order, same event
//! counts, same deliveries, same final state.
//!
//! The reference needs no switch in the program. A domain actor that
//! was just restored from a snapshot does not know what changed before
//! the checkpoint, so its next repair pass uses the widest scope; the
//! reference run therefore checkpoints the internet and restores it in
//! place before **every** event, which makes every pass an all-groups
//! pass. Random multi-router topologies × several groups ×
//! join/leave/send × signalled and silent link flaps × crashes must
//! leave the two runs indistinguishable. (Debug builds additionally
//! assert, inside the actor, that no pass ever leaves work outside its
//! scope — this test is what drives that oracle through churn.)

use masc_bgmp_core::analysis::misdelivered;
use masc_bgmp_core::chaos::{chaos_session_timers, state_fingerprint};
use masc_bgmp_core::invariants::{check_quiescent, Violation};
use masc_bgmp_core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig, Wire};
use mcast_addr::McastAddr;
use proptest::prelude::*;
use simnet::{FaultModel, SimDuration};
use topology::{DomainGraph, DomainId};

/// One external stimulus. Indices are reduced modulo the case's
/// domain / group / edge counts when applied.
#[derive(Debug, Clone, Copy)]
enum Op {
    Join {
        domain: usize,
        group: usize,
    },
    Leave {
        domain: usize,
        group: usize,
    },
    Send {
        domain: usize,
        group: usize,
    },
    /// Toggle an edge: even edges fail and heal with explicit
    /// `PeerLinkDown`/`PeerLinkUp` control events, odd edges are cut
    /// and restored silently (hold timers must notice).
    Flap {
        edge: usize,
    },
    /// Fail-stop crash of a non-root domain, restarting later.
    Crash {
        domain: usize,
        down_s: u64,
    },
}

#[derive(Debug, Clone)]
struct Case {
    domains: usize,
    /// Chord endpoints (reduced mod `domains`, deduped at build time).
    extras: Vec<(usize, usize)>,
    /// Root domain of each group.
    roots: Vec<usize>,
    /// (gap since the previous op in ms, op).
    ops: Vec<(u64, Op)>,
    lossy: bool,
    seed: u64,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, 0usize..4).prop_map(|(domain, group)| Op::Join { domain, group }),
        (0usize..8, 0usize..4).prop_map(|(domain, group)| Op::Join { domain, group }),
        (0usize..8, 0usize..4).prop_map(|(domain, group)| Op::Leave { domain, group }),
        (0usize..8, 0usize..4).prop_map(|(domain, group)| Op::Send { domain, group }),
        (0usize..8, 0usize..4).prop_map(|(domain, group)| Op::Send { domain, group }),
        (0usize..10).prop_map(|edge| Op::Flap { edge }),
        (0usize..8, 4u64..=22).prop_map(|(domain, down_s)| Op::Crash { domain, down_s }),
    ]
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        4usize..=6,
        prop::collection::vec((0usize..6, 0usize..6), 0..=2),
        prop::collection::vec(0usize..6, 2..=4),
        // Gaps from "while the last op is still converging" to "long
        // after the hold timer fired".
        prop::collection::vec(
            (
                prop_oneof![0u64..60, 200u64..3_000, 6_000u64..18_000],
                arb_op(),
            ),
            8..=28,
        ),
        any::<bool>(),
        0u64..1_000,
    )
        .prop_map(|(domains, extras, roots, ops, lossy, seed)| Case {
            domains,
            extras,
            roots,
            ops,
            lossy,
            seed,
        })
}

/// A ring with chords: every domain has two or three border routers
/// (one per edge), so joins cross internal legs.
fn build_graph(case: &Case) -> (DomainGraph, Vec<DomainId>, Vec<(usize, usize)>) {
    let n = case.domains;
    let mut graph = DomainGraph::new();
    let ids: Vec<DomainId> = (0..n).map(|i| graph.add_domain(format!("S{i}"))).collect();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        graph.add_peering(ids[i], ids[(i + 1) % n]);
        edges.push((i, (i + 1) % n));
    }
    for &(a, b) in &case.extras {
        let (a, b) = (a % n, b % n);
        let (lo, hi) = (a.min(b), a.max(b));
        let adjacent = hi - lo == 1 || (lo == 0 && hi == n - 1);
        if lo == hi || adjacent || edges.contains(&(lo, hi)) {
            continue;
        }
        graph.add_peering(ids[lo], ids[hi]);
        edges.push((lo, hi));
    }
    (graph, ids, edges)
}

/// Everything the two runs are compared on.
#[derive(Debug, PartialEq)]
struct Outcome {
    fingerprint: u64,
    /// `EngineStats` as (delivered, dropped, timers, events).
    engine: (u64, u64, u64, u64),
    /// Every domain's delivery log, in arrival order.
    logs: Vec<Vec<(u64, HostId)>>,
    duplicates: u64,
    quiescent: Vec<Violation>,
    /// Final probes that missed or overshot their group's members.
    probes_misdelivered: usize,
}

/// Advances the scoped run to `until`, or replays the reference run to
/// the same point: the scoped run's event count at each stop is
/// recorded in `marks`, and the reference dispatches exactly that many
/// events one at a time, each from a freshly restored internet.
fn advance(net: &mut Internet, until: simnet::SimTime, marks: &mut Marks) {
    match marks {
        Marks::Record(out) => {
            net.engine.run_until(until);
            out.push(net.engine.stats().events);
        }
        Marks::Replay(marks) => {
            let target = marks.next().expect("same schedule, same stops");
            while net.engine.stats().events < target {
                let blob = net.checkpoint().expect("checkpoint between events");
                net.resume_from(&blob).expect("restore in place");
                if net.engine.run_until_idle(1) == 0 {
                    break;
                }
            }
            // Nothing is left before `until` unless the runs diverged —
            // in which case the comparison below reports it.
            net.engine.run_until(until);
        }
    }
}

enum Marks {
    Record(Vec<u64>),
    Replay(std::vec::IntoIter<u64>),
}

fn run(case: &Case, marks: &mut Marks) -> Outcome {
    let (graph, ids, edges) = build_graph(case);
    let n = case.domains;
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
    // No group exists yet: nothing for either scope to examine.
    net.converge();
    let groups: Vec<McastAddr> = case
        .roots
        .iter()
        .map(|r| net.group_addr(ids[r % n]))
        .collect();
    if case.lossy {
        net.engine.faults_mut().set_default_model(FaultModel {
            loss: 0.08,
            dup: 0.04,
            jitter_ms: 25,
        });
    }

    let member = |d: usize| HostId {
        domain: asn_of(ids[d % n]),
        host: 1,
    };
    let mut down = vec![false; edges.len()];
    let mut t = net.engine.now();
    for &(gap_ms, op) in &case.ops {
        t += SimDuration::from_millis(gap_ms);
        advance(&mut net, t, marks);
        match op {
            Op::Join { domain, group } => {
                net.host_join(member(domain), groups[group % groups.len()])
            }
            Op::Leave { domain, group } => {
                net.host_leave(member(domain), groups[group % groups.len()])
            }
            Op::Send { domain, group } => {
                let from = HostId {
                    domain: asn_of(ids[domain % n]),
                    host: 5,
                };
                net.send_data(from, groups[group % groups.len()]);
            }
            Op::Flap { edge } => {
                let e = edge % edges.len();
                let (a, b) = (ids[edges[e].0], ids[edges[e].1]);
                match (down[e], e % 2 == 0) {
                    (false, true) => net.fail_link(a, b),
                    (true, true) => net.heal_link(a, b),
                    (false, false) => net.cut_link(a, b),
                    (true, false) => net.restore_link(a, b),
                }
                down[e] = !down[e];
            }
            Op::Crash { domain, down_s } => net.schedule_crash(
                ids[domain % (n - 1) + 1],
                SimDuration::from_millis(1),
                SimDuration::from_secs(down_s),
            ),
        }
    }

    // ---- Quiesce: faults off, links back, let everything settle ----
    net.engine.faults_mut().clear_models();
    for (e, is_down) in down.iter().enumerate() {
        if *is_down {
            let (a, b) = (ids[edges[e].0], ids[edges[e].1]);
            if e % 2 == 0 {
                net.heal_link(a, b);
            } else {
                net.restore_link(a, b);
            }
        }
    }
    t += SimDuration::from_secs(60);
    advance(&mut net, t, marks);

    // One probe per group from a non-member host of its root domain.
    let probes: Vec<(u64, Vec<HostId>)> = groups
        .iter()
        .zip(&case.roots)
        .map(|(g, r)| {
            let from = HostId {
                domain: asn_of(ids[r % n]),
                host: 9,
            };
            let members: Vec<HostId> = ids
                .iter()
                .flat_map(|d| net.domain(*d).members_of(*g))
                .collect();
            (net.send_data(from, *g), members)
        })
        .collect();
    t += SimDuration::from_secs(10);
    advance(&mut net, t, marks);

    let s = net.engine.stats();
    Outcome {
        fingerprint: state_fingerprint(&net),
        engine: (s.delivered, s.dropped, s.timers, s.events),
        logs: ids
            .iter()
            .map(|d| net.domain(*d).log.received.clone())
            .collect(),
        duplicates: net.total_duplicates(),
        quiescent: check_quiescent(&net),
        probes_misdelivered: misdelivered(
            &net,
            probes.iter().map(|(id, want)| (*id, want.as_slice())),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Scoped repair ≡ all-groups repair, event for event.
    #[test]
    fn scoped_repair_matches_all_groups_repair(case in arb_case()) {
        let mut marks = Marks::Record(Vec::new());
        let scoped = run(&case, &mut marks);
        let Marks::Record(stops) = marks else { unreachable!() };
        let reference = run(&case, &mut Marks::Replay(stops.into_iter()));
        prop_assert_eq!(scoped, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The scoped run alone costs a hundredth of the pair, so the bulk
    /// of the search runs it by itself: in a debug build every repair
    /// pass inside it ends in the actor's own assertion that the widest
    /// scope would find nothing further to do outside the groups
    /// already queued for the next pass. (Nothing is asserted about
    /// the settled state being *right*: under crashes plus churn the
    /// protocol can strand a dead internal leg until the group's next
    /// message, with or without scoping — see CHANGES.md, PR 12.)
    #[test]
    fn no_pass_leaves_work_outside_its_scope(case in arb_case()) {
        run(&case, &mut Marks::Record(Vec::new()));
    }
}
