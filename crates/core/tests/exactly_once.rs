//! §5's exactly-once delivery on a fault-free run: each packet reaches
//! each member once.
//!
//! The script is the TCP plane's differential one (`eight_domains()` in
//! `crates/actors/tests/tcp_internet.rs`) run through `Internet` alone:
//! no faults, no sockets, the default border plan of one router per
//! peering and default 10 ms links.

use bgp::{ExportPolicy, SessionTimers};
use masc_bgmp_core::chaos::state_fingerprint;
use masc_bgmp_core::{asn_of, BorderPlan, HostId, Internet, InternetConfig};
use simnet::{NodeId, SimDuration};
use topology::{DomainGraph, DomainId};

fn host(d: usize, host: u32) -> HostId {
    HostId {
        domain: asn_of(DomainId(d)),
        host,
    }
}

/// D0 peers D1; D0 provides for D2 and D3, D1 for D3 and D4, D2 for
/// D5, D3 for D5 and D6, D4 for D7; D5 peers D6.
fn eight_domains() -> DomainGraph {
    let mut g = DomainGraph::new();
    let d: Vec<DomainId> = (0..8).map(|i| g.add_domain(format!("D{i}"))).collect();
    g.add_peering(d[0], d[1]);
    for (p, c) in [
        (0, 2),
        (0, 3),
        (1, 3),
        (1, 4),
        (2, 5),
        (3, 6),
        (4, 7),
        (3, 5),
    ] {
        g.add_provider_customer(d[p], d[c]);
    }
    g.add_peering(d[5], d[6]);
    g
}

/// Five members join a group rooted in D3, two senders each send and
/// then one member leaves, and a non-member host in D1 sends last. That
/// last packet reaches D5 twice: two of D5's border routers both inject
/// it into its MIGP.
///
/// Which two, and by which entry. D5's border routers are 15 (toward
/// D2), 16 (toward D3) and 17 (toward D6), on local routers 0, 1 and 2;
/// the member sits behind local router 0. Printing their tables before
/// the last send, and D5's data path during it, gives:
///
/// * **Router 16** injects the packet as the shared tree says: its
///   (\*,G) entry is `parent: Peer(12)` (D3's router), `children:
///   {Migp}`. The MIGP delivers it to the member, and also hands it to
///   local router 2, which is subscribed to G.
/// * **Router 17** holds no (\*,G) entry and no (S,G) entry for this
///   source. Its two (S,G) entries are for the earlier senders' sources:
///   D2's (`parent: Migp, via_exit: 15`, child `Peer(19)`) and D6's
///   (`parent: Peer(19)`, child `Migp`). Those legs subscribed it to G
///   in the MIGP, which keeps one subscription per group, not per
///   source. With nothing matching, `forward` answers `TowardRoot(
///   Internal { exit: 16 })` for the copy that came from the MIGP, and
///   17 injects it again. RPF rejects that entry (it expects local 1),
///   so the copy is encapsulated to router 16 and injected there a
///   second time, and the member receives it twice.
#[test]
#[ignore = "ROADMAP item 1(a): a fault-free run delivers the last packet twice at D5"]
fn fault_free_script_delivers_each_packet_once() {
    let duplicates = duplicates(&run_script(|_, _| None));
    assert!(
        duplicates.iter().all(|&(_, n)| n == 0),
        "packets delivered twice, per domain: {duplicates:?}"
    );
}

/// The same script over 150 seeded draws of per-link latency, each
/// link 1–30 ms (splitmix64 of the draw and the edge). On the commit
/// that added this test every draw delivers a duplicate: D5 in all 150
/// and D6 in 28, 178 duplicates in all. Every draw delivers the same
/// (packet, host) set as the 10 ms run: no packet is lost.
///
/// A prototype tried one rule: a copy the MIGP hands to a border
/// router is never injected into the MIGP again (the
/// `TowardRoot(Internal | Local)` arm when `from == Some(Migp)`).
///
/// * It clears D5 in all 150 draws and passes the reproducer above.
/// * D6 still duplicates in 28 of 150 (20 of 150 on another draw,
///   where the duplicate is packet 2, the first one from D2). D6's
///   router 18 injects the shared-tree copy it got from D3 and holds a
///   parentless (S,G) entry with `children: {Migp}`; router 19 injects
///   the copy that arrives from D5's router 17, through its (S,G)
///   entry `parent: Peer(17), children: {Migp}`.
/// * It costs delivery. In the faults smoke golden at loss 0.1, BGMP
///   `delivery_f0` falls 0.7 → 0.636 and `delivery_f5` 0.579 → 0.55,
///   the faults pin moves 104 828 → 104 791, and
///   `stale_migp_subscriptions_cannot_bounce_a_packet_forever` fails
///   its `dropped > 0` check. In that grid 32 copies take the
///   re-injection path; between them they make 13 inter-domain
///   `Wire::Data` sends and no new local delivery. A fix has to keep
///   those sends or show that they are duplicates.
#[test]
#[ignore = "ROADMAP item 1(a): every latency draw delivers a packet twice"]
fn latency_draws_deliver_each_packet_once() {
    // Per domain: draws with a duplicate there, and duplicates in all.
    let mut draws = [(0, 0); 8];
    for draw in 0..150u64 {
        let duplicates = duplicates(&run_script(|a, b| Some(latency_draw(draw, a, b))));
        for (d, n) in duplicates {
            draws[d].0 += u64::from(n > 0);
            draws[d].1 += n;
        }
    }
    assert!(
        draws.iter().all(|&(_, n)| n == 0),
        "(draws, duplicates) per domain over 150 draws: {draws:?}"
    );
}

/// The data path's footprint on the script, pinned: the 10 ms run,
/// then latency draws 0..4. Each packet's walk through a domain (MIGP
/// floods, RPF rejects and their encapsulations, hand-offs between
/// border routers, drops) shows in these counts, and the fingerprint
/// holds every tree entry and delivery log. A reordering or a lost or
/// extra step in a transit moves them; `group_churn` never reaches
/// the RPF-reject path that this script does.
///
/// D5's duplicate (the first entry of D5's row) is ROADMAP item
/// 1(a)'s defect, pinned as it stands. Item 16(b)'s one-flood-per-
/// router rule, its fix, changes that entry and these pins with it on
/// purpose.
#[test]
fn script_outcomes_are_pinned() {
    let runs: Vec<Outcome> = std::iter::once(outcome(&run_script(|_, _| None)))
        .chain((0..4).map(|draw| outcome(&run_script(|a, b| Some(latency_draw(draw, a, b))))))
        .collect();
    assert_eq!(runs, PINNED);
}

#[rustfmt::skip]
const PINNED: [Outcome; 5] = [
    // 10 ms
    ([(0, 0, 0, 2), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 3),
      (0, 0, 0, 0), (1, 3, 0, 3), (0, 1, 0, 3), (0, 0, 0, 1)],
     3_554_007_779_009_848_919, (126_472, 0, 100_800, 227_272)),
    // draw 0
    ([(0, 0, 0, 2), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 3),
      (0, 0, 0, 0), (1, 3, 0, 3), (1, 1, 0, 3), (0, 0, 0, 1)],
     4_067_936_333_177_733_492, (126_621, 0, 100_800, 227_421)),
    // draw 1
    ([(0, 0, 0, 2), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 3),
      (0, 0, 0, 0), (1, 3, 0, 3), (0, 1, 0, 3), (0, 0, 0, 1)],
     1_139_836_469_526_570_279, (126_584, 0, 100_800, 227_384)),
    // draw 2
    ([(0, 0, 0, 2), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 3),
      (0, 0, 0, 0), (1, 3, 0, 3), (1, 1, 0, 3), (0, 0, 0, 1)],
     3_596_157_158_609_525_882, (126_659, 0, 100_800, 227_459)),
    // draw 3
    ([(0, 0, 0, 2), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 3),
      (0, 0, 0, 0), (1, 3, 0, 3), (0, 1, 0, 3), (0, 0, 0, 1)],
     5_161_153_201_073_718_887, (126_648, 0, 100_800, 227_448)),
];

/// Draw `draw`'s latency in ms for the link between domains `a < b`.
fn latency_draw(draw: u64, a: u64, b: u64) -> u64 {
    1 + splitmix64(draw << 32 ^ a << 16 ^ b) % 30
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs the script with each link's latency in ms from `latency(a, b)`
/// (`a < b`, domain indices; `None` keeps the default 10 ms), and
/// returns the settled internet.
fn run_script(latency: impl Fn(u64, u64) -> Option<u64>) -> Internet {
    let cfg = InternetConfig {
        policy: ExportPolicy::Open,
        borders: BorderPlan::PerEdge,
        sessions: Some(SessionTimers {
            keepalive: 2,
            hold: 6,
            retry: 3,
        }),
        ..InternetConfig::default()
    };
    let graph = eight_domains();
    let mut net = Internet::build(graph, &cfg);
    for a in net.graph.domains() {
        for &(b, _) in net.graph.neighbors(a).iter().filter(|e| e.0 .0 > a.0) {
            if let Some(ms) = latency(a.0 as u64, b.0 as u64) {
                let lat = SimDuration::from_millis(ms);
                net.engine.links_mut().set(NodeId(a.0), NodeId(b.0), lat);
            }
        }
    }
    net.converge();
    let g = net.static_ranges[3].expect("D3 has a static range").base();
    for h in [host(5, 0), host(7, 1), host(3, 2), host(0, 0), host(6, 3)] {
        net.host_join(h, g);
    }
    net.converge();
    for (sender, leaver) in [(host(6, 1), host(7, 1)), (host(2, 0), host(0, 0))] {
        net.send_data(sender, g);
        net.converge();
        net.host_leave(leaver, g);
        net.converge();
    }
    net.send_data(host(1, 0), g);
    net.converge();
    net
}

/// Each domain's duplicate count.
fn duplicates(net: &Internet) -> Vec<(usize, u64)> {
    (0..8)
        .map(|d| (d, net.domain(DomainId(d)).log.duplicates))
        .collect()
}

/// What one run of the script leaves behind: per domain `(duplicates,
/// encapsulations, dropped, received)`, the state fingerprint, and the
/// engine's `(delivered, dropped, timers, events)`.
type Outcome = ([(u64, u64, u64, usize); 8], u64, (u64, u64, u64, u64));

fn outcome(net: &Internet) -> Outcome {
    let logs = std::array::from_fn(|d| {
        let log = &net.domain(DomainId(d)).log;
        (
            log.duplicates,
            log.encapsulations,
            log.dropped,
            log.received.len(),
        )
    });
    let s = net.engine.stats();
    (
        logs,
        state_fingerprint(net),
        (s.delivered, s.dropped, s.timers, s.events),
    )
}
