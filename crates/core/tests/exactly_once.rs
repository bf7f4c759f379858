//! §5's exactly-once delivery on a fault-free run: each packet reaches
//! each member once.
//!
//! The script is the TCP plane's differential one (`eight_domains()` in
//! `crates/actors/tests/tcp_internet.rs`) run through `Internet` alone:
//! no faults, no sockets, the default border plan of one router per
//! peering and default 10 ms links.

use bgp::{ExportPolicy, SessionTimers};
use masc_bgmp_core::{asn_of, BorderPlan, HostId, Internet, InternetConfig};
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

    let duplicates: Vec<(usize, u64)> = (0..8)
        .map(|d| (d, net.domain(DomainId(d)).log.duplicates))
        .collect();
    assert!(
        duplicates.iter().all(|&(_, n)| n == 0),
        "packets delivered twice, per domain: {duplicates:?}"
    );
}
