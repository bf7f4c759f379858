//! Failure injection: link failures under live trees. BGP must fail
//! over where an alternate path exists, and BGMP must reroute the
//! affected tree state along the post-failover routes.

use masc_bgmp_core::analysis::{shared_tree_edges, verify_tree};
use masc_bgmp_core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig};
use migp::MigpKind;
use topology::{DomainGraph, DomainId};

/// A ring of four domains: every pair has two disjoint paths.
fn ring4() -> (DomainGraph, Vec<DomainId>) {
    let mut g = DomainGraph::new();
    let ids: Vec<DomainId> = ["A", "B", "C", "D"]
        .iter()
        .map(|n| g.add_domain(*n))
        .collect();
    g.add_peering(ids[0], ids[1]);
    g.add_peering(ids[1], ids[2]);
    g.add_peering(ids[2], ids[3]);
    g.add_peering(ids[3], ids[0]);
    (g, ids)
}

fn build() -> (Internet, Vec<DomainId>) {
    let (graph, ids) = ring4();
    let cfg = InternetConfig {
        migp: MigpKind::Cbt,
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    net.converge();
    (net, ids)
}

#[test]
fn bgp_fails_over_on_link_loss() {
    let (mut net, ids) = build();
    let (a, b, c) = (ids[0], ids[1], ids[2]);
    let range_c = net.static_ranges[c.0].unwrap();

    // A reaches C's range both ways; fail A-B and make sure the route
    // via D survives.
    net.fail_link(a, b);
    net.converge();
    let ok = net
        .domain(a)
        .routers
        .iter()
        .any(|br| br.speaker.rib().lookup_group(range_c.base()).is_some());
    assert!(ok, "A must still reach C's range via D after A-B fails");
}

#[test]
fn tree_survives_link_failure_for_new_data() {
    let (mut net, ids) = build();
    let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
    let g = net.group_addr(c);

    // Members in A and C (root domain C).
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
    assert!(verify_tree(&net, g, c, &[a, c]).is_empty());

    // Find which side A's branch went through, and fail that link.
    let edges = shared_tree_edges(&net, g);
    let via_b = edges
        .iter()
        .any(|(x, y)| (*x == a && *y == b) || (*x == b && *y == c));
    let (fa, fb) = if via_b { (a, b) } else { (a, d) };
    net.fail_link(fa, fb);
    net.converge();

    // The tree must have rerouted: still rooted at C, A still on it.
    let violations = verify_tree(&net, g, c, &[a, c]);
    assert!(
        violations.is_empty(),
        "post-failover tree broken: {violations:?}"
    );
    let edges_after = shared_tree_edges(&net, g);
    assert!(
        !edges_after
            .iter()
            .any(|(x, y)| (*x == fa && *y == fb) || (*x == fb && *y == fa)),
        "tree still uses the dead link: {edges_after:?}"
    );

    // Data still flows, exactly once.
    let sender = HostId {
        domain: asn_of(d),
        host: 5,
    };
    let id = net.send_data(sender, g);
    net.converge();
    let got = net.deliveries(id);
    assert_eq!(got, vec![ha, hc], "delivery after failover: {got:?}");
    assert_eq!(net.total_duplicates(), 0);
}

#[test]
fn heal_restores_shortest_routes() {
    let (mut net, ids) = build();
    let (a, b, c) = (ids[0], ids[1], ids[2]);
    let range_b = net.static_ranges[b.0].unwrap();

    net.fail_link(a, b);
    net.converge();
    // A still reaches B's range, the long way (via D, C).
    let hops_during = net
        .domain(a)
        .routers
        .iter()
        .filter_map(|br| br.speaker.rib().lookup_group(range_b.base()))
        .map(|r| r.as_path.len())
        .min()
        .expect("failover route");
    assert!(hops_during >= 3, "failover path must be the long way");

    net.heal_link(a, b);
    net.converge();
    let hops_after = net
        .domain(a)
        .routers
        .iter()
        .filter_map(|br| br.speaker.rib().lookup_group(range_b.base()))
        .map(|r| r.as_path.len())
        .min()
        .expect("restored route");
    assert!(hops_after < hops_during, "heal must restore the short path");
    let _ = c;
}

#[test]
fn partitioned_member_rejoins_after_heal() {
    let (mut net, ids) = build();
    let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
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

    // Cut BOTH of A's links: A is fully partitioned.
    net.fail_link(a, b);
    net.fail_link(a, d);
    net.converge();

    // Data sent in the majority side reaches C but cannot reach A.
    let sender = HostId {
        domain: asn_of(b),
        host: 5,
    };
    let id = net.send_data(sender, g);
    net.converge();
    let got = net.deliveries(id);
    assert!(got.contains(&hc), "majority-side member still served");
    assert!(!got.contains(&ha), "partitioned member cannot receive");

    // Heal; A's member re-joins (host re-announces membership — the
    // DWR refresh a real MIGP would do periodically).
    net.heal_link(a, b);
    net.heal_link(a, d);
    net.converge();
    net.host_join(ha, g); // membership refresh
    net.converge();
    let id2 = net.send_data(sender, g);
    net.converge();
    let got2 = net.deliveries(id2);
    assert!(
        got2.contains(&ha),
        "healed member must receive again: {got2:?}"
    );
    assert!(got2.contains(&hc));
    assert_eq!(net.total_duplicates(), 0);
}

#[test]
fn peer_down_leaves_aggregated_entries_alone() {
    use bgmp::{GroupEntry, Target};
    use mcast_addr::Prefix;

    let (mut net, ids) = build();
    let (a, b, c, d) = (ids[0], ids[1], ids[2], ids[3]);
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

    // A's attachment: the router whose (*,G) parent is an external
    // peer, and that peer.
    let (attach, upstream) = net
        .domain(a)
        .routers
        .iter()
        .find_map(|br| match br.bgmp.table().star_exact(g)?.parent? {
            Target::Peer(p) => Some((br.id, p)),
            Target::Migp => None,
        })
        .expect("A is attached through a peer");
    // Beside it, a (*,G-prefix) aggregate (§7) through the same peer.
    // Its base address is `g` itself, so a repair that read aggregates
    // as groups would walk the exact entry a second time.
    let agg: Prefix = Prefix::containing(g, 24).unwrap();
    assert_eq!(agg.base(), g);
    let agg_entry = GroupEntry {
        parent: Some(Target::Peer(upstream)),
        via_exit: None,
        children: [Target::Migp].into(),
    };
    {
        let actor = net.domain_mut(a);
        let br = actor.routers.iter_mut().find(|br| br.id == attach).unwrap();
        br.bgmp
            .table_mut()
            .star_insert_prefix(agg, agg_entry.clone());
    }

    // Kill the peering the attachment runs over.
    let via_b = net.domain(b).routers.iter().any(|br| br.id == upstream);
    net.fail_link(a, if via_b { b } else { d });
    net.converge();

    // The exact entry moved to the surviving side; the aggregate is
    // neither a group to reroute nor a casualty of the repair.
    let br = net.domain(a).routers.iter().find(|br| br.id == attach);
    let table = br.unwrap().bgmp.table();
    let (p, e) = table
        .star_entries()
        .find(|(p, _)| p.len() == 24)
        .expect("aggregate survives the peer-down");
    assert_eq!((*p, e), (agg, &agg_entry));
    assert!(verify_tree(&net, g, c, &[a, c]).is_empty());
    let sender = HostId {
        domain: asn_of(c),
        host: 5,
    };
    let id = net.send_data(sender, g);
    net.converge();
    assert_eq!(net.deliveries(id), vec![ha, hc]);
    assert_eq!(net.total_duplicates(), 0);
}

#[test]
fn stale_migp_subscriptions_cannot_bounce_a_packet_forever() {
    // A hub with three border routers. Two of them hold no tree state
    // but are (still) subscribed to the group inside the domain — the
    // residue join/prune churn can leave behind — and both route the
    // group through the third. Each re-injects what the MIGP hands it,
    // which reaches the other, so the transit's worklist never empties
    // by itself. The depth a step carries ends it: a hop deeper than
    // 4 × routers + 16 is dropped, twice here. Both counts are exact:
    // the copies dropped and the engine's events. Until a transit
    // floods the domain at most once per router (ROADMAP item 16(b)),
    // the bound is what stops it.
    let mut graph = DomainGraph::new();
    let hub = graph.add_domain("H");
    let spokes: Vec<DomainId> = ["R", "S", "T"]
        .iter()
        .map(|n| graph.add_domain(*n))
        .collect();
    for s in &spokes {
        graph.add_peering(hub, *s);
    }
    let cfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    net.converge();
    let g = net.group_addr(spokes[0]);

    let exit = net.domain(hub).best_exit_for_group(g).expect("route to R");
    let actor = net.domain_mut(hub);
    let stale: Vec<_> = actor
        .routers
        .iter()
        .filter(|br| br.id != exit)
        .map(|br| br.local)
        .collect();
    assert_eq!(stale.len(), 2);
    for local in stale {
        actor.migp.border_subscribe(local, g);
    }

    let sender = HostId {
        domain: asn_of(hub),
        host: 5,
    };
    net.send_data(sender, g);
    net.converge();
    assert_eq!(
        (net.domain(hub).log.dropped, net.engine.stats().events),
        (2, 25),
        "the bouncing copy is dropped, not followed"
    );
}
