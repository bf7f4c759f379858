//! End-to-end tests of the TCP border-router host: localhost internets
//! of shells, each running the simulator's own `DomainActor` — group
//! routes propagate, shared trees form, data flows bidirectionally, and
//! the result matches the simulator's run of the same script.

use std::collections::BTreeMap;
use std::net::TcpStream;

use bgmp::BgmpMsg;
use bgp::{AsPath, BgpMsg, ExportPolicy, Nlri, Route, RouteSourceKind};
use masc_bgmp_actors::codec::{read_frame, write_frame, CodecError};
use masc_bgmp_actors::{config, ActorNet, RouterHandle, View};
use masc_bgmp_core::{asn_of, domain_actors, HostId, Internet, Wire};
use mcast_addr::{McastAddr, Prefix};
use topology::{DomainGraph, DomainId};

fn host(d: usize, host: u32) -> HostId {
    HostId {
        domain: asn_of(DomainId(d)),
        host,
    }
}

fn routes_to(v: &View, p: Prefix) -> bool {
    v.grib.iter().any(|(_, q, _)| *q == p)
}

fn on_tree(v: &View, g: McastAddr) -> bool {
    v.star
        .iter()
        .any(|(_, p, _)| p.len() == 32 && p.base() == g)
}

/// A:provider of B and C; B provider of D; C provider of E.
fn small_graph() -> DomainGraph {
    let mut g = DomainGraph::new();
    let a = g.add_domain("A");
    let b = g.add_domain("B");
    let c = g.add_domain("C");
    let d = g.add_domain("D");
    let e = g.add_domain("E");
    g.add_provider_customer(a, b);
    g.add_provider_customer(a, c);
    g.add_provider_customer(b, d);
    g.add_provider_customer(c, e);
    g
}

#[test]
fn group_routes_tree_and_data_over_tcp() {
    let graph = small_graph();
    let mut net = ActorNet::start(&graph, ExportPolicy::Open).expect("start");

    // 1. BGP converges: every domain's G-RIB holds every range.
    let ranges = net.ranges.clone();
    let converged = net.wait_until(|_, v| ranges.iter().all(|p| routes_to(v, *p)));
    assert!(converged, "group routes must reach every domain");

    // 2. Members in B (the root domain), D and E join the first group
    // of B's range; the tree spans all five domains (D and E join
    // through their providers, through A).
    let g = net.ranges[1].base();
    for d in [1, 3, 4] {
        net.host_join(host(d, 0), g);
    }
    assert!(
        net.wait_until(|_, v| on_tree(v, g)),
        "shared tree must span all five domains"
    );

    // 3. A non-member host in E sends: every member receives it.
    let id = net.send_data(host(4, 1), g);
    let delivered = net.wait_until(|d, v| match d {
        1 | 3 | 4 => v.received.contains(&(id, host(d, 0))),
        _ => true,
    });
    assert!(
        delivered,
        "E's data must reach B, D and E's member over TCP"
    );
    let in_e = net.routers[4].view();
    assert!(
        !in_e.received.contains(&(id, host(4, 1))),
        "not to the sender"
    );

    // 4. D's member leaves: D's state goes, new data reaches only B
    // and E.
    net.host_leave(host(3, 0), g);
    assert!(
        net.wait_until(|d, v| d != 3 || !on_tree(v, g)),
        "D's state must go away after leave"
    );
    let id = net.send_data(host(4, 1), g);
    let ok = net.wait_until(|d, v| d != 1 || v.received.contains(&(id, host(1, 0))));
    assert!(ok, "B still receives after D left");
    let in_d = net.routers[3].view();
    assert!(
        !in_d.received.iter().any(|(p, _)| *p == id),
        "D must not receive after leaving"
    );
    net.stop();
}

#[test]
fn provider_customer_policy_over_tcp() {
    // Three backbones in a chain of peerings, one customer on the
    // first: with Gao-Rexford export the customer's route reaches its
    // provider's peer (customer->provider->peer is valley-free) but
    // not a peer of that peer.
    let mut g = DomainGraph::new();
    let p1 = g.add_domain("P1");
    let p2 = g.add_domain("P2");
    let p3 = g.add_domain("P3");
    g.add_peering(p1, p2);
    g.add_peering(p2, p3);
    let c1 = g.add_domain("C1");
    g.add_provider_customer(p1, c1);

    let net = ActorNet::start(&g, ExportPolicy::ProviderCustomer).expect("start");
    let c1_range = net.ranges[3];
    let ok = net.wait_until(|d, v| d == 2 || routes_to(v, c1_range));
    assert!(ok, "C1's route must reach P1 and P2");
    // Give any stray propagation a moment, then assert P3 never saw it.
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert!(
        !routes_to(&net.routers[2].view(), c1_range),
        "peer-learned routes must not be re-exported to another peer"
    );
    net.stop();
}

/// A peer that dies closes its connections, and the survivor flushes
/// the routes learned over them.
#[test]
fn hold_timer_flushes_dead_peer() {
    let mut g = DomainGraph::new();
    let a = g.add_domain("A");
    let b = g.add_domain("B");
    g.add_provider_customer(a, b);
    let net = ActorNet::start(&g, ExportPolicy::Open).expect("start");
    let b_range = net.ranges[1];
    assert!(net.wait_until(|_, v| routes_to(v, b_range)));

    let mut routers = net.routers;
    routers.remove(1).shutdown();
    let flushed = eventually(&routers[0], |v| !routes_to(v, b_range));
    assert!(flushed, "A must flush the dead peer's routes");
    for h in routers {
        h.shutdown();
    }
}

/// A stopped shell stops listening: connecting to its address fails.
#[test]
fn stopped_shell_refuses_connections() {
    let mut g = DomainGraph::new();
    let a = g.add_domain("A");
    let b = g.add_domain("B");
    g.add_provider_customer(a, b);
    let net = ActorNet::start(&g, ExportPolicy::Open).expect("start");
    let addrs: Vec<_> = net.routers.iter().map(|h| h.listen).collect();
    net.stop();
    for addr in addrs {
        assert!(TcpStream::connect(addr).is_err(), "{addr} still accepts");
    }
}

/// Polls one shell until `check` passes on its view or 8 s run out.
fn eventually(h: &RouterHandle, check: impl Fn(&View) -> bool) -> bool {
    for _ in 0..80 {
        if check(&h.view()) {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    false
}

/// A connection whose hello names a domain that is not a neighbour, or
/// a neighbour that is already connected, is closed before the shell
/// sees it: the peer view does not change, and the peering it
/// duplicated stays up.
#[test]
fn hello_from_a_non_neighbour_is_refused() {
    let graph = small_graph();
    let net = ActorNet::start(&graph, ExportPolicy::Open).expect("start");
    let a = &net.routers[0];
    let before = a.view().peers_up;
    assert_eq!(before, vec![asn_of(DomainId(1)), asn_of(DomainId(2))]);
    // D is in the graph but not A's neighbour; 99 is nobody; B is a
    // neighbour with its peering up.
    for claim in [asn_of(DomainId(3)), 99, asn_of(DomainId(1))] {
        let mut sock = TcpStream::connect(a.listen).unwrap();
        write_frame(&mut sock, &claim).unwrap();
        let answer = read_frame::<u32, _>(&mut sock);
        assert!(matches!(answer, Err(CodecError::Closed)), "{claim}");
        assert_eq!(a.view().peers_up, before, "{claim}");
    }
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert_eq!(a.view().peers_up, before);
    net.stop();
}

/// Over a peering, only the two routers at its ends speak: a frame
/// addressed to a router the domain does not have, or claiming to come
/// from one of the domain's own routers (an iBGP update, which would
/// carry a route kind of the sender's choosing), or a host or link
/// event, is dropped. The shell keeps answering and its G-RIB holds
/// until a frame from the peering's own router arrives.
#[test]
fn frames_off_the_peering_are_dropped() {
    let graph = small_graph();
    let (b, d) = (DomainId(1), DomainId(3));
    let net = ActorNet::start(&graph, ExportPolicy::Open).expect("start");
    let ranges = net.ranges.clone();
    assert!(net.wait_until(|_, v| ranges.iter().all(|p| routes_to(v, *p))));
    // D goes away; a raw socket takes its place at B.
    let mut routers = net.routers;
    routers.remove(d.0).shutdown();
    let shell_b = &routers[b.0];
    let d_gone = |v: &View| !v.peers_up.contains(&asn_of(d)) && !routes_to(v, ranges[d.0]);
    assert!(eventually(shell_b, d_gone), "B must drop D");
    let mut sock = TcpStream::connect(shell_b.listen).unwrap();
    write_frame(&mut sock, &asn_of(d)).unwrap();
    assert_eq!(read_frame::<u32, _>(&mut sock).unwrap(), asn_of(b));
    std::thread::sleep(std::time::Duration::from_millis(300));
    let before = shell_b.view();
    assert!(before.peers_up.contains(&asn_of(d)));

    // The peerings as every shell builds them: B's router facing D (D's
    // peering), B's router facing A (internal, seen from D's peering).
    let (actors, _) = domain_actors(&graph, &config(ExportPolicy::Open));
    let peering = |at: DomainId, nb: DomainId| {
        (actors[at.0].routers.iter())
            .find_map(|br| {
                let p = br.speaker.peers().find(|p| p.asn == asn_of(nb))?;
                Some((br.id, p.router))
            })
            .expect("a peering")
    };
    let (a, group) = (DomainId(0), Prefix::new_multicast(0xEF01_0000, 16).unwrap());
    let ((b_to_d, d_router), (b_to_a, a_router)) = (peering(b, d), peering(b, a));
    let bgp = |from, to| Wire::Bgp {
        from,
        to,
        msg: BgpMsg::Update {
            route: Route {
                nlri: Nlri::Group(group),
                as_path: AsPath::new(&[asn_of(d)]),
                next_hop: from,
                local: false,
                ebgp: false,
            },
            kind: RouteSourceKind::Customer,
        },
    };
    let join = BgmpMsg::Join(group.base());
    let (host, group_addr) = (host(b.0, 0), group.base());
    let bad = [
        bgp(d_router, 9999),
        bgp(b_to_a, b_to_d),
        bgp(a_router, b_to_a),
        Wire::Bgmp {
            from: d_router,
            to: 9999,
            msg: join,
        },
        Wire::Keepalive {
            from: d_router,
            to: 9999,
            gen: 1,
        },
        Wire::BgpRefresh {
            from: d_router,
            to: 9999,
        },
        Wire::HostJoin {
            host,
            group: group_addr,
        },
        Wire::PeerLinkDown {
            router: b_to_d,
            peer: d_router,
        },
    ];
    for wire in &bad {
        write_frame(&mut sock, wire).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(300));
    let after = shell_b.view();
    assert_eq!(
        after.grib, before.grib,
        "the shell answers, its G-RIB unchanged"
    );
    assert_eq!((after.star, after.peers_up), (before.star, before.peers_up));

    write_frame(&mut sock, &bgp(d_router, b_to_d)).unwrap();
    let learned = eventually(shell_b, |v| routes_to(v, group));
    assert!(learned, "the peering's own router is heard");
    drop(sock);
    for h in routers {
        h.shutdown();
    }
}

/// Two tiers, multihomed customers and a customer-level peering, so a
/// border router per peering gives several domains an interior (MIGP
/// and iBGP between their border routers).
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

/// Waits until every domain's shell shows the simulator's G-RIB, (*,G)
/// entries and deliveries, then checks they stay that way. Duplicate
/// counts are not compared: on this script they depend on message
/// timing, in the simulator too.
fn agree(net: &ActorNet, sim: &Internet, step: &str) {
    let want: Vec<View> = (sim.graph.domains())
        .map(|d| View::of(sim.domain(d)))
        .collect();
    let same = |d: usize, v: &View| {
        let v = View {
            peers_up: Vec::new(),
            ..v.clone()
        };
        v == want[d]
    };
    let converged = net.wait_until(same);
    std::thread::sleep(std::time::Duration::from_millis(300));
    for (d, h) in net.routers.iter().enumerate() {
        let got = View {
            peers_up: Vec::new(),
            ..h.view()
        };
        assert_eq!(got, want[d], "{step}: domain {d} (converged: {converged})");
    }
}

#[test]
fn tcp_plane_matches_the_simulator() {
    let graph = eight_domains();
    let mut sim = Internet::build(graph.clone(), &config(ExportPolicy::Open));
    sim.converge();
    let mut net = ActorNet::start(&graph, ExportPolicy::Open).expect("start");
    agree(&net, &sim, "converged");

    let g = net.ranges[3].base();
    let members = [host(5, 0), host(7, 1), host(3, 2), host(0, 0), host(6, 3)];
    for h in members {
        sim.host_join(h, g);
        net.host_join(h, g);
    }
    sim.converge();
    agree(&net, &sim, "joined");

    for (sender, leaver) in [(host(6, 1), host(7, 1)), (host(2, 0), host(0, 0))] {
        let id = sim.send_data(sender, g);
        assert_eq!(net.send_data(sender, g), id);
        sim.converge();
        agree(&net, &sim, "sent");
        sim.host_leave(leaver, g);
        net.host_leave(leaver, g);
        sim.converge();
        agree(&net, &sim, "left");
    }
    let id = sim.send_data(host(1, 0), g);
    assert_eq!(net.send_data(host(1, 0), g), id);
    sim.converge();
    agree(&net, &sim, "sent after leaves");

    let mut by_packet: BTreeMap<u64, Vec<HostId>> = BTreeMap::new();
    for h in &net.routers {
        for (id, host) in h.view().received {
            by_packet.entry(id).or_default().push(host);
        }
    }
    by_packet.values_mut().for_each(|hosts| hosts.sort());
    assert_eq!(by_packet, sim.deliveries_by_packet());
    assert_eq!(by_packet.len(), 3, "every packet reached someone");
    net.stop();
}
