//! The simulator's domain actors over real TCP: each domain is a
//! thread hosting its `DomainActor` behind persistent peering
//! connections (§5.2), exchanging BGP group routes, BGMP joins and
//! multicast data on localhost.
//!
//! Run with: `cargo run --example live_actors`

use masc_bgmp::actors::ActorNet;
use masc_bgmp::bgp::ExportPolicy;
use masc_bgmp::core::{asn_of, HostId};
use masc_bgmp::topology::{DomainGraph, DomainId};

fn host(d: usize, host: u32) -> HostId {
    HostId {
        domain: asn_of(DomainId(d)),
        host,
    }
}

fn main() {
    // The paper's figure-1 skeleton: backbone A; regionals B and C;
    // F under B; G under C.
    let mut g = DomainGraph::new();
    let a = g.add_domain("A");
    let b = g.add_domain("B");
    let c = g.add_domain("C");
    let f = g.add_domain("F");
    let gg = g.add_domain("G");
    g.add_provider_customer(a, b);
    g.add_provider_customer(a, c);
    g.add_provider_customer(b, f);
    g.add_provider_customer(c, gg);

    println!("starting 5 border-router hosts on localhost...");
    let mut net = ActorNet::start(&g, ExportPolicy::Open).expect("start actors");
    for (i, h) in net.routers.iter().enumerate() {
        println!(
            "  {} listening on {} advertising {}",
            g.name(DomainId(i)),
            h.listen,
            net.ranges[i]
        );
    }

    // Wait for BGP to converge over the real sockets.
    let ranges = net.ranges.clone();
    assert!(
        net.wait_until(|_, v| ranges.iter().all(|p| v.grib.iter().any(|r| r.1 == *p))),
        "BGP convergence"
    );
    println!("BGP converged: every domain holds {} group routes", g.len());

    // A group rooted in B; members in B, F and G join.
    let group = net.ranges[1].base();
    println!("group {group} rooted in B (address from B's range)");
    for d in [1, 3, 4] {
        net.host_join(host(d, 0), group);
    }
    assert!(
        net.wait_until(|_, v| v.star.iter().any(|e| e.1.base() == group)),
        "tree formation"
    );
    println!("shared tree spans A, B, C, F, G (BGMP joins travelled over TCP)");

    // A host in G multicasts; the members in B and F receive.
    let id = net.send_data(host(4, 1), group);
    assert!(
        net.wait_until(|d, v| d != 1 && d != 3 || v.received.contains(&(id, host(d, 0)))),
        "delivery"
    );
    println!("data from G delivered to members in B and F — bidirectionally, without");
    println!("detouring through any third-party root.");
    net.stop();
    println!("hosts shut down cleanly.");
}
