//! ENCAP — encapsulation vs source-specific branches (paper §5.3:
//! "if a source-specific branch is built, data can be brought into the
//! domain from the source via the appropriate border router so that
//! the data encapsulation overhead can be avoided").
//!
//! Reconstructs the figure-3 scenario (DVMRP domain F with two border
//! routers) and streams packets from a source in domain D, counting
//! encapsulated hand-offs with branches enabled vs disabled.
//!
//! Usage: `ablation_encap [--packets 20]`

use masc_bgmp_bench::{banner, results_dir, Args};
use masc_bgmp_core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig};
use metrics::{emit, Series};
use migp::MigpKind;
use topology::{DomainGraph, DomainId};

fn fig3() -> (DomainGraph, Vec<DomainId>) {
    let mut g = DomainGraph::new();
    let ids: Vec<DomainId> = ["A", "B", "C", "D", "E", "F", "G", "H"]
        .iter()
        .map(|n| g.add_domain(*n))
        .collect();
    let (a, b, c, d, e, f, gg, h) = (
        ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6], ids[7],
    );
    g.add_peering(a, d);
    g.add_peering(a, e);
    g.add_peering(d, e);
    g.add_provider_customer(a, b);
    g.add_provider_customer(a, c);
    g.add_provider_customer(b, f);
    g.add_provider_customer(a, f);
    g.add_provider_customer(c, gg);
    g.add_provider_customer(gg, h);
    (g, ids)
}

fn run(packets: usize, branches: bool) -> (Vec<u64>, u64) {
    let (graph, ids) = fig3();
    let cfg = InternetConfig {
        migp: MigpKind::Dvmrp,
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    if !branches {
        for d in net.graph.domains() {
            net.domain_mut(d).source_branches = false;
        }
    }
    net.converge();
    let (b, d, f) = (ids[1], ids[3], ids[5]);
    let g = net.group_addr(b);
    for m in [
        HostId {
            domain: asn_of(b),
            host: 1,
        },
        HostId {
            domain: asn_of(f),
            host: 1,
        },
        HostId {
            domain: asn_of(d),
            host: 1,
        },
    ] {
        net.host_join(m, g);
    }
    net.converge();
    let source = HostId {
        domain: asn_of(d),
        host: 9,
    };
    let mut encap_per_packet = Vec::new();
    let mut prev = net.total_encapsulations();
    for _ in 0..packets {
        let id = net.send_data(source, g);
        net.converge();
        assert_eq!(net.deliveries(id).len(), 3, "members always served");
        let now = net.total_encapsulations();
        encap_per_packet.push(now - prev);
        prev = now;
    }
    (encap_per_packet, net.total_duplicates())
}

fn main() {
    let args = Args::parse();
    let packets = args.usize("packets", 20);
    args.finish();
    banner(
        "ENCAP",
        "figure-3 DVMRP encapsulation with/without source-specific branches",
    );

    let (with, dup_w) = run(packets, true);
    let (without, dup_wo) = run(packets, false);
    println!(
        "{:>8} {:>14} {:>14}",
        "packet", "branches on", "branches off"
    );
    for i in 0..packets {
        println!("{:>8} {:>14} {:>14}", i + 1, with[i], without[i]);
    }
    let total_w: u64 = with.iter().sum();
    let total_wo: u64 = without.iter().sum();
    println!("{:>8} {:>14} {:>14}", "total", total_w, total_wo);
    println!("duplicates: on={dup_w} off={dup_wo}");

    let mut s_on = Series::new("encap_with_branches");
    let mut s_off = Series::new("encap_without_branches");
    for (i, (w, wo)) in with.iter().zip(&without).enumerate() {
        s_on.push(i as f64 + 1.0, *w as f64);
        s_off.push(i as f64 + 1.0, *wo as f64);
    }
    emit::write_results(&results_dir(), "ablation_encap", &[s_on, s_off]).expect("write");

    assert!(total_w < total_wo, "branches must reduce encapsulation");
    assert_eq!(
        with.last(),
        Some(&0),
        "steady state with branches is encapsulation-free"
    );
    assert!(
        without.iter().all(|e| *e > 0),
        "without branches every packet pays"
    );
    println!();
    println!("shape: with branches, only the first packet(s) are encapsulated while the");
    println!("branch is built; afterwards data enters F natively at F2. Without branches,");
    println!("every packet from the source pays the F1→F2 encapsulation forever (§5.3).");
}
