//! POLICY — selective group-route propagation (paper §2/§4.2:
//! "multicast policies are realized by the selective propagation of
//! the group routes in BGP ... a provider domain could restrict the
//! use of its resources").
//!
//! Topology: `k` provider islands (one backbone + its customers each),
//! with the backbones joined in a settlement-free peering *ring*.
//! Under Gao–Rexford export rules a peer-learned route is never passed
//! to another peer, so only adjacent islands exchange group routes;
//! with Open policy everything reaches everywhere. The G-RIB contents
//! make the difference directly visible.
//!
//! Usage: `ablation_policy [--islands 6] [--customers 4]`

use bgp::ExportPolicy;
use masc_bgmp_bench::{banner, results_dir, Args};
use masc_bgmp_core::analysis::grib_sizes;
use masc_bgmp_core::{Addressing, BorderPlan, Internet, InternetConfig};
use metrics::{emit, Series, Summary};
use migp::MigpKind;
use topology::{policy_bfs, DomainGraph};

fn ring_of_islands(islands: usize, customers: usize) -> DomainGraph {
    let mut g = DomainGraph::new();
    let backbones: Vec<_> = (0..islands)
        .map(|i| g.add_domain(format!("BB{i}")))
        .collect();
    for i in 0..islands {
        g.add_peering(backbones[i], backbones[(i + 1) % islands]);
    }
    for (i, bb) in backbones.iter().enumerate() {
        for c in 0..customers {
            let cust = g.add_domain(format!("C{i}.{c}"));
            g.add_provider_customer(*bb, cust);
        }
    }
    g
}

fn run(islands: usize, customers: usize, policy: ExportPolicy) -> (Summary, DomainGraph) {
    let graph = ring_of_islands(islands, customers);
    let cfg = InternetConfig {
        policy,
        migp: MigpKind::Cbt,
        borders: BorderPlan::Single,
        addressing: Addressing::Static,
        ..Default::default()
    };
    let mut net = Internet::build(graph.clone(), &cfg);
    net.converge();
    let sizes: Vec<f64> = grib_sizes(&net).into_iter().map(|s| s as f64).collect();
    (Summary::of(&sizes).expect("routers"), graph)
}

fn main() {
    let args = Args::parse();
    let islands = args.usize("islands", 6);
    let customers = args.usize("customers", 4);
    args.finish();
    banner(
        "POLICY",
        &format!(
            "{islands}-island peer ring, {customers} customers each: Open vs ProviderCustomer"
        ),
    );

    let (open, _) = run(islands, customers, ExportPolicy::Open);
    let (pc, graph) = run(islands, customers, ExportPolicy::ProviderCustomer);
    let n = graph.len();

    println!("{:>28} {:>12} {:>12}", "metric", "Open", "Prov/Cust");
    println!(
        "{:>28} {:>12.1} {:>12.1}",
        "G-RIB size mean (reach)", open.mean, pc.mean
    );
    println!(
        "{:>28} {:>12.0} {:>12.0}",
        "G-RIB size max", open.max, pc.max
    );
    println!("{:>28} {:>12} {:>12.1}", "domains total", n, n as f64);

    // Graph-theoretic expectation under valley-free routing.
    let mut vf = Vec::new();
    for d in graph.domains() {
        let pd = policy_bfs(&graph, d);
        vf.push(pd.dist.iter().filter(|x| **x != u32::MAX).count() as f64);
    }
    let vf = Summary::of(&vf).unwrap();
    println!(
        "{:>28} {:>12} {:>12.1}  (valley-free reachability)",
        "expected reach", "-", vf.mean
    );

    let mut s = Series::new("grib_mean");
    s.push(0.0, open.mean);
    s.push(1.0, pc.mean);
    emit::write_results(&results_dir(), "ablation_policy", &[s]).expect("write");

    assert!(
        (open.mean - n as f64).abs() < 1e-9,
        "Open must reach every root domain"
    );
    assert!(
        pc.mean < open.mean,
        "provider/customer policy must restrict reach (pc {} vs open {})",
        pc.mean,
        open.mean
    );
    println!();
    println!("shape: with Open export every domain's G-RIB holds all {n} group routes; under");
    println!("provider/customer rules peer-learned routes stop at one peer hop, so each");
    println!("island sees only itself and its two ring neighbours — the provider's resources");
    println!("carry exactly its customers' multicast traffic (§2).");
}
