//! AGG — group-route aggregation ablation (paper §4.2/§4.3.2: "the
//! border routers of the parent domain need not propagate their
//! children's group routes explicitly to the rest of the world. This
//! helps in reducing the number of routes in the G-RIB").
//!
//! Builds hierarchies of growing depth with nested (MASC-style) range
//! assignment and measures G-RIB sizes at every router with
//! aggregation suppression on vs off.
//!
//! Usage: `ablation_aggregation [--fanout 3]`

use masc_bgmp_bench::{banner, results_dir, Args};
use masc_bgmp_core::analysis::grib_sizes;
use masc_bgmp_core::{Addressing, BorderPlan, Internet, InternetConfig};
use metrics::{emit, Series, Summary};
use migp::MigpKind;
use topology::{hierarchical, HierSpec};

fn run(depth: usize, fanout: usize, suppress: bool) -> Summary {
    let fanouts = vec![fanout; depth];
    let h = hierarchical(&HierSpec {
        fanouts,
        mesh_top: true,
    });
    let cfg = InternetConfig {
        migp: MigpKind::Cbt,
        borders: BorderPlan::Single,
        addressing: Addressing::StaticNested,
        aggregate_suppress: suppress,
        ..Default::default()
    };
    let mut net = Internet::build(h.graph.clone(), &cfg);
    net.converge();
    let sizes: Vec<f64> = grib_sizes(&net).into_iter().map(|s| s as f64).collect();
    Summary::of(&sizes).expect("router G-RIBs")
}

fn main() {
    let args = Args::parse();
    let fanout = args.usize("fanout", 3);
    args.finish();
    banner(
        "AGG",
        "G-RIB size with and without covered-route suppression, nested ranges",
    );

    let mut s_on = Series::new("grib_mean_suppressed");
    let mut s_off = Series::new("grib_mean_unsuppressed");
    println!(
        "{:>6} {:>8} {:>22} {:>22} {:>8}",
        "depth", "domains", "grib mean/max (on)", "grib mean/max (off)", "saving"
    );
    for depth in 2..=4 {
        let on = run(depth, fanout, true);
        let off = run(depth, fanout, false);
        let domains: usize = (0..depth).map(|l| fanout.pow(l as u32 + 1)).sum();
        println!(
            "{:>6} {:>8} {:>13.1} / {:>5.0} {:>15.1} / {:>5.0} {:>7.0}%",
            depth,
            domains,
            on.mean,
            on.max,
            off.mean,
            off.max,
            (1.0 - on.mean / off.mean) * 100.0
        );
        s_on.push(depth as f64, on.mean);
        s_off.push(depth as f64, off.mean);
        assert!(
            on.mean < off.mean,
            "suppression must shrink the G-RIB (depth {depth})"
        );
    }
    emit::write_results(&results_dir(), "ablation_aggregation", &[s_on, s_off]).expect("write");
    println!();
    println!("shape: with nested ranges, suppression keeps the G-RIB near the number of");
    println!("top-level + sibling prefixes; without it every domain's prefix floods globally");
    println!("(the paper's 37,500-blocks-in-175-routes result is this effect at fig-2 scale).");
}
