//! FIG4 — path-length comparison of multicast distribution trees
//! (paper §5.4, figure 4): ratio of path length vs the shortest-path
//! tree, average and maximum, for unidirectional shared trees
//! (PIM-SM), bidirectional shared trees (BGMP), and hybrid trees
//! (BGMP + source-specific branches), as the receiver set grows from 1
//! to 1000 on a 3326-domain Internet-like topology.
//!
//! Paper's shape: hybrid avg ≲ 1.2× (max ≤ 4×); bidirectional avg
//! ≲ 1.3× (max ≤ 4.5×); unidirectional avg ≈ 2× (max ≤ 6×).
//!
//! Usage: `fig4_trees [--domains 3326] [--trials 10] [--seed 7]
//! [--maxrx 1000] [--threads N]` — any `--threads` value produces
//! byte-identical output (each grid cell is independently seeded).

use bier::Plane;
use masc_bgmp_bench::fig4::{run, series, Fig4Params};
use masc_bgmp_bench::{banner, results_dir, Args};
use metrics::emit;

fn main() {
    let args = Args::parse();
    let p = Fig4Params {
        domains: args.usize("domains", 3326),
        trials: args.trials(10),
        seed: args.seed(7),
        maxrx: args.usize("maxrx", 1000),
        threads: args.threads(),
    };
    args.finish();

    banner(
        "FIG4",
        &format!(
            "tree quality on {}-domain topology, {} trials per point, seed {}, {} thread(s)",
            p.domains, p.trials, p.seed, p.threads
        ),
    );

    print!("{:>6}", "recv");
    for col in ["uni_avg", "uni_max", "bi_avg", "bi_max", "hy_avg", "hy_max"] {
        print!(" {col:>9}");
    }
    print!(" |");
    for plane in Plane::ALL {
        print!(" {:>14}", format!("{}_state", plane.name()));
    }
    for plane in Plane::ALL.iter().filter(|p| p.stateless()) {
        print!(" {:>14}", format!("{}_copies", plane.name()));
    }
    println!();
    let points = run(&p);
    for pt in &points {
        print!("{:>6}", pt.recv);
        for i in 0..3 {
            print!(" {:>9.3} {:>9.3}", pt.avg[i], pt.max[i]);
        }
        print!(" |");
        for pl in &pt.planes {
            print!(" {:>14.1}", pl.state);
        }
        for (_, copies) in pt.planes.iter().filter_map(|pl| pl.spt) {
            print!(" {copies:>14.1}");
        }
        println!();
    }

    let out = series(&points);
    let dir = results_dir();
    emit::write_results(&dir, "fig4_tree_quality", &out).expect("write results");

    // Shape summary against the paper (averaged over the larger sets).
    let from = 100.0;
    let uni = out[0].mean_y_from(from).unwrap_or(0.0);
    let bi = out[2].mean_y_from(from).unwrap_or(0.0);
    let hy = out[4].mean_y_from(from).unwrap_or(0.0);
    println!();
    println!("-- shape vs paper (receiver sets >= 100) --");
    println!("unidirectional avg ratio: measured {uni:.2}   paper ~2.0 (worst)");
    println!("bidirectional  avg ratio: measured {bi:.2}   paper <1.3");
    println!("hybrid         avg ratio: measured {hy:.2}   paper <1.2 (best shared)");
    println!(
        "ordering holds: uni > bi >= hy >= 1  ->  {}",
        if uni > bi && bi >= hy && hy >= 1.0 {
            "YES"
        } else {
            "NO"
        }
    );
    println!(
        "max ratios: uni {:.1} (paper <=6), bi {:.1} (paper <=4.5), hy {:.1} (paper <=4)",
        out[1].max_y().unwrap_or(0.0),
        out[3].max_y().unwrap_or(0.0),
        out[5].max_y().unwrap_or(0.0)
    );

    // Architecture ablation: where state lives and what traffic costs.
    let last = points.last().unwrap();
    println!();
    println!("-- architecture ablation (largest receiver set) --");
    println!("per-group state: tree routers (bgmp), ingress bitstrings (bier), ingress encaps (mapencap)");
    for (plane, pl) in Plane::ALL.iter().zip(&last.planes) {
        print!("{:>9}: state {:>7.0}", plane.name(), pl.state);
        match pl.spt {
            Some((stretch, copies)) => {
                println!(", stretch over SPT {stretch:.2}, link copies/send {copies:.1}")
            }
            None => println!(" (paths: the bidirectional columns above)"),
        }
    }
    println!("results written to {}", dir.display());
}
