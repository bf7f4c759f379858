//! STATE — forwarding-state aggregation, the paper's §7 provision:
//! "BGMP has provisions for [scaling forwarding tables] by allowing
//! (*,G-prefix) ... state to be stored at the routers wherever the
//! list of targets are the same. Its effectiveness will depend on the
//! location of the group members."
//!
//! Creates many groups rooted in the same domain with identical
//! member sets (the favourable case) and with scattered member sets
//! (the unfavourable case) and measures (*,G) entry counts before and
//! after prefix aggregation.
//!
//! Usage: `ablation_state_agg [--groups 32] [--seed 5]`

use masc_bgmp_bench::{banner, results_dir, Args};
use masc_bgmp_core::analysis::total_star_entries;
use masc_bgmp_core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig};
use metrics::{emit, Series};
use migp::MigpKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topology::{internet_like, DomainId, InternetSpec};

fn run(groups: usize, scattered: bool, seed: u64) -> (usize, usize) {
    let graph = internet_like(&InternetSpec {
        n: 40,
        backbones: 3,
        attach: 2,
        extra_peerings: 2,
        seed,
    });
    let cfg = InternetConfig {
        migp: MigpKind::Cbt,
        borders: BorderPlan::Single,
        addressing: Addressing::Static,
        seed,
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    net.converge();
    let root = DomainId(7);
    let mut rng = StdRng::seed_from_u64(seed);
    let fixed_members: Vec<DomainId> = vec![DomainId(12), DomainId(25), DomainId(33)];
    for _ in 0..groups {
        let g = net.group_addr(root);
        let members: Vec<DomainId> = if scattered {
            (0..3).map(|_| DomainId(rng.gen_range(0..40))).collect()
        } else {
            fixed_members.clone()
        };
        for m in members {
            net.host_join(
                HostId {
                    domain: asn_of(m),
                    host: 1,
                },
                g,
            );
        }
    }
    net.converge();
    let before = total_star_entries(&net, None);
    // Aggregate every router's table.
    let mut saved = 0;
    for d in net.graph.domains() {
        let node = net.nodes[d.0];
        let actor = net
            .engine
            .node_as_mut::<masc_bgmp_core::DomainActor>(node)
            .expect("actor");
        for br in &mut actor.routers {
            saved += br.bgmp.table_mut().aggregate_star();
        }
    }
    (before, before - saved)
}

fn main() {
    let args = Args::parse();
    let groups = args.usize("groups", 32);
    let seed = args.seed(5);
    args.finish();
    banner(
        "STATE",
        "(*,G-prefix) forwarding-state aggregation (paper §7)",
    );

    let (same_before, same_after) = run(groups, false, seed);
    let (scat_before, scat_after) = run(groups, true, seed);

    println!(
        "{:>24} {:>10} {:>10} {:>9}",
        "member placement", "entries", "after agg", "saving"
    );
    println!(
        "{:>24} {:>10} {:>10} {:>8.0}%",
        "identical member sets",
        same_before,
        same_after,
        (1.0 - same_after as f64 / same_before as f64) * 100.0
    );
    println!(
        "{:>24} {:>10} {:>10} {:>8.0}%",
        "scattered member sets",
        scat_before,
        scat_after,
        (1.0 - scat_after as f64 / scat_before as f64) * 100.0
    );

    let mut s = Series::new("entries_after_aggregation");
    s.push(0.0, same_after as f64);
    s.push(1.0, scat_after as f64);
    emit::write_results(&results_dir(), "ablation_state_agg", &[s]).expect("write");

    assert!(same_after < same_before, "identical targets must aggregate");
    assert!(
        same_before - same_after >= scat_before - scat_after,
        "identical member sets must aggregate at least as well as scattered ones"
    );
    println!();
    println!("shape: consecutive groups from one root domain with the same members collapse");
    println!("into (*,G-prefix) entries; scattered membership defeats aggregation — exactly");
    println!("the dependence on member location the paper predicts (§7).");
}
