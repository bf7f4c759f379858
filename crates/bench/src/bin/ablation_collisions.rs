//! CLAIM-N — the simultaneous-claim collision ablation (paper §4.3.3:
//! "in the worst case, the nth domain might have to make up to n
//! claims before it obtains a prefix ... choosing randomly among the
//! /6 ranges provides a lower chance of a collision than if claims
//! were deterministic").
//!
//! n sibling domains claim simultaneously from one shared space; we
//! count claim attempts and collisions until everyone holds a disjoint
//! range, for n ∈ {2..64}.
//!
//! Usage: `ablation_collisions [--seed 3] [--maxn 64] [--threads 1]`
//! (each n is an independent round, so `--threads` fans the sweep
//! without changing the output)

use masc::msg::{DomainAsn, MascAction, MascMsg};
use masc::{MascConfig, MascNode};
use masc_bgmp_bench::{banner, results_dir, run_tasks, Args};
use mcast_addr::{Prefix, Secs};
use metrics::{emit, Series};
use std::collections::VecDeque;

/// Drives a set of top-level sibling nodes to quiescence by shuttling
/// their messages and deadlines by hand. Returns (claims, collisions,
/// virtual seconds until every domain held a grant).
fn run_round(n: usize, seed: u64) -> (u64, u64, Secs) {
    let cfg = MascConfig {
        wait_period: 600,
        range_lifetime: 10_000_000,
        renew_margin: 500_000,
        claim_retry_backoff: 120,
        min_claim_len: 24,
        ..MascConfig::default()
    };
    let asns: Vec<DomainAsn> = (1..=n as u32).collect();
    let mut nodes: Vec<MascNode> = asns
        .iter()
        .map(|&a| {
            let sibs: Vec<DomainAsn> = asns.iter().copied().filter(|s| *s != a).collect();
            let mut node = MascNode::new(a, None, vec![], sibs, cfg.clone(), seed);
            node.bootstrap_ranges(&[(Prefix::MULTICAST, Secs::MAX)]);
            node
        })
        .collect();

    // Every domain requests one block at t=0 — all claims collide on
    // the same first-sub-prefix candidate.
    let mut inbox: VecDeque<(usize, DomainAsn, MascMsg)> = VecDeque::new();
    let route = |actions: Vec<MascAction>,
                 from: DomainAsn,
                 inbox: &mut VecDeque<(usize, DomainAsn, MascMsg)>| {
        for a in actions {
            if let MascAction::Send { to, msg } = a {
                inbox.push_back((to as usize - 1, from, msg));
            }
        }
    };
    for (i, node) in nodes.iter_mut().enumerate() {
        let mut acts = Vec::new();
        node.request_block(0, 24, 1_000_000, &mut acts);
        route(acts, (i + 1) as DomainAsn, &mut inbox);
    }

    let mut now: Secs = 0;
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 2_000_000, "collision resolution diverged for n={n}");
        // Drain messages at the current instant, then advance to the
        // earliest deadline.
        if let Some((to, from, msg)) = inbox.pop_front() {
            let acts = nodes[to].on_message(now, from, msg);
            route(acts, (to + 1) as DomainAsn, &mut inbox);
            continue;
        }
        let all_granted = nodes.iter().all(|nd| !nd.granted_ranges().is_empty());
        if all_granted {
            break;
        }
        let next = nodes.iter().filter_map(|nd| nd.next_deadline()).min();
        let Some(next) = next else { break };
        now = next.max(now);
        for (i, node) in nodes.iter_mut().enumerate() {
            if node.next_deadline().is_some_and(|d| d <= now) {
                let acts = node.on_tick(now);
                route(acts, (i + 1) as DomainAsn, &mut inbox);
            }
        }
    }

    let claims: u64 = nodes.iter().map(|nd| nd.stats.claims_made).sum();
    let collisions: u64 = nodes.iter().map(|nd| nd.stats.collisions).sum();
    // Verify disjointness.
    let mut all: Vec<Prefix> = Vec::new();
    for nd in &nodes {
        for (p, _) in nd.granted_ranges() {
            for q in &all {
                assert!(!p.overlaps(q), "overlapping grants after resolution");
            }
            all.push(p);
        }
    }
    (claims, collisions, now)
}

fn main() {
    let args = Args::parse();
    let seed = args.seed(3);
    let maxn = args.usize("maxn", 64);
    let threads = args.threads();
    args.finish();
    banner(
        "CLAIM-N",
        "simultaneous claimers: claims and collisions until disjoint grants",
    );

    let mut s_claims = Series::new("claims_per_domain");
    let mut s_colls = Series::new("collisions_per_domain");
    let mut s_time = Series::new("secs_to_all_granted");
    println!(
        "{:>4} {:>14} {:>16} {:>14}",
        "n", "claims/domain", "collisions/domain", "settle_secs"
    );
    let ns: Vec<usize> = std::iter::successors(Some(2usize), |n| Some(n * 2))
        .take_while(|n| *n <= maxn)
        .collect();
    // Each round uses the same fixed seed, so the fan-out is trivially
    // deterministic regardless of thread count.
    let rounds = run_tasks(threads, &ns, |_, &n| run_round(n, seed));
    for (&n, &(claims, colls, t)) in ns.iter().zip(&rounds) {
        let cpd = claims as f64 / n as f64;
        let xpd = colls as f64 / n as f64;
        println!("{:>4} {:>14.2} {:>16.2} {:>14}", n, cpd, xpd, t);
        s_claims.push(n as f64, cpd);
        s_colls.push(n as f64, xpd);
        s_time.push(n as f64, t as f64);
    }
    emit::write_results(
        &results_dir(),
        "ablation_collisions",
        &[s_claims.clone(), s_colls, s_time],
    )
    .expect("write");
    println!();
    println!(
        "paper worst case is n claims for the nth domain; jittered retries keep the mean near {:.1} claims/domain at n={}",
        s_claims.samples.last().map(|s| s.y).unwrap_or(0.0),
        maxn
    );
    println!("(settle time stays a handful of back-off intervals — \"the difference in delay is negligible\", §4.3.3)");
}
