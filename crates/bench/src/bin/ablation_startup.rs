//! STARTUP — bootstrap from exchange points (paper §4.4: "the entire
//! multicast address space is initially partitioned among one or more
//! Internet exchange points (say, one per continent) ... backbone
//! providers with no parent then pick the prefix of a nearby exchange
//! as their parent's prefix").
//!
//! Sweeps the number of exchanges for a fixed set of top-level
//! providers and measures time-to-first-grant and collision counts:
//! partitioning the space across exchanges removes contention between
//! providers on different exchanges.
//!
//! Usage: `ablation_startup [--tops 12] [--seed 2] [--threads 1]`
//! (the exchange-count sweep fans across `--threads` workers without
//! changing the output)

use masc::msg::{DomainAsn, MascAction, MascMsg};
use masc::{MascConfig, MascNode};
use masc_bgmp_bench::{banner, results_dir, run_tasks, Args};
use mcast_addr::{Prefix, Secs};
use metrics::{emit, Series};
use std::collections::VecDeque;

/// Partitions 224/4 among `k` exchanges and assigns provider `i` to
/// exchange `i % k`, then lets every provider claim at t=0.
fn run(tops: usize, exchanges: usize, seed: u64) -> (u64, Secs) {
    let cfg = MascConfig {
        wait_period: 600,
        range_lifetime: 1_000_000,
        renew_margin: 100_000,
        claim_retry_backoff: 60,
        min_claim_len: 24,
        ..MascConfig::default()
    };
    let bits = (usize::BITS - (exchanges.max(1) - 1).leading_zeros()) as u8;
    let exchange_prefixes: Vec<Prefix> = Prefix::MULTICAST
        .subprefixes(4 + bits)
        .take(exchanges)
        .collect();

    let asns: Vec<DomainAsn> = (1..=tops as u32).collect();
    let mut nodes: Vec<MascNode> = asns
        .iter()
        .map(|&a| {
            let sibs: Vec<DomainAsn> = asns.iter().copied().filter(|s| *s != a).collect();
            let mut n = MascNode::new(a, None, vec![], sibs, cfg.clone(), seed);
            let ex = exchange_prefixes[(a as usize - 1) % exchanges];
            n.bootstrap_ranges(&[(ex, Secs::MAX)]);
            n
        })
        .collect();

    let mut inbox: VecDeque<(usize, DomainAsn, MascMsg)> = VecDeque::new();
    let route = |acts: Vec<MascAction>,
                 from: DomainAsn,
                 inbox: &mut VecDeque<(usize, DomainAsn, MascMsg)>| {
        for a in acts {
            if let MascAction::Send { to, msg } = a {
                inbox.push_back((to as usize - 1, from, msg));
            }
        }
    };
    for (i, n) in nodes.iter_mut().enumerate() {
        let mut acts = Vec::new();
        n.request_block(0, 24, 500_000, &mut acts);
        route(acts, (i + 1) as DomainAsn, &mut inbox);
    }
    let mut now: Secs = 0;
    let mut guard = 0;
    while guard < 1_000_000 {
        guard += 1;
        if let Some((to, from, msg)) = inbox.pop_front() {
            let acts = nodes[to].on_message(now, from, msg);
            route(acts, (to + 1) as DomainAsn, &mut inbox);
            continue;
        }
        if nodes.iter().all(|n| !n.granted_ranges().is_empty()) {
            break;
        }
        let Some(next) = nodes.iter().filter_map(|n| n.next_deadline()).min() else {
            break;
        };
        now = next.max(now);
        for (i, node) in nodes.iter_mut().enumerate() {
            if node.next_deadline().is_some_and(|d| d <= now) {
                let acts = node.on_tick(now);
                route(acts, (i + 1) as DomainAsn, &mut inbox);
            }
        }
    }
    let collisions: u64 = nodes.iter().map(|n| n.stats.collisions).sum();
    (collisions, now)
}

fn main() {
    let args = Args::parse();
    let tops = args.usize("tops", 12);
    let seed = args.seed(2);
    let threads = args.threads();
    args.finish();
    banner(
        "STARTUP",
        &format!("{tops} top-level providers bootstrapping from k exchanges"),
    );

    let mut s_coll = Series::new("collisions");
    let mut s_time = Series::new("secs_to_all_granted");
    println!(
        "{:>10} {:>12} {:>14}",
        "exchanges", "collisions", "settle_secs"
    );
    let ks = [1usize, 2, 3, 4, 6];
    let rounds = run_tasks(threads, &ks, |_, &k| run(tops, k, seed));
    for (&k, &(coll, t)) in ks.iter().zip(&rounds) {
        println!("{:>10} {:>12} {:>14}", k, coll, t);
        s_coll.push(k as f64, coll as f64);
        s_time.push(k as f64, t as f64);
    }
    emit::write_results(&results_dir(), "ablation_startup", &[s_coll, s_time]).expect("write");
    println!();
    println!("shape: more exchanges partition the claim space, so fewer providers contend");
    println!("for the same first-sub-prefix candidates — collisions fall as k grows, and");
    println!("no top-level parent/root is ever required (the paper's third-party-");
    println!("dependency argument for claim-collide over query-response, §4.3.4/§4.4).");
}
