//! Cross-plane properties: BGMP, BIER and map-and-encap are three
//! answers to one question, so on one topology and one receiver set
//! they must agree on *who* is served, the analytic models the figures
//! use must equal the hop-by-hop forwarding they summarise, and every
//! plane must face the same outage from one schedule.

use std::collections::BTreeSet;

use masc_bgmp::bier::{replay, Network, Plane, Protection, SubDomain, DEFAULT_BSL};
use masc_bgmp::core::analysis::delivered_exactly;
use masc_bgmp::core::chaos::{ring_graph, run_schedule, ChaosConfig};
use masc_bgmp::core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig};
use masc_bgmp::topology::{
    bfs, internet_like, ChaosSchedule, DomainGraph, DomainId, InternetSpec, LinkWindow,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random connected graph: a provider tree over `n` domains plus
/// `extra` peerings.
fn connected_graph(rng: &mut StdRng, n: usize, extra: usize) -> DomainGraph {
    let mut g = DomainGraph::new();
    let ids: Vec<DomainId> = (0..n).map(|i| g.add_domain(format!("D{i}"))).collect();
    for i in 1..n {
        g.add_provider_customer(ids[rng.gen_range(0..i)], ids[i]);
    }
    for _ in 0..extra {
        let (a, b) = (ids[rng.gen_range(0..n)], ids[rng.gen_range(0..n)]);
        if a != b && !g.are_adjacent(a, b) {
            g.add_peering(a, b);
        }
    }
    g
}

/// A sender and a non-empty receiver set (the sender's own domain may
/// be in it).
fn draw_group(rng: &mut StdRng, n: usize) -> (DomainId, Vec<DomainId>) {
    let mut pool: Vec<DomainId> = (0..n).map(DomainId).collect();
    pool.shuffle(rng);
    pool.truncate(rng.gen_range(1..=n.min(40)));
    pool.sort();
    (DomainId(rng.gen_range(0..n)), pool)
}

fn small_internet(seed: u64, n: usize) -> DomainGraph {
    internet_like(&InternetSpec {
        n,
        backbones: 4,
        attach: 2,
        extra_peerings: 3,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Fault-free, the real BGMP stack, hop-by-hop BIER and the
    /// map-and-encap model serve exactly the receiver set, each
    /// receiver once.
    #[test]
    fn planes_serve_the_same_receivers_exactly_once(seed in 0u64..10_000, n in 4usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = connected_graph(&mut rng, n, n / 2);
        let (sender, receivers) = draw_group(&mut rng, n);

        let cfg = InternetConfig {
            borders: BorderPlan::PerEdge,
            addressing: Addressing::Static,
            seed,
            ..Default::default()
        };
        let mut net = Internet::build(g.clone(), &cfg);
        net.converge();
        let group = net.group_addr(receivers[0]);
        let members: Vec<HostId> =
            receivers.iter().map(|d| HostId { domain: asn_of(*d), host: 1 }).collect();
        for m in &members {
            net.host_join(*m, group);
        }
        net.converge();
        let packet = net.send_data(HostId { domain: asn_of(sender), host: 5 }, group);
        net.converge();
        prop_assert!(delivered_exactly(&net, packet, &members), "BGMP: {:?}", net.deliveries(packet));

        let sub = SubDomain::new(n, DEFAULT_BSL);
        let got = Network::build(&g, &sub).deliver_all(sender, &receivers, None);
        let mut reached: Vec<DomainId> = got.reached.iter().map(|(d, _)| *d).collect();
        reached.sort();
        prop_assert_eq!(&reached, &receivers, "BIER");
        prop_assert!(got.lost.is_empty());

        // Map-and-encap: one unicast copy per receiver over its whole
        // shortest path — nobody unreachable, nothing shared.
        let t = bfs(&g, sender);
        let paths: u32 = receivers.iter().map(|r| t.dist_to(*r).expect("connected")).sum();
        prop_assert_eq!(Plane::MapEncap.link_copies(&t, &sub, &receivers), Some(paths as usize));
    }

    /// (b) The analytic BIER link-copy count fig4 reports equals what
    /// hop-by-hop forwarding places on links, at one set and at many;
    /// hops are BFS distances; sharing never costs more than ingress
    /// replication.
    #[test]
    fn analytic_link_copies_equal_hop_by_hop_forwarding(seed in 0u64..10_000, n in 30usize..90) {
        let g = small_internet(seed, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let (sender, receivers) = draw_group(&mut rng, n);
        let t = bfs(&g, sender);
        for bsl in [16, 256] {
            let sub = SubDomain::new(n, bsl);
            let got = Network::build(&g, &sub).deliver_all(sender, &receivers, None);
            let bier = Plane::Bier.link_copies(&t, &sub, &receivers);
            prop_assert_eq!(bier, Some(got.link_copies), "bsl={}", bsl);
            prop_assert!(bier <= Plane::MapEncap.link_copies(&t, &sub, &receivers));
            prop_assert_eq!(got.reached.len(), receivers.len());
            for (r, hops) in &got.reached {
                prop_assert_eq!(Some(*hops), t.dist_to(*r), "receiver {:?}", r);
            }
        }
    }

    /// (c) Under every single-link cut, 1:1-protected forwarding never
    /// duplicates, accounts for every receiver, loses nothing when the
    /// cut adjacency has a way around, and never beats the shortest
    /// path.
    #[test]
    fn protected_forwarding_survives_every_single_link_cut(seed in 0u64..10_000, n in 12usize..40) {
        let g = small_internet(seed, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let (sender, receivers) = draw_group(&mut rng, n);
        let want: BTreeSet<DomainId> = receivers.iter().copied().collect();
        let t = bfs(&g, sender);
        let mut net = Network::build(&g, &SubDomain::new(n, 16));
        let prot = Protection::build(&g);
        for a in g.domains() {
            for &(b, _) in g.neighbors(a).iter().filter(|(b, _)| a < *b) {
                net.clear_faults();
                net.set_link_down(a, b);
                let got = net.deliver_all(sender, &receivers, Some(&prot));
                let reached: BTreeSet<DomainId> = got.reached.iter().map(|(d, _)| *d).collect();
                prop_assert_eq!(reached.len(), got.reached.len(), "duplicate under cut {:?}-{:?}", a, b);
                let lost: BTreeSet<DomainId> = got.lost.iter().copied().collect();
                prop_assert!(reached.is_disjoint(&lost));
                prop_assert_eq!(&(&reached | &lost), &want);
                if prot.backup_path(a, b).is_some() {
                    prop_assert!(lost.is_empty(), "cut {:?}-{:?} lost {:?}", a, b, lost);
                }
                for (r, hops) in &got.reached {
                    prop_assert!(Some(*hops) >= t.dist_to(*r));
                }
            }
        }
    }
}

/// Two windows on ring edge 0–1 overlap, and while the second is still
/// open a window on the opposite edge 3–4 opens: for the union of the
/// first two the ring is partitioned into {0, 5, 4} and {1, 2, 3}. A
/// send from domain 0 inside that partition — after the first window's
/// end — reaches its own side only, under every plane: nothing crosses
/// a cut link, and BIER's backup path for 0–1 runs through 3–4. (A
/// per-link up/down flag restored at the first window's end left BGMP
/// a connected ring and delivered to all six members.)
#[test]
fn overlapping_windows_on_one_edge_are_one_outage_under_every_plane() {
    let n = 6;
    let window = |a, at, dur| LinkWindow {
        a: DomainId(a),
        b: DomainId(a + 1),
        at,
        dur,
    };
    let plan = ChaosSchedule {
        flaps: vec![window(0, 10, 4), window(0, 12, 28), window(3, 25, 10)],
        crashes: vec![],
        sends: vec![(30, DomainId(0))],
        horizon: 60,
    };
    let cfg = ChaosConfig {
        domains: n,
        loss: 0.0,
        dup: 0.0,
        jitter_ms: 0,
        ..Default::default()
    };
    let bgmp = run_schedule(&cfg, &plan);
    assert_eq!((bgmp.delivered, bgmp.expected), (3, 6), "BGMP");
    assert!(bgmp.probe_clean && bgmp.quiescent_violations.is_empty());

    // The replay's receivers are every domain but the sender: 4 and 5
    // of five.
    let sub = SubDomain::new(n, DEFAULT_BSL);
    for plane in Plane::ALL.into_iter().filter(|p| p.stateless()) {
        let out = replay(&ring_graph(n), &sub, &plan, plane, 0.0, cfg.seed);
        assert_eq!((out.delivered, out.expected), (2, 5), "{plane:?}");
    }
}
