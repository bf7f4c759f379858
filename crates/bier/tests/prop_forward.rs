//! The in-place forwarding loop against the queue of owned bitstrings
//! it replaced: on random graphs, bitstring lengths, fault views and
//! receiver sets, [`Network::deliver`] and [`Network::deliver_all`]
//! report the same receivers with the same hops in the same order, the
//! same link copies and the same lost bits as a model written here the
//! old way — a BIFT of one `BitString` per (set, neighbor) found by a
//! linear search per destination, and a `VecDeque` of copies each
//! owning its bitstring, ANDed into a new one per entry tested.
//!
//! The order of `reached` matters beyond the set: the fault replay
//! draws loss once per delivered receiver, in that order.

use std::collections::VecDeque;

use bier::bitstring::{BitString, SetId, SubDomain};
use bier::{Delivery, Network, Protection};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use topology::{bfs_first_hops, internet_like, DomainGraph, DomainId, InternetSpec};

/// The model: per router, per set, `(neighbor, F-BM)` sorted by
/// neighbor, plus the fault view.
struct Model {
    sub: SubDomain,
    bifts: Vec<Vec<Vec<(DomainId, BitString)>>>,
    down_links: Vec<(DomainId, DomainId)>,
    down_nodes: Vec<DomainId>,
}

impl Model {
    fn build(g: &DomainGraph, sub: &SubDomain) -> Self {
        let bifts = g
            .domains()
            .map(|at| {
                let first = bfs_first_hops(g, at);
                let mut sets: Vec<Vec<(DomainId, BitString)>> = vec![Vec::new(); sub.sets()];
                for d in g.domains() {
                    let Some(hop) = first[d.0] else { continue };
                    let (si, pos) = sub.position(sub.bfr_of(d));
                    let entries = &mut sets[si.0 as usize];
                    match entries.iter_mut().find(|(nb, _)| *nb == hop) {
                        Some((_, fbm)) => fbm.set(pos),
                        None => {
                            let mut fbm = BitString::new(sub.bsl());
                            fbm.set(pos);
                            entries.push((hop, fbm));
                        }
                    }
                }
                for entries in &mut sets {
                    entries.sort_by_key(|(nb, _)| nb.0);
                }
                sets
            })
            .collect();
        Model {
            sub: sub.clone(),
            bifts,
            down_links: Vec::new(),
            down_nodes: Vec::new(),
        }
    }

    fn link_ok(&self, a: DomainId, b: DomainId) -> bool {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        !self.down_links.contains(&key)
    }

    fn node_ok(&self, d: DomainId) -> bool {
        !self.down_nodes.contains(&d)
    }

    fn owners(&self, si: SetId, bs: &BitString) -> Vec<DomainId> {
        bs.ones()
            .map(|pos| DomainId(si.0 as usize * self.sub.bsl() + pos))
            .collect()
    }

    fn deliver(
        &self,
        ingress: DomainId,
        si: SetId,
        bs: &BitString,
        prot: Option<&Protection>,
    ) -> Delivery {
        let mut reached = Vec::new();
        let mut link_copies = 0usize;
        let mut undelivered = bs.clone();
        if !self.node_ok(ingress) {
            return Delivery {
                reached,
                link_copies,
                lost: self.owners(si, &undelivered),
            };
        }
        let mut queue = VecDeque::new();
        queue.push_back((ingress, bs.clone(), 0u32));
        while let Some((at, mut cur, hops)) = queue.pop_front() {
            let (own_si, own_bit) = self.sub.position(self.sub.bfr_of(at));
            if own_si == si && cur.get(own_bit) {
                reached.push((at, hops));
                cur.clear(own_bit);
                undelivered.clear(own_bit);
            }
            if cur.is_empty() {
                continue;
            }
            for (neighbor, fbm) in &self.bifts[at.0][si.0 as usize] {
                let send = cur.and(fbm);
                if send.is_empty() {
                    continue;
                }
                cur.and_not_assign(fbm);
                if !self.node_ok(*neighbor) {
                    continue;
                }
                if self.link_ok(at, *neighbor) {
                    link_copies += 1;
                    queue.push_back((*neighbor, send, hops + 1));
                    continue;
                }
                let Some(path) = prot.and_then(|p| p.backup_path(at, *neighbor)) else {
                    continue;
                };
                let healthy = path.windows(2).all(|w| self.link_ok(w[0], w[1]))
                    && path.iter().skip(1).all(|d| self.node_ok(*d));
                if healthy {
                    let detour_links = (path.len() - 1) as u32;
                    link_copies += detour_links as usize;
                    queue.push_back((*neighbor, send, hops + detour_links));
                }
            }
        }
        Delivery {
            reached,
            link_copies,
            lost: self.owners(si, &undelivered),
        }
    }

    fn deliver_all(
        &self,
        ingress: DomainId,
        receivers: &[DomainId],
        prot: Option<&Protection>,
    ) -> Delivery {
        let mut out = Delivery {
            reached: Vec::new(),
            link_copies: 0,
            lost: Vec::new(),
        };
        for (si, bs) in self.sub.bitstrings_for(receivers) {
            let d = self.deliver(ingress, si, &bs, prot);
            out.reached.extend(d.reached);
            out.link_copies += d.link_copies;
            out.lost.extend(d.lost);
        }
        out
    }
}

/// One drawn scenario.
#[derive(Debug, Clone, Copy)]
struct Case {
    /// Domains `internet_like` generates.
    n: usize,
    /// Isolated domains added after them (unreachable bits).
    islands: usize,
    /// Bits per set.
    bsl: usize,
    /// Links and routers taken down, per mille.
    down_links: u32,
    down_nodes: u32,
    /// Whether forwarding consults 1:1 backup paths.
    protect: bool,
    /// Seed of the graph and of every other draw.
    seed: u64,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (20usize..=300, 0usize..=2, 0usize..4),
        (0u32..=150, 0u32..=60, any::<bool>()),
        any::<u64>(),
    )
        .prop_map(
            |((n, islands, b), (down_links, down_nodes, protect), seed)| Case {
                n,
                islands,
                bsl: [8, 64, 100, 256][b],
                down_links,
                down_nodes,
                protect,
                seed,
            },
        )
}

/// Receiver lists: all domains, none, the ingress alone, and random
/// subsets with the ingress and duplicates mixed in.
fn receiver_lists(rng: &mut StdRng, all: &[DomainId], ingress: DomainId) -> Vec<Vec<DomainId>> {
    let mut lists = vec![all.to_vec(), Vec::new(), vec![ingress]];
    for _ in 0..3 {
        let mut rx = all.to_vec();
        rx.shuffle(rng);
        rx.truncate(rng.gen_range(1..=all.len()));
        if rng.gen_bool(0.5) {
            rx.push(ingress);
        }
        if rng.gen_bool(0.5) {
            rx.push(rx[0]);
        }
        lists.push(rx);
    }
    lists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn in_place_forwarding_matches_the_bitstring_queue(case in cases()) {
        let mut g = internet_like(&InternetSpec {
            n: case.n,
            backbones: 3 + case.n / 60,
            attach: 2,
            extra_peerings: case.n / 20,
            seed: case.seed,
        });
        for i in 0..case.islands {
            g.add_domain(format!("island{i}"));
        }
        let all: Vec<DomainId> = g.domains().collect();
        let sub = SubDomain::new(g.len(), case.bsl);
        let mut net = Network::build(&g, &sub);
        let mut model = Model::build(&g, &sub);
        prop_assert_eq!(
            net.total_entries(),
            model.bifts.iter().flatten().map(Vec::len).sum::<usize>()
        );
        let prot = Protection::build(&g);
        let prot = case.protect.then_some(&prot);

        let mut rng = StdRng::seed_from_u64(case.seed ^ 0xF0E1);
        for a in g.domains() {
            for &(b, _) in g.neighbors(a) {
                if a.0 < b.0 && rng.gen_range(0u32..1000) < case.down_links {
                    net.set_link_down(a, b);
                    model.down_links.push((a, b));
                }
            }
        }
        for &d in &all {
            if rng.gen_range(0u32..1000) < case.down_nodes {
                net.set_node_down(d);
                model.down_nodes.push(d);
            }
        }

        for _ in 0..4 {
            let ingress = all[rng.gen_range(0..all.len())];
            for rx in receiver_lists(&mut rng, &all, ingress) {
                let got = net.deliver_all(ingress, &rx, prot);
                let want = model.deliver_all(ingress, &rx, prot);
                prop_assert_eq!(&got, &want, "deliver_all from {:?} to {:?}", ingress, rx);
                for (si, bs) in sub.bitstrings_for(&rx) {
                    let got = net.deliver(ingress, si, &bs, prot);
                    let want = model.deliver(ingress, si, &bs, prot);
                    prop_assert_eq!(&got, &want, "deliver of set {:?} from {:?}", si, ingress);
                }
            }
        }
    }
}
