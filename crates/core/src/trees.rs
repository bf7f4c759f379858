//! Analytic inter-domain distribution-tree construction — the figure-4
//! machinery.
//!
//! The paper compares path lengths (in inter-domain hops) between a
//! random source and growing receiver sets on four tree types (§5.4):
//!
//! * **shortest-path trees** (DVMRP/PIM-DM/MOSPF behaviour) — the
//!   baseline, ratio 1.0;
//! * **unidirectional shared trees** (PIM-SM): data travels source →
//!   RP → receiver;
//! * **bidirectional shared trees** (BGMP/CBT): receivers join toward
//!   the root domain; senders forward toward the root until they meet
//!   the tree; data then flows along the tree in both directions;
//! * **hybrid trees** (BGMP + source-specific branches, §5.3):
//!   receivers additionally pull a branch toward the source that stops
//!   at the shared tree or the source domain.
//!
//! These builders apply the same next-hop-toward-root logic as the
//! protocol engine (joins follow BFS parents toward the root domain,
//! exactly what the G-RIB yields on these topologies); an integration
//! test cross-validates them against protocol-built trees on small
//! graphs.

use topology::{bfs, DomainGraph, DomainId, SpTree};

/// A bidirectional shared tree rooted at a root domain.
#[derive(Debug, Clone)]
pub struct BidirTree {
    /// The root domain.
    pub root: DomainId,
    /// BFS routing state toward the root (shared by all domains). Its
    /// `dist[d]` is also `d`'s depth on the tree: an on-tree domain's
    /// tree path to the root is its BFS path.
    toward_root: SpTree,
    /// Whether each domain is on the tree.
    on_tree: Vec<bool>,
}

impl BidirTree {
    /// Builds the shared tree for `members` joining toward `root`.
    /// Each member joins along the (deterministic) shortest path —
    /// what BGMP joins following the G-RIB produce.
    pub fn build(g: &DomainGraph, root: DomainId, members: &[DomainId]) -> Self {
        let toward_root = bfs(g, root);
        let mut on_tree = vec![false; g.len()];
        on_tree[root.0] = true;
        for &m in members {
            let mut cur = m;
            while !on_tree[cur.0] {
                on_tree[cur.0] = true;
                match toward_root.toward_src[cur.0] {
                    Some(next) => cur = next,
                    None => break, // disconnected; tree dangles
                }
            }
        }
        BidirTree {
            root,
            toward_root,
            on_tree,
        }
    }

    /// Is `d` on the tree?
    pub fn contains(&self, d: DomainId) -> bool {
        self.on_tree[d.0]
    }

    /// Number of on-tree domains.
    pub fn size(&self) -> usize {
        self.on_tree.iter().filter(|b| **b).count()
    }

    /// Walks from `from` toward the root until reaching the tree.
    /// Returns (entry domain, hops walked). A domain already on the
    /// tree enters immediately.
    pub fn entry_from(&self, from: DomainId) -> Option<(DomainId, u32)> {
        let mut cur = from;
        let mut hops = 0;
        while !self.on_tree[cur.0] {
            cur = self.toward_root.toward_src[cur.0]?;
            hops += 1;
        }
        Some((cur, hops))
    }

    /// Hop distance between two on-tree domains *along the tree*.
    /// The tree is a union of root-paths, so the path goes through the
    /// lowest common ancestor: `depth(a) + depth(b) - 2·depth(lca)`.
    pub fn tree_dist(&self, a: DomainId, b: DomainId) -> Option<u32> {
        if !self.on_tree[a.0] || !self.on_tree[b.0] {
            return None;
        }
        let lca = self.lca(a, b)?;
        let depth = &self.toward_root.dist;
        Some(depth[a.0] + depth[b.0] - 2 * depth[lca.0])
    }

    fn lca(&self, a: DomainId, b: DomainId) -> Option<DomainId> {
        let SpTree {
            dist: depth,
            toward_src: up,
            ..
        } = &self.toward_root;
        let (mut x, mut y) = (a, b);
        // Standard two-pointer LCA on parent pointers with depths.
        while depth[x.0] > depth[y.0] {
            x = up[x.0]?;
        }
        while depth[y.0] > depth[x.0] {
            y = up[y.0]?;
        }
        while x != y {
            x = up[x.0]?;
            y = up[y.0]?;
        }
        Some(x)
    }

    /// Data-path length from a (possibly off-tree, non-member) sender
    /// domain to an on-tree receiver: forward toward the root until
    /// meeting the tree, then along the tree (§5: "the border router
    /// simply forwards the data packets towards the root domain, and
    /// when they reach a router that is on the group's shared tree,
    /// they are distributed to the members").
    pub fn sender_path_len(&self, sender: DomainId, receiver: DomainId) -> Option<u32> {
        let (entry, approach) = self.entry_from(sender)?;
        Some(approach + self.tree_dist(entry, receiver)?)
    }
}

/// Per-receiver path lengths from one sender on each tree type.
#[derive(Debug, Clone)]
pub struct PathLengths {
    /// Shortest-path (baseline) hops per receiver.
    pub spt: Vec<u32>,
    /// Unidirectional shared-tree hops per receiver.
    pub unidirectional: Vec<u32>,
    /// Bidirectional shared-tree hops per receiver.
    pub bidirectional: Vec<u32>,
    /// Hybrid (bidirectional + source-specific branches) hops.
    pub hybrid: Vec<u32>,
}

impl PathLengths {
    /// Mean ratio of a series against the SPT baseline. Pairs with a
    /// zero SPT distance (receiver == sender) are skipped.
    pub fn avg_ratio(&self, series: &[u32]) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for (s, v) in self.spt.iter().zip(series) {
            if *s > 0 {
                sum += *v as f64 / *s as f64;
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// Max ratio of a series against the SPT baseline.
    pub fn max_ratio(&self, series: &[u32]) -> f64 {
        self.spt
            .iter()
            .zip(series)
            .filter(|(s, _)| **s > 0)
            .map(|(s, v)| *v as f64 / *s as f64)
            .fold(1.0, f64::max)
    }
}

/// [`compare_trees`] plus the by-products the architecture ablation
/// needs: the shared tree's size (BGMP per-group state = on-tree
/// routers) and the source's BFS tree (BIER / map-and-encap both ride
/// unicast shortest paths, so their per-receiver hop counts and
/// link-copy costs derive from it with no extra BFS).
#[derive(Debug, Clone)]
pub struct TreeComparison {
    /// Per-receiver path lengths on the four tree types.
    pub paths: PathLengths,
    /// Routers on the bidirectional shared tree (G-RIB entries the
    /// group costs under BGMP).
    pub shared_tree_size: usize,
    /// BFS shortest-path tree from the source.
    pub from_source: SpTree,
}

/// Computes path lengths from `source` to every receiver on all four
/// tree types.
///
/// * `root` — the group's root domain (BGMP: the group initiator's
///   domain, §5.1).
/// * `rp` — the unidirectional tree's rendezvous domain (PIM-SM: a
///   hash-selected router, i.e. effectively a random third party,
///   §5.1).
pub fn compare_trees(
    g: &DomainGraph,
    source: DomainId,
    receivers: &[DomainId],
    root: DomainId,
    rp: DomainId,
) -> PathLengths {
    compare_trees_full(g, source, receivers, root, rp).paths
}

/// [`compare_trees`] returning the full [`TreeComparison`].
pub fn compare_trees_full(
    g: &DomainGraph,
    source: DomainId,
    receivers: &[DomainId],
    root: DomainId,
    rp: DomainId,
) -> TreeComparison {
    let from_source = bfs(g, source);
    let from_rp = bfs(g, rp);

    // Shared tree: receivers join toward the root. The root domain
    // itself is on the tree by construction; the paper roots the tree
    // at the initiator's domain, which we treat as a member.
    let bidir = BidirTree::build(g, root, receivers);

    let mut spt = Vec::with_capacity(receivers.len());
    let mut uni = Vec::with_capacity(receivers.len());
    let mut bi = Vec::with_capacity(receivers.len());
    let mut hy = Vec::with_capacity(receivers.len());

    // The sender's entry point onto the shared tree.
    let (entry, approach) = bidir.entry_from(source).expect("connected graph");

    for &r in receivers {
        let d_spt = from_source.dist_to(r).expect("connected");
        spt.push(d_spt);

        // Unidirectional: source → RP → receiver (§5.2: "data from
        // senders has to travel up to the root and then down the
        // shared tree to all the members").
        let d_uni =
            from_source.dist_to(rp).expect("connected") + from_rp.dist_to(r).expect("connected");
        uni.push(d_uni);

        // Bidirectional: toward the root until the tree, then along it.
        let d_bi = approach + bidir.tree_dist(entry, r).expect("receiver on tree");
        bi.push(d_bi);

        // Hybrid: the receiver's border router sends a source-specific
        // join along its shortest path toward the source; the join
        // propagates "until it hits either a branch of the
        // bidirectional tree or the source domain" (§5.3). The
        // receiver itself is on the tree, so the walk starts with the
        // first hop *away* from r. S's data reaches the branch head u
        // over the shared tree (or directly when u is the source),
        // then flows down the branch to r.
        let mut u = r;
        while u != source {
            let Some(next) = from_source.toward_src[u.0] else {
                break;
            };
            u = next;
            if u == source || bidir.contains(u) {
                break;
            }
        }
        let d_u_r = from_source.dist_to(r).unwrap() - from_source.dist_to(u).unwrap();
        let d_src_u = if u == source {
            0
        } else {
            // Data flows to u along the bidirectional tree.
            approach + bidir.tree_dist(entry, u).expect("u on tree")
        };
        // Building the branch is the *option* of the receiving domain
        // (§5.3); a domain whose shared-tree path is already at least
        // as short keeps it, so the effective hybrid path is the
        // better of the two.
        hy.push((d_src_u + d_u_r).min(d_bi));
    }

    TreeComparison {
        paths: PathLengths {
            spt,
            unidirectional: uni,
            bidirectional: bi,
            hybrid: hy,
        },
        shared_tree_size: bidir.size(),
        from_source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{hierarchical, internet_like, HierSpec, InternetSpec};

    fn line_graph(n: usize) -> DomainGraph {
        let mut g = DomainGraph::new();
        let ids: Vec<DomainId> = (0..n).map(|i| g.add_domain(format!("D{i}"))).collect();
        for w in ids.windows(2) {
            g.add_provider_customer(w[0], w[1]);
        }
        g
    }

    #[test]
    fn bidir_tree_on_line() {
        let g = line_graph(6);
        // Root at 0; members 3 and 5.
        let t = BidirTree::build(&g, DomainId(0), &[DomainId(3), DomainId(5)]);
        assert!(t.contains(DomainId(0)));
        assert!(t.contains(DomainId(2)));
        assert!(t.contains(DomainId(5)));
        assert_eq!(t.size(), 6);
        assert_eq!(t.tree_dist(DomainId(3), DomainId(5)), Some(2));
        assert_eq!(t.tree_dist(DomainId(0), DomainId(5)), Some(5));
        // Sender at 4 (on-tree): direct along the tree to 3.
        assert_eq!(t.sender_path_len(DomainId(4), DomainId(3)), Some(1));
    }

    #[test]
    fn bidir_avoids_root_detour() {
        // Star: root at the hub; members on two spokes. Data between
        // two members crosses the hub once — no unidirectional
        // up-then-down double-charge.
        let mut g = DomainGraph::new();
        let hub = g.add_domain("hub");
        let spokes: Vec<DomainId> = (0..4)
            .map(|i| {
                let s = g.add_domain(format!("s{i}"));
                g.add_provider_customer(hub, s);
                s
            })
            .collect();
        let t = BidirTree::build(&g, hub, &spokes[..2]);
        assert_eq!(t.tree_dist(spokes[0], spokes[1]), Some(2));
        // Off-tree sender walks to the hub first.
        assert_eq!(t.sender_path_len(spokes[3], spokes[0]), Some(2));
    }

    #[test]
    fn compare_trees_on_line_shapes() {
        let g = line_graph(8);
        // Source at 0; root at 7 (worst case: far end); RP at 7 too.
        let receivers = [DomainId(1), DomainId(2)];
        let pl = compare_trees(&g, DomainId(0), &receivers, DomainId(7), DomainId(7));
        assert_eq!(pl.spt, vec![1, 2]);
        // Unidirectional: 0→7 (7 hops) + 7→r.
        assert_eq!(pl.unidirectional, vec![7 + 6, 7 + 5]);
        // Bidirectional on a line: everything is on the path; data
        // goes directly.
        assert_eq!(pl.bidirectional, vec![1, 2]);
        // Hybrid can't beat SPT.
        assert_eq!(pl.hybrid, vec![1, 2]);
        assert!(pl.avg_ratio(&pl.unidirectional) > pl.avg_ratio(&pl.bidirectional));
        assert!((pl.avg_ratio(&pl.bidirectional) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_never_worse_than_bidirectional_and_never_better_than_spt() {
        let g = internet_like(&InternetSpec {
            n: 300,
            backbones: 5,
            attach: 2,
            extra_peerings: 8,
            seed: 3,
        });
        let receivers: Vec<DomainId> = (10..60).map(DomainId).collect();
        let pl = compare_trees(&g, DomainId(99), &receivers, DomainId(10), DomainId(200));
        for i in 0..receivers.len() {
            assert!(pl.hybrid[i] >= pl.spt[i], "hybrid below SPT at {i}");
            assert!(
                pl.hybrid[i] <= pl.bidirectional[i],
                "branch made things worse at {i}"
            );
            assert!(pl.bidirectional[i] >= pl.spt[i]);
        }
    }

    #[test]
    fn unidirectional_is_worst_on_average_at_scale() {
        // The headline figure-4 ordering on a realistic topology.
        let g = internet_like(&InternetSpec {
            n: 600,
            backbones: 6,
            attach: 2,
            extra_peerings: 10,
            seed: 11,
        });
        let receivers: Vec<DomainId> = (20..220).map(DomainId).collect();
        // Root = first receiver's domain (initiator), RP = third party.
        let pl = compare_trees(&g, DomainId(400), &receivers, DomainId(20), DomainId(555));
        let uni = pl.avg_ratio(&pl.unidirectional);
        let bi = pl.avg_ratio(&pl.bidirectional);
        let hy = pl.avg_ratio(&pl.hybrid);
        assert!(
            uni > bi,
            "unidirectional {uni} must exceed bidirectional {bi}"
        );
        assert!(bi >= hy, "bidirectional {bi} must be ≥ hybrid {hy}");
        assert!(hy >= 1.0);
    }

    #[test]
    fn full_comparison_exposes_tree_size_and_source_spt() {
        let g = line_graph(8);
        let receivers = [DomainId(1), DomainId(2)];
        let tc = compare_trees_full(&g, DomainId(0), &receivers, DomainId(7), DomainId(7));
        // Members 1, 2 join toward root 7: the tree spans 1..=7.
        assert_eq!(tc.shared_tree_size, 7);
        assert_eq!(tc.from_source.src, DomainId(0));
        assert_eq!(tc.from_source.dist_to(DomainId(5)), Some(5));
        // The wrapper returns exactly the full version's paths.
        let pl = compare_trees(&g, DomainId(0), &receivers, DomainId(7), DomainId(7));
        assert_eq!(pl.spt, tc.paths.spt);
        assert_eq!(pl.bidirectional, tc.paths.bidirectional);
    }

    #[test]
    fn member_domain_sender_uses_tree_directly() {
        let h = hierarchical(&HierSpec {
            fanouts: vec![3, 3],
            mesh_top: true,
        });
        let g = &h.graph;
        let members = [h.levels[1][0], h.levels[1][4]];
        let root = h.levels[1][0];
        let t = BidirTree::build(g, root, &members);
        // A member sends: entry is itself, zero approach.
        let (e, a) = t.entry_from(members[1]).unwrap();
        assert_eq!(e, members[1]);
        assert_eq!(a, 0);
    }
}
