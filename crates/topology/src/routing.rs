//! Inter-domain routing computations over a [`DomainGraph`].
//!
//! Two views are provided:
//!
//! * **hop routing** — plain BFS shortest paths by inter-domain hop
//!   count, the metric the paper's figure-4 simulation reports ("the
//!   path length ... is the number of inter-domain hops");
//! * **policy (valley-free) routing** — paths that respect
//!   provider–customer export rules (§2: a provider carries only
//!   traffic to/from its customers). Used by the policy ablation and by
//!   the BGP substrate tests; the paper itself notes unicast shortest
//!   paths are policy-constrained (§5.3 footnote).

use crate::graph::{DomainGraph, DomainId, Rel};

/// Distance table and parent pointers from a BFS.
#[derive(Debug, Clone)]
pub struct SpTree {
    /// Source of the computation.
    pub src: DomainId,
    /// `dist[d]` = hops from `src` to `d`, `u32::MAX` if unreachable.
    pub dist: Vec<u32>,
    /// Next hop *toward the source* from each domain (parent in the
    /// BFS tree), `None` at the source and unreachable nodes.
    pub toward_src: Vec<Option<DomainId>>,
}

impl SpTree {
    /// Hops from the source to `d`.
    pub fn dist_to(&self, d: DomainId) -> Option<u32> {
        let v = self.dist[d.0];
        (v != u32::MAX).then_some(v)
    }

    /// The path from `d` back to the source (inclusive of both ends).
    pub fn path_to_src(&self, d: DomainId) -> Option<Vec<DomainId>> {
        self.dist_to(d)?;
        let mut path = vec![d];
        let mut cur = d;
        while let Some(next) = self.toward_src[cur.0] {
            path.push(next);
            cur = next;
        }
        debug_assert_eq!(cur, self.src);
        Some(path)
    }
}

/// First hop out of `src` on the shortest path to every domain, in one
/// BFS pass (the `toward_src` parents point the *other* way, so walking
/// them per destination would cost O(n·depth)). `None` at `src` itself
/// and at unreachable domains. Deterministic: ties break in adjacency
/// order, exactly like [`bfs`].
///
/// This is the per-destination next-hop view a BIER BIFT is derived
/// from (each bit's forwarding neighbor is the unicast first hop toward
/// that bit's router).
pub fn bfs_first_hops(g: &DomainGraph, src: DomainId) -> Vec<Option<DomainId>> {
    let out = g.neighbors(src);
    bfs_first_hop_slots(g, src)
        .into_iter()
        .map(|slot| out.get(slot as usize).map(|&(nb, _)| nb))
        .collect()
}

/// [`bfs_first_hops`] as positions in `g.neighbors(src)`: `slots[d]` is
/// the index of the first hop toward `d` in `src`'s adjacency list, or
/// [`NO_HOP`] at `src` itself and at unreachable domains. A table keyed
/// by (destination set, neighbor) indexes by slot directly instead of
/// searching the adjacency list per destination.
pub fn bfs_first_hop_slots(g: &DomainGraph, src: DomainId) -> Vec<u32> {
    const UNSEEN: u32 = u32::MAX - 1;
    let mut slot = vec![UNSEEN; g.len()];
    let mut queue = Vec::with_capacity(g.len());
    slot[src.0] = NO_HOP;
    for (i, &(nb, _)) in g.neighbors(src).iter().enumerate() {
        if slot[nb.0] == UNSEEN {
            slot[nb.0] = i as u32;
            queue.push(nb);
        }
    }
    let mut head = 0;
    while let Some(&d) = queue.get(head) {
        head += 1;
        let via = slot[d.0];
        for &(nb, _) in g.neighbors(d) {
            if slot[nb.0] == UNSEEN {
                slot[nb.0] = via;
                queue.push(nb);
            }
        }
    }
    for s in &mut slot {
        if *s == UNSEEN {
            *s = NO_HOP;
        }
    }
    slot
}

/// [`bfs_first_hop_slots`]'s value where there is no first hop.
pub const NO_HOP: u32 = u32::MAX;

/// BFS shortest-path tree from `src` by hop count. Deterministic:
/// neighbors are visited in adjacency order, so ties break identically
/// across runs.
pub fn bfs(g: &DomainGraph, src: DomainId) -> SpTree {
    let n = g.len();
    let mut dist = vec![u32::MAX; n];
    let mut toward_src = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    dist[src.0] = 0;
    queue.push_back(src);
    while let Some(d) = queue.pop_front() {
        for &(nb, _) in g.neighbors(d) {
            if dist[nb.0] == u32::MAX {
                dist[nb.0] = dist[d.0] + 1;
                toward_src[nb.0] = Some(d);
                queue.push_back(nb);
            }
        }
    }
    SpTree {
        src,
        dist,
        toward_src,
    }
}

/// All-pairs hop-count helper for small graphs (tests, ablations).
pub fn hop_dist(g: &DomainGraph, a: DomainId, b: DomainId) -> Option<u32> {
    bfs(g, a).dist_to(b)
}

/// Phase of a valley-free path walk, ordered: once a path stops going
/// "up" (customer→provider) it may cross at most one peer link and
/// then only go "down" (provider→customer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Up = 0,
    Peered = 1,
    Down = 2,
}

/// Result of a valley-free shortest-path computation from one source.
#[derive(Debug, Clone)]
pub struct PolicyDists {
    /// Source domain.
    pub src: DomainId,
    /// `dist[d]` = hops on the shortest valley-free path, or
    /// `u32::MAX`.
    pub dist: Vec<u32>,
}

/// Shortest valley-free (policy-compliant) path lengths from `src` to
/// every domain. State space is (domain, phase); BFS over it yields
/// shortest compliant hop counts.
pub fn policy_bfs(g: &DomainGraph, src: DomainId) -> PolicyDists {
    let n = g.len();
    // dist_by_phase[phase][node]
    let mut dbp = [vec![u32::MAX; n], vec![u32::MAX; n], vec![u32::MAX; n]];
    let mut queue = std::collections::VecDeque::new();
    dbp[Phase::Up as usize][src.0] = 0;
    queue.push_back((src, Phase::Up));
    while let Some((d, phase)) = queue.pop_front() {
        let dd = dbp[phase as usize][d.0];
        for &(nb, rel) in g.neighbors(d) {
            // Which phase does traversing this edge put us in, if legal?
            let next_phase = match (phase, rel) {
                // Going to our provider = still climbing.
                (Phase::Up, Rel::Provider) => Some(Phase::Up),
                // Crossing a peer link: only once, only before descending.
                (Phase::Up, Rel::Peer) => Some(Phase::Peered),
                // Going to a customer: descend (from any phase).
                (_, Rel::Customer) => Some(Phase::Down),
                _ => None,
            };
            if let Some(np) = next_phase {
                if dbp[np as usize][nb.0] == u32::MAX {
                    dbp[np as usize][nb.0] = dd + 1;
                    queue.push_back((nb, np));
                }
            }
        }
    }
    let dist = (0..n)
        .map(|i| dbp.iter().map(|v| v[i]).min().unwrap_or(u32::MAX))
        .collect();
    PolicyDists { src, dist }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two customers under different providers that peer:
    ///   P1 -- peer -- P2
    ///   |             |
    ///   C1            C2
    /// plus a stub S under C1.
    fn peering_square() -> (DomainGraph, [DomainId; 5]) {
        let mut g = DomainGraph::new();
        let p1 = g.add_domain("P1");
        let p2 = g.add_domain("P2");
        let c1 = g.add_domain("C1");
        let c2 = g.add_domain("C2");
        let s = g.add_domain("S");
        g.add_peering(p1, p2);
        g.add_provider_customer(p1, c1);
        g.add_provider_customer(p2, c2);
        g.add_provider_customer(c1, s);
        (g, [p1, p2, c1, c2, s])
    }

    #[test]
    fn bfs_distances_and_paths() {
        let (g, [p1, p2, c1, c2, s]) = peering_square();
        let t = bfs(&g, s);
        assert_eq!(t.dist_to(s), Some(0));
        assert_eq!(t.dist_to(c1), Some(1));
        assert_eq!(t.dist_to(p1), Some(2));
        assert_eq!(t.dist_to(p2), Some(3));
        assert_eq!(t.dist_to(c2), Some(4));
        let path = t.path_to_src(c2).unwrap();
        assert_eq!(path, vec![c2, p2, p1, c1, s]);
    }

    #[test]
    fn first_hops_agree_with_parent_chains() {
        let (g, ids) = peering_square();
        for &src in &ids {
            let fh = bfs_first_hops(&g, src);
            let t = bfs(&g, src);
            for &d in &ids {
                if d == src {
                    assert_eq!(fh[d.0], None);
                    continue;
                }
                // Walk d's parent chain back to src; the last node
                // before src is the first hop out of src.
                let path = t.path_to_src(d).unwrap();
                let expect = path[path.len() - 2];
                assert_eq!(fh[d.0], Some(expect), "first hop to {d:?}");
            }
        }
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = DomainGraph::new();
        let a = g.add_domain("a");
        let b = g.add_domain("b");
        let t = bfs(&g, a);
        assert_eq!(t.dist_to(b), None);
        assert!(t.path_to_src(b).is_none());
    }

    #[test]
    fn valley_free_matches_hops_here() {
        // In the square, C1→C2 via P1-P2 peer link is valley-free
        // (up, peer, down).
        let (g, [_p1, _p2, c1, c2, _s]) = peering_square();
        let pd = policy_bfs(&g, c1);
        assert_eq!(pd.dist[c2.0], 3);
    }

    #[test]
    fn valley_free_forbids_transit_through_customer() {
        // P1 and P2 both provide for C; P1 and P2 not otherwise
        // connected. A valley (P1 → C → P2) is illegal, so P1 cannot
        // reach P2.
        let mut g = DomainGraph::new();
        let p1 = g.add_domain("P1");
        let p2 = g.add_domain("P2");
        let c = g.add_domain("C");
        g.add_provider_customer(p1, c);
        g.add_provider_customer(p2, c);
        let pd = policy_bfs(&g, p1);
        assert_eq!(pd.dist[c.0], 1);
        assert_eq!(pd.dist[p2.0], u32::MAX, "valley path must be rejected");
        // Plain hop routing would find it.
        assert_eq!(hop_dist(&g, p1, p2), Some(2));
    }

    #[test]
    fn valley_free_forbids_peer_peer_chains() {
        // A - peer - B - peer - C: two peer crossings are illegal.
        let mut g = DomainGraph::new();
        let a = g.add_domain("A");
        let b = g.add_domain("B");
        let c = g.add_domain("C");
        g.add_peering(a, b);
        g.add_peering(b, c);
        let pd = policy_bfs(&g, a);
        assert_eq!(pd.dist[b.0], 1);
        assert_eq!(pd.dist[c.0], u32::MAX);
    }

    #[test]
    fn up_after_down_is_forbidden() {
        // P -> C (down), C -> P2 (up) would be a valley.
        let mut g = DomainGraph::new();
        let p = g.add_domain("P");
        let c = g.add_domain("C");
        let p2 = g.add_domain("P2");
        let c2 = g.add_domain("C2");
        g.add_provider_customer(p, c);
        g.add_provider_customer(p2, c);
        g.add_provider_customer(p2, c2);
        // From P: down to C legal; C→P2 would be up-after-down.
        let pd = policy_bfs(&g, p);
        assert_eq!(pd.dist[c2.0], u32::MAX);
    }
}
