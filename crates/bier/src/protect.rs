//! BIER-TE-style 1:1 link protection.
//!
//! For every directed adjacency `a → b` we precompute one backup path
//! from `a` to `b` that avoids the direct link (draft-ietf-bier-te-arch
//! §5: the BitString can carry an explicit backup path's adjacency
//! bits, so a point of local repair switches to it immediately on
//! detecting the failure, no reconvergence). Forwarding tunnels the
//! affected copy along the backup path to the adjacency's far end and
//! resumes normal BIFT forwarding there — terminating at the far end is
//! what makes repair loop-free by construction, where a single backup
//! *next hop* could microloop (the neighbor's own BIFT may point back).
//!
//! This is *link* protection: if the far-end router itself is down, or
//! the backup path shares the failure, the copy is dropped — 1:1
//! protection covers single link failures, and the fault ablation is
//! honest about that (node crashes need reconvergence in every
//! architecture compared).

use std::collections::BTreeMap;

use topology::{DomainGraph, DomainId};

/// Precomputed backup paths, one per directed adjacency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Protection {
    /// `(a, b) → [a, x1, …, b]`: the backup path for adjacency `a → b`,
    /// avoiding the direct link. Adjacencies on bridges (no alternate
    /// path) are absent.
    paths: BTreeMap<(usize, usize), Vec<DomainId>>,
}

impl Protection {
    /// Computes a backup path for every directed adjacency in `g`.
    ///
    /// Each path is the shortest `a → b` path in `g` minus the link
    /// `a–b` (BFS, adjacency-order tie-break — deterministic).
    pub fn build(g: &DomainGraph) -> Self {
        let mut paths = BTreeMap::new();
        let mut search = Detours::new(g.len());
        for a in g.domains() {
            for &(b, _) in g.neighbors(a) {
                if let Some(p) = search.detour(g, a, b) {
                    paths.insert((a.0, b.0), p);
                }
            }
        }
        Protection { paths }
    }

    /// The backup path `[a, …, b]` for adjacency `a → b`, if one exists.
    pub fn backup_path(&self, a: DomainId, b: DomainId) -> Option<&[DomainId]> {
        self.paths.get(&(a.0, b.0)).map(Vec::as_slice)
    }

    /// Number of protected directed adjacencies.
    pub fn protected_count(&self) -> usize {
        self.paths.len()
    }

    /// Total path entries stored — the control-state cost of 1:1
    /// protection (reported alongside BIFT size in the perf area).
    pub fn total_path_hops(&self) -> usize {
        self.paths.values().map(|p| p.len().saturating_sub(1)).sum()
    }
}

/// The buffers every detour search of one build shares, so a search
/// costs what it visits rather than two `n`-sized arrays: a domain is
/// seen in the current search iff its stamp equals `search`.
struct Detours {
    /// Search that last saw each domain.
    stamp: Vec<u32>,
    /// BFS parent of each domain the current search has seen.
    parent: Vec<DomainId>,
    queue: Vec<DomainId>,
    /// The current search's stamp.
    search: u32,
}

impl Detours {
    fn new(n: usize) -> Self {
        Detours {
            stamp: vec![0; n],
            parent: vec![DomainId(0); n],
            queue: Vec::new(),
            search: 0,
        }
    }

    /// Shortest path `a → b` in `g` with the direct link `a–b` removed.
    fn detour(&mut self, g: &DomainGraph, a: DomainId, b: DomainId) -> Option<Vec<DomainId>> {
        if self.search == u32::MAX {
            self.stamp.fill(0);
            self.search = 0;
        }
        self.search += 1;
        let Detours {
            stamp,
            parent,
            queue,
            search,
        } = self;
        queue.clear();
        stamp[a.0] = *search;
        queue.push(a);
        let mut head = 0;
        while let Some(&d) = queue.get(head) {
            head += 1;
            for &(nb, _) in g.neighbors(d) {
                // Skip the protected link itself (both directions).
                if (d == a && nb == b) || (d == b && nb == a) {
                    continue;
                }
                if stamp[nb.0] != *search {
                    stamp[nb.0] = *search;
                    parent[nb.0] = d;
                    if nb == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while cur != a {
                            cur = parent[cur.0];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push(nb);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diamond_detours_around_each_link() {
        // a - b - d, a - c - d
        let mut g = DomainGraph::new();
        let a = g.add_domain("a");
        let b = g.add_domain("b");
        let c = g.add_domain("c");
        let d = g.add_domain("d");
        g.add_peering(a, b);
        g.add_peering(a, c);
        g.add_peering(b, d);
        g.add_peering(c, d);
        let prot = Protection::build(&g);
        assert_eq!(prot.backup_path(a, b).unwrap(), &[a, c, d, b]);
        assert_eq!(prot.backup_path(b, a).unwrap(), &[b, d, c, a]);
        // Every directed adjacency is protected in a cycle.
        assert_eq!(prot.protected_count(), 8);
        assert!(prot.total_path_hops() >= 8);
    }

    #[test]
    fn bridge_has_no_backup() {
        // a - b - c: every link is a bridge.
        let mut g = DomainGraph::new();
        let a = g.add_domain("a");
        let b = g.add_domain("b");
        let c = g.add_domain("c");
        g.add_peering(a, b);
        g.add_peering(b, c);
        let prot = Protection::build(&g);
        assert_eq!(prot.backup_path(a, b), None);
        assert_eq!(prot.backup_path(b, c), None);
        assert_eq!(prot.protected_count(), 0);
    }

    #[test]
    fn triangle_backup_is_the_two_hop_way_around() {
        let mut g = DomainGraph::new();
        let a = g.add_domain("a");
        let b = g.add_domain("b");
        let c = g.add_domain("c");
        g.add_peering(a, b);
        g.add_peering(b, c);
        g.add_peering(a, c);
        let prot = Protection::build(&g);
        assert_eq!(prot.backup_path(a, b).unwrap(), &[a, c, b]);
        assert_eq!(prot.backup_path(c, a).unwrap(), &[c, b, a]);
    }
}
