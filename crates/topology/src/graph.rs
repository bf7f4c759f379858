//! The inter-domain (AS-level) graph.
//!
//! Domains are the unit of the architecture (§1: "the set of networks
//! under administrative control of a single organization"). Edges carry
//! the commercial relationship that drives both BGP export policy and
//! the MASC hierarchy: provider–customer or settlement-free peering.

/// Identifies a domain (autonomous system) in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(pub usize);

/// The relationship of a neighbor *to* a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// The neighbor is this domain's provider (we are its customer).
    Provider,
    /// The neighbor is this domain's customer.
    Customer,
    /// Settlement-free peer.
    Peer,
}

impl Rel {
    /// The same edge seen from the other end.
    pub fn flip(self) -> Rel {
        match self {
            Rel::Provider => Rel::Customer,
            Rel::Customer => Rel::Provider,
            Rel::Peer => Rel::Peer,
        }
    }
}

/// An undirected inter-domain graph with typed edges.
#[derive(Debug, Clone, Default)]
pub struct DomainGraph {
    names: Vec<String>,
    adj: Vec<Vec<(DomainId, Rel)>>,
}

impl DomainGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a domain and returns its id.
    pub fn add_domain(&mut self, name: impl Into<String>) -> DomainId {
        let id = DomainId(self.adj.len());
        self.names.push(name.into());
        self.adj.push(Vec::new());
        id
    }

    /// Adds a provider→customer link.
    pub fn add_provider_customer(&mut self, provider: DomainId, customer: DomainId) {
        debug_assert!(provider != customer);
        debug_assert!(!self.are_adjacent(provider, customer));
        self.adj[provider.0].push((customer, Rel::Customer));
        self.adj[customer.0].push((provider, Rel::Provider));
    }

    /// Adds a settlement-free peering link.
    pub fn add_peering(&mut self, a: DomainId, b: DomainId) {
        debug_assert!(a != b);
        debug_assert!(!self.are_adjacent(a, b));
        self.adj[a.0].push((b, Rel::Peer));
        self.adj[b.0].push((a, Rel::Peer));
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no domains.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// All domain ids.
    pub fn domains(&self) -> impl Iterator<Item = DomainId> {
        (0..self.adj.len()).map(DomainId)
    }

    /// The configured display name of a domain.
    pub fn name(&self, d: DomainId) -> &str {
        &self.names[d.0]
    }

    /// Neighbors of `d` with their relationship to `d`.
    pub fn neighbors(&self, d: DomainId) -> &[(DomainId, Rel)] {
        &self.adj[d.0]
    }

    /// Degree of `d`.
    pub fn degree(&self, d: DomainId) -> usize {
        self.adj[d.0].len()
    }

    /// Providers of `d`.
    pub fn providers(&self, d: DomainId) -> impl Iterator<Item = DomainId> + '_ {
        self.adj[d.0]
            .iter()
            .filter(|(_, r)| *r == Rel::Provider)
            .map(|(n, _)| *n)
    }

    /// Customers of `d`.
    pub fn customers(&self, d: DomainId) -> impl Iterator<Item = DomainId> + '_ {
        self.adj[d.0]
            .iter()
            .filter(|(_, r)| *r == Rel::Customer)
            .map(|(n, _)| *n)
    }

    /// Peers of `d`.
    pub fn peers(&self, d: DomainId) -> impl Iterator<Item = DomainId> + '_ {
        self.adj[d.0]
            .iter()
            .filter(|(_, r)| *r == Rel::Peer)
            .map(|(n, _)| *n)
    }

    /// A domain with no providers is *top-level* (§4: "backbone MASC
    /// domains that are not customers of other domains").
    pub fn is_top_level(&self, d: DomainId) -> bool {
        self.providers(d).next().is_none()
    }

    /// Are the two domains directly connected?
    pub fn are_adjacent(&self, a: DomainId, b: DomainId) -> bool {
        self.adj
            .get(a.0)
            .is_some_and(|v| v.iter().any(|(n, _)| *n == b))
    }

    /// The relationship of `b` to `a`, if adjacent.
    pub fn relation(&self, a: DomainId, b: DomainId) -> Option<Rel> {
        self.adj[a.0].iter().find(|(n, _)| *n == b).map(|(_, r)| *r)
    }

    /// Total undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|v| v.len()).sum::<usize>() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's figure-1 topology: backbones A, D, E; regionals
    /// B, C under A; F under B, G under C (plus the D/E backbone links).
    pub fn fig1() -> (DomainGraph, Vec<DomainId>) {
        let mut g = DomainGraph::new();
        let ids: Vec<DomainId> = ["A", "B", "C", "D", "E", "F", "G"]
            .iter()
            .map(|n| g.add_domain(*n))
            .collect();
        let (a, b, c, d, e, f, gg) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        g.add_peering(a, d);
        g.add_peering(a, e);
        g.add_provider_customer(a, b);
        g.add_provider_customer(a, c);
        g.add_provider_customer(b, f);
        g.add_provider_customer(c, gg);
        (g, ids)
    }

    #[test]
    fn fig1_relationships() {
        let (g, ids) = fig1();
        let (a, b, _c, d, _e, f, _gg) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        assert!(g.is_top_level(a));
        assert!(g.is_top_level(d));
        assert!(!g.is_top_level(b));
        assert_eq!(g.relation(a, b), Some(Rel::Customer));
        assert_eq!(g.relation(b, a), Some(Rel::Provider));
        assert_eq!(g.relation(a, d), Some(Rel::Peer));
        assert_eq!(g.providers(f).collect::<Vec<_>>(), vec![b]);
        assert_eq!(g.customers(a).collect::<Vec<_>>(), vec![b, ids[2]]);
        assert_eq!(g.edge_count(), 6);
        assert!(g.are_adjacent(a, d));
        assert!(!g.are_adjacent(b, d));
    }

    #[test]
    fn rel_flip() {
        assert_eq!(Rel::Provider.flip(), Rel::Customer);
        assert_eq!(Rel::Customer.flip(), Rel::Provider);
        assert_eq!(Rel::Peer.flip(), Rel::Peer);
    }

    #[test]
    fn names() {
        let (g, ids) = fig1();
        assert_eq!(g.name(ids[0]), "A");
        assert_eq!(g.name(ids[6]), "G");
        assert_eq!(g.len(), 7);
    }
}
