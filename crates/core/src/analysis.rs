//! Extraction and verification of protocol-built state.
//!
//! These helpers read the (*,G)/(S,G) state out of a running
//! [`Internet`](crate::internet::Internet) and check the invariants the
//! architecture promises: the per-group state forms a tree rooted at
//! the group's root domain, every member domain is on it, and G-RIB
//! sizes can be measured per router (figure 2(b)'s metric at the
//! protocol level).

use std::collections::{BTreeMap, BTreeSet};

use bgmp::Target;
use bgp::RouterId;
use mcast_addr::McastAddr;
use topology::DomainId;

use crate::domain::HostId;
use crate::internet::Internet;

/// The inter-domain edges of a group's shared tree, as (child domain,
/// parent domain) pairs extracted from (*,G) parent targets.
pub fn shared_tree_edges(net: &Internet, g: McastAddr) -> Vec<(DomainId, DomainId)> {
    let mut router_domain: BTreeMap<RouterId, DomainId> = BTreeMap::new();
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            router_domain.insert(br.id, d);
        }
    }
    let mut edges = BTreeSet::new();
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            if let Some(e) = br.bgmp.table().star_exact(g) {
                if let Some(Target::Peer(p)) = e.parent {
                    let pd = router_domain[&p];
                    if pd != d {
                        edges.insert((d, pd));
                    }
                }
            }
        }
    }
    edges.into_iter().collect()
}

/// Domains holding any (*,G) state for the group.
pub fn on_tree_domains(net: &Internet, g: McastAddr) -> Vec<DomainId> {
    net.graph
        .domains()
        .filter(|d| {
            net.domain(*d)
                .routers
                .iter()
                .any(|br| br.bgmp.table().star_exact(g).is_some())
        })
        .collect()
}

/// Problems found by [`verify_tree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeViolation {
    /// A domain has two different parent domains for the group.
    TwoParents(DomainId),
    /// Following parents from this domain never reaches the root.
    NotRootedAt(DomainId),
    /// A member domain holds no tree state.
    MemberOffTree(DomainId),
}

/// Verifies that the group's inter-domain state is a tree rooted at
/// `root`, containing every domain in `members`.
pub fn verify_tree(
    net: &Internet,
    g: McastAddr,
    root: DomainId,
    members: &[DomainId],
) -> Vec<TreeViolation> {
    let edges = shared_tree_edges(net, g);
    let mut violations = Vec::new();
    let mut parent: BTreeMap<DomainId, DomainId> = BTreeMap::new();
    for (c, p) in &edges {
        if parent.insert(*c, *p).is_some_and(|prev| prev != *p) {
            violations.push(TreeViolation::TwoParents(*c));
        }
    }
    let on_tree: BTreeSet<DomainId> = on_tree_domains(net, g).into_iter().collect();
    for m in members {
        if !on_tree.contains(m) && *m != root {
            violations.push(TreeViolation::MemberOffTree(*m));
        }
    }
    // Every on-tree domain must reach the root by parent pointers
    // without cycles.
    for d in &on_tree {
        let mut cur = *d;
        let mut steps = 0;
        loop {
            if cur == root {
                break;
            }
            match parent.get(&cur) {
                Some(p) => cur = *p,
                None => {
                    // A domain whose every router has a Migp/None
                    // parent but is not the root is dangling.
                    if cur != root {
                        violations.push(TreeViolation::NotRootedAt(*d));
                    }
                    break;
                }
            }
            steps += 1;
            if steps > net.graph.len() {
                violations.push(TreeViolation::NotRootedAt(*d));
                break;
            }
        }
    }
    violations
}

/// Per-router G-RIB sizes across the internet (figure 2(b) at the
/// protocol level).
pub fn grib_sizes(net: &Internet) -> Vec<usize> {
    let mut out = Vec::new();
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            out.push(br.speaker.rib().grib_size());
        }
    }
    out
}

/// Total (*,G) forwarding entries across all routers (the state-scaling
/// metric of §7).
pub fn total_star_entries(net: &Internet, g: Option<McastAddr>) -> usize {
    let mut n = 0;
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            match g {
                Some(g) => {
                    if br.bgmp.table().star_exact(g).is_some() {
                        n += 1;
                    }
                }
                None => n += br.bgmp.table().star_len(),
            }
        }
    }
    n
}

/// How many of `packets` — `(id, expected receivers)` pairs — missed
/// or overshot their receivers. One pass over the delivery logs
/// however many packets are checked (the hop count of a packet's path
/// cannot be read off the log; harnesses compare *who* received
/// against membership).
pub fn misdelivered<'a>(
    net: &Internet,
    packets: impl IntoIterator<Item = (u64, &'a [HostId])>,
) -> usize {
    let got = net.deliveries_by_packet();
    packets
        .into_iter()
        .filter(|(id, expected)| {
            let mut want = expected.to_vec();
            want.sort();
            want.dedup();
            got.get(id).map_or(&[][..], Vec::as_slice) != want
        })
        .count()
}

/// Exact-once delivery of packet `id` to the expected hosts.
pub fn delivered_exactly(net: &Internet, id: u64, expected: &[HostId]) -> bool {
    misdelivered(net, [(id, expected)]) == 0 && net.total_duplicates() == 0
}
