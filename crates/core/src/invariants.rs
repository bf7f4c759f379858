//! Tree-invariant checking for chaos runs.
//!
//! The fault-injection harnesses assert two invariant sets over a
//! running [`Internet`]:
//!
//! - [`check_running`] holds at *any* instant, even mid-repair with
//!   control messages in flight: referential integrity of every
//!   forwarding entry and absence of dead (S,G) state.
//! - [`check_quiescent`] holds once the protocols have settled after
//!   the last fault: shared-tree acyclicity and connectivity of every
//!   member domain toward the group's root domain, agreement between
//!   each (*,G) parent and the router's current G-RIB route, no
//!   orphaned (S,G) branches, no tree edges through links that are
//!   down or domains that are crashed, and a single tree attachment
//!   per domain.
//!
//! Checks read protocol state only through public accessors; the
//! expected-parent logic deliberately mirrors the repair performed by
//! the domain actor on route change, so "quiescent and consistent"
//! means "nothing left for the repair path to do".

use std::collections::{BTreeMap, BTreeSet};

use bgmp::{SourceId, Target};
use bgp::RouterId;
use mcast_addr::McastAddr;
use topology::DomainId;

use crate::internet::Internet;

/// One invariant violation, with enough context to debug the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An entry references a router id no domain owns.
    UnknownTarget {
        /// Domain holding the entry.
        domain: DomainId,
        /// Router holding the entry.
        router: RouterId,
        /// The group.
        group: McastAddr,
        /// The unknown router id.
        target: RouterId,
    },
    /// An entry's `via_exit` router has no (*,G) entry of its own.
    ViaExitMissing {
        /// Domain holding the entry.
        domain: DomainId,
        /// Router holding the entry.
        router: RouterId,
        /// The group.
        group: McastAddr,
        /// The exit router the entry points at.
        exit: RouterId,
    },
    /// An (S,G) entry with no targets at all (forwards nowhere).
    DeadSg {
        /// Domain holding the entry.
        domain: DomainId,
        /// Router holding the entry.
        router: RouterId,
        /// The source.
        source: SourceId,
        /// The group.
        group: McastAddr,
    },
    /// Following domain-level parent edges loops.
    Cycle {
        /// The group.
        group: McastAddr,
        /// A domain on the cycle.
        domain: DomainId,
    },
    /// A member domain's tree state does not reach the root domain.
    NotConnectedToRoot {
        /// The group.
        group: McastAddr,
        /// The disconnected member domain.
        domain: DomainId,
    },
    /// A member domain holds no serving (*,G) state at all.
    MemberOffTree {
        /// The group.
        group: McastAddr,
        /// The member domain.
        domain: DomainId,
    },
    /// A (*,G) parent disagrees with the router's current G-RIB route.
    RouteDisagrees {
        /// Domain holding the entry.
        domain: DomainId,
        /// Router holding the entry.
        router: RouterId,
        /// The group.
        group: McastAddr,
    },
    /// An (S,G) branch serving neither members nor downstream peers.
    OrphanSg {
        /// Domain holding the entry.
        domain: DomainId,
        /// Router holding the entry.
        router: RouterId,
        /// The source.
        source: SourceId,
        /// The group.
        group: McastAddr,
    },
    /// A tree edge crosses a link that is administratively down.
    ThroughDownLink {
        /// The group.
        group: McastAddr,
        /// Domain holding the entry.
        domain: DomainId,
        /// The far side of the down link.
        peer_domain: DomainId,
    },
    /// A tree edge points at a crashed (down) domain.
    ThroughDownNode {
        /// The group.
        group: McastAddr,
        /// Domain holding the entry.
        domain: DomainId,
        /// The crashed far side.
        peer_domain: DomainId,
    },
    /// A domain attaches to the same tree through two routers.
    MultipleAttachments {
        /// The group.
        group: McastAddr,
        /// The domain.
        domain: DomainId,
    },
}

/// router id -> owning domain, for every router in the internet.
fn router_domains(net: &Internet) -> BTreeMap<RouterId, DomainId> {
    let mut map = BTreeMap::new();
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            map.insert(br.id, d);
        }
    }
    map
}

/// Is the domain's simulator node currently crashed?
fn is_down(net: &Internet, d: DomainId) -> bool {
    net.engine.faults().is_down(net.nodes[d.0])
}

/// Invariants that hold at any instant of a chaos run, including
/// mid-repair: every target a forwarding entry references must exist,
/// internal exit legs must lead to real state, and no (S,G) entry may
/// be target-less. Entries of crashed domains are skipped — their
/// state is dead RAM, wiped on restart.
pub fn check_running(net: &Internet) -> Vec<Violation> {
    let owners = router_domains(net);
    let mut violations = Vec::new();
    for d in net.graph.domains() {
        if is_down(net, d) {
            continue;
        }
        let actor = net.domain(d);
        let local_stars: BTreeMap<RouterId, BTreeSet<McastAddr>> = actor
            .routers
            .iter()
            .map(|br| {
                let gs = br
                    .bgmp
                    .table()
                    .star_entries()
                    .filter(|(p, _)| p.len() == 32)
                    .map(|(p, _)| p.base())
                    .collect();
                (br.id, gs)
            })
            .collect();
        for br in &actor.routers {
            for (p, e) in br.bgmp.table().star_entries() {
                if p.len() != 32 {
                    continue;
                }
                let g = p.base();
                for t in e.targets() {
                    if let Target::Peer(r) = t {
                        if !owners.contains_key(&r) {
                            violations.push(Violation::UnknownTarget {
                                domain: d,
                                router: br.id,
                                group: g,
                                target: r,
                            });
                        }
                    }
                }
                if let Some(exit) = e.via_exit {
                    if !local_stars.get(&exit).is_some_and(|gs| gs.contains(&g)) {
                        violations.push(Violation::ViaExitMissing {
                            domain: d,
                            router: br.id,
                            group: g,
                            exit,
                        });
                    }
                }
            }
            for (&(s, g), e) in br.bgmp.table().sg_entries() {
                if e.parent.is_none() && e.children.is_empty() {
                    violations.push(Violation::DeadSg {
                        domain: d,
                        router: br.id,
                        source: s,
                        group: g,
                    });
                }
                for t in e.targets() {
                    if let Target::Peer(r) = t {
                        if !owners.contains_key(&r) {
                            violations.push(Violation::UnknownTarget {
                                domain: d,
                                router: br.id,
                                group: g,
                                target: r,
                            });
                        }
                    }
                }
            }
        }
    }
    violations
}

/// The domain-level parent edges of a group's tree: domain -> parent
/// domains its routers' (*,G) entries point at (externally).
fn parent_edges(net: &Internet, g: McastAddr) -> BTreeMap<DomainId, BTreeSet<DomainId>> {
    let owners = router_domains(net);
    let mut edges: BTreeMap<DomainId, BTreeSet<DomainId>> = BTreeMap::new();
    for d in net.graph.domains() {
        for br in &net.domain(d).routers {
            if let Some(e) = br.bgmp.table().star_exact(g) {
                if let Some(Target::Peer(p)) = e.parent {
                    if let Some(&pd) = owners.get(&p) {
                        if pd != d {
                            edges.entry(d).or_default().insert(pd);
                        }
                    }
                }
            }
        }
    }
    edges
}

/// All groups with any (*,G) state or any local members, anywhere.
pub fn live_groups(net: &Internet) -> Vec<McastAddr> {
    let mut gs = BTreeSet::new();
    for d in net.graph.domains() {
        let actor = net.domain(d);
        gs.extend(actor.member_groups());
        for br in &actor.routers {
            gs.extend(
                br.bgmp
                    .table()
                    .star_entries()
                    .filter(|(p, _)| p.len() == 32)
                    .map(|(p, _)| p.base()),
            );
        }
    }
    gs.into_iter().collect()
}

/// The root domain of a group: the one whose routers hold a local
/// (originated) route covering it.
fn root_domain(net: &Internet, g: McastAddr) -> Option<DomainId> {
    net.graph.domains().find(|&d| {
        net.domain(d)
            .routers
            .iter()
            .any(|br| br.speaker.rib().lookup_group(g).is_some_and(|r| r.local))
    })
}

/// Full invariant set, valid once the run has quiesced (no faults
/// active except still-down links/nodes, and no control messages in
/// flight). See the module docs for the list.
pub fn check_quiescent(net: &Internet) -> Vec<Violation> {
    let mut violations = check_running(net);
    let owners = router_domains(net);
    for g in live_groups(net) {
        let edges = parent_edges(net, g);
        let root = root_domain(net, g);

        for d in net.graph.domains() {
            if is_down(net, d) {
                continue;
            }
            let actor = net.domain(d);
            let own: BTreeSet<RouterId> = actor.routers.iter().map(|br| br.id).collect();
            let mut external_attachments = 0usize;
            for br in &actor.routers {
                let Some(e) = br.bgmp.table().star_exact(g) else {
                    continue;
                };
                // G-RIB ↔ forwarding agreement: the parent must match
                // what a repair from the current route would install.
                let route = br.speaker.rib().lookup_group(g);
                let expected: Option<(Option<Target>, Option<RouterId>)> = match route {
                    Some(r) if r.local => Some((Some(Target::Migp), None)),
                    Some(r) if own.contains(&r.next_hop) => {
                        Some((Some(Target::Migp), Some(r.next_hop)))
                    }
                    Some(r) => Some((Some(Target::Peer(r.next_hop)), None)),
                    None => None,
                };
                let matches = match &expected {
                    Some(exp) => *exp == (e.parent, e.via_exit),
                    None => e.parent.is_none(),
                };
                if !matches {
                    violations.push(Violation::RouteDisagrees {
                        domain: d,
                        router: br.id,
                        group: g,
                    });
                }
                if matches!(e.parent, Some(Target::Peer(p)) if !own.contains(&p)) {
                    external_attachments += 1;
                }
                // No tree edge may cross a down link or point at a
                // crashed domain.
                for t in e.targets() {
                    let Target::Peer(p) = t else { continue };
                    let Some(&pd) = owners.get(&p) else { continue };
                    if pd == d {
                        continue;
                    }
                    if is_down(net, pd) {
                        violations.push(Violation::ThroughDownNode {
                            group: g,
                            domain: d,
                            peer_domain: pd,
                        });
                    } else if !net.engine.links().is_up(net.nodes[d.0], net.nodes[pd.0]) {
                        violations.push(Violation::ThroughDownLink {
                            group: g,
                            domain: d,
                            peer_domain: pd,
                        });
                    }
                }
            }
            if external_attachments > 1 {
                violations.push(Violation::MultipleAttachments {
                    group: g,
                    domain: d,
                });
            }
            // (S,G) branches must serve someone: local members or a
            // downstream peer.
            for br in &actor.routers {
                for (&(s, gg), e) in br.bgmp.table().sg_entries() {
                    if gg != g {
                        continue;
                    }
                    let serves_peer = e
                        .children
                        .iter()
                        .any(|t| matches!(t, Target::Peer(p) if !own.contains(p)));
                    let serves_members =
                        e.children.contains(&Target::Migp) && !actor.members_of(g).is_empty();
                    let feeds_internal = e
                        .children
                        .iter()
                        .any(|t| matches!(t, Target::Peer(p) if own.contains(p)));
                    if !(serves_peer || serves_members || feeds_internal) {
                        violations.push(Violation::OrphanSg {
                            domain: d,
                            router: br.id,
                            source: s,
                            group: g,
                        });
                    }
                }
            }
        }

        // Acyclicity + member connectivity toward the root domain.
        let mut member_domains: Vec<DomainId> = Vec::new();
        for d in net.graph.domains() {
            if !is_down(net, d) && !net.domain(d).members_of(g).is_empty() {
                member_domains.push(d);
            }
        }
        for d in net.graph.domains() {
            if is_down(net, d) {
                continue;
            }
            let on_tree = net
                .domain(d)
                .routers
                .iter()
                .any(|br| br.bgmp.table().star_exact(g).is_some());
            if !on_tree {
                continue;
            }
            let mut cur = d;
            let mut seen = BTreeSet::new();
            loop {
                if !seen.insert(cur) {
                    violations.push(Violation::Cycle {
                        group: g,
                        domain: d,
                    });
                    break;
                }
                if Some(cur) == root {
                    break;
                }
                let Some(parents) = edges.get(&cur) else {
                    // A non-root domain whose every entry has an
                    // internal parent is dangling off the tree.
                    if Some(cur) != root {
                        violations.push(Violation::NotConnectedToRoot {
                            group: g,
                            domain: d,
                        });
                    }
                    break;
                };
                // MultipleAttachments is reported separately; walk any
                // one parent here.
                cur = *parents.iter().next().expect("nonempty parent set");
            }
        }
        for m in member_domains {
            // Data only reaches the domain's members if some entry
            // forwards into the MIGP; transit entries (external parent
            // and external children only) do not count.
            let serving = net.domain(m).routers.iter().any(|br| {
                br.bgmp
                    .table()
                    .star_exact(g)
                    .is_some_and(|e| e.targets().any(|t| t == Target::Migp))
            });
            if !serving && Some(m) != root {
                violations.push(Violation::MemberOffTree {
                    group: g,
                    domain: m,
                });
            }
        }
    }
    violations
}
