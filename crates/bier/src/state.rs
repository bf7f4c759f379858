//! The three forwarding planes under comparison and the model each
//! one owns.
//!
//! The ablations ask *where multicast state lives, what a delivery
//! costs on the wire, and what a link failure costs* under:
//!
//! * **BGMP shared tree** — every on-tree border router holds one
//!   `(group → target list)` entry, so per-group state = tree size
//!   (the paper's G-RIB column); a failure is repaired by the protocol
//!   itself, which is why its fault side is run event by event
//!   (`core::chaos::run_chaos`) rather than modelled here;
//! * **BIER** — transit routers hold zero per-group state (the BIFT is
//!   group-independent); the ingress holds one bitstring per set the
//!   receiver set touches; BIER-TE 1:1 backup paths turn a link
//!   failure into a local-detection blip;
//! * **map-and-encap (ingress replication)** — transit routers hold
//!   zero state, but the ingress holds one unicast encapsulation per
//!   receiver and sends one copy each — state and traffic both linear
//!   in receivers; a failure waits for unicast reconvergence.
//!
//! [`Plane`] is that closed list. `bench::fig4`, `bench::faults` and
//! [`crate::sim::replay`] iterate [`Plane::ALL`] and ask each plane for
//! its numbers, so the model is written once.

use crate::bitstring::SubDomain;
use crate::protect::Protection;
use topology::{DomainId, LinkWindow, SpTree};

/// Local failure-detection delay on an adjacency (BFD-style liveness).
const DETECT_MS: u64 = 50;
/// Unicast reconvergence delay after detection, paid when no
/// precomputed backup covers the failure.
const REROUTE_MS: u64 = 1_000;

/// A forwarding architecture in the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// BGMP bidirectional shared tree.
    Bgmp,
    /// BIER with BIER-TE 1:1 backup-path protection.
    Bier,
    /// Map-and-encap: ingress replication over unicast routes.
    MapEncap,
}

impl Plane {
    /// Every plane, in declaration (= output-column) order: `plane as
    /// usize` indexes any `[_; 3]` built with `ALL.map`.
    pub const ALL: [Plane; 3] = [Plane::Bgmp, Plane::Bier, Plane::MapEncap];

    /// Column-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Plane::Bgmp => "bgmp",
            Plane::Bier => "bier",
            Plane::MapEncap => "mapencap",
        }
    }

    /// Whether transit routers hold no per-group state: forwarding is
    /// then a pure function of unicast routing, so deliveries ride the
    /// source's shortest-path tree and the plane can be replayed
    /// analytically ([`crate::sim::replay`]). BGMP's tree state is built
    /// and repaired by protocol exchange.
    pub fn stateless(self) -> bool {
        self != Plane::Bgmp
    }

    /// Per-group control entries: routers on the shared tree
    /// (`shared_tree_size`, from `core::trees`), ingress bitstrings
    /// (sets the receivers touch), or ingress encapsulations (one per
    /// receiver).
    pub fn control_entries(
        self,
        sub: &SubDomain,
        shared_tree_size: usize,
        receivers: &[DomainId],
    ) -> usize {
        match self {
            Plane::Bgmp => shared_tree_size,
            Plane::Bier => sub.sets_touched(receivers),
            Plane::MapEncap => receivers.len(),
        }
    }

    /// Link copies of one delivery from the source of SPT `t` to
    /// `receivers` under a stateless plane (path stretch over the SPT
    /// is then 1 by construction). `None` for BGMP, whose paths are the
    /// shared tree's.
    pub fn link_copies(self, t: &SpTree, sub: &SubDomain, receivers: &[DomainId]) -> Option<usize> {
        match self {
            Plane::Bgmp => None,
            Plane::Bier => Some(bier_link_copies(t, sub, receivers)),
            Plane::MapEncap => Some(mapencap_link_copies(t, receivers)),
        }
    }

    /// The backup-path table this plane forwards with, given the
    /// topology's: only BIER carries one.
    pub fn protection(self, prot: &Protection) -> Option<&Protection> {
        (self == Plane::Bier).then_some(prot)
    }

    /// Whether this plane holds a precomputed backup path for both
    /// directions of the window's adjacency.
    pub fn backs_up(self, prot: &Protection, w: &LinkWindow) -> bool {
        self.protection(prot)
            .is_some_and(|p| p.backup_path(w.a, w.b).is_some() && p.backup_path(w.b, w.a).is_some())
    }
}

/// Repair latency (ms) of a `dur_s`-second outage: local detection
/// only when a backup path covers it, otherwise the whole outage, then
/// detection and reconvergence (every node crash, under every plane).
pub fn repair_ms(covered: bool, dur_s: u64) -> u64 {
    if covered {
        DETECT_MS
    } else {
        dur_s * 1000 + DETECT_MS + REROUTE_MS
    }
}

/// Link copies one BIER delivery to `receivers` costs, from the
/// ingress's shortest-path tree `t`: one packet per touched set, each
/// traversing the SPT subtree spanning that set's receivers (forwarding
/// follows unicast next hops and shares links until bits diverge —
/// pinned by the forwarding tests). Mark-walk per set, O(k·depth), over
/// one stamp buffer: receivers are taken set by set, and a domain is
/// marked for the current set iff its stamp is that set's index.
/// Unreachable receivers contribute nothing.
fn bier_link_copies(t: &SpTree, sub: &SubDomain, receivers: &[DomainId]) -> usize {
    let mut by_set: Vec<(u32, DomainId)> = receivers
        .iter()
        .filter(|r| t.dist_to(**r).is_some())
        .map(|&r| (sub.position(sub.bfr_of(r)).0 .0, r))
        .collect();
    by_set.sort_unstable();
    let mut stamp = vec![u32::MAX; t.dist.len()];
    let mut total = 0usize;
    for (si, r) in by_set {
        let mut cur = r;
        while cur != t.src && stamp[cur.0] != si {
            stamp[cur.0] = si;
            total += 1;
            match t.toward_src[cur.0] {
                Some(p) => cur = p,
                None => break,
            }
        }
    }
    total
}

/// Link copies ingress replication (map-and-encap) costs: one unicast
/// copy per receiver, each traversing its full shortest path — no
/// sharing, the whole reason the hybrid loses on traffic.
fn mapencap_link_copies(t: &SpTree, receivers: &[DomainId]) -> usize {
    receivers
        .iter()
        .filter_map(|r| t.dist_to(*r))
        .map(|d| d as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{bfs, DomainGraph};

    /// Star: hub 0 with leaves 1..=4, plus a chain 4-5-6 hanging off
    /// one leaf.
    fn star_chain() -> DomainGraph {
        let mut g = DomainGraph::new();
        for i in 0..7 {
            g.add_domain(format!("D{i}"));
        }
        for leaf in 1..=4usize {
            g.add_peering(DomainId(0), DomainId(leaf));
        }
        g.add_peering(DomainId(4), DomainId(5));
        g.add_peering(DomainId(5), DomainId(6));
        g
    }

    #[test]
    fn bier_copies_count_spt_subtree_edges_once() {
        let g = star_chain();
        let t = bfs(&g, DomainId(0));
        let sub = SubDomain::new(7, 256);
        // Receivers 1 and 2: two disjoint one-hop branches.
        assert_eq!(bier_link_copies(&t, &sub, &[DomainId(1), DomainId(2)]), 2);
        // Receivers 5 and 6 share the 0-4-5 prefix: edges {0-4,4-5,5-6}.
        assert_eq!(bier_link_copies(&t, &sub, &[DomainId(5), DomainId(6)]), 3);
        // Duplicate receivers don't double-count the shared edges.
        assert_eq!(
            bier_link_copies(&t, &sub, &[DomainId(6), DomainId(6), DomainId(5)]),
            3
        );
    }

    #[test]
    fn small_bsl_splits_the_subtree_per_set() {
        let g = star_chain();
        let t = bfs(&g, DomainId(0));
        // BSL 5 (BFR-ids are 1-based): domains 0..=4 fill set 0 and
        // domains 5..=6 spill into set 1, so the shared 0-4 prefix is
        // traversed by both set packets.
        let sub = SubDomain::new(7, 5);
        assert_eq!(bier_link_copies(&t, &sub, &[DomainId(3), DomainId(5)]), 3);
        let wide = SubDomain::new(7, 256);
        assert_eq!(bier_link_copies(&t, &wide, &[DomainId(3), DomainId(5)]), 3);
        // Where the paths *do* overlap, the split costs extra.
        assert_eq!(bier_link_copies(&t, &sub, &[DomainId(4), DomainId(5)]), 3);
        assert_eq!(bier_link_copies(&t, &wide, &[DomainId(4), DomainId(5)]), 2);
    }

    #[test]
    fn mapencap_copies_are_sum_of_path_lengths() {
        let g = star_chain();
        let t = bfs(&g, DomainId(0));
        let rs = [DomainId(1), DomainId(5), DomainId(6)];
        assert_eq!(mapencap_link_copies(&t, &rs), 1 + 2 + 3);
        // The same receiver set costs BIER only the subtree.
        let sub = SubDomain::new(7, 256);
        assert_eq!(bier_link_copies(&t, &sub, &rs), 4);
    }

    #[test]
    fn unreachable_receivers_cost_nothing() {
        let mut g = star_chain();
        g.add_domain("island");
        let t = bfs(&g, DomainId(0));
        let sub = SubDomain::new(8, 256);
        assert_eq!(bier_link_copies(&t, &sub, &[DomainId(7)]), 0);
        assert_eq!(mapencap_link_copies(&t, &[DomainId(7)]), 0);
    }

    #[test]
    fn footprints_follow_the_model() {
        let sub = SubDomain::new(600, 256);
        let entries =
            |tree: usize, rs: &[DomainId]| Plane::ALL.map(|p| p.control_entries(&sub, tree, rs));
        // Sparse receivers in three sets: tree routers / sets / receivers.
        let sparse = [DomainId(1), DomainId(300), DomainId(599)];
        assert_eq!(entries(42, &sparse), [42, 3, 3]);
        // Dense receiver set in one set: BIER state stays at 1.
        let dense: Vec<DomainId> = (0..200).map(DomainId).collect();
        assert_eq!(entries(250, &dense), [250, 1, 200]);
    }

    #[test]
    fn the_plane_list_is_closed_and_ordered() {
        assert_eq!(Plane::ALL.map(Plane::name), ["bgmp", "bier", "mapencap"]);
        assert_eq!(Plane::ALL.map(|p| p as usize), [0, 1, 2]);
        let g = star_chain();
        let t = bfs(&g, DomainId(0));
        let sub = SubDomain::new(7, 256);
        let rs = [DomainId(1), DomainId(5), DomainId(6)];
        assert_eq!(
            Plane::ALL.map(|p| p.link_copies(&t, &sub, &rs)),
            [None, Some(4), Some(6)]
        );
    }

    /// A link with a way around (0–1 on a triangle) and a bridge (2–3).
    #[test]
    fn only_bier_turns_a_covered_window_into_a_detection_blip() {
        let mut g = DomainGraph::new();
        let d: Vec<DomainId> = (0..4).map(|i| g.add_domain(format!("D{i}"))).collect();
        for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            g.add_peering(d[a], d[b]);
        }
        let prot = Protection::build(&g);
        let window = |a: usize, b: usize| LinkWindow {
            a: d[a],
            b: d[b],
            at: 5,
            dur: 30,
        };
        let covered = |w: LinkWindow| Plane::ALL.map(|p| p.backs_up(&prot, &w));
        assert_eq!(covered(window(0, 1)), [false, true, false]);
        assert_eq!(covered(window(2, 3)), [false; 3]);
        assert_eq!(repair_ms(true, 30), 50);
        assert_eq!(repair_ms(false, 30), 31_050);
    }
}
