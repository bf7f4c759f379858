//! Deterministic analytic replay of a chaos schedule through the
//! stateless planes.
//!
//! The fault ablation drives the BGMP stack through `core::chaos` —
//! link flap windows, node crash windows, timed sends — and measures
//! delivery ratio and convergence. This module replays the same
//! [`ChaosSchedule`] against BIER and map-and-encap: for each send it
//! applies the schedule's fault view at that second (an element is down
//! for the union of its windows, the definition the BGMP run cuts and
//! restores links by), forwards to
//! every member over unicast shortest paths, applies seeded per-hop
//! loss, and accounts delivery. Repair latency is each [`Plane`]'s own
//! model:
//!
//! * **BIER-TE 1:1 protection** — a protected adjacency switches to its
//!   precomputed backup path after a fixed local-detection delay, so a
//!   flap window costs only the detection gap, not the window;
//! * **map-and-encap** — no backup paths: traffic through the failed
//!   link is lost until unicast routing reconverges;
//! * **node crashes** — 1:1 *link* protection does not cover them; every
//!   architecture waits out the crash window plus reconvergence.
//!
//! BGMP is not replayed: its forwarding state is built and repaired by
//! protocol exchange, which is what the event-driven run measures.
//! Everything is a pure function of the arguments: replay twice, get
//! identical numbers — same contract as the rest of the workspace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitstring::SubDomain;
use crate::forward::Network;
use crate::protect::Protection;
use crate::state::{repair_ms, Plane};
use topology::{ChaosSchedule, DomainGraph, DomainId};

/// What the replay measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// `(sender, receiver)` deliveries attempted.
    pub expected: usize,
    /// Deliveries that arrived (survived faults and loss).
    pub delivered: usize,
    /// `delivered / expected` (1.0 when nothing was attempted).
    pub delivery_ratio: f64,
    /// Worst-case repair latency across fault events (ms): detection
    /// gap for protected link failures, window + reconvergence
    /// otherwise. Zero when the timeline has no faults.
    pub max_recovery_ms: u64,
    /// Worst-case repair latency over *link* events only (ms). This is
    /// the protection plane's headline: crashes are unprotected under
    /// both planes (1:1 backup paths cover adjacencies, not nodes), so
    /// `max_recovery_ms` is crash-dominated whenever the timeline has
    /// one — this column isolates what protection actually buys.
    pub max_link_recovery_ms: u64,
    /// Fault windows that were fully covered by 1:1 protection.
    pub protected_events: usize,
    /// Fault windows that needed reconvergence.
    pub unprotected_events: usize,
}

/// Replays `schedule` over `g` under `plane` (BIER or map-and-encap)
/// with per-hop loss probability `loss`, drawn from `seed`.
///
/// Group membership is every domain (mirroring the chaos harness,
/// where each domain hosts one member): each send fans out to all
/// other domains.
pub fn replay(
    g: &DomainGraph,
    sub: &SubDomain,
    schedule: &ChaosSchedule,
    plane: Plane,
    loss: f64,
    seed: u64,
) -> ReplayOutcome {
    assert!(
        plane.stateless(),
        "BGMP is run event by event, not replayed"
    );
    let mut net = Network::build(g, sub);
    let prot = Protection::build(g);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB1E5_7A7E_5EED_0001);

    let all: Vec<DomainId> = g.domains().collect();
    let mut expected = 0usize;
    let mut delivered = 0usize;

    for &(at, from) in &schedule.sends {
        net.clear_faults();
        for f in schedule.flaps.iter().filter(|f| f.covers(at)) {
            net.set_link_down(f.a, f.b);
        }
        for c in schedule.crashes.iter().filter(|c| c.covers(at)) {
            net.set_node_down(c.d);
        }
        let receivers: Vec<DomainId> = all.iter().copied().filter(|d| *d != from).collect();
        expected += receivers.len();
        let got = net.deliver_all(from, &receivers, plane.protection(&prot));
        // One draw per delivered receiver, in delivery order: the
        // committed CSVs pin this stream.
        for (_r, hops) in &got.reached {
            let p_survive = (1.0 - loss).powi(*hops as i32);
            if rng.gen_bool(p_survive.clamp(0.0, 1.0)) {
                delivered += 1;
            }
        }
    }

    // Repair latency per fault window, independent of traffic timing.
    let mut max_link_recovery_ms = 0u64;
    let mut protected_events = 0usize;
    for f in &schedule.flaps {
        let covered = plane.backs_up(&prot, f);
        protected_events += usize::from(covered);
        max_link_recovery_ms = max_link_recovery_ms.max(repair_ms(covered, f.dur));
    }
    let crash_ms = schedule.crashes.iter().map(|c| repair_ms(false, c.dur));

    ReplayOutcome {
        expected,
        delivered,
        delivery_ratio: if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        },
        max_recovery_ms: crash_ms.max().unwrap_or(0).max(max_link_recovery_ms),
        max_link_recovery_ms,
        protected_events,
        unprotected_events: schedule.flaps.len() + schedule.crashes.len() - protected_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstring::DEFAULT_BSL;
    use topology::{LinkWindow, NodeWindow};

    fn ring(n: usize) -> DomainGraph {
        let mut g = DomainGraph::new();
        let ids: Vec<DomainId> = (0..n).map(|i| g.add_domain(format!("d{i}"))).collect();
        for i in 0..n {
            g.add_peering(ids[i], ids[(i + 1) % n]);
        }
        g
    }

    /// Sends every 2 s from second 4, as `core::chaos::derive_schedule`
    /// spaces them.
    fn schedule(
        n: usize,
        horizon: u64,
        flaps: Vec<LinkWindow>,
        crashes: Vec<NodeWindow>,
    ) -> ChaosSchedule {
        let sends = (0..)
            .map(|k| (4 + 2 * k as u64, DomainId((k * 7 + 3) % n)))
            .take_while(|(t, _)| *t < horizon)
            .collect();
        ChaosSchedule {
            flaps,
            crashes,
            sends,
            horizon,
        }
    }

    fn run(n: usize, s: &ChaosSchedule, plane: Plane, loss: f64) -> ReplayOutcome {
        replay(&ring(n), &SubDomain::new(n, DEFAULT_BSL), s, plane, loss, 7)
    }

    #[test]
    fn clean_timeline_delivers_everything() {
        let out = run(8, &schedule(8, 20, vec![], vec![]), Plane::MapEncap, 0.0);
        assert_eq!(out.expected, 8 * 7);
        assert_eq!(out.delivered, out.expected);
        assert_eq!(out.delivery_ratio, 1.0);
        assert_eq!(out.max_recovery_ms, 0);
    }

    #[test]
    fn protection_turns_flap_loss_into_detection_blip() {
        let flap = LinkWindow {
            a: DomainId(0),
            b: DomainId(1),
            at: 0,
            dur: 30,
        };
        let s = schedule(8, 20, vec![flap], vec![]);
        // Unprotected: sends during the window lose the receivers
        // behind the cut (unicast routes still point through the dead
        // link until reconvergence).
        let unprot = run(8, &s, Plane::MapEncap, 0.0);
        assert!(unprot.delivery_ratio < 1.0);
        assert_eq!(unprot.unprotected_events, 1);
        assert_eq!(unprot.max_recovery_ms, 30 * 1000 + 50 + 1000);
        // Protected: the ring minus one link is still connected, so the
        // backup path restores every delivery.
        let prot = run(8, &s, Plane::Bier, 0.0);
        assert_eq!(prot.delivery_ratio, 1.0, "1:1 repair covers the flap");
        assert_eq!(prot.protected_events, 1);
        assert_eq!(prot.max_recovery_ms, 50);
        assert_eq!(prot.max_link_recovery_ms, 50);
    }

    #[test]
    fn crash_is_not_covered_by_link_protection() {
        let crash = NodeWindow {
            d: DomainId(2),
            at: 0,
            dur: 20,
        };
        let out = run(8, &schedule(8, 20, vec![], vec![crash]), Plane::Bier, 0.0);
        assert!(out.delivery_ratio < 1.0);
        assert_eq!(out.unprotected_events, 1);
        assert_eq!(out.max_recovery_ms, 20 * 1000 + 50 + 1000);
        // The link-only column excludes the crash: nothing to repair at
        // the adjacency layer, so it stays at zero.
        assert_eq!(out.max_link_recovery_ms, 0);
    }

    #[test]
    fn loss_draws_are_deterministic_in_seed() {
        let s = schedule(10, 60, vec![], vec![]);
        let a = run(10, &s, Plane::MapEncap, 0.10);
        assert_eq!(a, run(10, &s, Plane::MapEncap, 0.10));
        assert!(a.delivered < a.expected, "10% loss must bite");
        assert!(a.delivery_ratio > 0.5);
    }

    #[test]
    fn sends_outside_fault_windows_are_unaffected() {
        // Every send comes before the window.
        let flap = LinkWindow {
            a: DomainId(0),
            b: DomainId(1),
            at: 100,
            dur: 5,
        };
        let out = run(
            6,
            &schedule(6, 20, vec![flap], vec![]),
            Plane::MapEncap,
            0.0,
        );
        assert_eq!(out.delivery_ratio, 1.0);
        // The window still counts as a repair event.
        assert_eq!(out.unprotected_events, 1);
    }

    /// Two windows on one edge overlap: the link is down for their
    /// union, so a send after the first window's end but inside the
    /// second still loses the receivers behind the cut.
    #[test]
    fn overlapping_windows_keep_the_link_down_for_their_union() {
        let (a, b) = (DomainId(0), DomainId(1));
        let flaps = vec![
            LinkWindow {
                a,
                b,
                at: 3,
                dur: 4,
            },
            LinkWindow {
                a,
                b,
                at: 5,
                dur: 10,
            },
        ];
        let mut s = schedule(6, 0, flaps, vec![]);
        s.sends = vec![(8, a)]; // first window ended at 7
        assert!(run(6, &s, Plane::MapEncap, 0.0).delivery_ratio < 1.0);
        assert_eq!(run(6, &s, Plane::Bier, 0.0).delivery_ratio, 1.0);
        s.sends = vec![(15, a)]; // both over
        assert_eq!(run(6, &s, Plane::MapEncap, 0.0).delivery_ratio, 1.0);
    }
}
