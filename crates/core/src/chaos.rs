//! Deterministic chaos harness: a full-protocol internet under a
//! seed-derived fault schedule.
//!
//! One [`run_chaos`] call builds a ring of domains (two disjoint paths
//! between every pair, so single failures always leave an alternate),
//! subscribes a member in every domain to one group, then drives a
//! chaos phase combining:
//!
//! - per-message loss/duplication/jitter on every inter-domain link
//!   (the engine's fault plane, drawn from the engine's seeded RNG),
//! - silent link flaps (no control event — session hold timers must
//!   *detect* them),
//! - fail-stop node crashes with restart (volatile state wiped,
//!   recovered through `DomainActor::on_restart`).
//!
//! The schedule itself is derived from the config seed with a
//! dedicated seeded RNG, so the whole run — schedule, fault draws,
//! repairs — is byte-reproducible: [`ChaosOutcome::fingerprint`]
//! hashes every router's forwarding state, RIB sizes, delivery log and
//! fault counters, and must be identical across reruns and across
//! harness thread counts for a fixed seed.
//!
//! Mid-run, [`invariants::check_running`] is asserted after every
//! fault event; after the faults cease the harness polls
//! [`invariants::check_quiescent`] to measure re-convergence time.

use bgp::session::SessionTimers;
use mcast_addr::McastAddr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{FaultModel, FaultStats, SimDuration};
pub use topology::ChaosSchedule;
use topology::{DomainGraph, DomainId, LinkWindow, NodeWindow};

use crate::domain::{HostId, Wire};
use crate::internet::{asn_of, Addressing, BorderPlan, Internet, InternetConfig};
use crate::invariants;

/// Configuration of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Ring size (domains). Must be at least 4.
    pub domains: usize,
    /// Per-message loss probability on faultable traffic.
    pub loss: f64,
    /// Per-message duplication probability.
    pub dup: f64,
    /// Bounded re-enqueue jitter (ms) applied to faulted messages.
    pub jitter_ms: u64,
    /// Number of silent link flaps during the chaos phase.
    pub flaps: usize,
    /// Number of fail-stop crash/restart events.
    pub crashes: usize,
    /// Length of the chaos phase (seconds).
    pub chaos_secs: u64,
    /// Master seed: drives the schedule and the engine RNG.
    pub seed: u64,
    /// Assert `check_running` after every fault event (panics on
    /// violation when enabled).
    pub check_mid_run: bool,
    // Read by nothing: exists only for `benchmark/` (read-only) and goes with its `masc_shard`.
    #[doc(hidden)]
    pub shards: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            domains: 6,
            loss: 0.10,
            dup: 0.05,
            jitter_ms: 40,
            flaps: 5,
            crashes: 1,
            chaos_secs: 120,
            seed: 1,
            check_mid_run: true,
            shards: 0,
        }
    }
}

/// Result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Packets sent during the chaos phase.
    pub sent: u64,
    /// Member deliveries of chaos-phase packets.
    pub delivered: u64,
    /// Member deliveries expected had no packet been disturbed.
    pub expected: u64,
    /// `delivered / expected` (1.0 = nothing lost end-to-end).
    pub delivery_ratio: f64,
    /// Time from fault cessation until `check_quiescent` came back
    /// clean, in ms of simulated time (`None` = never within the
    /// polling horizon — a real invariant failure).
    pub convergence_ms: Option<u64>,
    /// Invariant violations still present at the end of the run.
    pub quiescent_violations: Vec<invariants::Violation>,
    /// Whether the final post-quiesce probe packet reached every
    /// member exactly once.
    pub probe_clean: bool,
    /// Fault-plane counters (loss/dup/jitter/crash totals).
    pub fault_stats: FaultStats,
    /// Order-sensitive hash of all protocol state, logs and counters:
    /// equal fingerprints mean byte-identical runs.
    pub fingerprint: u64,
    /// Engine events processed over the whole scenario (deterministic
    /// for a fixed config; the perf harness's work-unit count).
    pub events: u64,
}

/// What the schedule applies at a point in simulated time.
#[derive(Debug, Clone, Copy)]
enum FaultEvent {
    /// Silently cut the link.
    Cut(DomainId, DomainId),
    /// Silently restore it.
    Restore(DomainId, DomainId),
    /// Send a data packet from a host in the domain.
    Send(DomainId),
}

/// The ring topology every chaos run uses: two disjoint paths between
/// every pair, so single failures always leave an alternate. Domain
/// `i` is `DomainId(i)`.
pub fn ring_graph(n: usize) -> DomainGraph {
    let mut graph = DomainGraph::new();
    let ids: Vec<DomainId> = (0..n).map(|i| graph.add_domain(format!("D{i}"))).collect();
    for i in 0..n {
        graph.add_peering(ids[i], ids[(i + 1) % n]);
    }
    graph
}

/// Derives the fault schedule from the config seed, over
/// [`ring_graph`]`(cfg.domains)`: ring edge `e` is the link
/// `e – (e + 1) % n`. Pure function of the config; [`run_chaos`] and
/// the stateless planes' replay (`bier::sim::replay`) consume exactly
/// this schedule. The RNG draw order is pinned by every chaos golden.
pub fn derive_schedule(cfg: &ChaosConfig) -> ChaosSchedule {
    let n = cfg.domains;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let horizon = cfg.chaos_secs.max(60);
    let mut flaps = Vec::with_capacity(cfg.flaps);
    for _ in 0..cfg.flaps {
        let edge = rng.gen_range(0..n);
        let at = rng.gen_range(5..horizon.saturating_sub(30).max(6));
        let dur: u64 = rng.gen_range(8..=20);
        flaps.push(LinkWindow {
            a: DomainId(edge),
            b: DomainId((edge + 1) % n),
            at,
            dur,
        });
    }
    let mut crashes = Vec::with_capacity(cfg.crashes);
    for i in 0..cfg.crashes {
        // Crash any non-root domain; keep outages longer than the
        // hold time so every neighbour notices organically (shorter
        // ones are caught by the boot-generation bounce instead).
        let d = DomainId(rng.gen_range(1..n));
        let at = rng.gen_range(10..horizon / 2 + 10 + i as u64);
        let dur = rng.gen_range(18..=30);
        crashes.push(NodeWindow { d, at, dur });
    }
    let mut sends = Vec::new();
    let mut t = 4;
    let mut k = 0usize;
    while t < horizon {
        sends.push((t, DomainId((k * 7 + 3) % n)));
        t += 2;
        k += 1;
    }
    ChaosSchedule {
        flaps,
        crashes,
        sends,
        horizon,
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hashes every router's forwarding state, G-RIB size, the delivery
/// logs and the fault counters into one order-sensitive fingerprint.
pub fn state_fingerprint(net: &Internet) -> u64 {
    use bgmp::Target;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv_u64(&mut h, net.engine.now().as_millis());
    let target_code = |t: &Target| -> (u64, u64) {
        match t {
            Target::Peer(r) => (1, *r as u64),
            Target::Migp => (2, 0),
        }
    };
    for d in net.graph.domains() {
        let actor = net.domain(d);
        for br in &actor.routers {
            fnv_u64(&mut h, br.id as u64);
            fnv_u64(&mut h, br.speaker.rib().grib_size() as u64);
            for (p, e) in br.bgmp.table().star_entries() {
                fnv_u64(&mut h, p.base().0 as u64);
                fnv_u64(&mut h, p.len() as u64);
                let (c, v) = e.parent.as_ref().map(target_code).unwrap_or((0, 0));
                fnv_u64(&mut h, c);
                fnv_u64(&mut h, v);
                fnv_u64(&mut h, e.via_exit.map(|r| r as u64 + 1).unwrap_or(0));
                for t in &e.children {
                    let (c, v) = target_code(t);
                    fnv_u64(&mut h, c);
                    fnv_u64(&mut h, v);
                }
            }
            for (&(s, g), e) in br.bgmp.table().sg_entries() {
                fnv_u64(&mut h, s.domain as u64);
                fnv_u64(&mut h, s.host as u64);
                fnv_u64(&mut h, g.0 as u64);
                let (c, v) = e.parent.as_ref().map(target_code).unwrap_or((0, 0));
                fnv_u64(&mut h, c);
                fnv_u64(&mut h, v);
                for t in &e.children {
                    let (c, v) = target_code(t);
                    fnv_u64(&mut h, c);
                    fnv_u64(&mut h, v);
                }
            }
        }
        for (id, host) in &actor.log.received {
            fnv_u64(&mut h, *id);
            fnv_u64(&mut h, host.domain as u64);
            fnv_u64(&mut h, host.host as u64);
        }
        fnv_u64(&mut h, actor.log.duplicates);
        fnv_u64(&mut h, actor.log.dropped);
        fnv_u64(&mut h, actor.log.encapsulations);
    }
    let fs = net.engine.faults().stats();
    for v in [
        fs.lost,
        fs.duplicated,
        fs.jittered,
        fs.dropped_at_down_node,
        fs.timers_suppressed,
        fs.crashes,
        fs.restarts,
    ] {
        fnv_u64(&mut h, v);
    }
    fnv_u64(&mut h, net.engine.stats().delivered);
    h
}

/// Fast session timers for chaos runs: failures are detected within
/// 15 s of simulated time and reconnects retried after 10 s.
pub fn chaos_session_timers() -> SessionTimers {
    SessionTimers {
        keepalive: 5,
        hold: 15,
        retry: 10,
    }
}

/// Runs one deterministic chaos scenario under the schedule derived
/// from `cfg`. See the module docs.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    run_schedule(cfg, &derive_schedule(cfg))
}

/// Runs the scenario of `cfg` under `plan` (over `ring_graph(cfg.domains)`)
/// instead of the derived schedule; `cfg`'s `flaps`, `crashes` and
/// `chaos_secs` are then unused.
pub fn run_schedule(cfg: &ChaosConfig, plan: &ChaosSchedule) -> ChaosOutcome {
    assert!(cfg.domains >= 4, "ring needs at least 4 domains");
    let n = cfg.domains;
    let graph = ring_graph(n);
    let ids: Vec<DomainId> = graph.domains().collect();
    let icfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Static,
        sessions: Some(chaos_session_timers()),
        seed: cfg.seed,
        ..Default::default()
    };
    let mut net = Internet::build(graph, &icfg);
    // Reliable control planes ride TCP; keepalives and data feel the
    // network directly, which is exactly what the session machinery
    // and the tree repairs must cope with.
    net.engine.faults_mut().set_faultable(|m| {
        matches!(
            m,
            Wire::Keepalive { .. } | Wire::Data { .. } | Wire::Masc { .. }
        )
    });
    net.converge();

    // One group rooted in domain 0, one member host per domain.
    let g: McastAddr = net.group_addr(ids[0]);
    let members: Vec<HostId> = ids
        .iter()
        .map(|d| HostId {
            domain: asn_of(*d),
            host: 1,
        })
        .collect();
    for m in &members {
        net.host_join(*m, g);
    }
    net.converge();

    // ---- The schedule as timed events --------------------------------
    let t0 = net.engine.now();
    let horizon = plan.horizon;
    let mut schedule: Vec<(u64, FaultEvent)> = Vec::new();
    for f in &plan.flaps {
        schedule.push((f.at * 1000, FaultEvent::Cut(f.a, f.b)));
        schedule.push(((f.at + f.dur) * 1000, FaultEvent::Restore(f.a, f.b)));
    }
    for c in &plan.crashes {
        net.schedule_crash(
            c.d,
            SimDuration::from_secs(c.at),
            SimDuration::from_secs(c.dur),
        );
    }
    for &(t, d) in &plan.sends {
        schedule.push((t * 1000, FaultEvent::Send(d)));
    }
    schedule.sort_by_key(|(at, _)| *at);

    // ---- Chaos phase ------------------------------------------------
    net.engine.faults_mut().set_default_model(FaultModel {
        loss: cfg.loss,
        dup: cfg.dup,
        jitter_ms: cfg.jitter_ms,
    });
    let mut packet_ids = Vec::new();
    for (at_ms, ev) in schedule {
        net.engine.run_until(t0 + SimDuration::from_millis(at_ms));
        match ev {
            FaultEvent::Cut(a, b) => net.cut_link(a, b),
            // A window's end brings the link up only if no other
            // window still covers it: down for the union.
            FaultEvent::Restore(a, b) => {
                if !plan.link_down(a, b, at_ms / 1000) {
                    net.restore_link(a, b);
                }
            }
            FaultEvent::Send(d) => {
                let host = HostId {
                    domain: asn_of(d),
                    host: 5,
                };
                packet_ids.push(net.send_data(host, g));
            }
        }
        if cfg.check_mid_run && !matches!(ev, FaultEvent::Send(_)) {
            let v = invariants::check_running(&net);
            assert!(v.is_empty(), "mid-run invariant violation: {v:?}");
        }
    }
    net.engine.run_until(t0 + SimDuration::from_secs(horizon));

    // ---- Quiesce ----------------------------------------------------
    net.engine.faults_mut().clear_models();
    for f in &plan.flaps {
        net.restore_link(f.a, f.b);
    }
    let mut convergence_ms = None;
    for step in 1..=40u64 {
        net.run_for(SimDuration::from_secs(5));
        if invariants::check_quiescent(&net).is_empty() {
            convergence_ms = Some(step * 5000);
            break;
        }
    }
    let quiescent_violations = invariants::check_quiescent(&net);

    // ---- Accounting -------------------------------------------------
    let sent = packet_ids.len() as u64;
    let received = net.deliveries_by_packet();
    let delivered: u64 = packet_ids
        .iter()
        .filter_map(|id| received.get(id))
        .map(|hosts| hosts.len() as u64)
        .sum();
    // Every chaos packet, undisturbed, reaches every member host (the
    // sending host is never a member: hosts 5 vs 1).
    let expected = sent * members.len() as u64;
    let delivery_ratio = if expected == 0 {
        1.0
    } else {
        delivered as f64 / expected as f64
    };

    // ---- Final probe ------------------------------------------------
    let probe_host = HostId {
        domain: asn_of(ids[n / 2]),
        host: 9,
    };
    let probe = net.send_data(probe_host, g);
    net.run_for(SimDuration::from_secs(30));
    let got = net.deliveries(probe);
    let probe_clean = got == members;

    let fault_stats = net.engine.faults().stats();
    let fingerprint = state_fingerprint(&net);
    let events = net.engine.stats().events;
    ChaosOutcome {
        sent,
        delivered,
        expected,
        delivery_ratio,
        convergence_ms,
        quiescent_violations,
        probe_clean,
        fault_stats,
        fingerprint,
        events,
    }
}
