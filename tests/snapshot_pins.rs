//! Byte pins for two whole-simulation checkpoints taken mid-run: a
//! MASC hierarchy with claims waiting out their collision period, and
//! an internet with live MASC addressing and session liveness; and a
//! small hierarchy whose engine keeps a dispatch trace. Between
//! them and the message lists pinned in `prop_wire_robustness.rs`,
//! every type with a derived snapshot codec is in a pinned image, so a
//! field written out of order changes a hash here even though it would
//! round-trip.
//!
//! The constants were computed at the commit before any codec was
//! derived and must not move.

use masc_bgmp::core::chaos::chaos_session_timers;
use masc_bgmp::core::{asn_of, Addressing, BorderPlan, HostId, Internet, InternetConfig};
use masc_bgmp::masc::{HierarchySim, HierarchySimParams, MascActor, MascConfig, MascWire};
use masc_bgmp::simnet::{SimDuration, SimTime};
use masc_bgmp::topology::{internet_like, DomainId, InternetSpec};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Four top-level domains of four children each, on the paper's
/// 48-hour waiting period, stopped 25 ms after second `AT` (day 3):
/// children hold claims in their waiting period and queued block
/// requests, and the messages sent at `AT` are still on the wire. A
/// block request scheduled for later rides in the queue too.
#[test]
fn mid_run_hierarchy_checkpoint_is_pinned() {
    const AT: u64 = 3 * 86_400 + 3_068;
    const BLOB_LEN: usize = 12_864;
    const BLOB_FNV1A: u64 = 12_545_557_936_206_234_155;

    let mut sim = HierarchySim::new(HierarchySimParams {
        top_level: 4,
        children_per: 4,
        ..HierarchySimParams::paper_fig2(11)
    });
    let at = SimTime::ZERO + SimDuration::from_secs(AT);
    sim.engine.run_until(at + SimDuration::from_millis(25));
    let child = sim.children[0];
    sim.engine.schedule_message(
        at + SimDuration::from_secs(60),
        child,
        MascWire::RequestBlock {
            len: 24,
            lifetime: 600,
        },
    );
    let waiting = sim
        .children
        .iter()
        .filter(|&&id| {
            let actor = sim.engine.node_as::<MascActor>(id).expect("actor");
            actor.node.claim_in_flight()
        })
        .count();
    assert!(waiting > 0, "no claim is waiting");
    let blob = sim.checkpoint().expect("checkpoint");
    let delivered = sim.engine.stats().delivered;
    sim.engine.run_until(at + SimDuration::from_millis(50));
    assert!(
        sim.engine.stats().delivered > delivered,
        "nothing in flight"
    );
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (BLOB_LEN, BLOB_FNV1A),
        "the hierarchy checkpoint's bytes changed"
    );
}

/// A two-by-two hierarchy with the engine's dispatch trace on, run to
/// day 1: the trace is the one place a `SimTime` is snapshotted.
#[test]
fn traced_hierarchy_checkpoint_is_pinned() {
    const BLOB_LEN: usize = 3_049;
    const BLOB_FNV1A: u64 = 10_270_183_239_701_891_695;

    let mut sim = HierarchySim::new(HierarchySimParams {
        top_level: 2,
        children_per: 2,
        ..HierarchySimParams::paper_fig2(3)
    });
    sim.engine.enable_trace(8);
    sim.run_to_day(1);
    assert_eq!(sim.engine.trace().map(|t| t.len()), Some(8));
    let blob = sim.checkpoint().expect("checkpoint");
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (BLOB_LEN, BLOB_FNV1A),
        "the traced hierarchy checkpoint's bytes changed"
    );
}

/// Sixteen domains with live MASC addressing and session keepalives
/// on every peering. Two groups get members and carry data; then, in
/// one instant, a backbone link fails, a new member joins, a packet is
/// sent and a domain asks MASC for another group address. The
/// checkpoint is taken one millisecond later, with BGP, BGMP, MASC and
/// data messages all in flight.
#[test]
fn live_masc_internet_checkpoint_is_pinned() {
    const BLOB_LEN: usize = 318_602;
    const BLOB_FNV1A: u64 = 8_281_523_577_324_186_768;

    let graph = internet_like(&InternetSpec {
        n: 16,
        backbones: 3,
        attach: 2,
        extra_peerings: 3,
        seed: 5,
    });
    let cfg = InternetConfig {
        borders: BorderPlan::PerEdge,
        addressing: Addressing::Masc(MascConfig::fast_test()),
        sessions: Some(chaos_session_timers()),
        seed: 5,
        ..Default::default()
    };
    let mut net = Internet::build(graph, &cfg);
    net.converge();
    let host = |d: usize, h: u32| HostId {
        domain: asn_of(DomainId(d)),
        host: h,
    };
    let mut groups = Vec::new();
    for root in [DomainId(4), DomainId(9)] {
        let g = (0..60)
            .find_map(|_| {
                let g = net.try_group_addr(root);
                if g.is_none() {
                    net.run_for(SimDuration::from_secs(5));
                }
                g
            })
            .expect("MASC grants a range");
        groups.push(g);
    }
    net.converge();
    for (k, &g) in groups.iter().enumerate() {
        for d in [1, 6, 11, 14] {
            net.host_join(host((d + k) % 16, 1), g);
        }
    }
    net.converge();
    for &g in &groups {
        net.send_data(host(2, 7), g);
    }
    net.converge();

    net.fail_link(DomainId(0), DomainId(1));
    net.host_join(host(13, 2), groups[0]);
    net.send_data(host(3, 7), groups[1]);
    net.try_group_addr(DomainId(12));
    net.run_for(SimDuration::from_millis(1));
    let blob = net.checkpoint().expect("checkpoint");
    assert_eq!(
        (blob.len(), fnv1a(&blob)),
        (BLOB_LEN, BLOB_FNV1A),
        "the internet checkpoint's bytes changed"
    );
}
