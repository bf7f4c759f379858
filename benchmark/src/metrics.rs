//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is this table written out (`--manifest` prints it;
//! a test keeps the two equal).

use serde::Value;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Seconds one run measures when the caller does not say
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 5;

/// The seven workloads, in run order, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "masc_hier",
        "paper figure-2 MASC hierarchy on the serial engine: simnet, masc, mcast-addr work; bgp, bgmp, core idle",
    ),
    (
        "masc_shard",
        "same population on 2 shards: windows, barriers, cross-shard mail; a sharding change shows here, not on masc_hier",
    ),
    (
        "bgp_converge",
        "cold BGP group-route flood plus backbone link flaps on 300 domains: the write side of bgp, no MASC or tree state",
    ),
    (
        "group_churn",
        "500 groups x 30 members join, carry data, leave on a converged internet: bgmp, migp, core; bgp read path only",
    ),
    (
        "chaos_ring",
        "ring of 24 under loss, duplication, flaps and a crash: simnet and bgp on the fault path",
    ),
    (
        "plane_sweep",
        "figure-4 tree comparison plus BIER on 3326 domains, no event engine: topology, core::trees, bier only",
    ),
    (
        "snap_cycle",
        "checkpoint, resume, checkpoint of a MASC hierarchy and an internet with live groups: snapshot and every codec impl",
    ),
];

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
pub struct EndToEnd {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// End-to-end metrics, the same on every workload. The fourth number a
/// user sees, `fail_ratio`, is the result line's `failed / attempted`:
/// it must be 0, so it cannot carry a relative bound.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric; the layer is the crate name before the dot.
pub struct Layer {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// A count or simulated statistic of the workload under test: it
    /// repeats exactly for a fixed seed, the plain run prints it too,
    /// and it reads 0 on a workload that does not produce it.
    pub count: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        count: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        count: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        count: true,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, grouped by layer.
pub const PER_LAYER: &[Layer] = &[
    count("simnet.events", "count", Lower),
    count("simnet.delivered", "count", Lower),
    count("simnet.timers", "count", Lower),
    count("simnet.dropped", "count", Lower),
    lower("simnet.ns_per_event", "ns"),
    lower("simnet.bare_ns_per_event", "ns"),
    higher("simnet.protocol_share", "ratio"),
    higher("simnet.shard_speedup", "ratio"),
    higher("simnet.cpu_per_wall", "ratio"),
    count("simnet.fault_draws", "count", Lower),
    count("simnet.crashes", "count", Lower),
    count("masc.utilization", "ratio", Higher),
    count("masc.grib_avg", "count", Lower),
    count("masc.global_prefixes", "count", Lower),
    lower("masc.claim_round_ns", "ns"),
    lower("mcast-addr.claim_candidates_ns", "ns"),
    lower("mcast-addr.insert_remove_ns", "ns"),
    lower("bgp.converge_ms", "ms"),
    lower("bgp.flap_ms", "ms"),
    count("bgp.msgs_converge", "count", Lower),
    count("bgp.msgs_flap", "count", Lower),
    count("bgp.grib_avg", "count", Lower),
    lower("bgp.rib_update_ns", "ns"),
    lower("bgp.rib_withdraw_ns", "ns"),
    lower("bgp.lookup_ns", "ns"),
    lower("core.join_ms", "ms"),
    lower("core.send_ms", "ms"),
    lower("core.leave_ms", "ms"),
    lower("core.join_us_per_event", "us"),
    lower("core.send_us_per_event", "us"),
    count("core.events_per_join", "count", Lower),
    count("bgmp.star_entries", "count", Lower),
    lower("bgmp.groups_scaling", "ratio"),
    lower("bgmp.join_ns", "ns"),
    lower("bgmp.prune_ns", "ns"),
    lower("bgmp.forward_ns", "ns"),
    lower("migp.op_ns", "ns"),
    count("core.deliveries", "count", Higher),
    count("core.duplicates", "count", Lower),
    count("core.encapsulations", "count", Lower),
    count("core.chaos_convergence_ms", "sim_ms", Lower),
    count("core.chaos_delivery_ratio", "ratio", Higher),
    lower("core.verify_ms", "ms"),
    lower("topology.gen_ms", "ms"),
    lower("topology.bfs_us", "us"),
    lower("core.trees_us_per_cell", "us"),
    lower("bier.build_ms", "ms"),
    lower("bier.protect_build_ms", "ms"),
    lower("bier.deliver_us", "us"),
    count("bier.entries", "count", Lower),
    count("bier.link_copies", "count", Lower),
    higher("snapshot.hier_encode_mb_s", "MB/s"),
    higher("snapshot.hier_decode_mb_s", "MB/s"),
    higher("snapshot.inet_encode_mb_s", "MB/s"),
    higher("snapshot.inet_decode_mb_s", "MB/s"),
    higher("snapshot.codec_mb_s", "MB/s"),
    count("snapshot.hier_blob_mb", "MB", Lower),
    count("snapshot.inet_blob_mb", "MB", Lower),
    lower("heap.allocs_per_op", "count"),
    lower("heap.bytes_per_op", "B"),
    lower("heap.live_mb_end", "MB"),
    lower("trace.overhead_pct", "%"),
];

/// Looks a per-layer metric up by name.
pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

/// The `BENCHMARK.json` document this table describes.
pub fn manifest() -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Value::Obj(vec![("name".into(), s(name)), ("why".into(), s(why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better.word())),
                ("bound".into(), Value::F64(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better.word())),
            ])
        })
        .collect();
    Value::Obj(vec![
        (
            "command".into(),
            Value::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Value::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        ("workloads".into(), Value::Arr(workloads)),
        ("end_to_end".into(), Value::Arr(end_to_end)),
        ("per_layer".into(), Value::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u}");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, manifest(), "regenerate with `run.sh --manifest`");
    }
}
