//! FIG4 computation (paper §5.4): tree-quality ratios over a
//! (receiver-count × trial) grid, factored out of the binary so the
//! parallel harness and the determinism regression test share one code
//! path.
//!
//! Every grid cell is an independent task seeded with
//! [`task_seed`]`(seed, cell-index)`, so the result — and hence the
//! emitted CSV/JSON — is byte-identical for any `--threads` value.

use bier::{Plane, SubDomain, DEFAULT_BSL};
use masc_bgmp_core::trees::compare_trees_full;
use metrics::Series;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use topology::{internet_like, DomainGraph, DomainId, InternetSpec};

use crate::par::{run_tasks, task_seed};

/// Inputs of a FIG4 run (`fig4_trees` CLI defaults in brackets).
#[derive(Clone, Copy, Debug)]
pub struct Fig4Params {
    /// Topology size [3326].
    pub domains: usize,
    /// Trials per receiver-count point [10].
    pub trials: usize,
    /// Base seed; cell seeds derive via [`task_seed`] [7].
    pub seed: u64,
    /// Largest receiver set swept [1000].
    pub maxrx: usize,
    /// Harness workers; 1 = serial [1].
    pub threads: usize,
}

/// One receiver-count point: per-protocol average and worst ratios,
/// protocol order `[unidirectional, bidirectional, hybrid]`, plus the
/// architecture ablation — one entry per plane, in [`Plane::ALL`]
/// order. A single trial is a point too; [`run`] folds trials into
/// means (`max` into the worst).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig4Point {
    pub recv: usize,
    pub avg: [f64; 3],
    pub max: [f64; 3],
    pub planes: [PlaneStats; 3],
}

/// One plane's columns at one receiver count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlaneStats {
    /// Per-group control-state entries: routers on the shared tree,
    /// ingress bitstrings, or ingress encapsulations.
    pub state: f64,
    /// For the planes that forward on the source's shortest-path tree:
    /// `(path stretch over SPT, link copies per delivery)`. The stretch
    /// is exactly 1.0; emitted so the CSV states it rather than
    /// implying it. `None` for BGMP, whose paths are the
    /// `bidirectional` columns.
    pub spt: Option<(f64, f64)>,
}

/// Receiver counts swept: the paper's 1..1000 with log-ish spacing.
pub fn receiver_sizes(n: usize, maxrx: usize) -> Vec<usize> {
    [1usize, 2, 5, 10, 20, 50, 100, 200, 350, 500, 700, 850, 1000]
        .into_iter()
        .filter(|s| *s <= maxrx && *s < n)
        .collect()
}

/// Runs the full grid and folds per-point stats in task order.
pub fn run(p: &Fig4Params) -> Vec<Fig4Point> {
    let graph = internet_like(&InternetSpec {
        n: p.domains,
        backbones: 10,
        attach: 2,
        extra_peerings: 30,
        seed: p.seed,
    });
    let all: Vec<DomainId> = graph.domains().collect();
    let sizes = receiver_sizes(p.domains, p.maxrx);

    // One task per (receiver-count, trial) cell, row-major.
    let tasks: Vec<usize> = sizes
        .iter()
        .flat_map(|&k| std::iter::repeat_n(k, p.trials))
        .collect();
    let cells = run_tasks(p.threads, &tasks, |i, &k| {
        trial(&graph, &all, k, task_seed(p.seed, i as u64))
    });

    // Fold trials into points. Task-order merge makes the float
    // summation order independent of scheduling.
    let t = p.trials as f64;
    cells
        .chunks(p.trials)
        .map(|chunk| {
            let mut pt = chunk[0];
            for s in &chunk[1..] {
                for i in 0..3 {
                    pt.avg[i] += s.avg[i];
                    pt.max[i] = pt.max[i].max(s.max[i]);
                    pt.planes[i].state += s.planes[i].state;
                    if let (Some(sum), Some(x)) = (&mut pt.planes[i].spt, s.planes[i].spt) {
                        *sum = (sum.0 + x.0, sum.1 + x.1);
                    }
                }
            }
            pt.avg = pt.avg.map(|v| v / t);
            for pl in &mut pt.planes {
                pl.state /= t;
                pl.spt = pl.spt.map(|(stretch, copies)| (stretch / t, copies / t));
            }
            pt
        })
        .collect()
}

/// One grid cell: sample a scenario from `seed`, compare the trees and
/// the three architectures' state/traffic footprints. The RNG draw
/// order (source, receiver shuffle, RP) is load-bearing: the first six
/// output series are pinned by committed goldens, and every BIER /
/// map-and-encap metric is computed *after* the draws so they stay
/// byte-identical.
fn trial(graph: &DomainGraph, all: &[DomainId], k: usize, seed: u64) -> Fig4Point {
    let mut rng = StdRng::seed_from_u64(seed);
    // Random source; receivers sampled without replacement;
    // root = the initiator's domain (first receiver, §5.1);
    // RP = a hash-random third-party domain (§5.1).
    let source = all[rng.gen_range(0..all.len())];
    let mut pool = all.to_vec();
    pool.retain(|d| *d != source);
    pool.shuffle(&mut rng);
    let receivers: Vec<DomainId> = pool[..k].to_vec();
    let root = receivers[0];
    let rp = all[rng.gen_range(0..all.len())];
    let tc = compare_trees_full(graph, source, &receivers, root, rp);
    let pl = &tc.paths;

    let sub = SubDomain::new(all.len(), DEFAULT_BSL);
    // The stateless planes forward on unicast shortest paths, so their
    // stretch over SPT is 1.0 by construction (the forwarding tests pin
    // hops == BFS distances); `avg_ratio(&pl.spt)` states it from the
    // same code path as the tree ratios.
    let unicast_stretch = pl.avg_ratio(&pl.spt);
    Fig4Point {
        recv: k,
        avg: [
            pl.avg_ratio(&pl.unidirectional),
            pl.avg_ratio(&pl.bidirectional),
            pl.avg_ratio(&pl.hybrid),
        ],
        max: [
            pl.max_ratio(&pl.unidirectional),
            pl.max_ratio(&pl.bidirectional),
            pl.max_ratio(&pl.hybrid),
        ],
        planes: Plane::ALL.map(|plane| PlaneStats {
            state: plane.control_entries(&sub, tc.shared_tree_size, &receivers) as f64,
            spt: plane
                .link_copies(&tc.from_source, &sub, &receivers)
                .map(|copies| (unicast_stretch, copies as f64)),
        }),
    }
}

/// The output series (`fig4_tree_quality`) from the folded points: the
/// paper's six tree-quality columns first (order pinned by goldens),
/// then the architecture ablation, metric-major over [`Plane::ALL`] —
/// state for every plane, stretch and link copies for the stateless
/// ones.
pub fn series(points: &[Fig4Point]) -> Vec<Series> {
    let column = |name: String, y: &dyn Fn(&Fig4Point) -> f64| {
        let mut s = Series::new(name);
        for pt in points {
            s.push(pt.recv as f64, y(pt));
        }
        s
    };
    let mut out = Vec::new();
    for (i, tree) in ["unidirectional", "bidirectional", "hybrid"]
        .iter()
        .enumerate()
    {
        out.push(column(format!("{tree}_avg"), &|pt| pt.avg[i]));
        out.push(column(format!("{tree}_max"), &|pt| pt.max[i]));
    }
    let spt = |pt: &Fig4Point, p: Plane| pt.planes[p as usize].spt.expect("a stateless plane");
    let stateless = || Plane::ALL.into_iter().filter(|p| p.stateless());
    for p in Plane::ALL {
        out.push(column(format!("{}_state_avg", p.name()), &|pt| {
            pt.planes[p as usize].state
        }));
    }
    for p in stateless() {
        out.push(column(format!("{}_stretch_avg", p.name()), &|pt| {
            spt(pt, p).0
        }));
    }
    for p in stateless() {
        out.push(column(format!("{}_link_copies_avg", p.name()), &|pt| {
            spt(pt, p).1
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_runs_are_identical() {
        let base = Fig4Params {
            domains: 120,
            trials: 3,
            seed: 7,
            maxrx: 20,
            threads: 1,
        };
        let serial = run(&base);
        let par = run(&Fig4Params { threads: 4, ..base });
        assert_eq!(serial, par);
        assert_eq!(serial.len(), receiver_sizes(120, 20).len());
    }

    #[test]
    fn ablation_columns_follow_the_architecture_model() {
        let points = run(&Fig4Params {
            domains: 120,
            trials: 3,
            seed: 7,
            maxrx: 20,
            threads: 1,
        });
        let of = |pt: &Fig4Point, plane: Plane| pt.planes[plane as usize];
        for pt in &points {
            for (plane, pl) in Plane::ALL.iter().zip(&pt.planes) {
                // Stateless planes ride unicast shortest paths: stretch
                // is exactly 1.0, not approximately. BGMP has no SPT
                // columns.
                assert_eq!(pl.spt.map(|s| s.0), plane.stateless().then_some(1.0));
            }
            // Map-and-encap ingress state is exactly the receiver count;
            // 120 domains fit one 256-bit set, so BIER holds one entry.
            assert_eq!(of(pt, Plane::MapEncap).state, pt.recv as f64);
            assert_eq!(of(pt, Plane::Bier).state, 1.0);
            // Ingress replication can never use fewer link copies than
            // the shared-subtree forwarding over the same SPT.
            let copies = |plane| of(pt, plane).spt.unwrap().1;
            assert!(
                copies(Plane::MapEncap) >= copies(Plane::Bier),
                "recv={}",
                pt.recv
            );
        }
        // BGMP's shared tree grows with the receiver set while BIER's
        // ingress state stays flat — the ablation's headline.
        let (first, last) = (&points[0], points.last().unwrap());
        assert!(of(last, Plane::Bgmp).state > of(first, Plane::Bgmp).state);
    }

    /// Column names and order are an interface (goldens, plots, the CI
    /// diffs): pin the whole list, so a reorder of the plane list or of
    /// the metric loops cannot pass silently.
    #[test]
    fn series_order_keeps_golden_prefix() {
        let names: Vec<String> = series(&[]).into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "unidirectional_avg",
                "unidirectional_max",
                "bidirectional_avg",
                "bidirectional_max",
                "hybrid_avg",
                "hybrid_max",
                "bgmp_state_avg",
                "bier_state_avg",
                "mapencap_state_avg",
                "bier_stretch_avg",
                "mapencap_stretch_avg",
                "bier_link_copies_avg",
                "mapencap_link_copies_avg",
            ]
        );
    }
}
