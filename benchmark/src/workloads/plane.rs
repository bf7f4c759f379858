//! `plane_sweep`: the figure-4 tree comparison and BIER forwarding on
//! a 3326-domain graph. No event engine runs: `topology`,
//! `core::trees` and `bier` only.

use std::time::Duration;

use bier::{Network, Protection, SubDomain, DEFAULT_BSL};
use masc_bgmp_bench::fig4::{self, receiver_sizes, Fig4Params, Fig4Point};
use rand::Rng;
use topology::{internet_like, DomainGraph, DomainId, InternetSpec};

use super::bgp::rng;
use crate::drive::{Env, Size, Workload};
use crate::probes;

/// See the module docs.
pub struct PlaneSweep {
    seed: u64,
    size: Size,
    first: Option<(Vec<Fig4Point>, u64)>,
}

impl PlaneSweep {
    /// The workload for one seed and size.
    pub fn new(seed: u64, size: Size) -> Self {
        PlaneSweep {
            seed,
            size,
            first: None,
        }
    }

    /// (domains, figure-4 trials per point, BIER sends).
    fn shape(&self) -> (usize, usize, usize) {
        match self.size {
            Size::Full => (3326, 400, 2000),
            Size::Smoke => (1000, 40, 400),
        }
    }

    fn fig4_params(&self) -> Fig4Params {
        let (domains, trials, _) = self.shape();
        Fig4Params {
            domains,
            trials,
            seed: self.seed,
            maxrx: 1000,
            threads: 1,
        }
    }

    fn receivers(&self) -> Vec<DomainId> {
        (0..self.shape().0).step_by(3).map(DomainId).collect()
    }
}

/// The BIER inputs, and what the timed section produced.
pub struct State {
    graph: DomainGraph,
    sub: SubDomain,
    receivers: Vec<DomainId>,
    ingresses: Vec<DomainId>,
    points: Vec<Fig4Point>,
    bier: Option<(Network, Protection)>,
    reached: usize,
    lost: usize,
    link_copies: u64,
}

impl Workload for PlaneSweep {
    type State = State;

    /// Receiver deliveries computed: figure-4 receivers × trials plus
    /// BIER receivers × sends.
    fn ops(&self) -> u64 {
        let (domains, trials, sends) = self.shape();
        let fig4: usize = receiver_sizes(domains, 1000).iter().sum();
        (fig4 * trials + self.receivers().len() * sends) as u64
    }

    fn setup(&mut self, env: &mut Env<'_>) -> State {
        let (domains, _, sends) = self.shape();
        let spec = InternetSpec {
            n: domains,
            ..InternetSpec::paper_fig4(self.seed)
        };
        let (graph, gen) = env
            .tr
            .time("topology.internet_like", || internet_like(&spec));
        env.samples.push("topology.gen_ms", gen.as_secs_f64() * 1e3);
        let mut rng = rng(self.seed, 0xB1E2);
        State {
            graph,
            sub: SubDomain::new(domains, DEFAULT_BSL),
            receivers: self.receivers(),
            ingresses: (0..sends)
                .map(|_| DomainId(rng.gen_range(0..domains)))
                .collect(),
            points: Vec::new(),
            bier: None,
            reached: 0,
            lost: 0,
            link_copies: 0,
        }
    }

    fn timed(&mut self, st: &mut State, env: &mut Env<'_>) -> Duration {
        let p = self.fig4_params();
        let (points, trees) = env.tr.time("core.trees.fig4", || fig4::run(&p));
        let cells = points.len() * p.trials;
        st.points = points;

        let (graph, sub) = (&st.graph, &st.sub);
        let (net, build) = env.tr.time("bier.build", || Network::build(graph, sub));
        let (prot, protect) = env
            .tr
            .time("bier.protect_build", || Protection::build(graph));
        let (receivers, ingresses) = (&st.receivers, &st.ingresses);
        let ((reached, lost, copies), deliver) = env.tr.time("bier.deliver_all", || {
            let (mut reached, mut lost, mut copies) = (0, 0, 0u64);
            for ingress in ingresses {
                let d = net.deliver_all(*ingress, receivers, Some(&prot));
                reached += d.reached.len();
                lost += d.lost.len();
                copies += d.link_copies as u64;
            }
            (reached, lost, copies)
        });
        (st.reached, st.lost, st.link_copies) = (reached, lost, copies);
        let entries = net.total_entries();
        st.bier = Some((net, prot));

        let s = &mut *env.samples;
        s.push(
            "core.trees_us_per_cell",
            trees.as_secs_f64() * 1e6 / cells as f64,
        );
        s.push("bier.build_ms", build.as_secs_f64() * 1e3);
        s.push("bier.protect_build_ms", protect.as_secs_f64() * 1e3);
        s.push(
            "bier.deliver_us",
            deliver.as_secs_f64() * 1e6 / ingresses.len() as f64,
        );
        s.push("bier.entries", entries as f64);
        s.push("bier.link_copies", copies as f64);
        trees + build + protect + deliver
    }

    fn verify(&mut self, st: State, env: &mut Env<'_>) {
        let c = &mut *env.checks;
        let want = st.receivers.len() * st.ingresses.len();
        c.check(st.reached == want && st.lost == 0, || {
            format!(
                "BIER reached {} of {want} receivers, lost {}",
                st.reached, st.lost
            )
        });
        // Counts could hide a wrong receiver: compare the delivered set
        // itself on a few ingresses.
        let (net, prot) = st
            .bier
            .as_ref()
            .expect("timed section built the BIER plane");
        for ingress in st.ingresses.iter().take(8) {
            let mut got: Vec<DomainId> = net
                .deliver_all(*ingress, &st.receivers, Some(prot))
                .reached
                .into_iter()
                .map(|(d, _)| d)
                .collect();
            got.sort();
            c.check(got == st.receivers, || {
                format!("BIER from {ingress:?} delivered a set other than the receivers")
            });
        }
        let first = self
            .first
            .get_or_insert_with(|| (st.points.clone(), st.link_copies));
        c.check(first.0 == st.points && first.1 == st.link_copies, || {
            format!(
                "repetition {} computed different figure-4 points or link copies",
                env.rep
            )
        });

        if env.probe {
            probes::hop_bfs(env, &st.graph);
        }
    }
}
