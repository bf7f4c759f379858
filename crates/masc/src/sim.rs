//! Driving MASC nodes inside the discrete-event simulator, and the
//! figure-2 experiment harness (50 top-level domains × 50 children,
//! 800 days).

use std::collections::BTreeSet;

use mcast_addr::{Prefix, Secs};
use rand::Rng;
use simnet::{Ctx, Engine, Node, NodeId, SimDuration, SimTime};

use crate::config::MascConfig;
use crate::msg::{DomainAsn, MascAction, MascMsg};
use crate::node::MascNode;

/// Messages carried by the simulator between MASC actors.
#[derive(Debug, Clone, snapshot::Snapshot)]
pub enum MascWire {
    /// A protocol message from another domain.
    Proto {
        /// Sending domain.
        from: DomainAsn,
        /// The message.
        msg: MascMsg,
    },
    /// Workload injection: request one block (used by tests that drive
    /// demand externally instead of via [`Workload`]).
    RequestBlock {
        /// Block mask length.
        len: u8,
        /// Lease lifetime in seconds.
        lifetime: Secs,
    },
}

/// Self-scheduling block-request workload (§4.3.3 simulation: "each
/// child domain's allocation server requests blocks of 256 addresses
/// with a lifetime of 30 days ... inter-request times chosen uniformly
/// at random between 1 and 95 hours").
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Block size as a mask length (/24 = 256 addresses).
    pub block_len: u8,
    /// Block lease lifetime.
    pub block_lifetime: Secs,
    /// Minimum inter-request gap.
    pub min_gap: Secs,
    /// Maximum inter-request gap.
    pub max_gap: Secs,
}

impl Workload {
    /// The paper's figure-2 workload.
    pub fn paper_fig2() -> Self {
        Workload {
            block_len: 24,
            block_lifetime: 30 * 86_400,
            min_gap: 3_600,
            max_gap: 95 * 3_600,
        }
    }
}

const WORKLOAD_TIMER: u64 = u64::MAX;

/// Running counters kept by a [`MascActor`] for analysis.
#[derive(Debug, Clone, Copy, Default, snapshot::Snapshot)]
pub struct ActorStats {
    /// Blocks currently leased (addresses).
    pub leased_addrs: u64,
    /// Blocks obtained in total.
    pub blocks_obtained: u64,
    /// Block requests still unsatisfied.
    pub blocks_pending: u64,
    /// Blocks lost to range expiry before their lease ended.
    pub blocks_lost: u64,
}

/// A simulator node hosting one domain's [`MascNode`].
pub struct MascActor {
    /// The protocol engine.
    pub node: MascNode,
    /// Optional self-scheduling workload.
    pub workload: Option<Workload>,
    /// Counters.
    pub stats: ActorStats,
    /// Deadlines already scheduled as timers (dedupe).
    scheduled: BTreeSet<Secs>,
    /// Bootstrap ranges applied at start (top-level domains).
    bootstrap: Vec<(Prefix, Secs)>,
}

impl MascActor {
    /// Creates an actor around a node. `bootstrap` is non-empty only
    /// for top-level domains.
    pub fn new(node: MascNode, workload: Option<Workload>, bootstrap: Vec<(Prefix, Secs)>) -> Self {
        MascActor {
            node,
            workload,
            stats: ActorStats::default(),
            scheduled: BTreeSet::new(),
            bootstrap,
        }
    }

    /// Maps a domain ASN to the simulator node id. The figure-2 style
    /// harness registers actor for ASN `a` at node index `a - 1`.
    fn node_of(asn: DomainAsn) -> NodeId {
        NodeId(asn as usize - 1)
    }

    fn apply_actions(&mut self, ctx: &mut Ctx<'_, MascWire>, actions: Vec<MascAction>) {
        let me = self.node.domain();
        for a in actions {
            match a {
                MascAction::Send { to, msg } => {
                    ctx.send(Self::node_of(to), MascWire::Proto { from: me, msg });
                }
                MascAction::RangeGranted { .. } | MascAction::RangeLost { .. } => {
                    // G-RIB accounting reads node state directly; the
                    // integrated architecture (crate `masc-bgmp-core`)
                    // wires these into BGP originations.
                }
                MascAction::BlockReady { block, .. } => {
                    self.stats.blocks_obtained += 1;
                    self.stats.blocks_pending = self.stats.blocks_pending.saturating_sub(1);
                    self.stats.leased_addrs += block.size();
                }
                MascAction::BlockExpired { block } => {
                    self.stats.leased_addrs = self.stats.leased_addrs.saturating_sub(block.size());
                }
                MascAction::ClaimFailed { .. } => {}
            }
        }
    }

    /// Runs due work and (re-)arms the deadline timer. The deadline is
    /// probed once per iteration (it is the hottest per-event call):
    /// a future deadline arms the timer and exits in the same breath.
    fn pump(&mut self, ctx: &mut Ctx<'_, MascWire>) {
        let now = ctx.now().as_secs();
        let mut guard = 0;
        loop {
            let Some(d) = self.node.next_deadline() else {
                return;
            };
            if d > now {
                self.schedule_at(ctx, d.max(now + 1));
                return;
            }
            guard += 1;
            if guard > 64 {
                debug_assert!(false, "masc deadline livelock at {now}");
                return;
            }
            let actions = self.node.on_tick(now);
            if actions.is_empty() {
                if self.node.next_deadline().is_some_and(|d| d <= now) {
                    // Deadline did not advance and nothing happened:
                    // the engine considers the work not yet actionable;
                    // check again next second.
                    self.schedule_at(ctx, now + 1);
                    return;
                }
                continue;
            }
            self.apply_actions(ctx, actions);
        }
    }

    fn schedule_at(&mut self, ctx: &mut Ctx<'_, MascWire>, at_secs: Secs) {
        if self.scheduled.insert(at_secs) {
            let now_ms = ctx.now().as_millis();
            let at_ms = at_secs * 1000;
            let delay = SimDuration::from_millis(at_ms.saturating_sub(now_ms).max(1));
            ctx.set_timer(delay, at_secs);
        }
    }

    fn do_request(&mut self, ctx: &mut Ctx<'_, MascWire>, len: u8, lifetime: Secs) {
        let now = ctx.now().as_secs();
        let mut actions = Vec::new();
        let outcome = self.node.request_block(now, len, lifetime, &mut actions);
        match outcome {
            crate::node::BlockOutcome::Ready { block, .. } => {
                self.stats.blocks_obtained += 1;
                self.stats.leased_addrs += block.size();
            }
            crate::node::BlockOutcome::Queued { .. } => {
                self.stats.blocks_pending += 1;
            }
        }
        self.apply_actions(ctx, actions);
        self.pump(ctx);
    }
}

impl Node<MascWire> for MascActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, MascWire>) {
        if !self.bootstrap.is_empty() {
            let ranges = self.bootstrap.clone();
            self.node.bootstrap_ranges(&ranges);
            // §4.4: top-level providers claim a small amount of space
            // at startup, growing as children issue claims.
            let mut actions = Vec::new();
            self.node
                .start_expansion(ctx.now().as_secs(), 1, &mut actions);
            self.apply_actions(ctx, actions);
        }
        if let Some(w) = self.workload {
            let gap = ctx.rng().gen_range(w.min_gap..=w.max_gap);
            ctx.set_timer(SimDuration::from_secs(gap), WORKLOAD_TIMER);
        }
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, MascWire>, _from: NodeId, msg: MascWire) {
        match msg {
            MascWire::Proto { from, msg } => {
                let now = ctx.now().as_secs();
                let actions = self.node.on_message(now, from, msg);
                self.apply_actions(ctx, actions);
                self.pump(ctx);
            }
            MascWire::RequestBlock { len, lifetime } => {
                self.do_request(ctx, len, lifetime);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, MascWire>, key: u64) {
        if key == WORKLOAD_TIMER {
            if let Some(w) = self.workload {
                self.do_request(ctx, w.block_len, w.block_lifetime);
                let gap = ctx.rng().gen_range(w.min_gap..=w.max_gap);
                ctx.set_timer(SimDuration::from_secs(gap), WORKLOAD_TIMER);
            }
            return;
        }
        self.scheduled.remove(&key);
        self.pump(ctx);
    }
}

/// Parameters of a hierarchy simulation (figure 2 defaults).
#[derive(Debug, Clone)]
pub struct HierarchySimParams {
    /// Top-level domain count.
    pub top_level: usize,
    /// Children per top-level domain.
    pub children_per: usize,
    /// Per-child workload.
    pub workload: Workload,
    /// Protocol configuration.
    pub config: MascConfig,
    /// RNG seed.
    pub seed: u64,
}

impl HierarchySimParams {
    /// The paper's figure-2 setup.
    pub fn paper_fig2(seed: u64) -> Self {
        HierarchySimParams {
            top_level: 50,
            children_per: 50,
            workload: Workload::paper_fig2(),
            config: MascConfig::default(),
            seed,
        }
    }
}

/// Per-sample metrics captured from a running hierarchy simulation.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyMetrics {
    /// Simulated day.
    pub day: f64,
    /// Addresses leased to clients.
    pub leased: u64,
    /// Addresses claimed from 224/4 by top-level domains.
    pub claimed_top: u64,
    /// Utilization = leased / claimed (paper's definition).
    pub utilization: f64,
    /// Average G-RIB size across all domains.
    pub grib_avg: f64,
    /// Maximum G-RIB size across all domains.
    pub grib_max: usize,
    /// Globally advertised (top-level) prefix count.
    pub global_prefixes: usize,
    /// Outstanding (queued) block requests.
    pub pending: u64,
}

/// A running two-level MASC hierarchy simulation.
pub struct HierarchySim {
    /// The event engine.
    pub engine: Engine<MascWire>,
    /// Node ids of top-level domains (ASN = index + 1).
    pub tops: Vec<NodeId>,
    /// Node ids of child domains.
    pub children: Vec<NodeId>,
    params: HierarchySimParams,
}

impl HierarchySim {
    /// Builds the hierarchy: ASNs 1..=T are top-level;
    /// children of top `t` are `T + (t-1)*C + 1 ..= T + t*C`.
    /// Node id = ASN - 1.
    pub fn new(params: HierarchySimParams) -> Self {
        let t = params.top_level;
        let c = params.children_per;
        let mut engine: Engine<MascWire> = Engine::new(params.seed, SimDuration::from_millis(50));
        let top_asns: Vec<DomainAsn> = (1..=t as u32).collect();
        let mut tops = Vec::new();
        let mut children = Vec::new();
        for &asn in &top_asns {
            let kids: Vec<DomainAsn> = (0..c as u32)
                .map(|j| t as u32 + (asn - 1) * c as u32 + j + 1)
                .collect();
            let siblings: Vec<DomainAsn> = top_asns.iter().copied().filter(|s| *s != asn).collect();
            let node = MascNode::new(
                asn,
                None,
                kids,
                siblings,
                params.config.clone(),
                params.seed,
            );
            let bootstrap = vec![(Prefix::MULTICAST, Secs::MAX)];
            let id = engine.add_node(Box::new(MascActor::new(node, None, bootstrap)));
            tops.push(id);
        }
        for &asn in &top_asns {
            for j in 0..c as u32 {
                let child_asn = t as u32 + (asn - 1) * c as u32 + j + 1;
                let siblings: Vec<DomainAsn> = (0..c as u32)
                    .filter(|k| *k != j)
                    .map(|k| t as u32 + (asn - 1) * c as u32 + k + 1)
                    .collect();
                let node = MascNode::new(
                    child_asn,
                    Some(asn),
                    Vec::new(),
                    siblings,
                    params.config.clone(),
                    params.seed,
                );
                let id = engine.add_node(Box::new(MascActor::new(
                    node,
                    Some(params.workload),
                    Vec::new(),
                )));
                children.push(id);
            }
        }
        HierarchySim {
            engine,
            tops,
            children,
            params,
        }
    }

    // Inert: exists only for `benchmark/` (read-only) and goes with its `masc_shard`.
    #[doc(hidden)]
    pub fn new_sharded(params: HierarchySimParams, _shards: usize) -> Self {
        Self::new(params)
    }

    /// Advances the simulation to the given day.
    pub fn run_to_day(&mut self, day: u64) {
        self.engine
            .run_until(SimTime::ZERO + SimDuration::from_days(day));
    }

    /// Captures the paper's figure-2 metrics at the current instant.
    pub fn sample(&self) -> HierarchyMetrics {
        let mut leased = 0u64;
        let mut claimed_top = 0u64;
        let mut pending = 0u64;
        let mut global_prefixes = 0usize;
        for &id in &self.tops {
            let a = self.engine.node_as::<MascActor>(id).expect("actor");
            claimed_top += a
                .node
                .granted_ranges()
                .iter()
                .map(|(p, _)| p.size())
                .sum::<u64>();
            global_prefixes += a.node.advertised_prefixes().len();
            leased += a.stats.leased_addrs;
            pending += a.node.pending_requests() as u64;
        }
        for &id in &self.children {
            let a = self.engine.node_as::<MascActor>(id).expect("actor");
            leased += a.stats.leased_addrs;
            pending += a.node.pending_requests() as u64;
        }
        // G-RIB accounting per the paper: at a top-level domain it is
        // the globally advertised prefixes plus its children's
        // prefixes; at a child it is the global prefixes plus the
        // prefixes claimed by its siblings (plus its own).
        let mut sizes: Vec<usize> = Vec::with_capacity(self.tops.len() + self.children.len());
        for &id in &self.tops {
            let a = self.engine.node_as::<MascActor>(id).expect("actor");
            sizes.push(global_prefixes + a.node.child_claim_count());
        }
        for &id in &self.children {
            let a = self.engine.node_as::<MascActor>(id).expect("actor");
            sizes.push(
                global_prefixes
                    + a.node.known_sibling_claims()
                    + a.node.advertised_prefixes().len(),
            );
        }
        let grib_max = sizes.iter().copied().max().unwrap_or(0);
        let grib_avg = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        };
        HierarchyMetrics {
            day: self.engine.now().as_days_f64(),
            leased,
            claimed_top,
            utilization: if claimed_top == 0 {
                0.0
            } else {
                leased as f64 / claimed_top as f64
            },
            grib_avg,
            grib_max,
            global_prefixes,
            pending,
        }
    }

    /// The simulation parameters.
    pub fn params(&self) -> &HierarchySimParams {
        &self.params
    }

    /// Serializes the whole simulation — parameters plus full engine
    /// state — so a later process can [`HierarchySim::resume`] it and
    /// produce byte-identical results to an uninterrupted run.
    pub fn checkpoint(&self) -> Result<Vec<u8>, snapshot::SnapError> {
        use snapshot::Snapshot;
        let mut enc = snapshot::Enc::with_header(SNAP_KIND_HIERARCHY);
        enc.usize(self.params.top_level);
        enc.usize(self.params.children_per);
        self.params.workload.encode(&mut enc);
        self.params.config.encode(&mut enc);
        enc.u64(self.params.seed);
        enc.frame(|enc| self.engine.checkpoint_into::<MascActor>(enc))?;
        Ok(enc.finish())
    }

    /// Rebuilds a simulation from [`HierarchySim::checkpoint`] bytes:
    /// reconstructs the hierarchy from the encoded parameters, then
    /// restores every actor and the engine's clock, queue and RNG
    /// streams.
    pub fn resume(bytes: &[u8]) -> Result<Self, snapshot::SnapError> {
        use snapshot::Snapshot;
        let mut dec = snapshot::Dec::new(bytes);
        dec.header(SNAP_KIND_HIERARCHY)?;
        let params = HierarchySimParams {
            top_level: dec.usize()?,
            children_per: dec.usize()?,
            workload: Workload::decode(&mut dec)?,
            config: MascConfig::decode(&mut dec)?,
            seed: dec.u64()?,
        };
        let engine_blob = dec.bytes()?;
        dec.finish()?;
        let mut sim = HierarchySim::new(params);
        sim.engine.resume::<MascActor>(engine_blob)?;
        Ok(sim)
    }
}

/// Snapshot kind tag for [`HierarchySim::checkpoint`] blobs.
pub const SNAP_KIND_HIERARCHY: u16 = 2;

impl snapshot::Snapshot for Workload {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self {
            block_len,
            block_lifetime,
            min_gap,
            max_gap,
        } = self;
        enc.u8(*block_len);
        enc.u64(*block_lifetime);
        enc.u64(*min_gap);
        enc.u64(*max_gap);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        let w = Workload {
            block_len: dec.u8()?,
            block_lifetime: dec.u64()?,
            min_gap: dec.u64()?,
            max_gap: dec.u64()?,
        };
        if w.min_gap > w.max_gap {
            return Err(snapshot::SnapError::Invalid("workload gap range"));
        }
        Ok(w)
    }
}

impl snapshot::SnapshotState for MascActor {
    /// The protocol node, counters, and scheduled-deadline dedupe set.
    /// `workload` and `bootstrap` are construction-time configuration:
    /// the rebuilt actor already carries them, and `on_start` (which
    /// consumes `bootstrap`) is not replayed on resume.
    fn encode_state(&self, enc: &mut snapshot::Enc) {
        use snapshot::Snapshot;
        let Self {
            node,
            stats,
            scheduled,
            // scenario config; stays with the rebuilt instance
            workload: _,
            bootstrap: _,
        } = self;
        node.encode_state(enc);
        stats.encode(enc);
        scheduled.encode(enc);
    }

    fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), snapshot::SnapError> {
        use snapshot::Snapshot;
        let Self {
            node,
            stats,
            scheduled,
            // scenario config; stays with the rebuilt instance
            workload: _,
            bootstrap: _,
        } = self;
        node.restore_state(dec)?;
        *stats = ActorStats::decode(dec)?;
        *scheduled = Snapshot::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature hierarchy (3 tops × 3 children) with fast timers,
    /// run for a few simulated days: claims must be granted, blocks
    /// leased, and no two domains may hold overlapping granted ranges.
    #[test]
    fn mini_hierarchy_allocates_disjoint_ranges() {
        let params = HierarchySimParams {
            top_level: 3,
            children_per: 3,
            workload: Workload {
                block_len: 28, // 16-address blocks
                block_lifetime: 2 * 86_400,
                min_gap: 3_600,
                max_gap: 10 * 3_600,
            },
            config: MascConfig {
                wait_period: 3_600, // 1 h wait for fast convergence
                range_lifetime: 5 * 86_400,
                renew_margin: 86_400,
                claim_retry_backoff: 1_800,
                min_claim_len: 28,
                ..MascConfig::default()
            },
            seed: 11,
        };
        let mut sim = HierarchySim::new(params);
        sim.run_to_day(6);
        let m = sim.sample();
        assert!(m.claimed_top > 0, "top-level domains must claim space");
        assert!(m.leased > 0, "blocks must be leased: {m:?}");
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);

        // Granted ranges across ALL domains must be pairwise disjoint.
        let mut all: Vec<(DomainAsn, Prefix)> = Vec::new();
        for id in sim.tops.iter().chain(sim.children.iter()) {
            let a = sim.engine.node_as::<MascActor>(*id).unwrap();
            for (p, _) in a.node.granted_ranges() {
                all.push((a.node.domain(), p));
            }
        }
        for (i, (da, pa)) in all.iter().enumerate() {
            for (db, pb) in all.iter().skip(i + 1) {
                // A child's range nests inside its parent's range —
                // that is the hierarchy working. Overlap between
                // unrelated domains is a correctness failure.
                let related = is_ancestor(*da, *db, 3, 3) || is_ancestor(*db, *da, 3, 3);
                if !related {
                    assert!(
                        !pa.overlaps(pb),
                        "domains {da} and {db} hold overlapping ranges {pa} / {pb}"
                    );
                }
            }
        }
    }

    fn is_ancestor(parent: DomainAsn, child: DomainAsn, tops: u32, per: u32) -> bool {
        if parent <= tops && child > tops {
            let owner = (child - tops - 1) / per + 1;
            owner == parent
        } else {
            false
        }
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_hierarchy() {
        let params = HierarchySimParams {
            top_level: 2,
            children_per: 3,
            workload: Workload {
                block_len: 28,
                block_lifetime: 86_400,
                min_gap: 3_600,
                max_gap: 7_200,
            },
            config: MascConfig {
                wait_period: 1_800,
                range_lifetime: 3 * 86_400,
                renew_margin: 43_200,
                claim_retry_backoff: 900,
                min_claim_len: 28,
                ..MascConfig::default()
            },
            seed: 23,
        };

        let mut monolithic = HierarchySim::new(params.clone());
        monolithic.run_to_day(5);

        let mut first = HierarchySim::new(params);
        first.run_to_day(2);
        let blob = first.checkpoint().expect("checkpoint");
        drop(first); // the original process "dies" here
        let mut resumed = HierarchySim::resume(&blob).expect("resume");
        resumed.run_to_day(5);

        let (a, b) = (monolithic.sample(), resumed.sample());
        assert_eq!(a.leased, b.leased);
        assert_eq!(a.claimed_top, b.claimed_top);
        assert_eq!(a.grib_max, b.grib_max);
        assert_eq!(a.global_prefixes, b.global_prefixes);
        assert_eq!(a.pending, b.pending);
        assert_eq!(
            monolithic.engine.stats().events,
            resumed.engine.stats().events
        );
        assert_eq!(monolithic.engine.now(), resumed.engine.now());
        assert!(a.leased > 0, "workload must have produced leases");
    }

    #[test]
    fn deterministic_across_runs() {
        let params = |seed| HierarchySimParams {
            top_level: 2,
            children_per: 2,
            workload: Workload {
                block_len: 28,
                block_lifetime: 86_400,
                min_gap: 3_600,
                max_gap: 7_200,
            },
            config: MascConfig {
                wait_period: 1_800,
                range_lifetime: 3 * 86_400,
                renew_margin: 43_200,
                claim_retry_backoff: 900,
                min_claim_len: 28,
                ..MascConfig::default()
            },
            seed,
        };
        let run = |seed| {
            let mut sim = HierarchySim::new(params(seed));
            sim.run_to_day(3);
            let m = sim.sample();
            (
                m.leased,
                m.claimed_top,
                m.grib_max,
                sim.engine.stats().events,
            )
        };
        assert_eq!(run(5), run(5));
    }
}
