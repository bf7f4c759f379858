//! Building a runnable simulated internet from a domain graph.
//!
//! The builder instantiates one [`DomainActor`] per domain, creates
//! border routers (one per inter-domain edge, like the paper's figure-1
//! domain A with routers A1–A4, or a single router per domain for
//! larger graphs), wires eBGP/iBGP peerings and BGMP peerings along
//! them, assigns multicast ranges (statically, or via live MASC), and
//! exposes group-session orchestration plus delivery accounting.
//!
//! Full-protocol internets are meant for small and medium topologies
//! (tests, the paper's figure-1/figure-3 scenarios, examples, and the
//! analytic-vs-protocol cross-validation). The 3326-domain figure-4
//! sweep uses `trees` — same next-hop logic, no per-message cost.

use std::collections::BTreeMap;

use bgmp::BgmpRouter;
use bgp::session::SessionTimers;
use bgp::{Asn, BgpSpeaker, ExportPolicy, PeerConfig, PeerRel, RouterId};
use masc::{MascConfig, MascNode};
use mcast_addr::{McastAddr, Prefix, Secs};
use migp::{DomainNet, MigpKind};
use simnet::{Engine, NodeId, SimDuration, SimTime};
use topology::{DomainGraph, DomainId, MascHierarchy, Rel};

use crate::domain::{BorderRouter, DomainActor, HostId, Wire};

/// How group address ranges are assigned to domains.
#[derive(Debug, Clone)]
pub enum Addressing {
    /// Every domain gets an equal static carve of 224/4 (suits
    /// BGMP-focused experiments; the root-domain binding is what
    /// matters, not how it was claimed).
    Static,
    /// Hierarchical static assignment: top-level domains split 224/4,
    /// children take nested sub-prefixes of their MASC parent's range
    /// — the allocation pattern a converged MASC produces (§4.3.2),
    /// used by the aggregation ablation.
    StaticNested,
    /// Run the MASC protocol live over the same simulation.
    Masc(MascConfig),
    /// No multicast ranges (BGP-only experiments).
    None,
}

/// How many border routers a domain gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BorderPlan {
    /// One border router per inter-domain edge (paper figure-1 style).
    PerEdge,
    /// A single border router handling all of the domain's peerings
    /// (scales to larger graphs).
    Single,
}

/// Configuration for [`Internet::build`].
#[derive(Debug, Clone)]
pub struct InternetConfig {
    /// BGP export policy.
    pub policy: ExportPolicy,
    /// Intra-domain protocol for every domain (heterogeneous setups
    /// can swap instances after building).
    pub migp: MigpKind,
    /// Border-router plan.
    pub borders: BorderPlan,
    /// Address assignment.
    pub addressing: Addressing,
    /// One-way inter-domain link latency (ms).
    pub link_latency_ms: u64,
    /// Suppress exporting covered customer group routes (§4.2); the
    /// aggregation ablation turns this off.
    pub aggregate_suppress: bool,
    /// Session liveness (keepalive/hold/retry) on every external
    /// peering. `None` (the default) disables the machinery entirely:
    /// failures must then be signalled with explicit
    /// [`Internet::fail_link`]/[`Internet::heal_link`] calls. Enable
    /// it to let the protocol *detect* silent failures — lossy links,
    /// un-signalled cuts ([`Internet::cut_link`]) and node crashes
    /// ([`Internet::schedule_crash`]) — by hold-timer expiry.
    pub sessions: Option<SessionTimers>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            policy: ExportPolicy::Open,
            migp: MigpKind::Dvmrp,
            borders: BorderPlan::PerEdge,
            addressing: Addressing::Static,
            link_latency_ms: 10,
            aggregate_suppress: true,
            sessions: None,
            seed: 1,
        }
    }
}

/// A running simulated internet.
pub struct Internet {
    /// The event engine.
    pub engine: Engine<Wire>,
    /// The domain graph it was built from.
    pub graph: DomainGraph,
    /// Simulator node of each domain (indexed by `DomainId.0`).
    pub nodes: Vec<NodeId>,
    /// Static range of each domain (when static addressing is used).
    pub static_ranges: Vec<Option<Prefix>>,
    next_packet: u64,
}

/// The ASN of a domain: `DomainId.0 + 1` (ASN 0 is reserved).
pub fn asn_of(d: DomainId) -> Asn {
    d.0 as Asn + 1
}

/// The domain of an ASN.
pub fn domain_of(asn: Asn) -> DomainId {
    DomainId(asn as usize - 1)
}

/// Hierarchical (nested) static ranges: top-level domains split 224/4
/// evenly; each child takes an equal sub-slice of its MASC parent's
/// range. This mirrors the aggregatable allocations MASC converges to
/// (§4.3.2).
fn nested_ranges(graph: &DomainGraph) -> Vec<Option<Prefix>> {
    let h = MascHierarchy::derive(graph);
    let mut ranges: Vec<Option<Prefix>> = vec![None; graph.len()];
    // Top level: split 224/4 among the top-level domains.
    let tops = &h.top_level;
    let bits = (usize::BITS - (tops.len().max(1) - 1).leading_zeros()).max(1) as u8;
    let mut it = Prefix::MULTICAST.subprefixes(4 + bits);
    for t in tops {
        ranges[t.0] = it.next();
    }
    // Descend: each domain reserves the first half of its range for
    // itself and splits the second half among its children, keeping
    // every child range nested (and therefore aggregatable) inside the
    // parent's.
    for d in h.top_down() {
        let Some(range) = ranges[d.0] else { continue };
        let kids = h.children_of(d);
        if kids.is_empty() {
            continue;
        }
        let Some((_, child_half)) = range.split() else {
            continue;
        };
        let kbits = (usize::BITS - (kids.len().max(1) - 1).leading_zeros()).max(1) as u8;
        let klen = child_half.len() + kbits;
        if klen > 30 {
            continue; // too deep; children fall back to no range
        }
        let mut kit = child_half.subprefixes(klen);
        for k in kids {
            ranges[k.0] = kit.next();
        }
    }
    ranges
}

/// The construction half of [`Internet::build`]: router-id plan,
/// static ranges, one wired [`DomainActor`] per domain (indexed by
/// `DomainId.0`) and each domain's static range. The wiring addresses
/// domain `d` as `NodeId(d.0)`, so a host registers the actors in
/// order into a fresh engine — or registers one of them there and
/// stands in for the rest, as the TCP border-router shell does.
pub fn domain_actors(
    graph: &DomainGraph,
    cfg: &InternetConfig,
) -> (Vec<DomainActor>, Vec<Option<Prefix>>) {
    let n = graph.len();
    // ---- Router id plan ----------------------------------------
    // Per domain: list of (router id, peer domain(s)).
    let mut next_router: RouterId = 1;
    // (domain, neighbor) -> router id handling that edge.
    let mut edge_router: BTreeMap<(usize, usize), RouterId> = BTreeMap::new();
    let mut routers_of: Vec<Vec<RouterId>> = vec![Vec::new(); n];
    for d in graph.domains() {
        match cfg.borders {
            BorderPlan::PerEdge => {
                for &(nb, _) in graph.neighbors(d) {
                    let id = next_router;
                    next_router += 1;
                    edge_router.insert((d.0, nb.0), id);
                    routers_of[d.0].push(id);
                }
                if graph.neighbors(d).is_empty() {
                    let id = next_router;
                    next_router += 1;
                    routers_of[d.0].push(id);
                }
            }
            BorderPlan::Single => {
                let id = next_router;
                next_router += 1;
                for &(nb, _) in graph.neighbors(d) {
                    edge_router.insert((d.0, nb.0), id);
                }
                routers_of[d.0].push(id);
            }
        }
    }

    // ---- Static ranges ------------------------------------------
    let static_ranges: Vec<Option<Prefix>> = match cfg.addressing {
        Addressing::Static => {
            let bits = (usize::BITS - (n.max(1) - 1).leading_zeros()).max(1) as u8;
            let len = 4 + bits;
            assert!(len <= 24, "too many domains for static /{len} carving");
            let mut it = Prefix::MULTICAST.subprefixes(len);
            (0..n).map(|_| it.next()).collect()
        }
        Addressing::StaticNested => nested_ranges(graph),
        _ => vec![None; n],
    };

    // ---- MASC hierarchy -----------------------------------------
    let masc_cfg = match &cfg.addressing {
        Addressing::Masc(mc) => Some(mc.clone()),
        _ => None,
    };
    let hierarchy = masc_cfg.as_ref().map(|_| MascHierarchy::derive(graph));

    // ---- Actors --------------------------------------------------
    let mut actors = Vec::with_capacity(n);
    for d in graph.domains() {
        let borders = routers_of[d.0].len();
        let net = if borders <= 1 {
            DomainNet::star(2, 1)
        } else {
            DomainNet::random(borders + 2, borders, 2, cfg.seed ^ d.0 as u64)
        };
        let mut actor = DomainActor::new(asn_of(d), cfg.migp.build(net.clone()));
        actor.static_range = static_ranges[d.0];
        actor.session_timers = cfg.sessions;

        // Border routers with their peer configs.
        for (i, &rid) in routers_of[d.0].iter().enumerate() {
            let mut peers: Vec<PeerConfig> = routers_of[d.0]
                .iter()
                .filter(|r| **r != rid)
                .map(|r| PeerConfig {
                    router: *r,
                    asn: asn_of(d),
                    rel: PeerRel::Internal,
                })
                .collect();
            // External peers handled by this router.
            for &(nb, rel) in graph.neighbors(d) {
                let handles_edge = edge_router[&(d.0, nb.0)] == rid;
                if handles_edge {
                    let peer_router = edge_router[&(nb.0, d.0)];
                    let peer_rel = match rel {
                        Rel::Provider => PeerRel::Provider,
                        Rel::Customer => PeerRel::Customer,
                        Rel::Peer => PeerRel::Peer,
                    };
                    peers.push(PeerConfig {
                        router: peer_router,
                        asn: asn_of(nb),
                        rel: peer_rel,
                    });
                }
            }
            let mut speaker = BgpSpeaker::new(rid, asn_of(d), peers, cfg.policy);
            speaker.aggregate_suppress = cfg.aggregate_suppress;
            actor.add_router(BorderRouter {
                id: rid,
                local: net.border_routers()[i.min(net.border_routers().len() - 1)],
                speaker,
                bgmp: BgmpRouter::new(rid),
            });
        }

        // MASC node.
        if let (Some(mc), Some(h)) = (&masc_cfg, &hierarchy) {
            let parent = h.parent_of(d).map(asn_of);
            let children: Vec<Asn> = h.children_of(d).iter().map(|c| asn_of(*c)).collect();
            let siblings: Vec<Asn> = h.siblings_of(d).iter().map(|s| asn_of(*s)).collect();
            let mut node =
                MascNode::new(asn_of(d), parent, children, siblings, mc.clone(), cfg.seed);
            if parent.is_none() {
                node.bootstrap_ranges(&[(Prefix::MULTICAST, Secs::MAX)]);
            }
            actor.masc = Some(node);
        }

        actors.push(actor);
    }

    // ---- Wire address maps ---------------------------------------
    // Domain `d` runs as simulator node `d`.
    let domain_node: BTreeMap<Asn, NodeId> =
        graph.domains().map(|d| (asn_of(d), NodeId(d.0))).collect();
    for (d, actor) in graph.domains().zip(&mut actors) {
        let peer_node = graph
            .neighbors(d)
            .iter()
            .map(|&(nb, _)| (edge_router[&(nb.0, d.0)], NodeId(nb.0)))
            .collect();
        actor.wire(peer_node, domain_node.clone());
    }
    (actors, static_ranges)
}

impl Internet {
    /// Builds the internet; call [`Internet::converge`] afterwards to
    /// let BGP settle.
    pub fn build(graph: DomainGraph, cfg: &InternetConfig) -> Internet {
        let (actors, static_ranges) = domain_actors(&graph, cfg);
        let mut engine: Engine<Wire> =
            Engine::new(cfg.seed, SimDuration::from_millis(cfg.link_latency_ms));
        let nodes = actors
            .into_iter()
            .map(|actor| engine.add_node(Box::new(actor)))
            .collect();
        Internet {
            engine,
            graph,
            nodes,
            static_ranges,
            next_packet: 0,
        }
    }

    /// Runs the simulation until protocol chatter has settled: all
    /// events within the next 30 simulated minutes are processed
    /// (control-plane convergence takes milliseconds of simulated
    /// time; the horizon keeps long-lived MASC renewal timers — which
    /// never go idle — from stalling the call).
    pub fn converge(&mut self) {
        let until = self.engine.now() + SimDuration::from_mins(30);
        self.engine.run_until(until);
    }

    /// Advances simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.engine.now() + d;
        self.engine.run_until(until);
    }

    /// Immutable access to a domain's actor.
    pub fn domain(&self, d: DomainId) -> &DomainActor {
        self.engine
            .node_as::<DomainActor>(self.nodes[d.0])
            .expect("actor type")
    }

    /// Mutable access to a domain's actor (setup only; in-flight
    /// messages are unaffected).
    pub fn domain_mut(&mut self, d: DomainId) -> &mut DomainActor {
        self.engine
            .node_as_mut::<DomainActor>(self.nodes[d.0])
            .expect("actor type")
    }

    fn soon(&self) -> SimTime {
        self.engine.now() + SimDuration::from_millis(1)
    }

    /// Finds the border routers handling the edge between two adjacent
    /// domains.
    fn edge_routers(&self, a: DomainId, b: DomainId) -> Option<(RouterId, RouterId)> {
        let ra = self
            .domain(a)
            .routers
            .iter()
            .find(|br| br.speaker.peers().any(|p| p.asn == asn_of(b)))?
            .id;
        let rb = self
            .domain(b)
            .routers
            .iter()
            .find(|br| br.speaker.peers().any(|p| p.asn == asn_of(a)))?
            .id;
        Some((ra, rb))
    }

    /// Fails the inter-domain link between two adjacent domains: the
    /// simulated link drops traffic, both BGP sessions flush (routes
    /// fail over where alternates exist), and BGMP reroutes affected
    /// tree state along the post-failover routes.
    pub fn fail_link(&mut self, a: DomainId, b: DomainId) {
        let (ra, rb) = self.edge_routers(a, b).expect("adjacent domains");
        let na = self.nodes[a.0];
        let nb = self.nodes[b.0];
        self.engine.links_mut().set_down(na, nb);
        let at = self.soon();
        self.engine.schedule_message(
            at,
            na,
            Wire::PeerLinkDown {
                router: ra,
                peer: rb,
            },
        );
        self.engine.schedule_message(
            at,
            nb,
            Wire::PeerLinkDown {
                router: rb,
                peer: ra,
            },
        );
    }

    /// Heals a previously failed link: sessions re-establish and full
    /// tables resync.
    pub fn heal_link(&mut self, a: DomainId, b: DomainId) {
        let (ra, rb) = self.edge_routers(a, b).expect("adjacent domains");
        let na = self.nodes[a.0];
        let nb = self.nodes[b.0];
        self.engine.links_mut().set_up(na, nb);
        let at = self.soon();
        self.engine.schedule_message(
            at,
            na,
            Wire::PeerLinkUp {
                router: ra,
                peer: rb,
            },
        );
        self.engine.schedule_message(
            at,
            nb,
            Wire::PeerLinkUp {
                router: rb,
                peer: ra,
            },
        );
    }

    /// Cuts the link between two adjacent domains *silently*: no
    /// control event is delivered. With session liveness enabled
    /// ([`InternetConfig::sessions`]) the endpoints discover the
    /// outage themselves, the way a real deployment would.
    pub fn cut_link(&mut self, a: DomainId, b: DomainId) {
        let (na, nb) = (self.nodes[a.0], self.nodes[b.0]);
        self.engine.links_mut().set_down(na, nb);
    }

    /// Restores a link cut with [`Internet::cut_link`] — again with no
    /// control event; the retry machinery re-establishes the sessions.
    pub fn restore_link(&mut self, a: DomainId, b: DomainId) {
        let (na, nb) = (self.nodes[a.0], self.nodes[b.0]);
        self.engine.links_mut().set_up(na, nb);
    }

    /// Schedules a fail-stop crash of domain `d`'s node `after` from
    /// now, restarting it `down_for` later. While down, messages to
    /// the node are blackholed and its timers are suppressed; on
    /// restart the actor rebuilds its volatile state (see
    /// `DomainActor::on_restart`). Session liveness must be enabled
    /// for neighbours to detect the crash (hold expiry, or a boot
    /// generation bump for outages shorter than the hold time).
    pub fn schedule_crash(&mut self, d: DomainId, after: SimDuration, down_for: SimDuration) {
        let at = self.engine.now() + after;
        self.engine
            .schedule_crash(self.nodes[d.0], at, at + down_for)
            .expect("crash window is forwards: until = at + down_for");
    }

    /// Schedules a host join (processed on the next run).
    pub fn host_join(&mut self, host: HostId, group: McastAddr) {
        let node = self.nodes[domain_of(host.domain).0];
        self.engine
            .schedule_message(self.soon(), node, Wire::HostJoin { host, group });
    }

    /// Schedules a host leave.
    pub fn host_leave(&mut self, host: HostId, group: McastAddr) {
        let node = self.nodes[domain_of(host.domain).0];
        self.engine
            .schedule_message(self.soon(), node, Wire::HostLeave { host, group });
    }

    /// Schedules a data transmission; returns the packet id.
    pub fn send_data(&mut self, host: HostId, group: McastAddr) -> u64 {
        let id = self.next_packet;
        self.next_packet += 1;
        let node = self.nodes[domain_of(host.domain).0];
        self.engine
            .schedule_message(self.soon(), node, Wire::SendData { host, group, id });
        id
    }

    /// A fresh group address rooted in `d` (static addressing).
    pub fn group_addr(&mut self, d: DomainId) -> McastAddr {
        let now = self.engine.now().as_secs();
        self.domain_mut(d)
            .alloc_group_addr(now)
            .expect("group address available")
    }

    /// Tries to allocate a group address in `d`. With MASC addressing
    /// this may need a claim round first: the attempt queues the
    /// demand, and a wakeup is scheduled so the claim goes out; call
    /// again after running the simulation forward.
    pub fn try_group_addr(&mut self, d: DomainId) -> Option<McastAddr> {
        let now = self.engine.now().as_secs();
        let out = self.domain_mut(d).alloc_group_addr(now);
        // Poke the node so buffered MASC actions flush.
        let node = self.nodes[d.0];
        self.engine.schedule_timer(self.soon(), node, u64::MAX);
        out
    }

    /// The hosts that received each packet (sorted), across domains, in
    /// one pass over the delivery logs — [`Internet::deliveries`] is a
    /// pass per packet. Packets nobody received have no key.
    pub fn deliveries_by_packet(&self) -> BTreeMap<u64, Vec<HostId>> {
        let mut out: BTreeMap<u64, Vec<HostId>> = BTreeMap::new();
        for d in self.graph.domains() {
            for (id, h) in &self.domain(d).log.received {
                out.entry(*id).or_default().push(*h);
            }
        }
        for hosts in out.values_mut() {
            hosts.sort();
        }
        out
    }

    /// All hosts that received packet `id`, across domains.
    pub fn deliveries(&self, id: u64) -> Vec<HostId> {
        let mut out = Vec::new();
        for d in self.graph.domains() {
            for (pid, h) in &self.domain(d).log.received {
                if *pid == id {
                    out.push(*h);
                }
            }
        }
        out.sort();
        out
    }

    /// Sum of duplicate deliveries across domains (must be 0).
    pub fn total_duplicates(&self) -> u64 {
        self.graph
            .domains()
            .map(|d| self.domain(d).log.duplicates)
            .sum()
    }

    /// Sum of encapsulation hand-offs across domains.
    pub fn total_encapsulations(&self) -> u64 {
        self.graph
            .domains()
            .map(|d| self.domain(d).log.encapsulations)
            .sum()
    }

    /// Serializes the full protocol state — every domain actor, the
    /// event queue, clock, RNG, links, and fault plane. Restore with
    /// [`Internet::resume_from`] on an internet freshly built from the
    /// *same* graph and config; the continuation is then byte-identical
    /// to a run that was never interrupted.
    pub fn checkpoint(&self) -> Result<Vec<u8>, snapshot::SnapError> {
        let mut enc = snapshot::Enc::with_header(SNAP_KIND_INTERNET);
        enc.usize(self.nodes.len());
        enc.u64(self.next_packet);
        enc.frame(|enc| self.engine.checkpoint_into::<DomainActor>(enc))?;
        Ok(enc.finish())
    }

    /// Restores [`Internet::checkpoint`] bytes onto this instance,
    /// which must have been built from the same graph and config (the
    /// snapshot carries dynamic state, not topology). Construction-time
    /// work (`on_start`, convergence) is superseded by the restored
    /// state.
    pub fn resume_from(&mut self, bytes: &[u8]) -> Result<(), snapshot::SnapError> {
        let mut dec = snapshot::Dec::new(bytes);
        dec.header(SNAP_KIND_INTERNET)?;
        let n = dec.usize()?;
        if n != self.nodes.len() {
            return Err(snapshot::SnapError::Invalid(
                "domain count differs from snapshot",
            ));
        }
        let next_packet = dec.u64()?;
        let engine_blob = dec.bytes()?;
        dec.finish()?;
        self.engine.resume::<DomainActor>(engine_blob)?;
        self.next_packet = next_packet;
        Ok(())
    }
}

/// Snapshot kind tag for [`Internet::checkpoint`] blobs.
pub const SNAP_KIND_INTERNET: u16 = 3;
