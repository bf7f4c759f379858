//! One administrative domain as a simulation actor.
//!
//! A [`DomainActor`] hosts everything inside one domain boundary: its
//! border routers (each a BGP speaker plus a BGMP component), its MIGP
//! instance, and optionally a MASC node with the domain's MAAS. One
//! simulator node per domain keeps the actor boundary equal to the
//! administrative boundary — intra-domain coordination is direct,
//! inter-domain messages ride the simulated links.

use std::collections::{BTreeMap, BTreeSet};

use bgmp::{
    BgmpAction, BgmpMsg, BgmpRouter, ForwardDecision, GroupEntry, NextHop, RouteLookup, SourceId,
    Target,
};
use bgp::session::{Session, SessionAction, SessionEvent, SessionState, SessionTimers};
use bgp::{Asn, BgpEvent, BgpMsg, BgpSpeaker, OutMsg, Rib, RouterId};
use masc::{MascAction, MascMsg, MascNode};
use mcast_addr::{McastAddr, Prefix, Secs};
use migp::{Delivery, LocalRouter, Migp, MigpEvent};
use simnet::{Ctx, Node, NodeId, SimDuration};

/// A host identity: lives in a domain, attached to an internal router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, snapshot::Snapshot)]
pub struct HostId {
    /// The host's domain.
    pub domain: Asn,
    /// Host number within the domain.
    pub host: u32,
}

/// A multicast data packet crossing domain boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, snapshot::Snapshot)]
pub struct DataPacket {
    /// Originating host.
    pub source: SourceId,
    /// Destination group.
    pub group: McastAddr,
    /// Unique id for delivery accounting.
    pub id: u64,
}

/// Messages between domain actors.
#[derive(Debug, Clone, snapshot::Snapshot)]
pub enum Wire {
    /// BGP between border routers of adjacent domains.
    Bgp {
        /// Sending border router.
        from: RouterId,
        /// Receiving border router.
        to: RouterId,
        /// Payload.
        msg: BgpMsg,
    },
    /// BGMP between peering border routers.
    Bgmp {
        /// Sending border router.
        from: RouterId,
        /// Receiving border router.
        to: RouterId,
        /// Payload.
        msg: BgmpMsg,
    },
    /// MASC between domains.
    Masc {
        /// Sending domain.
        from: Asn,
        /// Payload.
        msg: MascMsg,
    },
    /// A data packet handed to a specific border router.
    Data {
        /// Sending border router (the arrival target).
        from: RouterId,
        /// Receiving border router.
        to: RouterId,
        /// The packet.
        packet: DataPacket,
    },
    /// External control: a host joins a group.
    HostJoin {
        /// The host.
        host: HostId,
        /// The group.
        group: McastAddr,
    },
    /// External control: a host leaves a group.
    HostLeave {
        /// The host.
        host: HostId,
        /// The group.
        group: McastAddr,
    },
    /// Control: the link (and thus the BGP/BGMP sessions) between a
    /// local border router and its external peer went down.
    PeerLinkDown {
        /// The local border router.
        router: RouterId,
        /// The peer router on the far side.
        peer: RouterId,
    },
    /// Control: the sessions came back.
    PeerLinkUp {
        /// The local border router.
        router: RouterId,
        /// The peer router on the far side.
        peer: RouterId,
    },
    /// Session liveness keepalive between peering border routers (only
    /// sent when `InternetConfig::sessions` is enabled).
    Keepalive {
        /// Sending border router.
        from: RouterId,
        /// Receiving border router.
        to: RouterId,
        /// The sender's incarnation (boot generation and session
        /// epoch packed together): a change mid-session tells the
        /// receiver that the peer rebooted — or silently declared
        /// this session dead and flushed it — and must be resynced.
        gen: u64,
    },
    /// A route-refresh request (RFC 2918 in spirit): the sender
    /// flushed this peering (it detected the peer's incarnation
    /// change) and asks the peer to re-advertise its routes and
    /// replay its BGMP joins. Needed because keepalives are subject
    /// to link jitter: the peer's own `PeerUp` resync can arrive
    /// *before* the bumped-generation keepalive that makes us flush,
    /// and would then be flushed along with the stale state.
    BgpRefresh {
        /// The requesting border router (the one that flushed).
        from: RouterId,
        /// The border router asked to re-send.
        to: RouterId,
    },
    /// External control: a host multicasts one packet.
    SendData {
        /// The sending host.
        host: HostId,
        /// The group.
        group: McastAddr,
        /// Packet id for accounting.
        id: u64,
    },
}

/// One border router: a BGP speaker plus the BGMP component, and its
/// position in the internal topology.
pub struct BorderRouter {
    /// Globally unique router id.
    pub id: RouterId,
    /// Where this router sits in the domain's internal graph.
    pub local: LocalRouter,
    /// The BGP speaker.
    pub speaker: BgpSpeaker,
    /// The BGMP component.
    pub bgmp: BgmpRouter,
}

/// G-RIB/M-RIB answers for the BGMP engine, read from one border
/// router's BGP speaker when asked (the paper's G-RIB lookup,
/// §4.2/§5.2). The speaker and the BGMP component are disjoint fields
/// of [`BorderRouter`], so the engine holds this while it mutates its
/// own table — and a call that never asks (a join onto an existing
/// entry, a packet that hits forwarding state) never walks the RIB.
struct RibLookup<'a> {
    rib: &'a Rib,
    own_routers: &'a BTreeSet<RouterId>,
    asn: Asn,
}

impl RibLookup<'_> {
    fn next_hop(&self, route: &bgp::Route) -> NextHop {
        if route.local {
            NextHop::Local
        } else if self.own_routers.contains(&route.next_hop) {
            NextHop::Internal {
                exit: route.next_hop,
            }
        } else {
            NextHop::ExternalPeer(route.next_hop)
        }
    }
}

impl RouteLookup for RibLookup<'_> {
    fn toward_group(&self, g: McastAddr) -> Option<NextHop> {
        self.rib.lookup_group(g).map(|r| self.next_hop(r))
    }
    fn toward_domain(&self, asn: Asn) -> Option<NextHop> {
        if asn == self.asn {
            Some(NextHop::Local)
        } else {
            self.rib.lookup_domain(asn).map(|r| self.next_hop(r))
        }
    }
}

/// The range every group lies in: the widest repair scope.
fn all_groups() -> Prefix {
    Prefix::new(0, 0).expect("0/0 is aligned")
}

/// The single-group range of `g`.
fn group_range(g: McastAddr) -> Prefix {
    Prefix::containing(g, 32).expect("/32 always valid")
}

/// One step of a packet's transit through a domain
/// (`DomainActor::transit`). On the stack each is paired with its
/// depth: the number of hops on the chain that led to it.
enum Step {
    /// `Hop(router, from)`: a border router's BGMP forwarding decision
    /// for a copy that reached it from `from`.
    Hop(RouterId, Target),
    /// `Ship(from, to)`: border router `from` ships a copy to peer
    /// router `to`: a hop if `to` is one of this domain's, a
    /// `Wire::Data` send otherwise.
    Ship(RouterId, RouterId),
    /// `Flood(router, exit)`: `router` injects a copy into the MIGP. If
    /// nobody inside the domain receives it, `exit`'s hop takes it on
    /// toward the root.
    Flood(RouterId, Option<RouterId>),
    /// After a decapsulated flood at this router, the copy continues
    /// to its (*,G) child peers.
    DecapChildren(RouterId),
}

/// A transit's stack of (depth, step) pairs.
type Steps = Vec<(usize, Step)>;

/// Timer key for the 1 s session-liveness tick. MASC deadline timers
/// are keyed by their deadline in seconds and the external poke uses
/// `u64::MAX`, so the top few values below it are free for control
/// timers.
const KEY_SESSION_TICK: u64 = u64::MAX - 1;

/// One liveness session toward an external peer router, plus the last
/// incarnation seen from that peer.
#[derive(snapshot::Snapshot)]
struct PeerSession {
    sess: Session,
    peer_gen: Option<u64>,
    /// Bumped whenever *we* declare this session dead (hold expiry,
    /// carrier loss, explicit link-down) and flush the peer's routes.
    /// Carried in our keepalives so a peer whose own session survived
    /// (asymmetric loss never touched our→its direction) still learns
    /// it must flush and resync once we reconnect — otherwise it
    /// would never replay its table and our Adj-RIB-In from it would
    /// stay empty forever.
    local_epoch: u64,
}

impl PeerSession {
    fn new(timers: SessionTimers) -> Self {
        PeerSession {
            sess: Session::new(timers),
            peer_gen: None,
            local_epoch: 0,
        }
    }
}

/// Delivery bookkeeping shared with tests and harnesses.
#[derive(Debug, Default, Clone, snapshot::Snapshot)]
pub struct DeliveryLog {
    /// (packet id, receiving host) pairs, in arrival order.
    pub received: Vec<(u64, HostId)>,
    /// Packets seen more than once by the same host (must stay 0).
    pub duplicates: u64,
    /// Packets dropped for lack of any route or state.
    pub dropped: u64,
    /// Encapsulated border-to-border hand-offs (§5.3 overhead metric).
    pub encapsulations: u64,
}

/// One domain in the integrated architecture. See module docs.
pub struct DomainActor {
    /// This domain's ASN.
    pub asn: Asn,
    /// Border routers, in creation order.
    pub routers: Vec<BorderRouter>,
    /// The intra-domain multicast protocol.
    pub migp: Box<dyn Migp>,
    /// MASC node (when dynamic allocation is enabled).
    pub masc: Option<MascNode>,
    /// Router ids of this domain (for internal/external tests).
    own_routers: BTreeSet<RouterId>,
    /// router id -> index in `routers`.
    router_index: BTreeMap<RouterId, usize>,
    /// router id -> owning domain actor node, for every known peer.
    peer_node: BTreeMap<RouterId, NodeId>,
    /// domain asn -> actor node (for MASC messaging).
    domain_node: BTreeMap<Asn, NodeId>,
    /// Local group members: group -> hosts.
    members: BTreeMap<McastAddr, BTreeSet<HostId>>,
    /// Delivery accounting.
    pub log: DeliveryLog,
    /// Per-(packet, host) dedupe for duplicate detection.
    seen: BTreeSet<(u64, HostId)>,
    /// Encapsulation cache (§5.3): (source, group) -> encapsulating
    /// router we should source-prune once native data arrives.
    encap_from: BTreeMap<(SourceId, McastAddr), RouterId>,
    /// (S,G) branches that have carried native data: encapsulated
    /// copies for them are dropped (§5.3: F2 "starts dropping the
    /// encapsulated copies of S's data flowing via F1").
    native_sg: BTreeSet<(SourceId, McastAddr)>,
    /// Whether decapsulating routers build source-specific branches.
    pub source_branches: bool,
    /// MASC deadline timers already scheduled.
    masc_scheduled: BTreeSet<Secs>,
    /// MASC actions produced outside an event context (synchronous
    /// `alloc_group_addr`), flushed on the next pump.
    masc_outbox: Vec<MascAction>,
    /// Statically assigned range (when MASC is not running).
    pub static_range: Option<Prefix>,
    /// Next address offset handed out from the static range.
    static_next: u64,
    /// Session liveness timers. `None` disables the keepalive/hold
    /// machinery: peering failures then arrive only as explicit
    /// `PeerLinkDown`/`PeerLinkUp` wires.
    pub session_timers: Option<SessionTimers>,
    /// Liveness session per (local border router, external peer).
    sessions: BTreeMap<(RouterId, RouterId), PeerSession>,
    /// Incremented on every restart and carried in keepalives, so
    /// peers detect a reboot that was shorter than their hold time.
    boot_gen: u64,
    /// Group ranges whose tree state the next repair pass must
    /// examine. Whether a group needs repair depends only on its (*,G)
    /// entries at this domain's routers, those routers' G-RIB answer
    /// for it, and its local membership; every change to one of the
    /// three records the group (or the G-RIB prefix) here, and a
    /// repair pass drains the set as its scope. Groups outside it are
    /// exactly as the last pass left them.
    dirty: BTreeSet<Prefix>,
}

impl DomainActor {
    /// Creates a domain actor. Peering and node maps are wired by the
    /// internet builder afterwards.
    pub fn new(asn: Asn, migp: Box<dyn Migp>) -> Self {
        DomainActor {
            asn,
            routers: Vec::new(),
            migp,
            masc: None,
            own_routers: BTreeSet::new(),
            router_index: BTreeMap::new(),
            peer_node: BTreeMap::new(),
            domain_node: BTreeMap::new(),
            members: BTreeMap::new(),
            log: DeliveryLog::default(),
            seen: BTreeSet::new(),
            encap_from: BTreeMap::new(),
            native_sg: BTreeSet::new(),
            source_branches: true,
            masc_scheduled: BTreeSet::new(),
            masc_outbox: Vec::new(),
            static_range: None,
            static_next: 0,
            session_timers: None,
            sessions: BTreeMap::new(),
            boot_gen: 0,
            dirty: BTreeSet::new(),
        }
    }

    /// Registers a border router.
    pub fn add_router(&mut self, router: BorderRouter) {
        self.own_routers.insert(router.id);
        self.router_index.insert(router.id, self.routers.len());
        self.routers.push(router);
    }

    /// Wires the address maps (called by the internet builder).
    pub fn wire(
        &mut self,
        peer_node: BTreeMap<RouterId, NodeId>,
        domain_node: BTreeMap<Asn, NodeId>,
    ) {
        self.peer_node = peer_node;
        self.domain_node = domain_node;
    }

    /// The internal router a host attaches to.
    pub fn router_of_host(&self, host: HostId) -> LocalRouter {
        host.host as usize % self.migp.net().len()
    }

    /// Allocates a fresh group address for a locally initiated group:
    /// from the MAAS when MASC runs, else from the static range.
    pub fn alloc_group_addr(&mut self, now: Secs) -> Option<McastAddr> {
        if let Some(masc) = &mut self.masc {
            let mut actions = Vec::new();
            let out = masc.request_block(now, 32, 365 * 86_400, &mut actions);
            // This runs outside an event context; buffer the actions
            // (claim messages, originations) for the next pump.
            self.masc_outbox.extend(actions);
            if let masc::BlockOutcome::Ready { block, .. } = out {
                return Some(block.base());
            }
            return None;
        }
        let range = self.static_range?;
        let addr = range.addr_at(self.static_next)?;
        self.static_next += 1;
        Some(addr)
    }

    /// Groups with at least one local member host.
    pub fn member_groups(&self) -> Vec<McastAddr> {
        self.members.keys().copied().collect()
    }

    /// Members of `g` in this domain.
    pub fn members_of(&self, g: McastAddr) -> Vec<HostId> {
        self.members
            .get(&g)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    fn router(&mut self, id: RouterId) -> &mut BorderRouter {
        let idx = self.router_index[&id];
        &mut self.routers[idx]
    }

    /// The border router whose G-RIB says the route to `g` exits
    /// through it (the paper's *best exit router*, §5).
    pub fn best_exit_for_group(&self, g: McastAddr) -> Option<RouterId> {
        // The best exit is the router whose selected route's next hop
        // is external (or which originated the route).
        for br in &self.routers {
            if let Some(r) = br.speaker.rib().lookup_group(g) {
                if r.local || !self.own_routers.contains(&r.next_hop) {
                    return Some(br.id);
                }
            }
        }
        None
    }

    /// The border router that is the best exit toward a domain.
    pub fn best_exit_for_domain(&self, asn: Asn) -> Option<RouterId> {
        for br in &self.routers {
            if let Some(r) = br.speaker.rib().lookup_domain(asn) {
                if r.local || !self.own_routers.contains(&r.next_hop) {
                    return Some(br.id);
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Action plumbing
    // ------------------------------------------------------------------

    /// Syncs one router's BGMP lookup memo with its own G-RIB after
    /// BGP processing: drains the prefixes whose selection changed and
    /// invalidates only the memoized groups they cover. A router's
    /// memo caches answers from *its own* speaker's RIB (see
    /// `resolve`), so no other router's memo can go stale
    /// from this router's event — iBGP fan-out mutates the other
    /// routers through their own `handle` calls, each followed by its
    /// own sync.
    fn sync_bgmp_memo(&mut self, router: RouterId) {
        let idx = self.router_index[&router];
        let br = &mut self.routers[idx];
        if br.speaker.rib().changed_groups_is_empty() {
            return;
        }
        let changed = br.speaker.take_changed_groups();
        br.bgmp.grib_changed_prefixes(&changed);
        self.dirty.extend(changed);
    }

    fn send_bgp(&mut self, ctx: &mut Ctx<'_, Wire>, from: RouterId, outs: Vec<OutMsg>) {
        for out in outs {
            if self.own_routers.contains(&out.to) {
                // iBGP: same actor, handle inline (recursion depth is
                // bounded by route churn; updates converge).
                let more = self
                    .router(out.to)
                    .speaker
                    .handle(BgpEvent::FromPeer { from, msg: out.msg });
                let to = out.to;
                self.sync_bgmp_memo(to);
                self.send_bgp(ctx, to, more);
            } else if let Some(&node) = self.peer_node.get(&out.to) {
                ctx.send(
                    node,
                    Wire::Bgp {
                        from,
                        to: out.to,
                        msg: out.msg,
                    },
                );
            }
        }
    }

    /// Runs BGP events on a router and ships the results.
    pub fn bgp_event(&mut self, ctx: &mut Ctx<'_, Wire>, router: RouterId, ev: BgpEvent) {
        let outs = self.router(router).speaker.handle(ev);
        // The speaker may change its G-RIB even when nothing is
        // exported (e.g. a suppressed withdraw), so sync before — not
        // only inside — send_bgp.
        self.sync_bgmp_memo(router);
        self.send_bgp(ctx, router, outs);
    }

    /// BGMP tree maintenance on route change: any (*,G) entry whose
    /// parent no longer agrees with the current G-RIB next hop —
    /// dangling after an outage, or pointing through a withdrawn path —
    /// is torn down locally and its children re-joined along the
    /// current route. (The paper leaves route-change handling to the
    /// protocol spec; this is the minimal correct version.)
    ///
    /// Only groups inside `scope` — disjoint ranges, ascending — are
    /// examined; [`all_groups`] is the widest scope. Every step visits
    /// routers in creation order and groups ascending within a router,
    /// so a narrower scope emits the wide scope's messages with the
    /// untouched groups' (empty) share left out.
    fn repair_dangling(&mut self, ctx: &mut Ctx<'_, Wire>, scope: &[Prefix]) {
        // Tearing one entry down can orphan another (an internal leg
        // whose exit entry this pass removes), so iterate to a fixed
        // point; two or three rounds settle any real topology.
        for _ in 0..4 {
            if !self.repair_dangling_once(ctx, scope) {
                break;
            }
        }
        self.prune_redundant_attachments(ctx, scope);
        #[cfg(debug_assertions)]
        self.assert_scope_sufficed();
    }

    /// Repairs whatever changed since the last pass: drains the dirty
    /// ranges into a scope (nested ranges folded into their cover) and
    /// runs [`DomainActor::repair_dangling`] over it.
    fn repair_dirty(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let mut scope: Vec<Prefix> = Vec::new();
        // Ascending (base, len): a covering range sorts before
        // everything it covers.
        for p in std::mem::take(&mut self.dirty) {
            if !scope.last().is_some_and(|q| q.covers(&p)) {
                scope.push(p);
            }
        }
        self.repair_dangling(ctx, &scope);
    }

    /// The groups inside `scope` with an exact (*,G) entry at router
    /// `idx`, ascending.
    fn scoped_groups(&self, idx: usize, scope: &[Prefix]) -> Vec<McastAddr> {
        let table = self.routers[idx].bgmp.table();
        if table.star_len() == 0 {
            return Vec::new();
        }
        scope
            .iter()
            .flat_map(|p| table.star_exact_in(*p))
            .map(|(g, _)| g)
            .collect()
    }

    /// An internal leg is only healthy while the exit router still
    /// carries the matching entry with the MIGP child; a teardown at
    /// the exit (its upstream died) must pull the dependents down with
    /// it even when the G-RIB still names the same exit.
    fn leg_alive(&self, e: &GroupEntry, g: McastAddr) -> bool {
        match (e.parent, e.via_exit) {
            (Some(Target::Migp), Some(x)) => self.router_index.get(&x).is_some_and(|&xi| {
                self.routers[xi]
                    .bgmp
                    .table()
                    .star_exact(g)
                    .is_some_and(|e| e.children.contains(&Target::Migp))
            }),
            _ => true,
        }
    }

    /// Does router `idx` hold a (*,`g`) entry that disagrees with its
    /// current G-RIB next hop for `g`, or hangs off a dead internal
    /// leg? Reads state only.
    fn needs_repair(&self, idx: usize, g: McastAddr) -> bool {
        let Some(e) = self.routers[idx].bgmp.table().star_exact(g) else {
            return false;
        };
        let current = (e.parent, e.via_exit);
        let matches = match self.routes(idx).toward_group(g) {
            Some(NextHop::ExternalPeer(p)) => current == (Some(Target::Peer(p)), None),
            Some(NextHop::Internal { exit }) => current == (Some(Target::Migp), Some(exit)),
            Some(NextHop::Local) => current == (Some(Target::Migp), None),
            None => e.parent.is_none(), // unreachable: dangling is correct
        };
        !(matches && self.leg_alive(e, g))
    }

    /// One repair sweep; returns whether anything was torn down.
    fn repair_dangling_once(&mut self, ctx: &mut Ctx<'_, Wire>, scope: &[Prefix]) -> bool {
        let mut changed = false;
        for idx in 0..self.routers.len() {
            let rid = self.routers[idx].id;
            for g in self.scoped_groups(idx, scope) {
                if !self.needs_repair(idx, g) {
                    continue;
                }
                changed = true;
                let table = self.routers[idx].bgmp.table();
                let stale = table.star_exact(g).expect("needs_repair saw it").clone();
                let leg_alive = self.leg_alive(&stale, g);
                // Tear down the stale attachment (prune toward the old
                // parent if it is a live peer) and re-join the children
                // along the current route.
                if let Some(Target::Peer(old)) = stale.parent {
                    let msg = BgmpMsg::Prune(g);
                    if self.own_routers.contains(&old) {
                        self.bgmp_from_peer(ctx, old, rid, msg);
                    } else if let Some(&node) = self.peer_node.get(&old) {
                        ctx.send(
                            node,
                            Wire::Bgmp {
                                from: rid,
                                to: old,
                                msg,
                            },
                        );
                    }
                }
                self.routers[idx].bgmp.table_mut().star_remove(g);
                self.dirty.insert(group_range(g));
                // Retract our half of a (still-live) internal leg so
                // the exit's MIGP child doesn't linger as a phantom
                // downstream.
                if stale.parent == Some(Target::Migp) {
                    if let Some(x) = stale.via_exit {
                        if x != rid && self.router_index.contains_key(&x) && leg_alive {
                            self.bgmp_prune(ctx, x, Target::Migp, g);
                        }
                    }
                }
                for c in stale.children {
                    self.bgmp_join(ctx, rid, c, g);
                }
            }
        }
        changed
    }

    /// A domain must attach to a group's tree through exactly one
    /// border router; a second attachment closes a cycle on the
    /// bidirectional tree (outage/heal sequences can leave one behind).
    /// An entry whose only child is the MIGP component is legitimate
    /// only at the domain's best exit for the group (serving local
    /// members) or at a router referenced as the internal exit of
    /// another router's entry; this lists the others inside `scope`,
    /// router-major. Reads state only.
    fn redundant_attachments(&self, scope: &[Prefix]) -> Vec<(RouterId, McastAddr)> {
        // (group, router referenced as some entry's via_exit).
        let mut referenced: BTreeSet<(McastAddr, RouterId)> = BTreeSet::new();
        let mut candidates: Vec<(RouterId, McastAddr)> = Vec::new();
        for br in &self.routers {
            let table = br.bgmp.table();
            if table.star_len() == 0 {
                continue;
            }
            for (g, e) in scope.iter().flat_map(|p| table.star_exact_in(*p)) {
                if let Some(exit) = e.via_exit {
                    referenced.insert((g, exit));
                }
                let migp_only = e.children.len() == 1 && e.children.contains(&Target::Migp);
                let upstream_parent = matches!(e.parent, Some(Target::Peer(_)));
                // Parent and only child both the MIGP component with an
                // internal via-exit: every target is the domain itself,
                // so the entry can never move a packet — churn residue.
                let internal_phantom = e.parent == Some(Target::Migp) && e.via_exit.is_some();
                if migp_only && (upstream_parent || internal_phantom) {
                    candidates.push((br.id, g));
                }
            }
        }
        candidates.retain(|&(rid, g)| {
            let serves_members =
                self.migp.has_members(g) && self.best_exit_for_group(g) == Some(rid);
            !(serves_members || referenced.contains(&(g, rid)))
        });
        candidates
    }

    /// Prunes the [`DomainActor::redundant_attachments`] of `scope`.
    fn prune_redundant_attachments(&mut self, ctx: &mut Ctx<'_, Wire>, scope: &[Prefix]) {
        for (rid, g) in self.redundant_attachments(scope) {
            self.bgmp_prune(ctx, rid, Target::Migp, g);
        }
        // A pruned attachment may have been the one actually carrying
        // local members (its prune cascades down its own internal
        // leg); re-anchor any group that just lost service at the
        // canonical best exit, synchronously — domains without the
        // session tick have no periodic refresh to catch this later.
        self.refresh_membership(ctx, scope);
    }

    /// The scope rule's oracle: once a repair pass returns, the widest
    /// scope must find nothing to do for any group that is not already
    /// recorded for the next pass. If this fires, some change to a
    /// group's entries, routes or membership was not recorded in
    /// `dirty` — record it; never narrow this check.
    #[cfg(debug_assertions)]
    fn assert_scope_sufficed(&self) {
        let pending = |g: McastAddr| self.dirty.iter().any(|p| p.contains(g));
        let all = [all_groups()];
        for idx in 0..self.routers.len() {
            for g in self.scoped_groups(idx, &all) {
                assert!(
                    pending(g) || !self.needs_repair(idx, g),
                    "AS{}: (*,{g}) at router {} needs repair outside the scope",
                    self.asn,
                    self.routers[idx].id,
                );
            }
        }
        for (rid, g) in self.redundant_attachments(&all) {
            assert!(
                pending(g),
                "AS{}: redundant (*,{g}) attachment at router {rid} outside the scope",
                self.asn,
            );
        }
        for (g, exit) in self.unserved_member_groups(&all) {
            assert!(
                pending(g),
                "AS{}: members of {g} unserved (best exit {exit}) outside the scope",
                self.asn,
            );
        }
    }

    /// Originates a group route at every border router (the MASC range
    /// was granted; §4.2: the range "is sent to the other border
    /// routers of the domain, which then inject \[it\] into BGP").
    pub fn originate_group_route(&mut self, ctx: &mut Ctx<'_, Wire>, prefix: Prefix) {
        let ids: Vec<RouterId> = self.routers.iter().map(|r| r.id).collect();
        for id in ids {
            let outs = self.router(id).speaker.originate_group(prefix);
            self.sync_bgmp_memo(id);
            self.send_bgp(ctx, id, outs);
        }
    }

    /// Withdraws a group route everywhere (range lost).
    pub fn withdraw_group_route(&mut self, ctx: &mut Ctx<'_, Wire>, prefix: Prefix) {
        let ids: Vec<RouterId> = self.routers.iter().map(|r| r.id).collect();
        for id in ids {
            let outs = self.router(id).speaker.withdraw_group(prefix);
            self.sync_bgmp_memo(id);
            self.send_bgp(ctx, id, outs);
        }
    }

    fn apply_bgmp_actions(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        at_router: RouterId,
        actions: Vec<BgmpAction>,
    ) {
        for a in actions {
            match a {
                BgmpAction::SendToPeer { to, msg } => {
                    if self.own_routers.contains(&to) {
                        // Internal BGMP peering (e.g. F2 -> F1 source
                        // prunes): handle inline.
                        self.bgmp_from_peer(ctx, to, at_router, msg);
                    } else if let Some(&node) = self.peer_node.get(&to) {
                        ctx.send(
                            node,
                            Wire::Bgmp {
                                from: at_router,
                                to,
                                msg,
                            },
                        );
                    }
                }
                BgmpAction::MigpSubscribe(g) => {
                    let local = self.router(at_router).local;
                    self.migp.border_subscribe(local, g);
                }
                BgmpAction::MigpUnsubscribe(g) => {
                    let local = self.router(at_router).local;
                    self.migp.border_unsubscribe(local, g);
                }
                BgmpAction::JoinViaMigp { exit, group } => {
                    // Internal leg: both ends subscribe, and the exit's
                    // BGMP continues the join upstream (§5.2, A2→A3).
                    let local = self.router(at_router).local;
                    self.migp.border_subscribe(local, group);
                    if exit != at_router {
                        self.bgmp_join(ctx, exit, Target::Migp, group);
                    }
                }
                BgmpAction::PruneViaMigp { exit, group } => {
                    let local = self.router(at_router).local;
                    self.migp.border_unsubscribe(local, group);
                    if exit != at_router {
                        self.bgmp_prune(ctx, exit, Target::Migp, group);
                    }
                }
                BgmpAction::SourceJoinViaMigp {
                    exit,
                    source,
                    group,
                } => {
                    let local = self.router(at_router).local;
                    self.migp.border_subscribe(local, group);
                    if exit != at_router {
                        let (bgmp, routes) = self.bgmp_with_routes(exit);
                        let acts = bgmp.source_join(Target::Migp, source, group, &routes);
                        self.apply_bgmp_actions(ctx, exit, acts);
                    }
                }
                BgmpAction::SourcePruneViaMigp {
                    exit,
                    source,
                    group,
                } => {
                    let local = self.router(at_router).local;
                    self.migp.border_unsubscribe(local, group);
                    if exit != at_router {
                        let idx = self.router_index[&exit];
                        let acts = self.routers[idx]
                            .bgmp
                            .source_prune(Target::Migp, source, group);
                        self.apply_bgmp_actions(ctx, exit, acts);
                    }
                }
            }
        }
    }

    /// Router `idx`'s G-RIB/M-RIB view.
    fn routes(&self, idx: usize) -> RibLookup<'_> {
        RibLookup {
            rib: self.routers[idx].speaker.rib(),
            own_routers: &self.own_routers,
            asn: self.asn,
        }
    }

    /// A router's BGMP engine together with the route view it resolves
    /// next hops through.
    fn bgmp_with_routes(&mut self, router: RouterId) -> (&mut BgmpRouter, RibLookup<'_>) {
        let br = &mut self.routers[self.router_index[&router]];
        let routes = RibLookup {
            rib: br.speaker.rib(),
            own_routers: &self.own_routers,
            asn: self.asn,
        };
        (&mut br.bgmp, routes)
    }

    /// Feeds a join into a router's BGMP component.
    pub fn bgmp_join(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        router: RouterId,
        child: Target,
        g: McastAddr,
    ) {
        self.dirty.insert(group_range(g));
        let (bgmp, routes) = self.bgmp_with_routes(router);
        let actions = bgmp.join(child, g, &routes);
        self.apply_bgmp_actions(ctx, router, actions);
    }

    /// Feeds a prune into a router's BGMP component.
    pub fn bgmp_prune(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        router: RouterId,
        child: Target,
        g: McastAddr,
    ) {
        self.dirty.insert(group_range(g));
        let idx = self.router_index[&router];
        let actions = self.routers[idx].bgmp.prune(child, g);
        self.apply_bgmp_actions(ctx, router, actions);
    }

    fn bgmp_from_peer(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        router: RouterId,
        from: RouterId,
        msg: BgmpMsg,
    ) {
        // Source-specific messages touch (S,G) state only.
        if let BgmpMsg::Join(g) | BgmpMsg::Prune(g) = msg {
            self.dirty.insert(group_range(g));
        }
        let (bgmp, routes) = self.bgmp_with_routes(router);
        let actions = bgmp.from_peer(from, msg, &routes);
        self.apply_bgmp_actions(ctx, router, actions);
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    fn host_join(&mut self, ctx: &mut Ctx<'_, Wire>, host: HostId, g: McastAddr) {
        debug_assert_eq!(host.domain, self.asn);
        self.members.entry(g).or_default().insert(host);
        self.dirty.insert(group_range(g));
        let local = self.router_of_host(host);
        let events = self.migp.host_join(local, g);
        for ev in events {
            if let MigpEvent::FirstMember(g) = ev {
                // Domain-Wide Report reaches the best exit router's
                // BGMP component (§5).
                if let Some(exit) = self.best_exit_for_group(g) {
                    self.bgmp_join(ctx, exit, Target::Migp, g);
                }
            }
        }
    }

    fn host_leave(&mut self, ctx: &mut Ctx<'_, Wire>, host: HostId, g: McastAddr) {
        self.dirty.insert(group_range(g));
        if let Some(set) = self.members.get_mut(&g) {
            set.remove(&host);
            if set.is_empty() {
                self.members.remove(&g);
            }
        }
        let local = self.router_of_host(host);
        let events = self.migp.host_leave(local, g);
        for ev in events {
            if let MigpEvent::LastMemberLeft(g) = ev {
                if let Some(exit) = self.best_exit_for_group(g) {
                    self.bgmp_prune(ctx, exit, Target::Migp, g);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// Records deliveries to local member hosts at the given routers.
    fn record_deliveries(&mut self, packet: DataPacket, member_routers: &[LocalRouter]) {
        let Some(hosts) = self.members.get(&packet.group) else {
            return;
        };
        for &h in hosts {
            // The sending host does not count its own loopback copy.
            if packet.source.domain == self.asn && packet.source.host == h.host {
                continue;
            }
            let r = self.router_of_host(h);
            if member_routers.contains(&r) {
                if self.seen.insert((packet.id, h)) {
                    self.log.received.push((packet.id, h));
                } else {
                    self.log.duplicates += 1;
                }
            }
        }
    }

    /// Walks one packet through this domain (§5): it enters at a border
    /// router or at a sending host, the MIGP carries it, and every
    /// on-tree border router forwards a copy. `steps` is a stack, so a
    /// step's whole subtree runs before its next sibling, and what a
    /// step leads to is pushed in reverse.
    fn transit(&mut self, ctx: &mut Ctx<'_, Wire>, packet: DataPacket, mut steps: Steps) {
        // Join/prune churn can leave border routers subscribed inside
        // the domain with no tree state; each re-injects what the MIGP
        // hands it, and two of them bounce one packet between each
        // other without end. A chain through a domain visits a router
        // once per arrival target, so a hop this deep is that loop:
        // drop the copy instead of following it.
        let max_depth = 4 * self.routers.len() + 16;
        while let Some((depth, step)) = steps.pop() {
            match step {
                Step::Hop(..) if depth > max_depth => self.log.dropped += 1,
                Step::Hop(router, from) => {
                    self.hop(ctx, &mut steps, packet, router, from, depth + 1);
                }
                // Internal peer target (rare): hand over directly.
                Step::Ship(from, to) if self.own_routers.contains(&to) => {
                    steps.push((depth, Step::Hop(to, Target::Peer(from))));
                }
                Step::Ship(from, to) => {
                    if let Some(&node) = self.peer_node.get(&to) {
                        ctx.send(node, Wire::Data { from, to, packet });
                    }
                }
                Step::Flood(router, exit) => {
                    let reached = self.flood(ctx, &mut steps, packet, router, depth);
                    if let (false, Some(exit)) = (reached, exit) {
                        steps.push((depth, Step::Hop(exit, Target::Migp)));
                    }
                }
                Step::DecapChildren(router) => {
                    // `deliver` lists the borders reached *from* the
                    // entry, never the entry itself — but the
                    // decapsulating router can hold the domain's tree
                    // attachment, and the decapsulated data must
                    // continue down the shared tree to its child peer
                    // targets. Only the (*,G) children count: members
                    // were just delivered through the MIGP, and an
                    // (S,G) entry here points *toward* the source, so
                    // climbing it would ship the data backwards.
                    let table = self.routers[self.router_index[&router]].bgmp.table();
                    if let Some((_, e)) = table.star_lookup(packet.group) {
                        for t in e.children.iter().rev() {
                            if let Target::Peer(p) = *t {
                                steps.push((depth, Step::Ship(router, p)));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Runs the BGMP forwarding decision at a border router; the copies
    /// it ships onward become steps at `depth`.
    fn hop(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        steps: &mut Steps,
        packet: DataPacket,
        router: RouterId,
        from: Target,
        depth: usize,
    ) {
        // Native (S,G) data arriving from a peer ends the need for
        // encapsulated copies: send the source-specific prune to the
        // encapsulating router (§5.3, F2 -> F1). "Native" means the
        // source branch works: the data reached the entry router the
        // domain's RPF check expects. Shared-tree data hitting an
        // sg-holding router on the wrong side must not count — the
        // still-building branch hasn't delivered anything yet, and
        // flagging it would drop the packet's own decapsulated copy.
        if let Target::Peer(_) = from {
            let key = (packet.source, packet.group);
            let idx = self.router_index[&router];
            let has_sg = self.routers[idx]
                .bgmp
                .table()
                .sg(packet.source, packet.group)
                .is_some();
            if has_sg && self.best_exit_for_domain(packet.source.domain) == Some(router) {
                self.native_sg.insert(key);
                if let Some(&encap) = self.encap_from.get(&key) {
                    self.encap_from.remove(&key);
                    self.bgmp_from_peer_send_prune(ctx, router, encap, packet);
                }
            }
        }
        // The route view is consulted only off-tree: (S,G) and (*,G)
        // hits, and the BGMP lookup memo, answer without the RIB.
        let (bgmp, routes) = self.bgmp_with_routes(router);
        let step = match bgmp.forward(Some(from), packet.source, packet.group, &routes) {
            ForwardDecision::Targets(targets) => {
                steps.extend(targets.into_iter().rev().map(|t| match t {
                    Target::Peer(p) => (depth, Step::Ship(router, p)),
                    Target::Migp => (depth, Step::Flood(router, None)),
                }));
                return;
            }
            ForwardDecision::TowardRoot(NextHop::ExternalPeer(p)) => Step::Ship(router, p),
            // Data transits the domain through the MIGP (§5: DVMRP
            // broadcasts through A, and every on-tree border router of
            // A forwards a copy). If nothing inside the domain wants
            // it, the next-hop border router toward the root takes it.
            ForwardDecision::TowardRoot(NextHop::Internal { exit }) => {
                Step::Flood(router, Some(exit))
            }
            // We are the root domain; deliver internally if anyone
            // listens.
            ForwardDecision::TowardRoot(NextHop::Local) if self.migp.has_members(packet.group) => {
                Step::Flood(router, None)
            }
            ForwardDecision::TowardRoot(NextHop::Local) | ForwardDecision::Drop => {
                self.log.dropped += 1;
                return;
            }
        };
        steps.push((depth, step));
    }

    /// Injects a packet into the MIGP at border router `router`: members
    /// are recorded and the subscribed borders' hops pushed at `depth`.
    /// Returns whether anyone (member or border) received a copy.
    fn flood(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        steps: &mut Steps,
        packet: DataPacket,
        router: RouterId,
        depth: usize,
    ) -> bool {
        let entry = self.router(router).local;
        // RPF expectation: the border router unicast routing would use
        // toward the source's domain (§5.3).
        let expected = if packet.source.domain == self.asn {
            None
        } else {
            self.best_exit_for_domain(packet.source.domain)
                .map(|r| self.router(r).local)
        };
        match self.migp.deliver(entry, packet.group, expected) {
            Delivery::Delivered {
                member_routers,
                borders,
                ..
            } => {
                self.record_deliveries(packet, &member_routers);
                let handed = self.push_borders(steps, &borders, Some(router), depth);
                handed || !member_routers.is_empty()
            }
            Delivery::RpfReject { required_entry } => {
                // Once the branch carries native data, encapsulated
                // copies are dropped (§5.3).
                if self.native_sg.contains(&(packet.source, packet.group)) {
                    return true;
                }
                // §5.3: encapsulate to the border router internal RPF
                // expects, which decapsulates and injects.
                self.log.encapsulations += 1;
                let required = self.routers.iter().find(|br| br.local == required_entry);
                let Some(req) = required.map(|br| br.id) else {
                    self.log.dropped += 1;
                    return true;
                };
                if self.source_branches {
                    self.maybe_start_source_branch(ctx, req, router, packet);
                }
                // Decapsulated injection at the required entry; the
                // copy goes on to its child peers after the flood's
                // hops.
                steps.push((depth, Step::DecapChildren(req)));
                let req_local = self.router(req).local;
                if let Delivery::Delivered {
                    member_routers,
                    borders,
                    ..
                } = self.migp.deliver(req_local, packet.group, Some(req_local))
                {
                    self.record_deliveries(packet, &member_routers);
                    self.push_borders(steps, &borders, Some(router), depth);
                }
                true
            }
        }
    }

    /// Pushes a hop at `depth` for each border router a flood reached
    /// (BGMP child/parent targets subscribed in the MIGP), in router
    /// order, except `entry`, the router that injected the copy.
    /// Returns whether it pushed any.
    fn push_borders(
        &self,
        steps: &mut Steps,
        borders: &[LocalRouter],
        entry: Option<RouterId>,
        depth: usize,
    ) -> bool {
        let before = steps.len();
        for br in self.routers.iter().rev() {
            if borders.contains(&br.local) && Some(br.id) != entry {
                steps.push((depth, Step::Hop(br.id, Target::Migp)));
            }
        }
        steps.len() > before
    }

    /// The decapsulating router may build a source-specific branch to
    /// stop the encapsulation (§5.3, F2's option).
    fn maybe_start_source_branch(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        decap_router: RouterId,
        encap_router: RouterId,
        packet: DataPacket,
    ) {
        let key = (packet.source, packet.group);
        if self.encap_from.contains_key(&key) {
            return; // already building
        }
        let idx = self.router_index[&decap_router];
        if self.routers[idx]
            .bgmp
            .table()
            .sg(packet.source, packet.group)
            .is_some()
        {
            return;
        }
        self.encap_from.insert(key, encap_router);
        let (bgmp, routes) = self.bgmp_with_routes(decap_router);
        let actions = bgmp.source_join(Target::Migp, packet.source, packet.group, &routes);
        self.apply_bgmp_actions(ctx, decap_router, actions);
    }

    fn bgmp_from_peer_send_prune(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        at: RouterId,
        encap: RouterId,
        packet: DataPacket,
    ) {
        let msg = BgmpMsg::SourcePrune(packet.source, packet.group);
        if self.own_routers.contains(&encap) {
            self.bgmp_from_peer(ctx, encap, at, msg);
        } else if let Some(&node) = self.peer_node.get(&encap) {
            ctx.send(
                node,
                Wire::Bgmp {
                    from: at,
                    to: encap,
                    msg,
                },
            );
        }
    }

    /// A local host multicasts one packet.
    fn send_data(&mut self, ctx: &mut Ctx<'_, Wire>, host: HostId, g: McastAddr, id: u64) {
        let source = SourceId {
            domain: self.asn,
            host: host.host,
        };
        let packet = DataPacket {
            source,
            group: g,
            id,
        };
        let entry = self.router_of_host(host);
        // Deliver within the domain first (senders need not be
        // members, §3).
        if let Delivery::Delivered {
            member_routers,
            borders,
            ..
        } = self.migp.deliver(entry, g, None)
        {
            self.record_deliveries(packet, &member_routers);
            let mut steps = Vec::new();
            if !self.push_borders(&mut steps, &borders, None, 0) {
                // No subscribed border: push toward the root domain via
                // the best exit router (§5: DVMRP floods internally and
                // non-exit borders prune).
                if let Some(exit) = self.best_exit_for_group(g) {
                    steps.push((0, Step::Hop(exit, Target::Migp)));
                }
            }
            self.transit(ctx, packet, steps);
        }
    }

    // ------------------------------------------------------------------
    // MASC plumbing
    // ------------------------------------------------------------------

    /// Applies MASC actions: BGP originations/withdrawals and outward
    /// messages.
    fn apply_masc_actions(&mut self, ctx: &mut Ctx<'_, Wire>, actions: Vec<MascAction>) {
        for a in actions {
            match a {
                MascAction::Send { to, msg } => {
                    if let Some(&node) = self.domain_node.get(&to) {
                        ctx.send(
                            node,
                            Wire::Masc {
                                from: self.asn,
                                msg,
                            },
                        );
                    }
                }
                MascAction::RangeGranted { prefix, .. } => {
                    self.originate_group_route(ctx, prefix);
                }
                MascAction::RangeLost { prefix } => {
                    self.withdraw_group_route(ctx, prefix);
                }
                MascAction::BlockReady { .. }
                | MascAction::BlockExpired { .. }
                | MascAction::ClaimFailed { .. } => {}
            }
        }
        self.pump_masc(ctx);
    }

    fn pump_masc(&mut self, ctx: &mut Ctx<'_, Wire>) {
        if self.masc.is_none() {
            return;
        }
        // Flush actions produced outside event context first.
        let outbox = std::mem::take(&mut self.masc_outbox);
        if !outbox.is_empty() {
            self.apply_masc_actions(ctx, outbox);
        }
        let Some(masc) = &mut self.masc else { return };
        let now = ctx.now().as_secs();
        let mut all = Vec::new();
        let mut guard = 0;
        while masc.next_deadline().is_some_and(|d| d <= now) {
            guard += 1;
            if guard > 64 {
                break;
            }
            let acts = masc.on_tick(now);
            if acts.is_empty() && masc.next_deadline().is_some_and(|d| d <= now) {
                break;
            }
            all.extend(acts);
        }
        if let Some(d) = masc.next_deadline() {
            let at = d.max(now + 1);
            if self.masc_scheduled.insert(at) {
                let delay = SimDuration::from_millis(
                    (at * 1000).saturating_sub(ctx.now().as_millis()).max(1),
                );
                ctx.set_timer(delay, at);
            }
        }
        if !all.is_empty() {
            self.apply_masc_actions(ctx, all);
        }
    }

    // ------------------------------------------------------------------
    // Peering liveness (sessions) and failure repair
    // ------------------------------------------------------------------

    /// Flushes BGP state from a dead peering and repairs affected BGMP
    /// tree state — the common tail of an explicit `PeerLinkDown` wire
    /// and a session hold-timer expiry.
    fn peer_down_repair(&mut self, ctx: &mut Ctx<'_, Wire>, router: RouterId, peer: RouterId) {
        if let Some(ps) = self.sessions.get_mut(&(router, peer)) {
            // Explicit link events race the liveness machinery; make
            // the session agree before repairing (no-op when Idle).
            let now = ctx.now().as_secs();
            ps.sess.on_event(now, SessionEvent::TransportDown);
        }
        // BGP flushes and fails over first, so the BGMP re-joins below
        // see post-failover routes.
        self.bgp_event(ctx, router, BgpEvent::PeerDown(peer));
        // Exact groups only: a (*,G-prefix) aggregate is not a group.
        let gone = Target::Peer(peer);
        let idx = self.router_index[&router];
        let affected: Vec<McastAddr> = self.routers[idx]
            .bgmp
            .table()
            .star_exact_in(all_groups())
            .filter(|(_, e)| e.parent == Some(gone) || e.children.contains(&gone))
            .map(|(g, _)| g)
            .collect();
        let mut all_actions = Vec::new();
        for g in affected {
            let (bgmp, routes) = self.bgmp_with_routes(router);
            all_actions.extend(bgmp.peer_down_for_group(peer, g, &routes));
        }
        self.apply_bgmp_actions(ctx, router, all_actions);
        // The flush above changed this domain's own routes without any
        // incoming BGP wire (which is what normally triggers the
        // repair pass), so entries at *other* routers that pointed
        // through the dead peering — e.g. an internal leg whose
        // via-exit router just lost its upstream — would dangle
        // forever. Repair them now against the post-failover routes,
        // every group: the per-group rerouting above bypassed the
        // dirty bookkeeping.
        self.dirty.clear();
        self.repair_dangling(ctx, &[all_groups()]);
    }

    fn send_keepalive(&mut self, ctx: &mut Ctx<'_, Wire>, router: RouterId, peer: RouterId) {
        let epoch = self
            .sessions
            .get(&(router, peer))
            .map_or(0, |ps| ps.local_epoch);
        if let Some(&node) = self.peer_node.get(&peer) {
            ctx.send(
                node,
                Wire::Keepalive {
                    from: router,
                    to: peer,
                    gen: self.boot_gen.wrapping_shl(32) | (epoch & 0xFFFF_FFFF),
                },
            );
        }
    }

    /// The 1 s liveness tick: drives keepalive transmission, hold
    /// expiry, and reconnects for every external peering.
    fn session_tick(&mut self, ctx: &mut Ctx<'_, Wire>) {
        let keys: Vec<(RouterId, RouterId)> = self.sessions.keys().copied().collect();
        let now = ctx.now().as_secs();
        for (router, peer) in keys {
            let link_up = self.peer_node.get(&peer).is_some_and(|&n| ctx.link_up(n));
            let ps = self.sessions.get_mut(&(router, peer)).expect("keyed");
            let action = if ps.sess.state() == SessionState::Idle {
                if link_up && now >= ps.sess.retry_at() {
                    ps.sess.on_event(now, SessionEvent::TransportUp)
                } else {
                    SessionAction::None
                }
            } else if !link_up {
                // The transport under an active session vanished; no
                // need to wait out the hold timer on a link we can see
                // is gone (lossy links, by contrast, stay "up" and are
                // detected by hold expiry).
                ps.sess.on_event(now, SessionEvent::TransportDown)
            } else {
                ps.sess.on_tick(now)
            };
            match action {
                SessionAction::SendKeepalive => self.send_keepalive(ctx, router, peer),
                SessionAction::Down => {
                    // We are declaring the session dead on our own
                    // evidence; the peer's half may still be up. Bump
                    // our epoch so our next keepalive bounces it too.
                    self.sessions
                        .get_mut(&(router, peer))
                        .expect("keyed")
                        .local_epoch += 1;
                    self.peer_down_repair(ctx, router, peer);
                }
                SessionAction::Up | SessionAction::None => {}
            }
        }
        self.refresh_membership(ctx, &[all_groups()]);
        ctx.set_timer(SimDuration::from_secs(1), KEY_SESSION_TICK);
    }

    /// A keepalive arrived at `router` from external peer `peer`.
    fn keepalive_in(
        &mut self,
        ctx: &mut Ctx<'_, Wire>,
        router: RouterId,
        peer: RouterId,
        gen: u64,
    ) {
        if !self.router_index.contains_key(&router) {
            return;
        }
        let now = ctx.now().as_secs();
        let Some(ps) = self.sessions.get_mut(&(router, peer)) else {
            return;
        };
        // A changed generation means the peer rebooted: its RIB and
        // tree state are gone, so treat the old session as dead (flush
        // and repair) before re-establishing with the new incarnation.
        let bounced = ps.peer_gen.is_some_and(|g| g != gen)
            && ps.sess.on_event(now, SessionEvent::TransportDown) == SessionAction::Down;
        ps.peer_gen = Some(gen);
        if ps.sess.state() == SessionState::Idle {
            // An incoming keepalive proves the transport works:
            // connect regardless of any pending back-off.
            ps.sess.on_event(now, SessionEvent::TransportUp);
        }
        let went_up = ps.sess.on_event(now, SessionEvent::MessageReceived) == SessionAction::Up;
        if bounced {
            self.peer_down_repair(ctx, router, peer);
            // We just dropped everything learned over this peering,
            // including any resync the peer may already have sent
            // (keepalive jitter can deliver its bounced-generation
            // keepalive after its re-advertisements). Pull a fresh
            // copy explicitly.
            if let Some(&node) = self.peer_node.get(&peer) {
                ctx.send(
                    node,
                    Wire::BgpRefresh {
                        from: router,
                        to: peer,
                    },
                );
            }
        }
        if went_up {
            // Answer so the peer's Connecting half establishes too,
            // then resync the full table (the session-layer PeerUp).
            self.send_keepalive(ctx, router, peer);
            self.bgp_event(ctx, router, BgpEvent::PeerUp(peer));
            self.session_up_replay(ctx, router, peer);
        }
    }

    /// BGMP's counterpart of the BGP `PeerUp` resync: when a session
    /// to `peer` (re-)establishes, re-send a Join for every (*,G)
    /// entry whose parent is that peer. The peer may have flushed its
    /// half of the peering (hold expiry, reboot) and dropped our child
    /// edge while our own entry survived untouched — without a replay
    /// the tree stays split across the peering and neither side ever
    /// notices, because each side's state is locally consistent.
    /// Joins are idempotent at the receiver, so replaying into an
    /// intact peer is harmless.
    fn session_up_replay(&mut self, ctx: &mut Ctx<'_, Wire>, router: RouterId, peer: RouterId) {
        let Some(&idx) = self.router_index.get(&router) else {
            return;
        };
        let groups: Vec<McastAddr> = self.routers[idx]
            .bgmp
            .table()
            .star_entries()
            .filter(|(p, e)| p.len() == 32 && e.parent == Some(Target::Peer(peer)))
            .map(|(p, _)| p.base())
            .collect();
        if let Some(&node) = self.peer_node.get(&peer) {
            for g in groups {
                ctx.send(
                    node,
                    Wire::Bgmp {
                        from: router,
                        to: peer,
                        msg: BgmpMsg::Join(g),
                    },
                );
            }
        }
    }

    /// Member groups inside `scope` with no (*,G) entry delivering
    /// into the MIGP although a best exit exists to join through, with
    /// that exit; ascending. Reads state only.
    fn unserved_member_groups(&self, scope: &[Prefix]) -> Vec<(McastAddr, RouterId)> {
        scope
            .iter()
            .flat_map(|p| self.members.range(p.base()..=p.last()))
            .filter(|(g, _)| {
                !self.routers.iter().any(|br| {
                    br.bgmp
                        .table()
                        .star_exact(**g)
                        .is_some_and(|e| e.targets().any(|t| t == Target::Migp))
                })
            })
            .filter_map(|(g, _)| Some((*g, self.best_exit_for_group(*g)?)))
            .collect()
    }

    /// The periodic membership refresh a real MIGP's domain-wide
    /// reports provide: any group with local members but no (*,G)
    /// entry delivering into the MIGP re-joins the tree through the
    /// current best exit. This is what re-attaches members whose state
    /// was torn down completely — after a node restart, or when a
    /// repair ran while no alternate route existed yet.
    fn refresh_membership(&mut self, ctx: &mut Ctx<'_, Wire>, scope: &[Prefix]) {
        for (g, exit) in self.unserved_member_groups(scope) {
            self.bgmp_join(ctx, exit, Target::Migp, g);
        }
    }
}

impl Node<Wire> for DomainActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire>) {
        // Originate domain reachability (M-RIB) from every border
        // router, and the static group range if configured.
        let ids: Vec<RouterId> = self.routers.iter().map(|r| r.id).collect();
        for id in ids {
            let outs = self.router(id).speaker.originate_domain();
            self.sync_bgmp_memo(id);
            self.send_bgp(ctx, id, outs);
        }
        if let Some(range) = self.static_range {
            self.originate_group_route(ctx, range);
        }
        // Top-level MASC domains claim a small starter range at
        // bootstrap (§4.4), so the hierarchy has space to hand out.
        if self.masc.as_ref().is_some_and(|m| m.is_top_level()) {
            let now = ctx.now().as_secs();
            let mut acts = Vec::new();
            self.masc
                .as_mut()
                .expect("checked")
                .start_expansion(now, 256, &mut acts);
            self.apply_masc_actions(ctx, acts);
        }
        self.pump_masc(ctx);
        // Session liveness: one session per external peering, driven
        // by a 1 s tick.
        if let Some(t) = self.session_timers {
            for br in &self.routers {
                for p in br.speaker.peers() {
                    if p.asn != self.asn {
                        self.sessions.insert((br.id, p.router), PeerSession::new(t));
                    }
                }
            }
            ctx.set_timer(SimDuration::from_secs(1), KEY_SESSION_TICK);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        match msg {
            Wire::Bgp { from, to, msg } => {
                self.bgp_event(ctx, to, BgpEvent::FromPeer { from, msg });
                // Route changes may let dangling tree state (entries
                // that lost their parent during an outage) re-join:
                // the groups under the G-RIB prefixes the iBGP fan-out
                // just moved (none, for an M-RIB-only change).
                self.repair_dirty(ctx);
            }
            Wire::Bgmp { from, to, msg } => {
                self.bgmp_from_peer(ctx, to, from, msg);
                // A prune cascade can remove an exit router's entry
                // while other routers' internal legs still reference
                // it (the MIGP child at an exit is shared, not
                // refcounted); sweep the message's group for dangling
                // legs before the next event observes the table.
                self.repair_dirty(ctx);
            }
            Wire::Masc { from, msg } => {
                if self.masc.is_some() {
                    let now = ctx.now().as_secs();
                    let actions = {
                        let masc = self.masc.as_mut().expect("checked");
                        masc.on_message(now, from, msg)
                    };
                    self.apply_masc_actions(ctx, actions);
                }
            }
            Wire::Data { from, to, packet } => {
                let entry = (0, Step::Hop(to, Target::Peer(from)));
                self.transit(ctx, packet, vec![entry]);
            }
            Wire::PeerLinkDown { router, peer } => {
                if let Some(ps) = self.sessions.get_mut(&(router, peer)) {
                    ps.local_epoch += 1;
                }
                self.peer_down_repair(ctx, router, peer);
            }
            Wire::PeerLinkUp { router, peer } => {
                self.bgp_event(ctx, router, BgpEvent::PeerUp(peer));
                self.session_up_replay(ctx, router, peer);
            }
            Wire::BgpRefresh { from, to } => {
                // Re-send our full table and our joins over this
                // peering; both are idempotent at the receiver.
                self.bgp_event(ctx, to, BgpEvent::PeerUp(from));
                self.session_up_replay(ctx, to, from);
            }
            Wire::Keepalive { from, to, gen } => self.keepalive_in(ctx, to, from, gen),
            Wire::HostJoin { host, group } => self.host_join(ctx, host, group),
            Wire::HostLeave { host, group } => self.host_leave(ctx, host, group),
            Wire::SendData { host, group, id } => self.send_data(ctx, host, group, id),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire>, key: u64) {
        match key {
            KEY_SESSION_TICK => self.session_tick(ctx),
            _ => {
                self.masc_scheduled.remove(&key);
                self.pump_masc(ctx);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, Wire>) {
        // Fail-stop recovery: everything volatile died with the node.
        // Forwarding state is rebuilt from scratch; BGP/MASC config
        // and local membership intent (the hosts did not crash)
        // survive.
        self.boot_gen += 1;
        for br in &mut self.routers {
            br.bgmp = BgmpRouter::new(br.id);
        }
        self.encap_from.clear();
        self.native_sg.clear();
        // Every member group just lost its tree state.
        self.dirty.insert(all_groups());
        if let Some(t) = self.session_timers {
            for ps in self.sessions.values_mut() {
                *ps = PeerSession::new(t);
            }
            // Routes learned before the crash are flushed; peers
            // resync them after the sessions re-establish.
            let pairs: Vec<(RouterId, RouterId)> = self.sessions.keys().copied().collect();
            for (router, peer) in pairs {
                self.bgp_event(ctx, router, BgpEvent::PeerDown(peer));
            }
        }
        // Timers armed before the crash were suppressed while the node
        // was down: re-arm the MASC pump and the session tick (whose
        // membership refresh re-joins member groups once resync has
        // restored the routes).
        self.masc_scheduled.clear();
        self.pump_masc(ctx);
        if self.session_timers.is_some() {
            ctx.set_timer(SimDuration::from_secs(1), KEY_SESSION_TICK);
        }
    }
}

// ----------------------------------------------------------------------
// Snapshot support
// ----------------------------------------------------------------------

impl snapshot::SnapshotState for DomainActor {
    /// Everything routed or learned since boot: every border router's
    /// BGP and BGMP state, MIGP membership, the MASC node, host
    /// membership, delivery accounting, encapsulation caches, session
    /// liveness, and the boot generation. Wiring (`own_routers`,
    /// `router_index`, `peer_node`, `domain_node`) and configuration
    /// (`static_range`, `session_timers`, router identities, the MIGP
    /// kind) come from the rebuilt topology.
    fn encode_state(&self, enc: &mut snapshot::Enc) {
        use snapshot::Snapshot;
        let Self {
            routers,
            migp,
            masc,
            members,
            log,
            seen,
            encap_from,
            native_sg,
            source_branches,
            masc_scheduled,
            masc_outbox,
            static_next,
            sessions,
            boot_gen,
            // identity, wiring and scenario config come from the rebuilt topology
            asn: _,
            own_routers: _,
            router_index: _,
            peer_node: _,
            domain_node: _,
            static_range: _,
            session_timers: _,
            // transient work list; a restore marks every group instead
            dirty: _,
        } = self;
        enc.seq(routers.len());
        for r in routers {
            r.speaker.encode_state(enc);
            r.bgmp.encode_state(enc);
        }
        migp.membership().encode(enc);
        match masc {
            Some(node) => {
                enc.u8(1);
                node.encode_state(enc);
            }
            None => enc.u8(0),
        }
        members.encode(enc);
        log.encode(enc);
        seen.encode(enc);
        encap_from.encode(enc);
        native_sg.encode(enc);
        enc.bool(*source_branches);
        masc_scheduled.encode(enc);
        masc_outbox.encode(enc);
        enc.u64(*static_next);
        sessions.encode(enc);
        enc.u64(*boot_gen);
    }

    fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), snapshot::SnapError> {
        use snapshot::Snapshot;
        let Self {
            routers,
            migp,
            masc,
            members,
            log,
            seen,
            encap_from,
            native_sg,
            source_branches,
            masc_scheduled,
            masc_outbox,
            static_next,
            sessions,
            boot_gen,
            dirty,
            // identity, wiring and scenario config come from the rebuilt topology
            asn: _,
            own_routers: _,
            router_index: _,
            peer_node: _,
            domain_node: _,
            static_range: _,
            session_timers: _,
        } = self;
        let n = dec.seq()?;
        if n != routers.len() {
            return Err(snapshot::SnapError::Invalid(
                "border router count differs from snapshot",
            ));
        }
        for r in routers {
            r.speaker.restore_state(dec)?;
            r.bgmp.restore_state(dec)?;
        }
        *migp.membership_mut() = Snapshot::decode(dec)?;
        match (dec.u8()?, masc) {
            (1, Some(node)) => node.restore_state(dec)?,
            (0, None) => {}
            _ => {
                return Err(snapshot::SnapError::Invalid(
                    "MASC presence differs from snapshot",
                ))
            }
        }
        *members = Snapshot::decode(dec)?;
        *log = DeliveryLog::decode(dec)?;
        *seen = Snapshot::decode(dec)?;
        *encap_from = Snapshot::decode(dec)?;
        *native_sg = Snapshot::decode(dec)?;
        *source_branches = dec.bool()?;
        *masc_scheduled = Snapshot::decode(dec)?;
        *masc_outbox = Snapshot::decode(dec)?;
        *static_next = dec.u64()?;
        *sessions = Snapshot::decode(dec)?;
        *boot_gen = dec.u64()?;
        *dirty = BTreeSet::from([all_groups()]);
        Ok(())
    }
}
