//! A border router as an async actor: the same sans-io BGP and BGMP
//! engines the simulator drives, fed from real TCP sessions.
//!
//! One actor per domain (single-border-router deployment): peers are
//! always external, so the BGMP route lookups reduce to Local vs
//! ExternalPeer. Local group membership stands in for the MIGP (a
//! one-router domain *is* its own interior).

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;

use bgmp::{BgmpAction, BgmpRouter, ForwardDecision, NextHop, RouteLookup, SourceId, Target};
use bgp::{BgpEvent, BgpSpeaker, ExportPolicy, PeerConfig, RouterId};
use mcast_addr::{McastAddr, Prefix};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, oneshot};

use bgp::{Session, SessionAction, SessionEvent, SessionTimers};

use crate::codec::{read_frame, write_frame};
use crate::wire::WireMsg;

/// Static configuration of one router actor.
#[derive(Debug, Clone)]
pub struct RouterSpec {
    /// Router id (globally unique).
    pub id: RouterId,
    /// The domain it fronts.
    pub asn: bgp::Asn,
    /// Local listen address.
    pub listen: SocketAddr,
    /// Peers: BGP config plus where to reach them. `dial` is set on
    /// exactly one side of each pair (the side with the higher id
    /// dials, by convention of [`crate::harness`]).
    pub peers: Vec<(PeerConfig, SocketAddr, bool)>,
    /// Export policy.
    pub policy: ExportPolicy,
}

/// Commands the test harness sends a running router.
#[derive(Debug)]
pub enum Cmd {
    /// Originate a group route (MASC granted a range).
    OriginateGroup(Prefix),
    /// A local host joined the group.
    JoinGroup(McastAddr),
    /// A local host left the group.
    LeaveGroup(McastAddr),
    /// A local host multicasts one packet.
    SendData {
        /// Destination group.
        group: McastAddr,
        /// Packet id.
        id: u64,
    },
    /// Snapshot internal state.
    Query(oneshot::Sender<Snapshot>),
    /// Stop the actor.
    Shutdown,
}

/// Observable state for assertions.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Selected group routes: (prefix, origin ASN).
    pub grib: Vec<(Prefix, bgp::Asn)>,
    /// Groups with (*,G) state here.
    pub star_groups: Vec<McastAddr>,
    /// Packets delivered to local members: (id, group).
    pub delivered: Vec<(u64, McastAddr)>,
    /// Connected peers.
    pub peers_up: Vec<RouterId>,
}

/// Handle to a spawned router actor.
pub struct RouterHandle {
    /// Command channel.
    pub cmd: mpsc::Sender<Cmd>,
    /// The spec it was started with.
    pub spec: RouterSpec,
    task: tokio::task::JoinHandle<()>,
}

impl RouterHandle {
    /// Queries a state snapshot.
    pub async fn snapshot(&self) -> Snapshot {
        let (tx, rx) = oneshot::channel();
        let _ = self.cmd.send(Cmd::Query(tx)).await;
        rx.await.unwrap_or_default()
    }

    /// Stops the actor.
    pub async fn shutdown(self) {
        let _ = self.cmd.send(Cmd::Shutdown).await;
        let _ = self.task.await;
    }
}

/// Route lookups for a single-border-router domain.
struct LocalLookup<'a> {
    speaker: &'a BgpSpeaker,
}

impl RouteLookup for LocalLookup<'_> {
    fn toward_group(&self, g: McastAddr) -> Option<NextHop> {
        let r = self.speaker.rib().lookup_group(g)?;
        Some(if r.local {
            NextHop::Local
        } else {
            NextHop::ExternalPeer(r.next_hop)
        })
    }
    fn toward_domain(&self, asn: bgp::Asn) -> Option<NextHop> {
        if asn == self.speaker.asn() {
            return Some(NextHop::Local);
        }
        let r = self.speaker.rib().lookup_domain(asn)?;
        Some(if r.local {
            NextHop::Local
        } else {
            NextHop::ExternalPeer(r.next_hop)
        })
    }
}

/// Spawns a router actor; resolves once it is listening.
pub async fn spawn_router(spec: RouterSpec) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(spec.listen).await?;
    let (cmd_tx, cmd_rx) = mpsc::channel(256);
    let spec2 = spec.clone();
    let task = tokio::spawn(run_router(spec2, listener, cmd_rx));
    Ok(RouterHandle {
        cmd: cmd_tx,
        spec,
        task,
    })
}

enum Event {
    FromPeer(RouterId, WireMsg),
    PeerUp(RouterId, mpsc::Sender<WireMsg>),
    PeerGone(RouterId),
    /// Periodic liveness tick (keepalive/hold timers).
    Tick,
    Command(Cmd),
}

/// Milliseconds between liveness ticks. The actor's session clock is
/// derived from the tick count (`ticks * TICK_MS / 1000` seconds since
/// actor start), so session timing never reads the wall clock: the
/// tokio timer drives the cadence and the counter is the only time
/// source, keeping the actor path consistent with the workspace rule
/// that all time flows from an injected clock.
const TICK_MS: u64 = 500;

/// Seconds of session time after `ticks` liveness ticks.
fn secs_at(ticks: u64) -> u64 {
    ticks * TICK_MS / 1000
}

async fn run_router(spec: RouterSpec, listener: TcpListener, mut cmd_rx: mpsc::Receiver<Cmd>) {
    let peers_cfg: Vec<PeerConfig> = spec.peers.iter().map(|(c, _, _)| *c).collect();
    let mut speaker = BgpSpeaker::new(spec.id, spec.asn, peers_cfg, spec.policy);
    let mut bgmp = BgmpRouter::new(spec.id);
    let mut members: BTreeSet<McastAddr> = BTreeSet::new();
    let mut delivered: Vec<(u64, McastAddr)> = Vec::new();
    let mut writers: BTreeMap<RouterId, mpsc::Sender<WireMsg>> = BTreeMap::new();
    // Hold-timer liveness per peer (§5.2's persistent sessions need
    // failure detection; see `bgp::session`). Short real-time values:
    // keepalive every 2 s, dead after 6 s of silence.
    let session_timers = SessionTimers {
        keepalive: 2,
        hold: 6,
        retry: 3600,
    };
    let mut sessions: BTreeMap<RouterId, Session> = BTreeMap::new();
    // Tick-driven session clock (see `secs_at`).
    let mut ticks: u64 = 0;

    let (ev_tx, mut ev_rx) = mpsc::channel::<Event>(1024);

    // Liveness ticker.
    {
        let ev_tx = ev_tx.clone();
        tokio::spawn(async move {
            let mut interval = tokio::time::interval(std::time::Duration::from_millis(TICK_MS));
            loop {
                interval.tick().await;
                if ev_tx.send(Event::Tick).await.is_err() {
                    break;
                }
            }
        });
    }

    // Accept loop.
    {
        let ev_tx = ev_tx.clone();
        let my_id = spec.id;
        tokio::spawn(async move {
            loop {
                let Ok((sock, _)) = listener.accept().await else {
                    break;
                };
                let ev_tx = ev_tx.clone();
                tokio::spawn(handle_conn(sock, None, my_id, ev_tx));
            }
        });
    }
    // Dial-out connections (with retry until the peer listens).
    for (cfg, addr, dial) in &spec.peers {
        if *dial {
            let ev_tx = ev_tx.clone();
            let peer_id = cfg.router;
            let addr = *addr;
            let my_id = spec.id;
            tokio::spawn(async move {
                for _ in 0..100 {
                    match TcpStream::connect(addr).await {
                        Ok(sock) => {
                            handle_conn(sock, Some(peer_id), my_id, ev_tx).await;
                            return;
                        }
                        Err(_) => tokio::time::sleep(std::time::Duration::from_millis(30)).await,
                    }
                }
            });
        }
    }

    // Helper: fan BGP outputs to peers.
    async fn ship_bgp(outs: Vec<bgp::OutMsg>, writers: &BTreeMap<RouterId, mpsc::Sender<WireMsg>>) {
        for o in outs {
            if let Some(w) = writers.get(&o.to) {
                let _ = w.send(WireMsg::Bgp(o.msg)).await;
            }
        }
    }

    loop {
        let ev = tokio::select! {
            Some(ev) = ev_rx.recv() => ev,
            Some(cmd) = cmd_rx.recv() => Event::Command(cmd),
            else => break,
        };
        match ev {
            Event::PeerUp(peer, writer) => {
                writers.insert(peer, writer);
                let mut sess = Session::new(session_timers);
                sess.on_event(secs_at(ticks), SessionEvent::TransportUp);
                sess.on_event(secs_at(ticks), SessionEvent::MessageReceived);
                sessions.insert(peer, sess);
                let outs = speaker.handle(BgpEvent::PeerUp(peer));
                bgmp.grib_changed_prefixes(&speaker.take_changed_groups());
                ship_bgp(outs, &writers).await;
            }
            Event::PeerGone(peer) => {
                writers.remove(&peer);
                sessions.remove(&peer);
                let outs = speaker.handle(BgpEvent::PeerDown(peer));
                bgmp.grib_changed_prefixes(&speaker.take_changed_groups());
                ship_bgp(outs, &writers).await;
            }
            Event::Tick => {
                ticks += 1;
                let now = secs_at(ticks);
                let mut dead = Vec::new();
                for (peer, sess) in sessions.iter_mut() {
                    match sess.on_tick(now) {
                        SessionAction::SendKeepalive => {
                            if let Some(w) = writers.get(peer) {
                                let _ = w.send(WireMsg::Hello { router: spec.id }).await;
                            }
                        }
                        SessionAction::Down => dead.push(*peer),
                        _ => {}
                    }
                }
                for peer in dead {
                    // Hold timer expired: the peer is gone even though
                    // the TCP socket may linger.
                    writers.remove(&peer);
                    sessions.remove(&peer);
                    let outs = speaker.handle(BgpEvent::PeerDown(peer));
                    bgmp.grib_changed_prefixes(&speaker.take_changed_groups());
                    ship_bgp(outs, &writers).await;
                }
            }
            Event::FromPeer(peer, msg) => {
                if let Some(sess) = sessions.get_mut(&peer) {
                    sess.on_event(secs_at(ticks), SessionEvent::MessageReceived);
                }
                match msg {
                    WireMsg::Bgp(m) => {
                        let outs = speaker.handle(BgpEvent::FromPeer { from: peer, msg: m });
                        // The G-RIB may have changed; memoized per-group
                        // forwarding hops are stale.
                        bgmp.grib_changed_prefixes(&speaker.take_changed_groups());
                        ship_bgp(outs, &writers).await;
                    }
                    WireMsg::Bgmp(m) => {
                        let actions = {
                            let lookup = LocalLookup { speaker: &speaker };
                            bgmp.from_peer(peer, m, &lookup)
                        };
                        ship_bgmp(actions, &writers, &mut members).await;
                    }
                    WireMsg::Data { source, group, id } => {
                        let decision = {
                            let lookup = LocalLookup { speaker: &speaker };
                            bgmp.forward(Some(Target::Peer(peer)), source, group, &lookup)
                        };
                        dispatch_data(
                            decision,
                            Some(Target::Peer(peer)),
                            source,
                            group,
                            id,
                            &writers,
                            &members,
                            &mut delivered,
                        )
                        .await;
                    }
                    WireMsg::Hello { .. } | WireMsg::Masc { .. } => {}
                }
            }
            Event::Command(cmd) => match cmd {
                Cmd::OriginateGroup(p) => {
                    let outs = speaker.originate_group(p);
                    ship_bgp(outs, &writers).await;
                    let outs = speaker.originate_domain();
                    bgmp.grib_changed_prefixes(&speaker.take_changed_groups());
                    ship_bgp(outs, &writers).await;
                }
                Cmd::JoinGroup(g) => {
                    members.insert(g);
                    let actions = {
                        let lookup = LocalLookup { speaker: &speaker };
                        bgmp.join(Target::Migp, g, &lookup)
                    };
                    ship_bgmp(actions, &writers, &mut members).await;
                }
                Cmd::LeaveGroup(g) => {
                    members.remove(&g);
                    let actions = bgmp.prune(Target::Migp, g);
                    ship_bgmp(actions, &writers, &mut members).await;
                }
                Cmd::SendData { group, id } => {
                    let source = SourceId {
                        domain: spec.asn,
                        host: 0,
                    };
                    let decision = {
                        let lookup = LocalLookup { speaker: &speaker };
                        bgmp.forward(Some(Target::Migp), source, group, &lookup)
                    };
                    dispatch_data(
                        decision,
                        Some(Target::Migp),
                        source,
                        group,
                        id,
                        &writers,
                        &members,
                        &mut delivered,
                    )
                    .await;
                }
                Cmd::Query(tx) => {
                    let grib = speaker
                        .rib()
                        .group_routes()
                        .map(|(p, r)| (*p, r.origin_asn().unwrap_or(0)))
                        .collect();
                    let star_groups = bgmp.table().star_entries().map(|(p, _)| p.base()).collect();
                    let _ = tx.send(Snapshot {
                        grib,
                        star_groups,
                        delivered: delivered.clone(),
                        peers_up: writers.keys().copied().collect(),
                    });
                }
                Cmd::Shutdown => break,
            },
        }
    }
}

/// Fans BGMP actions out to peers; local-domain actions resolve against
/// the member set (the one-router domain's "MIGP").
async fn ship_bgmp(
    actions: Vec<BgmpAction>,
    writers: &BTreeMap<RouterId, mpsc::Sender<WireMsg>>,
    _members: &mut BTreeSet<McastAddr>,
) {
    for a in actions {
        match a {
            BgmpAction::SendToPeer { to, msg } => {
                if let Some(w) = writers.get(&to) {
                    let _ = w.send(WireMsg::Bgmp(msg)).await;
                }
            }
            // Single-router domains have no interior to subscribe.
            BgmpAction::MigpSubscribe(_)
            | BgmpAction::MigpUnsubscribe(_)
            | BgmpAction::JoinViaMigp { .. }
            | BgmpAction::PruneViaMigp { .. }
            | BgmpAction::SourceJoinViaMigp { .. }
            | BgmpAction::SourcePruneViaMigp { .. } => {}
        }
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "a decision, the packet it routes, and the task state it writes to"
)]
async fn dispatch_data(
    decision: ForwardDecision,
    _from: Option<Target>,
    source: SourceId,
    group: McastAddr,
    id: u64,
    writers: &BTreeMap<RouterId, mpsc::Sender<WireMsg>>,
    members: &BTreeSet<McastAddr>,
    delivered: &mut Vec<(u64, McastAddr)>,
) {
    match decision {
        ForwardDecision::Targets(targets) => {
            for t in targets {
                match t {
                    Target::Peer(p) => {
                        if let Some(w) = writers.get(&p) {
                            let _ = w.send(WireMsg::Data { source, group, id }).await;
                        }
                    }
                    Target::Migp => {
                        if members.contains(&group) {
                            delivered.push((id, group));
                        }
                    }
                }
            }
        }
        ForwardDecision::TowardRoot(NextHop::ExternalPeer(p)) => {
            if let Some(w) = writers.get(&p) {
                let _ = w.send(WireMsg::Data { source, group, id }).await;
            }
        }
        ForwardDecision::TowardRoot(NextHop::Local) => {
            if members.contains(&group) {
                delivered.push((id, group));
            }
        }
        ForwardDecision::TowardRoot(NextHop::Internal { .. }) | ForwardDecision::Drop => {}
    }
}

/// Runs one TCP connection: handshake, then pump frames both ways.
async fn handle_conn(
    sock: TcpStream,
    dial_to: Option<RouterId>,
    my_id: RouterId,
    ev_tx: mpsc::Sender<Event>,
) {
    let (mut rd, mut wr) = sock.into_split();
    // Handshake: dialer sends Hello first; acceptor learns the peer id
    // from it and answers with its own Hello.
    let peer_id = if let Some(_peer) = dial_to {
        if write_frame(&mut wr, &WireMsg::Hello { router: my_id })
            .await
            .is_err()
        {
            return;
        }
        match read_frame(&mut rd).await {
            Ok(WireMsg::Hello { router }) => router,
            _ => return,
        }
    } else {
        match read_frame(&mut rd).await {
            Ok(WireMsg::Hello { router }) => {
                if write_frame(&mut wr, &WireMsg::Hello { router: my_id })
                    .await
                    .is_err()
                {
                    return;
                }
                router
            }
            _ => return,
        }
    };
    debug_assert!(dial_to.is_none() || dial_to == Some(peer_id));

    // Writer pump.
    let (out_tx, mut out_rx) = mpsc::channel::<WireMsg>(1024);
    tokio::spawn(async move {
        while let Some(msg) = out_rx.recv().await {
            if write_frame(&mut wr, &msg).await.is_err() {
                break;
            }
        }
    });
    if ev_tx.send(Event::PeerUp(peer_id, out_tx)).await.is_err() {
        return;
    }
    // Reader pump.
    loop {
        match read_frame(&mut rd).await {
            Ok(msg) => {
                if ev_tx.send(Event::FromPeer(peer_id, msg)).await.is_err() {
                    break;
                }
            }
            Err(_) => {
                let _ = ev_tx.send(Event::PeerGone(peer_id)).await;
                break;
            }
        }
    }
}
