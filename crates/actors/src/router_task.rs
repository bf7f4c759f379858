//! A border-router host over TCP: one domain's [`DomainActor`] — the
//! simulator's own — in a one-domain [`Engine`], behind a socket shell.
//!
//! The engine holds the domain's actor at its global `NodeId`; every
//! other domain is a [`Remote`] whose `on_message` only queues the
//! wire for its socket. Inbound frames, connection changes and
//! commands become engine events at the shell's clock, which a tokio
//! tick advances, so session timers are the simulator's own.

use std::collections::BTreeMap;
use std::net::SocketAddr;

use bgp::Asn;
use masc_bgmp_core::{domain_of, DomainActor, Wire};
use simnet::{Ctx, Engine, Node, NodeId, SimDuration};
use tokio::net::TcpListener;
use tokio::sync::{mpsc, oneshot};

use crate::conn::{self, Event};
use crate::harness::View;

/// Real (and simulated) milliseconds per shell tick.
const TICK_MS: u64 = 100;

/// What a shell runs: a built, wired actor and where its peers are.
pub(crate) struct RouterSpec {
    /// The domain's actor, from `core::domain_actors`.
    pub(crate) actor: DomainActor,
    /// Domains in the internet (the engine's node count).
    pub(crate) domains: usize,
    /// Engine seed (the internet config's).
    pub(crate) seed: u64,
    /// Local listen address.
    pub(crate) listen: SocketAddr,
    /// Neighbour domains: ASN, address, and whether this side dials.
    pub(crate) peers: Vec<(Asn, SocketAddr, bool)>,
}

/// Stands in for another domain: queues what the local actor sends it.
#[derive(Default)]
struct Remote {
    outbox: Vec<Wire>,
}

impl Node<Wire> for Remote {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Wire>, _from: NodeId, msg: Wire) {
        self.outbox.push(msg);
    }
}

pub(crate) enum Cmd {
    Start,
    Inject(Wire),
    View(oneshot::Sender<View>),
    Shutdown,
}

/// Handle to a running shell.
pub struct RouterHandle {
    /// Where it accepts peer connections.
    pub listen: SocketAddr,
    cmd: mpsc::Sender<Cmd>,
    task: tokio::task::JoinHandle<()>,
}

impl RouterHandle {
    pub(crate) async fn send(&self, cmd: Cmd) {
        let _ = self.cmd.send(cmd).await;
    }

    /// The actor's current state and the neighbours connected now.
    pub async fn view(&self) -> View {
        let (tx, rx) = oneshot::channel();
        self.send(Cmd::View(tx)).await;
        rx.await.unwrap_or_default()
    }

    /// Stops the shell, closing its connections.
    pub async fn shutdown(self) {
        self.send(Cmd::Shutdown).await;
        let _ = self.task.await;
    }
}

/// Spawns a shell; resolves once it is listening. Its engine starts on
/// the first `Cmd::Start`, once every peering is connected.
pub(crate) async fn spawn_router(spec: RouterSpec) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(spec.listen).await?;
    let (asn, me) = (spec.actor.asn, domain_of(spec.actor.asn).0);
    let mut nodes: Vec<Box<dyn Node<Wire> + Send>> = (0..spec.domains)
        .map(|_| Box::new(Remote::default()) as _)
        .collect();
    nodes[me] = Box::new(spec.actor);
    let mut engine = Engine::new(spec.seed, SimDuration::ZERO);
    for node in nodes {
        engine.add_node(node);
    }

    let (ev_tx, ev_rx) = mpsc::channel(1024);
    tokio::spawn(conn::tick(TICK_MS, ev_tx.clone()));
    let neighbours = spec.peers.iter().map(|p| p.0).collect();
    tokio::spawn(conn::accept(listener, asn, neighbours, ev_tx.clone()));
    for &(peer, addr, _) in spec.peers.iter().filter(|p| p.2) {
        tokio::spawn(conn::dial(addr, asn, peer, ev_tx.clone()));
    }
    let (cmd, cmd_rx) = mpsc::channel(256);
    let task = tokio::spawn(run(engine, NodeId(me), ev_rx, cmd_rx));
    Ok(RouterHandle {
        listen: spec.listen,
        cmd,
        task,
    })
}

async fn run(
    mut engine: Engine<Wire>,
    me: NodeId,
    mut ev_rx: mpsc::Receiver<Event>,
    mut cmd_rx: mpsc::Receiver<Cmd>,
) {
    let mut writers: BTreeMap<Asn, mpsc::Sender<Wire>> = BTreeMap::new();
    let mut started = false;
    let node_of = |asn: Asn| NodeId(domain_of(asn).0);
    loop {
        let now = engine.now();
        let mut until = now;
        let inject = tokio::select! {
            Some(ev) = ev_rx.recv() => match ev {
                Event::Frame(peer, wire) => {
                    let actor = engine.node_as::<DomainActor>(me);
                    let ok = actor.is_some_and(|a| conn::from_peer(a, peer, &wire));
                    ok.then_some((node_of(peer), wire))
                }
                Event::Tick => {
                    until = now + SimDuration::from_millis(TICK_MS);
                    None
                }
                Event::Up(peer, tx, taken) => {
                    let took = !writers.contains_key(&peer) && taken.send(true).is_ok();
                    if took {
                        engine.links_mut().set_up(me, node_of(peer));
                        writers.insert(peer, tx);
                    }
                    link_event(&engine, me, peer, true).filter(|_| took && started)
                }
                Event::Gone(peer) => {
                    engine.links_mut().set_down(me, node_of(peer));
                    writers.remove(&peer);
                    link_event(&engine, me, peer, false).filter(|_| started)
                }
            },
            Some(cmd) = cmd_rx.recv() => match cmd {
                Cmd::Start => {
                    started = true;
                    None
                }
                Cmd::Inject(wire) => Some((NodeId::EXTERNAL, wire)),
                Cmd::View(tx) => {
                    let peers_up = writers.keys().copied().collect();
                    let view = engine.node_as::<DomainActor>(me).map(View::of);
                    let _ = tx.send(View { peers_up, ..view.unwrap_or_default() });
                    None
                }
                Cmd::Shutdown => break,
            },
            else => break,
        };
        if let Some((from, wire)) = inject {
            engine.schedule_message_from(now, from, me, wire);
        }
        if !started {
            continue;
        }
        engine.run_until(until);
        for (&peer, tx) in &writers {
            let remote = engine.node_as_mut::<Remote>(node_of(peer));
            for wire in remote
                .map(|r| std::mem::take(&mut r.outbox))
                .unwrap_or_default()
            {
                let _ = tx.send(wire).await;
            }
        }
    }
}

/// The link event for the peering with `peer`, addressed to the local
/// border router that holds it.
fn link_event(engine: &Engine<Wire>, me: NodeId, peer: Asn, up: bool) -> Option<(NodeId, Wire)> {
    let actor = engine.node_as::<DomainActor>(me)?;
    let (router, peer) = conn::peerings(actor, peer).next()?;
    let wire = match up {
        true => Wire::PeerLinkUp { router, peer },
        false => Wire::PeerLinkDown { router, peer },
    };
    Some((NodeId::EXTERNAL, wire))
}
