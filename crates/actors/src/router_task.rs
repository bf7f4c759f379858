//! A border-router host over TCP: one domain's [`DomainActor`] — the
//! simulator's own — in a one-domain [`Engine`], behind a socket shell.
//!
//! The engine holds the domain's actor at its global `NodeId`; every
//! other domain is a [`Remote`] whose `on_message` only queues the
//! wire for its socket. One thread owns the engine and reads one
//! mailbox: inbound frames, connection changes and commands become
//! engine events at the shell's clock, which a tick thread advances,
//! so session timers are the simulator's own. That thread writes each
//! peer's frames itself.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};

use bgp::Asn;
use masc_bgmp_core::{domain_of, DomainActor, Wire};
use simnet::{Ctx, Engine, Node, NodeId, SimDuration};

use crate::codec::write_frame;
use crate::conn::{self, Threads};
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
    /// Where it accepts peer connections, bound.
    pub(crate) listener: TcpListener,
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

/// A shell's mailbox: what its sockets, its clock and its handle tell
/// the domain thread.
pub(crate) enum Msg {
    /// A wire arrived from the peer.
    Frame(Asn, Wire),
    /// A peering connected, and `out` writes to it. The shell answers
    /// on `taken` whether it takes the connection, and first sends the
    /// acceptor's `hello` if it does.
    Up {
        peer: Asn,
        out: TcpStream,
        hello: bool,
        taken: Sender<bool>,
    },
    /// The peering's connection closed or failed.
    Gone(Asn),
    /// The shell's clock ticked.
    Tick,
    /// Every peering is connected: the engine starts.
    Start,
    /// A host or link event for the local domain.
    Inject(Wire),
    /// The actor's state and the peers connected now, please.
    View(Sender<View>),
    /// Stop.
    Shutdown,
}

/// Handle to a running shell.
pub struct RouterHandle {
    /// Where it accepts peer connections.
    pub listen: SocketAddr,
    mailbox: Sender<Msg>,
    threads: Threads,
}

impl RouterHandle {
    pub(crate) fn send(&self, msg: Msg) {
        let _ = self.mailbox.send(msg);
    }

    /// The actor's current state and the neighbours connected now.
    pub fn view(&self) -> View {
        let (tx, rx) = mpsc::channel();
        self.send(Msg::View(tx));
        rx.recv().unwrap_or_default()
    }

    /// Stops the shell: closes every peering socket both ways, stops
    /// listening, and joins the shell's threads.
    pub fn shutdown(self) {
        self.send(Msg::Shutdown);
        self.threads.stop(self.listen);
    }
}

/// Starts a shell on its bound listener. Its engine starts on the
/// first `Msg::Start`, once every peering is connected.
pub(crate) fn spawn_router(spec: RouterSpec) -> std::io::Result<RouterHandle> {
    let listen = spec.listener.local_addr()?;
    let (asn, me) = (spec.actor.asn, domain_of(spec.actor.asn).0);
    let mut nodes: Vec<Box<dyn Node<Wire> + Send>> = (0..spec.domains)
        .map(|_| Box::new(Remote::default()) as _)
        .collect();
    nodes[me] = Box::new(spec.actor);
    let mut engine = Engine::new(spec.seed, SimDuration::ZERO);
    for node in nodes {
        engine.add_node(node);
    }

    let (mailbox, rx) = mpsc::channel();
    let threads = Threads::default();
    threads.spawn(move || run(engine, NodeId(me), asn, rx));
    let tick = mailbox.clone();
    threads.spawn(move || conn::tick(TICK_MS, tick));
    let neighbours = spec.peers.iter().map(|p| p.0).collect();
    let (tx, t) = (mailbox.clone(), threads.clone());
    threads.spawn(move || conn::accept(spec.listener, asn, neighbours, tx, t));
    for &(peer, addr, _) in spec.peers.iter().filter(|p| p.2) {
        let (tx, t) = (mailbox.clone(), threads.clone());
        threads.spawn(move || conn::dial(addr, asn, peer, tx, t));
    }
    Ok(RouterHandle {
        listen,
        mailbox,
        threads,
    })
}

fn run(mut engine: Engine<Wire>, me: NodeId, asn: Asn, mailbox: Receiver<Msg>) {
    let mut peers: BTreeMap<Asn, TcpStream> = BTreeMap::new();
    let mut started = false;
    let node_of = |asn: Asn| NodeId(domain_of(asn).0);
    while let Ok(msg) = mailbox.recv() {
        let now = engine.now();
        let mut until = now;
        let inject = match msg {
            Msg::Frame(peer, wire) => {
                let actor = engine.node_as::<DomainActor>(me);
                let ok = actor.is_some_and(|a| conn::from_peer(a, peer, &wire));
                ok.then_some((node_of(peer), wire))
            }
            Msg::Tick => {
                until = now + SimDuration::from_millis(TICK_MS);
                None
            }
            Msg::Up {
                peer,
                mut out,
                hello,
                taken,
            } => {
                let took = !peers.contains_key(&peer)
                    && (!hello || write_frame(&mut out, &asn).is_ok())
                    && taken.send(true).is_ok();
                if took {
                    engine.links_mut().set_up(me, node_of(peer));
                    peers.insert(peer, out);
                }
                link_event(&engine, me, peer, true).filter(|_| took && started)
            }
            Msg::Gone(peer) => {
                engine.links_mut().set_down(me, node_of(peer));
                peers.remove(&peer);
                link_event(&engine, me, peer, false).filter(|_| started)
            }
            Msg::Start => {
                started = true;
                None
            }
            Msg::Inject(wire) => Some((NodeId::EXTERNAL, wire)),
            Msg::View(tx) => {
                let peers_up = peers.keys().copied().collect();
                let view = engine.node_as::<DomainActor>(me).map(View::of);
                let _ = tx.send(View {
                    peers_up,
                    ..view.unwrap_or_default()
                });
                None
            }
            Msg::Shutdown => break,
        };
        if let Some((from, wire)) = inject {
            engine.schedule_message_from(now, from, me, wire);
        }
        if !started {
            continue;
        }
        engine.run_until(until);
        for (&peer, out) in &mut peers {
            let remote = engine.node_as_mut::<Remote>(node_of(peer));
            for wire in remote
                .map(|r| std::mem::take(&mut r.outbox))
                .unwrap_or_default()
            {
                let _ = write_frame(out, &wire);
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
