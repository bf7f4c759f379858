//! What drives a shell, as [`Event`]s: its clock tick, and each
//! peering connection — a hello frame each way naming the sender's
//! domain, then [`Wire`] frames both ways.

use std::net::SocketAddr;
use std::sync::Arc;

use bgp::{Asn, RouterId};
use masc_bgmp_core::{DomainActor, Wire};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::{mpsc, oneshot};

use crate::codec::{read_frame, write_frame};

/// What the clock and the sockets tell a shell.
pub(crate) enum Event {
    /// A peering connected; wires for the peer go to the sender. The
    /// shell answers whether it takes the connection.
    Up(Asn, mpsc::Sender<Wire>, oneshot::Sender<bool>),
    /// A wire arrived from the peer.
    Frame(Asn, Wire),
    /// The peering's connection closed or failed.
    Gone(Asn),
    /// The shell's clock ticked.
    Tick,
}

/// Sends a tick every `ms` milliseconds until the shell stops.
pub(crate) async fn tick(ms: u64, ev_tx: mpsc::Sender<Event>) {
    let mut interval = tokio::time::interval(std::time::Duration::from_millis(ms));
    while ev_tx.send(Event::Tick).await.is_ok() {
        interval.tick().await;
    }
}

/// Accepts connections from any of `neighbours`.
pub(crate) async fn accept(
    listener: TcpListener,
    me: Asn,
    neighbours: Arc<[Asn]>,
    ev_tx: mpsc::Sender<Event>,
) {
    while let Ok((sock, _)) = listener.accept().await {
        let (neighbours, ev_tx) = (neighbours.clone(), ev_tx.clone());
        tokio::spawn(handle_conn(sock, me, None, neighbours, ev_tx));
    }
}

/// Dials `peer` at `addr`, retrying until it listens.
pub(crate) async fn dial(addr: SocketAddr, me: Asn, peer: Asn, ev_tx: mpsc::Sender<Event>) {
    for _ in 0..100 {
        if let Ok(sock) = TcpStream::connect(addr).await {
            return handle_conn(sock, me, Some(peer), Arc::new([]), ev_tx).await;
        }
        tokio::time::sleep(std::time::Duration::from_millis(30)).await;
    }
}

/// Runs one connection. The dialer must hear from the domain it dialed
/// and the acceptor from one of its neighbours, and the shell must take
/// the peering (it refuses a second connection for a connected peer);
/// anything else closes the socket. The acceptor answers the hello
/// only once the shell has taken it.
async fn handle_conn(
    sock: TcpStream,
    me: Asn,
    dialed: Option<Asn>,
    neighbours: Arc<[Asn]>,
    ev_tx: mpsc::Sender<Event>,
) {
    let (mut rd, mut wr) = sock.into_split();
    if dialed.is_some() && write_frame(&mut wr, &me).await.is_err() {
        return;
    }
    let Ok(peer) = read_frame::<Asn, _>(&mut rd).await else {
        return;
    };
    if !dialed.map_or(neighbours.contains(&peer), |d| d == peer) {
        return;
    }
    let (out_tx, mut out_rx) = mpsc::channel::<Wire>(1024);
    let (taken_tx, taken_rx) = oneshot::channel();
    if ev_tx.send(Event::Up(peer, out_tx, taken_tx)).await.is_err() || taken_rx.await != Ok(true) {
        return;
    }
    let hello = dialed.is_none().then_some(me);
    tokio::spawn(async move {
        if let Some(me) = hello {
            if write_frame(&mut wr, &me).await.is_err() {
                return;
            }
        }
        while let Some(wire) = out_rx.recv().await {
            if write_frame(&mut wr, &wire).await.is_err() {
                break;
            }
        }
    });
    loop {
        let ev = match read_frame(&mut rd).await {
            Ok(wire) => Event::Frame(peer, wire),
            Err(_) => Event::Gone(peer),
        };
        let gone = matches!(ev, Event::Gone(_));
        if ev_tx.send(ev).await.is_err() || gone {
            return;
        }
    }
}

/// The peerings with `peer`: (local border router, peer's router).
pub(crate) fn peerings(
    actor: &DomainActor,
    peer: Asn,
) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
    actor.routers.iter().flat_map(move |br| {
        let peers = br.speaker.peers().filter(move |p| p.asn == peer);
        peers.map(|p| (br.id, p.router))
    })
}

/// Whether the neighbour `peer` may send this wire: a router-to-router
/// message only between the two ends of one of its peerings, MASC only
/// in its own name. Host and link events are the shell's own to inject.
pub(crate) fn from_peer(actor: &DomainActor, peer: Asn, wire: &Wire) -> bool {
    match *wire {
        Wire::Bgp { from, to, .. }
        | Wire::Bgmp { from, to, .. }
        | Wire::Data { from, to, .. }
        | Wire::Keepalive { from, to, .. }
        | Wire::BgpRefresh { from, to } => peerings(actor, peer).any(|p| p == (to, from)),
        Wire::Masc { from, .. } => from == peer,
        Wire::HostJoin { .. }
        | Wire::HostLeave { .. }
        | Wire::SendData { .. }
        | Wire::PeerLinkDown { .. }
        | Wire::PeerLinkUp { .. } => false,
    }
}
