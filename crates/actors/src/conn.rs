//! The threads that feed a shell's mailbox: its clock tick, its
//! acceptor and dialers, and a reader per peering connection — a
//! hello frame each way naming the sender's domain, then [`Wire`]
//! frames both ways.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bgp::{Asn, RouterId};
use masc_bgmp_core::{DomainActor, Wire};

use crate::codec::{read_frame, write_frame};
use crate::router_task::Msg;

/// Every socket and thread of one shell, so that stopping it closes
/// and joins them all.
#[derive(Clone, Default)]
pub(crate) struct Threads(Arc<Mutex<Inner>>);

#[derive(Default)]
struct Inner {
    stopped: bool,
    next: u64,
    sockets: Vec<(u64, TcpStream)>,
    handles: Vec<JoinHandle<()>>,
}

impl Threads {
    /// Every update leaves `Inner` whole, so a poisoned lock is still
    /// good to use.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on a thread of its own; `false` once the shell has
    /// stopped.
    #[expect(
        clippy::disallowed_methods,
        reason = "a shell's domain loop, clock and sockets each block for the shell's life; they are not fan-out"
    )]
    pub(crate) fn spawn(&self, f: impl FnOnce() + Send + 'static) -> bool {
        let mut inner = self.inner();
        if inner.stopped {
            return false;
        }
        inner.handles.push(std::thread::spawn(f));
        true
    }

    /// Registers a connection so that stopping the shell closes it;
    /// `None` once the shell has stopped.
    fn open(&self, sock: &TcpStream) -> Option<u64> {
        let mut inner = self.inner();
        let clone = sock.try_clone().ok().filter(|_| !inner.stopped)?;
        inner.next += 1;
        let id = inner.next;
        inner.sockets.push((id, clone));
        Some(id)
    }

    /// Closes a connection both ways and forgets it.
    fn close(&self, id: u64, sock: &TcpStream) {
        let _ = sock.shutdown(Shutdown::Both);
        self.inner().sockets.retain(|s| s.0 != id);
    }

    /// Closes every connection, wakes the acceptor at `listen` so it
    /// drops the listener, and joins every thread; a thread's panic
    /// resumes here.
    pub(crate) fn stop(&self, listen: SocketAddr) {
        let handles = {
            let mut inner = self.inner();
            inner.stopped = true;
            for (_, sock) in inner.sockets.drain(..) {
                let _ = sock.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut inner.handles)
        };
        let _ = TcpStream::connect(listen);
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// Sends a tick every `ms` milliseconds until the shell stops.
pub(crate) fn tick(ms: u64, mailbox: Sender<Msg>) {
    loop {
        std::thread::sleep(Duration::from_millis(ms));
        if mailbox.send(Msg::Tick).is_err() {
            return;
        }
    }
}

/// Accepts connections from any of `neighbours` until the shell stops.
pub(crate) fn accept(
    listener: TcpListener,
    me: Asn,
    neighbours: Arc<[Asn]>,
    mailbox: Sender<Msg>,
    threads: Threads,
) {
    while let Ok((sock, _)) = listener.accept() {
        let (neighbours, mailbox, t) = (neighbours.clone(), mailbox.clone(), threads.clone());
        if !threads.spawn(move || serve(sock, me, None, &neighbours, &mailbox, &t)) {
            return;
        }
    }
}

/// Dials `peer` at `addr`, retrying until it listens or the shell
/// stops, and then serves the connection.
pub(crate) fn dial(addr: SocketAddr, me: Asn, peer: Asn, mailbox: Sender<Msg>, threads: Threads) {
    for _ in 0..100 {
        if threads.inner().stopped {
            return;
        }
        if let Ok(sock) = TcpStream::connect(addr) {
            return serve(sock, me, Some(peer), &[], &mailbox, &threads);
        }
        std::thread::sleep(Duration::from_millis(30));
    }
}

/// Runs one connection while the shell lives, then closes it.
fn serve(
    sock: TcpStream,
    me: Asn,
    dialed: Option<Asn>,
    neighbours: &[Asn],
    mailbox: &Sender<Msg>,
    threads: &Threads,
) {
    if let Some(id) = threads.open(&sock) {
        handle_conn(&sock, me, dialed, neighbours, mailbox);
        threads.close(id, &sock);
    }
}

/// Runs one connection. The dialer must hear from the domain it dialed
/// and the acceptor from one of its neighbours, and the shell must take
/// the peering (it refuses a second connection for a connected peer);
/// anything else returns, and the caller closes the socket. The shell
/// writes the acceptor's hello once it has taken the connection.
fn handle_conn(
    sock: &TcpStream,
    me: Asn,
    dialed: Option<Asn>,
    neighbours: &[Asn],
    mailbox: &Sender<Msg>,
) {
    let _ = sock.set_nodelay(true);
    let mut sock = sock;
    if dialed.is_some() && write_frame(&mut sock, &me).is_err() {
        return;
    }
    let Ok(peer) = read_frame::<Asn, _>(&mut sock) else {
        return;
    };
    if !dialed.map_or(neighbours.contains(&peer), |d| d == peer) {
        return;
    }
    let Ok(out) = sock.try_clone() else {
        return;
    };
    let (taken, answer) = mpsc::channel();
    let hello = dialed.is_none();
    let up = Msg::Up {
        peer,
        out,
        hello,
        taken,
    };
    if mailbox.send(up).is_err() || answer.recv() != Ok(true) {
        return;
    }
    loop {
        let msg = match read_frame(&mut sock) {
            Ok(wire) => Msg::Frame(peer, wire),
            Err(_) => Msg::Gone(peer),
        };
        let gone = matches!(msg, Msg::Gone(_));
        if mailbox.send(msg).is_err() || gone {
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
