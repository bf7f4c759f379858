//! Standing up a localhost internet of border-router shells, and the
//! host-level API that drives it.

use std::net::TcpListener;

use bgmp::GroupEntry;
use bgp::session::SessionTimers;
use bgp::{Asn, ExportPolicy, RouterId};
use masc_bgmp_core::{asn_of, domain_actors, DomainActor, HostId, InternetConfig, Wire};
use mcast_addr::{McastAddr, Prefix};
use topology::DomainGraph;

use crate::router_task::{spawn_router, Msg, RouterHandle, RouterSpec};

/// The configuration every shell's actor is built from: the
/// simulator's defaults (a border router per peering, static ranges)
/// with session liveness on — keepalive every 2 s, a peer dead after
/// 6 s of silence, a failed session retried after 3 s.
pub fn config(policy: ExportPolicy) -> InternetConfig {
    InternetConfig {
        policy,
        sessions: Some(SessionTimers {
            keepalive: 2,
            hold: 6,
            retry: 3,
        }),
        ..InternetConfig::default()
    }
}

/// What a test sees of one domain, read the same way from a shell and
/// from a simulated `Internet`'s actor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct View {
    /// Selected group routes: (border router, prefix, origin ASN).
    pub grib: Vec<(RouterId, Prefix, Option<Asn>)>,
    /// (*,G) and (*,G-prefix) entries: (border router, key, entry).
    pub star: Vec<(RouterId, Prefix, GroupEntry)>,
    /// Packets delivered to local hosts: (packet id, host), sorted.
    pub received: Vec<(u64, HostId)>,
    /// Neighbour domains connected now (empty from [`View::of`]).
    pub peers_up: Vec<Asn>,
}

impl View {
    /// The protocol state of `actor`.
    pub fn of(actor: &DomainActor) -> View {
        let mut received = actor.log.received.clone();
        received.sort();
        View {
            grib: (actor.routers.iter())
                .flat_map(|br| {
                    let routes = br.speaker.rib().group_routes();
                    routes.map(|(p, r)| (br.id, *p, r.origin_asn()))
                })
                .collect(),
            star: (actor.routers.iter())
                .flat_map(|br| {
                    let entries = br.bgmp.table().star_entries();
                    entries.map(|(p, e)| (br.id, *p, e.clone()))
                })
                .collect(),
            received,
            peers_up: Vec::new(),
        }
    }
}

/// A running localhost internet: one shell per domain.
pub struct ActorNet {
    /// Handles, indexed by `DomainId.0`.
    pub routers: Vec<RouterHandle>,
    /// Each domain's statically assigned group range.
    pub ranges: Vec<Prefix>,
    next_packet: u64,
}

impl ActorNet {
    /// Builds every domain's actor from [`config`], starts one shell
    /// per domain with TCP peerings along the edges of `graph`, and
    /// starts the engines once every peering is connected.
    pub fn start(graph: &DomainGraph, policy: ExportPolicy) -> std::io::Result<ActorNet> {
        let cfg = config(policy);
        let (actors, ranges) = domain_actors(graph, &cfg);
        let listeners = (graph.domains())
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<Vec<_>>>()?;
        let addrs = (listeners.iter())
            .map(TcpListener::local_addr)
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut routers = Vec::with_capacity(graph.len());
        for ((d, actor), listener) in graph.domains().zip(actors).zip(listeners) {
            let peers = (graph.neighbors(d).iter())
                .map(|&(nb, _)| (asn_of(nb), addrs[nb.0], d.0 > nb.0)) // higher id dials
                .collect();
            let spec = RouterSpec {
                actor,
                domains: graph.len(),
                seed: cfg.seed,
                listener,
                peers,
            };
            routers.push(spawn_router(spec)?);
        }
        let net = ActorNet {
            routers,
            ranges: ranges.into_iter().flatten().collect(),
            next_packet: 0,
        };
        let all_up = net.wait_until(|d, v| v.peers_up.len() == graph.degree(topology::DomainId(d)));
        if !all_up {
            let e = std::io::ErrorKind::TimedOut;
            return Err(std::io::Error::new(e, "peerings did not come up"));
        }
        for h in &net.routers {
            h.send(Msg::Start);
        }
        Ok(net)
    }

    fn inject(&self, host: HostId, wire: Wire) {
        let d = masc_bgmp_core::domain_of(host.domain).0;
        self.routers[d].send(Msg::Inject(wire));
    }

    /// A host joins a group.
    pub fn host_join(&self, host: HostId, group: McastAddr) {
        self.inject(host, Wire::HostJoin { host, group });
    }

    /// A host leaves a group.
    pub fn host_leave(&self, host: HostId, group: McastAddr) {
        self.inject(host, Wire::HostLeave { host, group });
    }

    /// A host multicasts one packet; returns its id (numbered from 0,
    /// as `Internet::send_data` numbers them).
    pub fn send_data(&mut self, host: HostId, group: McastAddr) -> u64 {
        let id = self.next_packet;
        self.next_packet += 1;
        self.inject(host, Wire::SendData { host, group, id });
        id
    }

    /// Polls until `check` passes on every domain's view or the budget
    /// runs out (convergence over real sockets is asynchronous).
    pub fn wait_until<F>(&self, mut check: F) -> bool
    where
        F: FnMut(usize, &View) -> bool,
    {
        for _ in 0..500 {
            let mut ok = true;
            for (i, h) in self.routers.iter().enumerate() {
                if !check(i, &h.view()) {
                    ok = false;
                    break;
                }
            }
            if ok {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        false
    }

    /// Shuts every shell down.
    pub fn stop(self) {
        for h in self.routers {
            h.shutdown();
        }
    }
}
