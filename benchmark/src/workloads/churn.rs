//! `group_churn`: groups join, carry data and leave on a converged
//! internet — `bgmp`, `migp` and `core::domain` at work, `bgp` only
//! through its read path.

use std::collections::BTreeMap;
use std::time::Duration;

use masc_bgmp_core::{analysis, asn_of, invariants, HostId, Internet};
use mcast_addr::McastAddr;
use rand::seq::SliceRandom;
use rand::Rng;
use topology::DomainId;

use super::bgp::{busiest_domain, config, graph, rng};
use crate::drive::{Env, Size, Workload};
use crate::probes;

/// One group: its address, member hosts and the non-member hosts that
/// send to it.
pub struct Group {
    /// Address allocated from the root domain's range.
    pub addr: McastAddr,
    /// One member host in each member domain.
    pub members: Vec<HostId>,
    /// Hosts in domains without a member.
    pub senders: Vec<HostId>,
}

/// Builds the internet of `seed` and lets BGP converge.
pub fn converged_internet(seed: u64, size: Size, env: &mut Env<'_>) -> Internet {
    let (g, _) = env.tr.time("topology.internet_like", || graph(seed, size));
    let cfg = config(seed);
    let (mut net, _) = env.tr.time("core.build", || Internet::build(g, &cfg));
    env.tr.time("bgp.converge", || net.converge());
    net
}

/// Places `groups` groups of `members` member domains each: root
/// domain, members and senders all drawn from the seed.
pub fn place_groups(net: &mut Internet, seed: u64, groups: usize, members: usize) -> Vec<Group> {
    const SENDERS: usize = 16;
    let mut rng = rng(seed, 0x6209);
    let all: Vec<DomainId> = net.graph.domains().collect();
    assert!(
        members + SENDERS <= all.len(),
        "graph too small for the membership"
    );
    (0..groups)
        .map(|_| {
            let root = all[rng.gen_range(0..all.len())];
            let addr = net.group_addr(root);
            let mut pool = all.clone();
            pool.shuffle(&mut rng);
            let host = |host: u32| {
                move |d: &DomainId| HostId {
                    domain: asn_of(*d),
                    host,
                }
            };
            Group {
                addr,
                members: pool[..members].iter().map(host(1)).collect(),
                senders: pool[members..members + SENDERS]
                    .iter()
                    .map(host(5))
                    .collect(),
            }
        })
        .collect()
}

/// Schedules every member's join (or leave).
pub fn schedule_membership(net: &mut Internet, groups: &[Group], join: bool) {
    for g in groups {
        for m in &g.members {
            if join {
                net.host_join(*m, g.addr);
            } else {
                net.host_leave(*m, g.addr);
            }
        }
    }
}

/// See the module docs.
pub struct GroupChurn {
    seed: u64,
    size: Size,
    first: Option<[u64; 5]>,
}

impl GroupChurn {
    /// The workload for one seed and size.
    pub fn new(seed: u64, size: Size) -> Self {
        GroupChurn {
            seed,
            size,
            first: None,
        }
    }

    /// (groups, member domains per group, data packets).
    fn shape(&self) -> (usize, usize, usize) {
        match self.size {
            Size::Full => (500, 30, 5000),
            Size::Smoke => (60, 12, 600),
        }
    }
}

/// The converged internet, the placed groups, and what the timed
/// section saw.
pub struct State {
    net: Internet,
    groups: Vec<Group>,
    /// `(packet id, group index)` of every data packet sent.
    packets: Vec<(u64, usize)>,
    star_entries: usize,
    violations_joined: usize,
    join_us_per_event: f64,
    events: [u64; 3],
}

impl Workload for GroupChurn {
    type State = State;

    /// Membership and data operations: joins + sends + leaves.
    fn ops(&self) -> u64 {
        let (groups, members, sends) = self.shape();
        (2 * groups * members + sends) as u64
    }

    fn setup(&mut self, env: &mut Env<'_>) -> State {
        let (groups, members, _) = self.shape();
        let mut net = converged_internet(self.seed, self.size, env);
        let groups = place_groups(&mut net, self.seed, groups, members);
        State {
            net,
            groups,
            packets: Vec::new(),
            star_entries: 0,
            violations_joined: 0,
            join_us_per_event: 0.0,
            events: [0; 3],
        }
    }

    fn timed(&mut self, st: &mut State, env: &mut Env<'_>) -> Duration {
        let (_, _, sends) = self.shape();
        let net = &mut st.net;
        let groups = &st.groups;
        let s0 = net.engine.stats();
        let e0 = s0.events;

        let ((), join) = env.tr.time("core.join", || {
            schedule_membership(net, groups, true);
            net.converge();
        });
        let e1 = net.engine.stats().events;

        // Untimed: the trees as built, before data flows over them.
        st.star_entries = analysis::total_star_entries(net, None);
        st.violations_joined = invariants::check_quiescent(net).len();

        let packets = &mut st.packets;
        let ((), send) = env.tr.time("core.send", || {
            for k in 0..sends {
                let gi = k % groups.len();
                let g = &groups[gi];
                let from = g.senders[(k / groups.len()) % g.senders.len()];
                packets.push((net.send_data(from, g.addr), gi));
            }
            net.converge();
        });
        let e2 = net.engine.stats().events;

        let ((), leave) = env.tr.time("core.leave", || {
            schedule_membership(net, groups, false);
            net.converge();
        });
        let s3 = net.engine.stats();
        let e3 = s3.events;

        st.events = [e1 - e0, e2 - e1, e3 - e2];
        st.join_us_per_event = join.as_secs_f64() * 1e6 / (e1 - e0) as f64;
        let joins: usize = groups.iter().map(|g| g.members.len()).sum();
        let s = &mut *env.samples;
        s.push("core.join_ms", join.as_secs_f64() * 1e3);
        s.push("core.send_ms", send.as_secs_f64() * 1e3);
        s.push("core.leave_ms", leave.as_secs_f64() * 1e3);
        s.push("core.join_us_per_event", st.join_us_per_event);
        s.push(
            "core.send_us_per_event",
            send.as_secs_f64() * 1e6 / (e2 - e1) as f64,
        );
        s.push("core.events_per_join", (e1 - e0) as f64 / joins as f64);
        s.push_engine(s0, s3, join + send + leave);
        join + send + leave
    }

    fn verify(&mut self, mut st: State, env: &mut Env<'_>) {
        let net = &st.net;
        // Every packet reached exactly its group's member hosts. One
        // pass over the delivery logs (`Internet::deliveries` rescans
        // them per packet).
        let mut got: BTreeMap<u64, Vec<HostId>> = BTreeMap::new();
        for d in net.graph.domains() {
            for (id, host) in &net.domain(d).log.received {
                got.entry(*id).or_default().push(*host);
            }
        }
        let mut deliveries = 0u64;
        let mut wrong = 0usize;
        for (id, gi) in &st.packets {
            let mut have = got.remove(id).unwrap_or_default();
            have.sort();
            let mut want = st.groups[*gi].members.clone();
            want.sort();
            deliveries += have.len() as u64;
            wrong += usize::from(have != want);
        }
        let c = &mut *env.checks;
        c.check(wrong == 0, || {
            format!(
                "{wrong} of {} packets missed or overshot their group's members",
                st.packets.len()
            )
        });
        let (dups, encaps) = (net.total_duplicates(), net.total_encapsulations());
        c.check(dups == 0, || format!("{dups} duplicate deliveries"));
        c.check(st.violations_joined == 0, || {
            format!(
                "{} invariant violations with all groups joined",
                st.violations_joined
            )
        });
        let left = analysis::total_star_entries(net, None);
        c.check(left == 0, || {
            format!("{left} (*,G) entries survive the leaves")
        });
        let quiet = invariants::check_quiescent(net);
        c.check(quiet.is_empty(), || {
            format!("not quiescent after the leaves: {quiet:?}")
        });
        let fp = [st.events[0], st.events[1], st.events[2], deliveries, encaps];
        let first = *self.first.get_or_insert(fp);
        c.check(fp == first, || {
            format!(
                "repetition {} ran differently: {fp:?} vs {first:?}",
                env.rep
            )
        });

        let s = &mut *env.samples;
        s.push("bgmp.star_entries", st.star_entries as f64);
        s.push("core.deliveries", deliveries as f64);
        s.push("core.duplicates", dups as f64);
        s.push("core.encapsulations", encaps as f64);

        if env.traced {
            // The quarter-size pass: the same internet, a quarter of the
            // groups. Equal cost per join event at both sizes reads 1.0;
            // cost linear in the number of live groups reads 4.0.
            let quarter = &st.groups[..st.groups.len() / 4];
            let net = &mut st.net;
            let e0 = net.engine.stats().events;
            let ((), join) = env.tr.time("core.join.quarter", || {
                schedule_membership(net, quarter, true);
                net.converge();
            });
            let events = net.engine.stats().events - e0;
            schedule_membership(net, quarter, false);
            net.converge();
            let quarter_us = join.as_secs_f64() * 1e6 / events as f64;
            env.samples
                .push("bgmp.groups_scaling", st.join_us_per_event / quarter_us);
        }

        if env.probe {
            let hub = busiest_domain(&st.net.graph);
            let addrs: Vec<McastAddr> = st.groups.iter().map(|g| g.addr).collect();
            probes::rib_lookup(env, st.net.domain(hub).routers[0].speaker.rib(), &addrs);
            probes::bgmp_router(env, &addrs);
            probes::migp_ops(env, &addrs);
            probes::bare_engine(env, st.net.graph.len(), 1.0);
        }
    }
}
