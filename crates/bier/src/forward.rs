//! Hop-by-hop bitstring forwarding across a network of BIFTs.
//!
//! The RFC 8279 forwarding loop, per router: for each BIFT entry whose
//! F-BM intersects the packet's bitstring, emit one copy carrying
//! `bitstring & F-BM` to that neighbor, then clear those bits from the
//! working bitstring. Local delivery is just "my own bit is set".
//! Because every copy's bitstring is a strict subset disjoint from its
//! siblings', delivery is exactly-once and the walk terminates without
//! any duplicate-suppression state — properties the tests pin down.
//!
//! The loop runs in place: the queued copies' bitstrings share one word
//! arena (copy *i* at words `i·w..(i+1)·w`), an entry is tested for
//! intersection before anything is copied, the working bitstring is
//! cleared where it lies, and a router's entries are left as soon as it
//! is empty. The arena and queue are kept per thread, so a send
//! allocates nothing but its result once they have grown.
//!
//! [`Network`] also accepts a *fault view* (down links / down routers)
//! and an optional [`Protection`] table so the fault ablation can
//! replay flap windows: on a down link the router tunnels the copy
//! along its precomputed 1:1 backup path to the adjacency's far end,
//! modeling BIER-TE fast reroute after local detection. Tunneling to
//! the far end (rather than handing to an arbitrary alternate next
//! hop) is what keeps repair loop-free.

use std::cell::RefCell;

use crate::bift::Bift;
use crate::bitstring::{self, BitString, SetId, SubDomain};
use crate::protect::Protection;
use topology::{DomainGraph, DomainId};

/// Outcome of forwarding one (set, bitstring) packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// `(receiver, hops from ingress)` for every delivered bit, in
    /// delivery order (deterministic).
    pub reached: Vec<(DomainId, u32)>,
    /// Total copies placed on links (the traffic-cost metric fig4's
    /// link-copy column reports).
    pub link_copies: usize,
    /// Bits that were requested but never delivered (down routers,
    /// partitioned topology).
    pub lost: Vec<DomainId>,
}

/// A full set of BIFTs plus the fault view they forward under.
#[derive(Debug, Clone)]
pub struct Network {
    sub: SubDomain,
    /// `bifts[d]` = the BIFT at domain `d`.
    bifts: Vec<Bift>,
    /// Links administratively/faultily down, stored with endpoints
    /// ordered low-high.
    down_links: Vec<(DomainId, DomainId)>,
    /// Routers currently down.
    down_nodes: Vec<DomainId>,
}

/// One walk's buffers, reused by every send on the thread.
#[derive(Default)]
struct Walk {
    /// Copies in FIFO order: `(router, hops from ingress)`; the head
    /// index, not removal, marks what has been forwarded.
    queue: Vec<(DomainId, u32)>,
    /// Copy `i`'s bitstring is `words[i·w..(i+1)·w]`.
    words: Vec<u64>,
    /// Requested bits not yet delivered.
    undelivered: Vec<u64>,
    /// [`Network::deliver_all`]'s request: set `si`'s bitstring is
    /// `request[si·w..(si+1)·w]`.
    request: Vec<u64>,
}

thread_local! {
    static WALK: RefCell<Walk> = RefCell::new(Walk::default());
}

impl Network {
    /// Builds every router's BIFT over `g`.
    pub fn build(g: &DomainGraph, sub: &SubDomain) -> Self {
        let bifts = g.domains().map(|d| Bift::build(g, sub, d)).collect();
        Network {
            sub: sub.clone(),
            bifts,
            down_links: Vec::new(),
            down_nodes: Vec::new(),
        }
    }

    /// The sub-domain this network partitions by.
    pub fn sub(&self) -> &SubDomain {
        &self.sub
    }

    /// The BIFT at `d`.
    pub fn bift(&self, d: DomainId) -> &Bift {
        &self.bifts[d.0]
    }

    /// Total BIFT entries across all routers (aggregate forwarding
    /// state, the BIER analogue of fig4's G-RIB size column).
    pub fn total_entries(&self) -> usize {
        self.bifts.iter().map(Bift::entry_count).sum()
    }

    /// Marks a link down (order-insensitive). No-op if already down.
    pub fn set_link_down(&mut self, a: DomainId, b: DomainId) {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if !self.down_links.contains(&key) {
            self.down_links.push(key);
        }
    }

    /// Marks a link back up.
    pub fn set_link_up(&mut self, a: DomainId, b: DomainId) {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.down_links.retain(|k| *k != key);
    }

    /// Marks a router down / up.
    pub fn set_node_down(&mut self, d: DomainId) {
        if !self.down_nodes.contains(&d) {
            self.down_nodes.push(d);
        }
    }

    /// Marks a router back up.
    pub fn set_node_up(&mut self, d: DomainId) {
        self.down_nodes.retain(|n| *n != d);
    }

    /// Clears the whole fault view.
    pub fn clear_faults(&mut self) {
        self.down_links.clear();
        self.down_nodes.clear();
    }

    fn link_ok(&self, a: DomainId, b: DomainId) -> bool {
        let key = if a.0 <= b.0 { (a, b) } else { (b, a) };
        !self.down_links.contains(&key)
    }

    fn node_ok(&self, d: DomainId) -> bool {
        !self.down_nodes.contains(&d)
    }

    /// Forwards one packet for set `si` with bitstring `bs` from
    /// `ingress`, optionally protected by `prot` (1:1 backup next hops
    /// consulted when the primary adjacency is down).
    ///
    /// Deterministic: the work queue is FIFO and BIFT entries are
    /// iterated in neighbor order, so `reached`, `lost`, and
    /// `link_copies` are reproducible bit-for-bit.
    pub fn deliver(
        &self,
        ingress: DomainId,
        si: SetId,
        bs: &BitString,
        prot: Option<&Protection>,
    ) -> Delivery {
        let mut out = Delivery {
            reached: Vec::with_capacity(bs.count_ones()),
            link_copies: 0,
            lost: Vec::new(),
        };
        WALK.with(|walk| {
            self.walk(
                ingress,
                si,
                bs.words(),
                prot,
                &mut walk.borrow_mut(),
                &mut out,
            )
        });
        out
    }

    /// Forwards to an arbitrary receiver list: encodes it into per-set
    /// bitstrings and delivers each set's packet, in ascending set
    /// order (one arena and queue serve every set).
    pub fn deliver_all(
        &self,
        ingress: DomainId,
        receivers: &[DomainId],
        prot: Option<&Protection>,
    ) -> Delivery {
        let mut out = Delivery {
            reached: Vec::with_capacity(receivers.len()),
            link_copies: 0,
            lost: Vec::new(),
        };
        WALK.with(|walk| {
            let walk = &mut *walk.borrow_mut();
            let w = self.sub.bsl().div_ceil(64);
            let mut request = std::mem::take(&mut walk.request);
            request.clear();
            request.resize(self.sub.sets() * w, 0);
            for &r in receivers {
                let (si, pos) = self.sub.position(self.sub.bfr_of(r));
                request[si.0 as usize * w + pos / 64] |= 1u64 << (pos % 64);
            }
            for (si, bs) in request.chunks_exact(w).enumerate() {
                if bs.iter().any(|x| *x != 0) {
                    self.walk(ingress, SetId(si as u32), bs, prot, walk, &mut out);
                }
            }
            walk.request = request;
        });
        out
    }

    /// The in-place forwarding loop for one set's bitstring `bs`,
    /// appending to `out`.
    fn walk(
        &self,
        ingress: DomainId,
        si: SetId,
        bs: &[u64],
        prot: Option<&Protection>,
        walk: &mut Walk,
        out: &mut Delivery,
    ) {
        // Domains owning the set bits of a bitstring in set `si`.
        let base = si.0 as usize * self.sub.bsl();
        let owner = |pos| DomainId(base + pos);
        if !self.node_ok(ingress) {
            out.lost.extend(bitstring::ones(bs).map(owner));
            return;
        }
        let w = bs.len();
        let Walk {
            queue,
            words,
            undelivered,
            request: _,
        } = walk;
        queue.clear();
        queue.push((ingress, 0));
        words.clear();
        words.extend_from_slice(bs);
        undelivered.clear();
        undelivered.extend_from_slice(bs);
        let mut head = 0;
        while let Some(&(at, hops)) = queue.get(head) {
            let cur = head * w;
            head += 1;
            // Local delivery: my own bit.
            if let Some(pos) = self.bit_of(si, at) {
                let (k, bit) = (pos / 64, 1u64 << (pos % 64));
                if words[cur + k] & bit != 0 {
                    out.reached.push((at, hops));
                    words[cur + k] &= !bit;
                    undelivered[k] &= !bit;
                }
            }
            if words[cur..cur + w].iter().all(|x| *x == 0) {
                continue;
            }
            for row in self.bifts[at.0].rows(si.0) {
                let (neighbor, fbm) = (DomainId(row[0] as usize), &row[1..]);
                if !(0..w).any(|k| words[cur + k] & fbm[k] != 0) {
                    continue;
                }
                let copy = words.len();
                let mut rest = 0;
                for (k, &f) in fbm.iter().enumerate() {
                    let x = words[cur + k];
                    words.push(x & f);
                    words[cur + k] = x & !f;
                    rest |= x & !f;
                }
                match self.hop(at, neighbor, prot) {
                    Some(links) => {
                        out.link_copies += links;
                        queue.push((neighbor, hops + links as u32));
                    }
                    None => words.truncate(copy),
                }
                if rest == 0 {
                    break;
                }
            }
        }
        out.lost.extend(bitstring::ones(undelivered).map(owner));
    }

    /// Links a copy from `at` costs to reach `neighbor`: 1 over a
    /// healthy adjacency, the length of the 1:1 backup path when the
    /// adjacency is down and the whole detour is healthy (single-failure
    /// coverage); `None` when the copy is dropped — a dead neighbor
    /// (protection covers links, not a dead far end) or no healthy way
    /// around.
    fn hop(&self, at: DomainId, neighbor: DomainId, prot: Option<&Protection>) -> Option<usize> {
        if !self.node_ok(neighbor) {
            return None;
        }
        if self.link_ok(at, neighbor) {
            return Some(1);
        }
        let path = prot?.backup_path(at, neighbor)?;
        let healthy = path.windows(2).all(|w| self.link_ok(w[0], w[1]))
            && path.iter().skip(1).all(|d| self.node_ok(*d));
        healthy.then(|| path.len() - 1)
    }

    /// Bit position of `d` within set `si`, if it belongs to that set.
    fn bit_of(&self, si: SetId, d: DomainId) -> Option<usize> {
        let (dsi, pos) = self.sub.position(self.sub.bfr_of(d));
        (dsi == si).then_some(pos)
    }
}

impl snapshot::SnapshotState for Network {
    fn encode_state(&self, enc: &mut snapshot::Enc) {
        let Self {
            down_links,
            down_nodes,
            // the sub-domain and its BIFTs are a function of the topology, rebuilt on restore
            sub: _,
            bifts: _,
        } = self;
        enc.seq(down_links.len());
        for (a, b) in down_links {
            enc.usize(a.0);
            enc.usize(b.0);
        }
        enc.seq(down_nodes.len());
        for d in down_nodes {
            enc.usize(d.0);
        }
    }
    fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), snapshot::SnapError> {
        let n = dec.seq()?;
        let mut down_links = Vec::with_capacity(n);
        for _ in 0..n {
            down_links.push((DomainId(dec.usize()?), DomainId(dec.usize()?)));
        }
        let n = dec.seq()?;
        let mut down_nodes = Vec::with_capacity(n);
        for _ in 0..n {
            down_nodes.push(DomainId(dec.usize()?));
        }
        let Self {
            // the sub-domain and its BIFTs are a function of the topology, rebuilt on restore
            sub: _,
            bifts: _,
            down_links: links,
            down_nodes: nodes,
        } = self;
        *links = down_links;
        *nodes = down_nodes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{internet_like, InternetSpec};

    fn diamond() -> (DomainGraph, [DomainId; 4]) {
        // a - b - d and a - c - d
        let mut g = DomainGraph::new();
        let a = g.add_domain("a");
        let b = g.add_domain("b");
        let c = g.add_domain("c");
        let d = g.add_domain("d");
        g.add_peering(a, b);
        g.add_peering(a, c);
        g.add_peering(b, d);
        g.add_peering(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn delivers_exactly_once_with_shared_prefix() {
        let (g, [a, b, _c, d]) = diamond();
        let sub = SubDomain::new(4, 256);
        let net = Network::build(&g, &sub);
        let got = net.deliver_all(a, &[b, d], None);
        assert!(got.lost.is_empty());
        let mut names: Vec<DomainId> = got.reached.iter().map(|(r, _)| *r).collect();
        names.sort();
        assert_eq!(names, vec![b, d]);
        // b at 1 hop, d at 2; the b→d leg rides the copy already sent
        // to b, so only 2 link copies total.
        for (r, h) in &got.reached {
            let want = if *r == b { 1 } else { 2 };
            assert_eq!(*h, want, "hops to {r:?}");
        }
        assert_eq!(got.link_copies, 2);
    }

    #[test]
    fn down_link_loses_without_protection_recovers_with() {
        let (g, [a, b, _c, d]) = diamond();
        let sub = SubDomain::new(4, 256);
        let mut net = Network::build(&g, &sub);
        net.set_link_down(a, b);
        // Unprotected: b unreachable (its only shortest path used a-b),
        // d still delivered? d's first hop from a ties to b (adjacency
        // order) — so both ride a-b and both are lost.
        let got = net.deliver_all(a, &[b, d], None);
        assert_eq!(got.reached, vec![]);
        let mut lost = got.lost.clone();
        lost.sort();
        assert_eq!(lost, vec![b, d]);
        // Protected: the a→b copy tunnels the backup path a-c-d-b
        // (3 links), then d is reached from b over the healthy b-d
        // link — suboptimal paths, zero loss, exactly the FRR tradeoff.
        let prot = Protection::build(&g);
        let got = net.deliver_all(a, &[b, d], Some(&prot));
        assert!(got.lost.is_empty(), "lost {:?}", got.lost);
        let mut reached = got.reached.clone();
        reached.sort();
        assert_eq!(reached, vec![(b, 3), (d, 4)]);
    }

    #[test]
    fn down_node_drops_bits_routed_through_it() {
        // Node (not link) failure: 1:1 link protection does not apply,
        // so the crashed router's bit AND bits routed through it are
        // lost until reconvergence — the honest limit of FRR.
        let (g, [a, b, c, d]) = diamond();
        let sub = SubDomain::new(4, 256);
        let mut net = Network::build(&g, &sub);
        net.set_node_down(b);
        let prot = Protection::build(&g);
        let got = net.deliver_all(a, &[b, c, d], Some(&prot));
        let mut lost = got.lost.clone();
        lost.sort();
        assert_eq!(lost, vec![b, d], "b's copy carried d's bit too");
        let names: Vec<DomainId> = got.reached.iter().map(|(r, _)| *r).collect();
        assert_eq!(names, vec![c]);
    }

    #[test]
    fn multi_set_delivery_covers_every_receiver() {
        let g = internet_like(&InternetSpec {
            n: 150,
            backbones: 4,
            attach: 2,
            extra_peerings: 4,
            seed: 5,
        });
        let sub = SubDomain::new(150, 64); // 3 sets
        let net = Network::build(&g, &sub);
        let receivers: Vec<DomainId> = (0..150).step_by(7).map(DomainId).collect();
        let ingress = DomainId(3);
        let got = net.deliver_all(ingress, &receivers, None);
        assert!(got.lost.is_empty());
        let mut names: Vec<DomainId> = got.reached.iter().map(|(r, _)| *r).collect();
        names.sort();
        names.dedup();
        let mut want = receivers.clone();
        want.sort();
        assert_eq!(names.len(), want.len(), "exactly-once delivery");
        assert_eq!(names, want);
        // Hop counts equal unicast shortest-path distances: BIER rides
        // the SPT, so its path stretch over unicast is exactly 1.
        let t = topology::bfs(&g, ingress);
        for (r, h) in &got.reached {
            let want = if *r == ingress {
                0
            } else {
                t.dist_to(*r).unwrap()
            };
            assert_eq!(*h, want, "hops to {r:?}");
        }
    }

    #[test]
    fn ingress_in_receiver_set_self_delivers_at_zero_hops() {
        let (g, [a, b, ..]) = diamond();
        let sub = SubDomain::new(4, 256);
        let net = Network::build(&g, &sub);
        let got = net.deliver_all(a, &[a, b], None);
        assert!(got.reached.contains(&(a, 0)));
        assert!(got.reached.contains(&(b, 1)));
    }

    #[test]
    fn link_flap_restores_cleanly() {
        let (g, [a, b, _c, _d]) = diamond();
        let sub = SubDomain::new(4, 256);
        let mut net = Network::build(&g, &sub);
        net.set_link_down(a, b);
        net.set_link_down(a, b); // idempotent
        net.set_link_up(a, b);
        let got = net.deliver_all(a, &[b], None);
        assert_eq!(got.reached, vec![(b, 1)]);
        net.set_node_down(b);
        net.set_node_up(b);
        net.clear_faults();
        let got = net.deliver_all(a, &[b], None);
        assert_eq!(got.reached, vec![(b, 1)]);
    }
}
