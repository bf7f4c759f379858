//! The sans-io MASC protocol engine for one domain.
//!
//! A [`MascNode`] implements the claim–collide mechanism of §4.1 and
//! the claim algorithm of §4.3.3:
//!
//! * it listens to its parent's advertised ranges (or bootstrap
//!   exchange ranges if top-level), and to sibling claims;
//! * when its MAAS-side demand cannot be met (or occupancy crosses the
//!   75 % target), it selects a claim — doubling an active prefix when
//!   the post-doubling utilization stays ≥ 75 %, otherwise a small
//!   fresh prefix, otherwise a consolidating prefix sized to current
//!   usage — choosing randomly among the first-sub-prefix candidates of
//!   the largest free blocks;
//! * claims wait out the collision-detection period (48 h) before
//!   being granted; overlapping claims are resolved deterministically
//!   (earlier claim wins, ties to the lower domain id), and claims
//!   overlapping granted ranges always lose;
//! * granted ranges carry lifetimes, are renewed while in use, and are
//!   released (recycled) once drained (§4.3.1).
//!
//! The node also embeds the domain's MAAS duties: leasing blocks to
//! clients from granted ranges, queueing requests that must wait for a
//! claim, and reserving children's claims so the two never collide.
//! Divergence from the paper (documented in DESIGN.md): a parent's own
//! block allocations are authoritative within its ranges — they are
//! announced to children as granted claims, and a child claim that
//! collides with one is refused with a collision announcement (§4.4
//! gives the parent exactly this enforcement role).

use std::cell::Cell;
use std::collections::VecDeque;

use mcast_addr::{BlockAllocator, LeaseTable, Prefix, Secs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::claims::{ClaimPhase, ClaimPurpose, KnownClaim, OuterSpace, OwnClaim};
use crate::config::MascConfig;
use crate::msg::{DomainAsn, MascAction, MascMsg};

/// Counters for analysis and the collision ablation.
#[derive(Debug, Clone, Copy, Default, snapshot::Snapshot)]
pub struct MascStats {
    /// Claims initiated (including retries).
    pub claims_made: u64,
    /// Claims abandoned due to collisions.
    pub collisions: u64,
    /// Claims granted.
    pub grants: u64,
    /// Claims that found no free space.
    pub failures: u64,
    /// Ranges released (recycled).
    pub releases: u64,
}

/// A queued MAAS block request.
#[derive(Debug, Clone, Copy, snapshot::Snapshot)]
struct PendingReq {
    id: u64,
    len: u8,
    lifetime: Secs,
}

/// Result of a block request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOutcome {
    /// Allocated immediately.
    Ready {
        /// The block.
        block: Prefix,
        /// Absolute lease expiry.
        expires: Secs,
    },
    /// Queued behind a claim; a [`MascAction::BlockReady`] with this id
    /// will follow.
    Queued {
        /// Request id.
        request: u64,
    },
}

/// The MASC engine for one domain. See module docs.
#[derive(Debug)]
pub struct MascNode {
    domain: DomainAsn,
    cfg: MascConfig,
    parent: Option<DomainAsn>,
    children: Vec<DomainAsn>,
    siblings: Vec<DomainAsn>,
    /// The space we claim from (parent ranges or bootstrap ranges).
    outer: OuterSpace,
    /// Our claims (waiting and granted).
    own: Vec<OwnClaim>,
    /// MAAS allocator over granted ranges (blocks + child claims).
    alloc: BlockAllocator,
    /// Child claims recorded within our ranges.
    child_claims: Vec<KnownClaim>,
    /// Derived: earliest expiry among `child_claims`, kept exact so
    /// the per-event deadline probe is O(1). Rebuilt on restore.
    child_min_expiry: Option<Secs>,
    /// Block leases to local clients.
    leases: LeaseTable<Prefix>,
    /// Requests waiting for space.
    pending: VecDeque<PendingReq>,
    next_req_id: u64,
    /// Earliest time to retry after a failed or collided claim.
    retry_at: Option<Secs>,
    /// Demand (addresses) whose claim was deferred by a failure or a
    /// collision loss, to be retried at `retry_at`.
    deferred_demand: Option<u64>,
    /// Unmet demand signalled by starved children (`SpaceNeeded`),
    /// per child; summed into expansion sizing and cleared on grant.
    signalled: std::collections::BTreeMap<DomainAsn, u64>,
    /// Statistics.
    pub stats: MascStats,
    rng: StdRng,
    /// Derived: [`MascNode::next_deadline`] less the outer claims' expiry,
    /// `None` until rescanned; every `&mut` entry point clears it but the
    /// messages that change only the outer claims.
    own_deadline: Cell<Option<Option<Secs>>>,
}

impl MascNode {
    /// Creates a node for `domain`. `siblings` are the co-claimants in
    /// the outer space (co-children of the parent, or the other
    /// top-level domains).
    pub fn new(
        domain: DomainAsn,
        parent: Option<DomainAsn>,
        children: Vec<DomainAsn>,
        siblings: Vec<DomainAsn>,
        cfg: MascConfig,
        seed: u64,
    ) -> Self {
        MascNode {
            domain,
            cfg,
            parent,
            children,
            siblings,
            outer: OuterSpace::new(),
            own: Vec::new(),
            alloc: BlockAllocator::new(),
            child_claims: Vec::new(),
            child_min_expiry: None,
            leases: LeaseTable::new(),
            pending: VecDeque::new(),
            next_req_id: 0,
            retry_at: None,
            deferred_demand: None,
            signalled: std::collections::BTreeMap::new(),
            stats: MascStats::default(),
            rng: StdRng::seed_from_u64(seed ^ (domain as u64) << 17),
            own_deadline: Cell::new(None),
        }
    }

    /// This node's domain.
    pub fn domain(&self) -> DomainAsn {
        self.domain
    }

    /// Does this node sit at the top of the MASC hierarchy?
    pub fn is_top_level(&self) -> bool {
        self.parent.is_none()
    }

    /// Bootstraps the outer space directly (top-level domains pick the
    /// prefix of a nearby exchange, §4.4).
    pub fn bootstrap_ranges(&mut self, ranges: &[(Prefix, Secs)]) {
        self.own_deadline.take();
        self.outer.set_ranges(ranges);
    }

    /// Our granted ranges with expiry (what BGP should be originating).
    pub fn granted_ranges(&self) -> Vec<(Prefix, Secs)> {
        self.own
            .iter()
            .filter(|c| !c.is_waiting())
            .map(|c| (c.prefix, c.expires))
            .collect()
    }

    /// Addresses in use: local block leases plus child claims.
    pub fn used(&self) -> u64 {
        self.alloc.used()
    }

    /// Total capacity of granted ranges (active + inactive).
    pub fn capacity(&self) -> u64 {
        self.alloc.capacity()
    }

    /// Addresses in use within *active* prefixes only. Draining
    /// (inactive) usage is excluded: it neither justifies expansion nor
    /// counts toward active capacity.
    fn active_used(&self) -> u64 {
        self.alloc
            .owned()
            .iter()
            .filter(|o| o.active)
            .map(|o| o.used())
            .sum()
    }

    /// Occupancy of *active* capacity, counting queued demand.
    fn occupancy_with_queue(&self) -> f64 {
        let cap = self.alloc.active_capacity();
        if cap == 0 {
            return f64::INFINITY;
        }
        (self.active_used() + self.queued_demand()) as f64 / cap as f64
    }

    fn queued_demand(&self) -> u64 {
        self.pending
            .iter()
            .map(|r| 1u64 << (32 - r.len as u32))
            .sum()
    }

    /// Is a claim currently in its waiting period?
    pub fn claim_in_flight(&self) -> bool {
        self.own.iter().any(|c| c.is_waiting())
    }

    // ------------------------------------------------------------------
    // MAAS interface
    // ------------------------------------------------------------------

    /// Requests a block of `2^(32-len)` addresses for `lifetime`
    /// seconds. Returns the block immediately when space exists,
    /// otherwise queues the request and kicks off a claim.
    pub fn request_block(
        &mut self,
        now: Secs,
        len: u8,
        lifetime: Secs,
        actions: &mut Vec<MascAction>,
    ) -> BlockOutcome {
        self.own_deadline.take();
        if let Some(block) = self.alloc.alloc_block(len) {
            let expires = now + lifetime;
            self.leases.insert(block, expires);
            self.announce_local_use(now, block, expires, actions);
            // Keep ahead of demand (§4.1): claim more space once
            // occupancy crosses the target.
            if self.occupancy_with_queue() >= self.cfg.target_occupancy {
                let unit = 1u64 << (32 - self.cfg.min_claim_len as u32);
                self.start_expansion(now, unit, actions);
            }
            BlockOutcome::Ready { block, expires }
        } else {
            let id = self.next_req_id;
            self.next_req_id += 1;
            self.pending.push_back(PendingReq { id, len, lifetime });
            self.start_expansion(now, self.queued_demand(), actions);
            BlockOutcome::Queued { request: id }
        }
    }

    /// Returns a leased block early.
    pub fn release_block(&mut self, now: Secs, block: Prefix, actions: &mut Vec<MascAction>) {
        self.own_deadline.take();
        if self.leases.cancel(&block).is_some() {
            self.alloc.free_block(&block);
            self.announce_local_release(now, block, actions);
        }
    }

    /// Announce a local block allocation to children so their claims
    /// avoid it (parent-authoritative divergence, see module docs).
    fn announce_local_use(
        &self,
        now: Secs,
        block: Prefix,
        expires: Secs,
        actions: &mut Vec<MascAction>,
    ) {
        if self.children.is_empty() {
            return;
        }
        let msg = MascMsg::Claim {
            claimer: self.domain,
            prefix: block,
            expires,
            at: now,
        };
        for c in &self.children {
            actions.push(MascAction::Send {
                to: *c,
                msg: msg.clone(),
            });
        }
    }

    fn announce_local_release(&self, _now: Secs, block: Prefix, actions: &mut Vec<MascAction>) {
        if self.children.is_empty() {
            return;
        }
        let msg = MascMsg::Release {
            claimer: self.domain,
            prefix: block,
        };
        for c in &self.children {
            actions.push(MascAction::Send {
                to: *c,
                msg: msg.clone(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Claim algorithm (§4.3.3)
    // ------------------------------------------------------------------

    /// Starts an expansion claim for `demand` more addresses, if none
    /// is in flight.
    pub fn start_expansion(&mut self, now: Secs, demand: u64, actions: &mut Vec<MascAction>) {
        self.own_deadline.take();
        if self.claim_in_flight() {
            // Remember the demand; it is re-examined when the claim
            // in flight is granted.
            return;
        }
        if self.retry_at.is_some_and(|t| t > now) {
            self.deferred_demand = Some(self.deferred_demand.unwrap_or(0).max(demand));
            return;
        }
        let signalled: u64 = self.signalled.values().sum();
        let demand = demand.max(signalled);
        let used_plus_demand = self.active_used() + self.queued_demand().max(demand);
        let active_cap = self.alloc.active_capacity();

        // 1. Doubling: smallest active prefix whose buddy is free and
        //    whose doubling keeps utilization at or above target.
        let mut actives: Vec<Prefix> = self
            .alloc
            .owned()
            .iter()
            .filter(|o| o.active)
            .map(|o| o.prefix)
            .collect();
        actives.sort_by_key(|p| p.size());
        for p in &actives {
            if let Some(doubled) = self.outer.expansion_of(p) {
                let new_cap = active_cap + p.size();
                // Double only when the doubled space both stays at the
                // occupancy target *and* actually covers the demand —
                // otherwise fall through to a right-sized claim
                // ("a single new prefix large enough to accommodate
                // the current usage", §4.3.3) instead of ratcheting up
                // one waiting period at a time.
                if used_plus_demand <= new_cap
                    && used_plus_demand as f64 / new_cap as f64 >= self.cfg.target_occupancy
                {
                    self.make_claim(now, doubled, ClaimPurpose::Double { of: *p }, actions);
                    return;
                }
            }
        }

        // 2. Fresh small prefix, just sufficient for the demand.
        if actives.len() < self.cfg.max_active_prefixes {
            let want = Prefix::len_for_size(demand.max(1)).min(self.cfg.min_claim_len);
            if self.try_claim_new(now, want, ClaimPurpose::New, actions) {
                return;
            }
        }

        // 3. Consolidation: one prefix large enough for everything;
        //    old prefixes deactivate on grant.
        let want = Prefix::len_for_size(used_plus_demand.max(1)).min(self.cfg.min_claim_len);
        if self.try_claim_new(now, want, ClaimPurpose::Consolidate, actions) {
            return;
        }

        // 4. Smaller-than-wanted fallback: take the biggest block that
        //    exists rather than nothing.
        for len in (want + 1)..=self.cfg.min_claim_len.max(want + 1).min(32) {
            if self.try_claim_new(now, len, ClaimPurpose::New, actions) {
                return;
            }
        }

        self.stats.failures += 1;
        // Jittered back-off: synchronized retries across siblings are
        // what §4.3.3's randomized candidate choice is defending
        // against; desynchronizing in time is the other half.
        let base = self.cfg.claim_retry_backoff;
        let jitter = self.rng.gen_range(base / 2..=base + base / 2);
        self.retry_at = Some(now + jitter.max(1));
        self.deferred_demand = Some(demand);
        // Starved: tell the parent so it can grow its range.
        if let Some(p) = self.parent {
            actions.push(MascAction::Send {
                to: p,
                msg: MascMsg::SpaceNeeded {
                    claimer: self.domain,
                    demand,
                },
            });
        }
        actions.push(MascAction::ClaimFailed { demand });
    }

    fn try_claim_new(
        &mut self,
        now: Secs,
        want_len: u8,
        purpose: ClaimPurpose,
        actions: &mut Vec<MascAction>,
    ) -> bool {
        let candidates = self.outer.claim_candidates(want_len);
        if candidates.is_empty() {
            return false;
        }
        // "Randomly chooses one of them" (§4.3.3) — randomization
        // lowers the chance that simultaneous claimers collide.
        let pick = candidates[self.rng.gen_range(0..candidates.len())];
        self.deferred_demand = None;
        self.make_claim(now, pick, purpose, actions);
        true
    }

    fn make_claim(
        &mut self,
        now: Secs,
        prefix: Prefix,
        purpose: ClaimPurpose,
        actions: &mut Vec<MascAction>,
    ) {
        // Candidates are carved out of parent ranges rooted in 224/4,
        // so this can only fail on a bookkeeping bug — but a claim for
        // unicast space must never reach the wire.
        let prefix = Prefix::new_multicast(prefix.base_u32(), prefix.len())
            .expect("MASC claims stay inside the class-D space");
        let cap = self.outer.range_expiry_for(&prefix).unwrap_or(Secs::MAX);
        let expires = (now + self.cfg.range_lifetime).min(cap);
        let claim = OwnClaim {
            prefix,
            phase: ClaimPhase::Waiting {
                until: now + self.cfg.wait_period,
            },
            purpose,
            expires,
            at: now,
        };
        self.own.push(claim);
        self.outer.insert_claim(KnownClaim {
            owner: self.domain,
            prefix,
            expires,
            at: now,
        });
        self.stats.claims_made += 1;
        let msg = MascMsg::Claim {
            claimer: self.domain,
            prefix,
            expires,
            at: now,
        };
        self.broadcast_sibling(msg, actions);
    }

    /// Abandons a waiting claim (lost a collision) and retries.
    fn abandon_claim(&mut self, now: Secs, prefix: Prefix, actions: &mut Vec<MascAction>) {
        let Some(idx) = self
            .own
            .iter()
            .position(|c| c.prefix == prefix && c.is_waiting())
        else {
            return;
        };
        self.own.remove(idx);
        self.outer.remove_claim(self.domain, &prefix);
        self.stats.collisions += 1;
        // Tell everyone who recorded the claim to forget it.
        self.broadcast_sibling(
            MascMsg::Release {
                claimer: self.domain,
                prefix,
            },
            actions,
        );
        // Retry with a different candidate after a short jittered
        // delay (§4.3.3: the nth claimer may need up to n rounds —
        // desynchronizing the rounds keeps them from ringing).
        let demand = self.queued_demand().max(prefix.size());
        self.deferred_demand = Some(self.deferred_demand.unwrap_or(0).max(demand));
        let jitter = self.rng.gen_range(60u64..=1_800);
        let at = now + jitter;
        self.retry_at = Some(self.retry_at.map_or(at, |t| t.min(at)));
    }

    fn broadcast_sibling(&self, msg: MascMsg, actions: &mut Vec<MascAction>) {
        match self.parent {
            // Child: inform the parent; it propagates to our siblings.
            Some(p) => actions.push(MascAction::Send { to: p, msg }),
            // Top-level: inform all sibling top-level domains (§4.1).
            None => {
                for s in &self.siblings {
                    actions.push(MascAction::Send {
                        to: *s,
                        msg: msg.clone(),
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// Handles a MASC message from another domain.
    pub fn on_message(&mut self, now: Secs, from: DomainAsn, msg: MascMsg) -> Vec<MascAction> {
        // A sibling's claim on none of our ranges, or a sibling's
        // release, changes only the outer claims.
        let outer_only = match &msg {
            MascMsg::Claim {
                claimer, prefix, ..
            } => {
                !self.own.iter().any(|c| c.prefix.overlaps(prefix))
                    && !self.children.contains(claimer)
            }
            MascMsg::Release { claimer, .. } => !self.children.contains(claimer),
            _ => false,
        };
        if !outer_only {
            self.own_deadline.take();
        }
        let mut actions = Vec::new();
        match msg {
            MascMsg::ParentAdvertise { ranges } => {
                if Some(from) == self.parent {
                    self.outer.set_ranges_flagged(&ranges);
                    // Re-record our own claims (set_ranges keeps claims
                    // inside surviving ranges; re-insert to be safe).
                    for c in &self.own {
                        self.outer.insert_claim(KnownClaim {
                            owner: self.domain,
                            prefix: c.prefix,
                            expires: c.expires,
                            at: c.at,
                        });
                    }
                    // New space may unblock queued demand.
                    if !self.pending.is_empty() {
                        let d = self.queued_demand();
                        self.retry_at = None;
                        self.start_expansion(now, d, &mut actions);
                    }
                }
            }
            MascMsg::Claim {
                claimer,
                prefix,
                expires,
                at,
            } => {
                self.handle_claim(now, from, claimer, prefix, expires, at, &mut actions);
            }
            MascMsg::Collision { holder, prefix } => {
                // A collision against our waiting claim: back off.
                let overlapping: Vec<Prefix> = self
                    .own
                    .iter()
                    .filter(|c| c.is_waiting() && c.prefix.overlaps(&prefix))
                    .map(|c| c.prefix)
                    .collect();
                for p in overlapping {
                    self.abandon_claim(now, p, &mut actions);
                }
                // A collision against a *granted* range: either parent
                // enforcement (§4.4/§7 — the parent always wins), or an
                // established-vs-established conflict after a network
                // partition longer than the waiting period. The latter
                // resolves deterministically: the lower domain id keeps
                // the range ("the winner may be based on domain IDs",
                // §4.1 footnote).
                let from_parent = Some(from) == self.parent;
                let granted: Vec<Prefix> = self
                    .own
                    .iter()
                    .filter(|c| !c.is_waiting() && c.prefix.overlaps(&prefix))
                    .map(|c| c.prefix)
                    .collect();
                for p in granted {
                    if from_parent || holder < self.domain {
                        self.lose_range(now, p, &mut actions);
                        // Re-acquire space for what was lost.
                        let demand = self.alloc.used().max(1);
                        self.deferred_demand = Some(self.deferred_demand.unwrap_or(0).max(demand));
                        let jitter = self.rng.gen_range(60u64..=1_800);
                        let at = now + jitter;
                        self.retry_at = Some(self.retry_at.map_or(at, |t| t.min(at)));
                    }
                    // Otherwise we outrank the sender; our own collision
                    // announcement (sent when we heard their claim or
                    // renewal) makes them back down.
                }
            }
            MascMsg::Renew {
                claimer,
                prefix,
                expires,
            } => {
                if self.children.contains(&claimer) {
                    let mut matched = false;
                    let mut touched_min = false;
                    for c in &mut self.child_claims {
                        if c.owner == claimer && c.prefix == prefix {
                            matched = true;
                            touched_min |= Some(c.expires) == self.child_min_expiry;
                            c.expires = expires;
                        }
                    }
                    if touched_min {
                        self.child_min_expiry = self.child_claims.iter().map(|c| c.expires).min();
                    } else if matched {
                        self.child_min_expiry = self.child_min_expiry.map(|m| m.min(expires));
                    }
                    self.forward_to_children_except(
                        claimer,
                        MascMsg::Renew {
                            claimer,
                            prefix,
                            expires,
                        },
                        &mut actions,
                    );
                } else {
                    if !self.outer.renew_claim(claimer, &prefix, expires)
                        && Prefix::new_multicast(prefix.base_u32(), prefix.len()).is_ok()
                    {
                        // A renewal for a claim we never heard (e.g.
                        // made across a partition): record it.
                        self.outer.insert_claim(crate::claims::KnownClaim {
                            owner: claimer,
                            prefix,
                            expires,
                            at: now,
                        });
                    }
                    // Partition-heal detection: a sibling renewing a
                    // range that overlaps our granted range means both
                    // sides finalized during a partition. Assert
                    // ourselves; the id tiebreak on the collision
                    // settles it.
                    let mine: Vec<Prefix> = self
                        .own
                        .iter()
                        .filter(|c| !c.is_waiting() && c.prefix.overlaps(&prefix))
                        .map(|c| c.prefix)
                        .collect();
                    for p in mine {
                        self.collide(claimer, p, &mut actions);
                    }
                }
            }
            MascMsg::SpaceNeeded { claimer, demand } => {
                if self.children.contains(&claimer) {
                    // Remember each starved child's worst-case demand;
                    // the next expansion is sized to the sum so one
                    // claim can satisfy the whole brood rather than
                    // ratcheting up 48 h at a time.
                    let e = self.signalled.entry(claimer).or_insert(0);
                    *e = (*e).max(demand);
                    let total: u64 = self.signalled.values().sum();
                    self.start_expansion(now, total, &mut actions);
                }
            }
            MascMsg::Release { claimer, prefix } => {
                if self.children.contains(&claimer) {
                    self.remove_child_claim(claimer, &prefix);
                    self.forward_to_children_except(
                        claimer,
                        MascMsg::Release { claimer, prefix },
                        &mut actions,
                    );
                } else {
                    self.outer.remove_claim(claimer, &prefix);
                }
            }
        }
        actions
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one decoded Claim message"
    )]
    fn handle_claim(
        &mut self,
        now: Secs,
        _from: DomainAsn,
        claimer: DomainAsn,
        prefix: Prefix,
        expires: Secs,
        at: Secs,
        actions: &mut Vec<MascAction>,
    ) {
        // A claim naming space outside 224.0.0.0/4 is a protocol
        // violation (or corruption); drop it before it can enter the
        // outer space or collide with legitimate claims.
        if Prefix::new_multicast(prefix.base_u32(), prefix.len()).is_err() {
            return;
        }
        if self.children.contains(&claimer) {
            // We are the parent: validate, record, propagate (§4.1).
            // Claims must land in *active* granted space; a claim into
            // a draining (inactive) or unknown range is refused.
            let in_our_ranges = self
                .alloc
                .owned()
                .iter()
                .any(|o| o.active && o.prefix.covers(&prefix));
            if !in_our_ranges {
                self.collide(claimer, prefix, actions);
                return;
            }
            // Collision with our own allocated blocks: we are
            // authoritative in our range.
            if self.alloc.overlaps_allocation(&prefix)
                && !self
                    .child_claims
                    .iter()
                    .any(|c| c.prefix == prefix && c.owner == claimer)
            {
                // Distinguish "overlaps our local block" from "overlaps
                // another child's claim": only the former is ours to
                // police; the children resolve the latter themselves.
                let overlaps_other_child =
                    self.child_claims.iter().any(|c| c.prefix.overlaps(&prefix));
                if !overlaps_other_child {
                    self.collide(claimer, prefix, actions);
                    return;
                }
            }
            let reserved = self.alloc.reserve_block(prefix);
            let _ = reserved; // overlapping child claims: children resolve
            self.child_claims.push(KnownClaim {
                owner: claimer,
                prefix,
                expires,
                at,
            });
            self.child_min_expiry = Some(self.child_min_expiry.map_or(expires, |m| m.min(expires)));
            self.forward_to_children_except(
                claimer,
                MascMsg::Claim {
                    claimer,
                    prefix,
                    expires,
                    at,
                },
                actions,
            );
            // Children's demand drives our own expansion (§4.1: "A
            // claims more address space when the utilization exceeds a
            // given threshold").
            if self.occupancy_with_queue() >= self.cfg.target_occupancy {
                self.start_expansion(now, prefix.size(), actions);
            }
        } else {
            // A sibling's claim (possibly the parent's own local use).
            self.outer.insert_claim(KnownClaim {
                owner: claimer,
                prefix,
                expires,
                at,
            });
            // Does it overlap one of ours?
            let mine: Vec<OwnClaim> = self
                .own
                .iter()
                .filter(|c| c.prefix.overlaps(&prefix))
                .copied()
                .collect();
            for c in mine {
                // Established ranges always win (§4.1: "if two domains
                // claim the same range, one will win"). Both waiting:
                // earlier claim wins, ties to lower domain id — a
                // symmetric, deterministic rule.
                if !c.is_waiting() || (c.at, self.domain) < (at, claimer) {
                    self.collide(claimer, c.prefix, actions);
                } else {
                    self.abandon_claim(now, c.prefix, actions);
                }
            }
        }
    }

    /// Tells `to` that its claim collides with our `prefix`.
    fn collide(&self, to: DomainAsn, prefix: Prefix, actions: &mut Vec<MascAction>) {
        let msg = MascMsg::Collision {
            holder: self.domain,
            prefix,
        };
        actions.push(MascAction::Send { to, msg });
    }

    fn forward_to_children_except(
        &self,
        except: DomainAsn,
        msg: MascMsg,
        actions: &mut Vec<MascAction>,
    ) {
        actions.reserve(self.children.len());
        for c in &self.children {
            if *c != except {
                actions.push(MascAction::Send {
                    to: *c,
                    msg: msg.clone(),
                });
            }
        }
    }

    fn remove_child_claim(&mut self, owner: DomainAsn, prefix: &Prefix) {
        let before = self.child_claims.len();
        let min = self.child_min_expiry;
        let mut removed_min = false;
        self.child_claims.retain(|c| {
            let hit = c.owner == owner && c.prefix == *prefix;
            removed_min |= hit && Some(c.expires) == min;
            !hit
        });
        if removed_min {
            self.child_min_expiry = self.child_claims.iter().map(|c| c.expires).min();
        }
        if self.child_claims.len() < before
            && !self.child_claims.iter().any(|c| c.prefix == *prefix)
        {
            self.alloc.free_block(prefix);
        }
    }

    // ------------------------------------------------------------------
    // Time-driven processing
    // ------------------------------------------------------------------

    /// The earliest time at which [`MascNode::on_tick`] has work.
    pub fn next_deadline(&self) -> Option<Secs> {
        let own = self
            .own_deadline
            .get()
            .unwrap_or_else(|| self.scan_own_deadline());
        debug_assert_eq!(own, self.scan_own_deadline(), "stale cached deadline");
        self.own_deadline.set(Some(own));
        own.into_iter().chain(self.outer.next_claim_expiry()).min()
    }

    /// [`MascNode::next_deadline`] without the outer claims' expiry, by
    /// a full scan.
    fn scan_own_deadline(&self) -> Option<Secs> {
        let own = self.own.iter().map(|c| match c.phase {
            ClaimPhase::Waiting { until } => until,
            ClaimPhase::Granted => {
                // Inactive (draining) ranges are never extended: their
                // next event is hard expiry (release-on-drain is
                // triggered by lease/child-claim expiries, which have
                // their own deadlines). Active ranges renew at the
                // margin when the outer range allows extension.
                let inactive = self.alloc.owner_of(&c.prefix).is_some_and(|o| !o.active);
                let cap = match self.outer.range_expiry_for(&c.prefix) {
                    Some(cap) => cap,
                    None if self.parent.is_none() => Secs::MAX,
                    None => c.expires,
                };
                if !inactive && cap > c.expires {
                    c.expires.saturating_sub(self.cfg.renew_margin)
                } else {
                    c.expires
                }
            }
        });
        let timers = [
            self.child_min_expiry,
            self.leases.next_expiry(),
            self.retry_at,
        ];
        own.chain(timers.into_iter().flatten()).min()
    }

    /// Processes everything due at or before `now`.
    pub fn on_tick(&mut self, now: Secs) -> Vec<MascAction> {
        self.own_deadline.take();
        let mut actions = Vec::new();

        // 1. Claims finishing their waiting period.
        let ready: Vec<Prefix> = self
            .own
            .iter()
            .filter(|c| matches!(c.phase, ClaimPhase::Waiting { until } if until <= now))
            .map(|c| c.prefix)
            .collect();
        for p in ready {
            self.grant_claim(now, p, &mut actions);
        }

        // 2. Lease expiries.
        for block in self.leases.expire(now) {
            self.alloc.free_block(&block);
            self.announce_local_release(now, block, &mut actions);
            actions.push(MascAction::BlockExpired { block });
        }

        // 3. Renewals / releases of our granted ranges.
        self.process_renewals(now, &mut actions);

        // 4. Expired sibling claims.
        self.outer.expire_claims(now);

        // 5. Expired child claims (O(1) probe in the common nothing-
        // due case).
        if self.child_min_expiry.is_some_and(|m| m <= now) {
            let expired: Vec<KnownClaim> = self
                .child_claims
                .iter()
                .filter(|c| c.expires <= now)
                .copied()
                .collect();
            for e in expired {
                self.remove_child_claim(e.owner, &e.prefix);
            }
        }

        // 6. Retry after a failed or collided claim.
        if self.retry_at.is_some_and(|t| t <= now) {
            self.retry_at = None;
            let deferred = self.deferred_demand.take();
            if deferred.is_some()
                || !self.pending.is_empty()
                || self.occupancy_with_queue() >= self.cfg.target_occupancy
            {
                let d = deferred.unwrap_or(0).max(self.queued_demand()).max(1);
                self.start_expansion(now, d, &mut actions);
            }
        }

        actions
    }

    fn grant_claim(&mut self, now: Secs, prefix: Prefix, actions: &mut Vec<MascAction>) {
        let Some(idx) = self
            .own
            .iter()
            .position(|c| c.prefix == prefix && c.is_waiting())
        else {
            return;
        };
        self.own[idx].phase = ClaimPhase::Granted;
        let purpose = self.own[idx].purpose;
        let expires = self.own[idx].expires;
        self.stats.grants += 1;

        match purpose {
            ClaimPurpose::New => {
                self.alloc.add_prefix(prefix);
                actions.push(MascAction::RangeGranted { prefix, expires });
            }
            ClaimPurpose::Double { of } => {
                if self.alloc.grow_prefix(of, prefix) {
                    // The old claim is subsumed: drop it everywhere.
                    self.own.retain(|c| c.prefix != of);
                    self.outer.remove_claim(self.domain, &of);
                    self.broadcast_sibling(
                        MascMsg::Release {
                            claimer: self.domain,
                            prefix: of,
                        },
                        actions,
                    );
                    actions.push(MascAction::RangeLost { prefix: of });
                } else {
                    // The base prefix vanished meanwhile; treat as new.
                    self.alloc.add_prefix(prefix);
                }
                actions.push(MascAction::RangeGranted { prefix, expires });
            }
            ClaimPurpose::Consolidate => {
                let old_actives: Vec<Prefix> = self
                    .alloc
                    .owned()
                    .iter()
                    .filter(|o| o.active)
                    .map(|o| o.prefix)
                    .collect();
                self.alloc.add_prefix(prefix);
                for p in old_actives {
                    self.alloc.deactivate(&p);
                }
                actions.push(MascAction::RangeGranted { prefix, expires });
            }
        }

        // Starved children will re-signal if the new space still
        // falls short.
        self.signalled.clear();
        // Serve queued requests from the new space.
        self.drain_pending(now, actions);
        // Keep children informed of our (possibly changed) ranges.
        self.advertise_to_children(actions);
        // Demand may have outgrown this grant while we waited: chain
        // the next expansion immediately instead of waiting for the
        // next external trigger.
        if self.occupancy_with_queue() >= self.cfg.target_occupancy
            || self.deferred_demand.is_some()
        {
            let unit = 1u64 << (32 - self.cfg.min_claim_len as u32);
            let d = self.deferred_demand.take().unwrap_or(unit);
            self.start_expansion(now, d.max(unit), actions);
        }
    }

    fn drain_pending(&mut self, now: Secs, actions: &mut Vec<MascAction>) {
        let mut still = VecDeque::new();
        while let Some(req) = self.pending.pop_front() {
            if let Some(block) = self.alloc.alloc_block(req.len) {
                let expires = now + req.lifetime;
                self.leases.insert(block, expires);
                self.announce_local_use(now, block, expires, actions);
                actions.push(MascAction::BlockReady {
                    request: req.id,
                    block,
                    expires,
                });
            } else {
                still.push_back(req);
            }
        }
        self.pending = still;
        if !self.pending.is_empty() {
            let d = self.queued_demand();
            self.start_expansion(now, d, actions);
        }
    }

    /// Sends the current set of granted ranges (with active flags) to
    /// all children. Children claim new space only from active ranges
    /// but keep renewing existing claims inside a draining range up to
    /// its fixed expiry — that is what lets an inactive prefix
    /// "timeout when the currently allocated addresses timeout"
    /// (§4.3.3).
    pub fn advertise_to_children(&self, actions: &mut Vec<MascAction>) {
        if self.children.is_empty() {
            return;
        }
        let ranges: Vec<(Prefix, Secs, bool)> = self
            .granted_ranges()
            .into_iter()
            .map(|(p, exp)| {
                let active = self
                    .alloc
                    .owner_of(&p)
                    .is_some_and(|o| o.active && o.prefix == p);
                (p, exp, active)
            })
            .collect();
        let msg = MascMsg::ParentAdvertise { ranges };
        actions.reserve(self.children.len());
        for c in &self.children {
            actions.push(MascAction::Send {
                to: *c,
                msg: msg.clone(),
            });
        }
    }

    fn process_renewals(&mut self, now: Secs, actions: &mut Vec<MascAction>) {
        let mut ranges_changed = false;
        // Inactive ranges: release as soon as they drain (checked every
        // tick — lease and child-claim expiries drive the deadlines).
        let drained_inactive: Vec<Prefix> = self
            .alloc
            .owned()
            .iter()
            .filter(|o| !o.active && o.is_drained())
            .map(|o| o.prefix)
            .collect();
        for p in drained_inactive {
            self.release_range(now, p, actions);
            ranges_changed = true;
        }

        let due: Vec<OwnClaim> = self
            .own
            .iter()
            .filter(|c| !c.is_waiting() && c.expires.saturating_sub(self.cfg.renew_margin) <= now)
            .copied()
            .collect();
        for c in due {
            if c.expires <= now {
                // Hard expiry: the range and everything in it is gone
                // (§4.3.1: once the lifetime expires the range is
                // treated as unallocated by the parent).
                self.lose_range(now, c.prefix, actions);
                ranges_changed = true;
                continue;
            }
            let owned = self.alloc.owner_of(&c.prefix).cloned();
            let (active, used) = match &owned {
                Some(o) => (o.active, o.used()),
                None => (false, 0),
            };
            if !active {
                // Draining: never extended; rides to hard expiry (or
                // earlier release on drain, handled above).
                continue;
            }
            let only_active = self.alloc.active_count() <= 1;
            if used > 0 || only_active {
                // Renew, capped by the parent range's lifetime
                // (§4.3.1). A range whose covering parent range has
                // vanished cannot be renewed at all.
                let cap = match self.outer.range_expiry_for(&c.prefix) {
                    Some(cap) => cap,
                    None if self.parent.is_none() => Secs::MAX,
                    None => c.expires, // unrenewable: ride to expiry
                };
                let new_expires = (now + self.cfg.range_lifetime).min(cap).max(c.expires);
                if new_expires > c.expires {
                    for oc in &mut self.own {
                        if oc.prefix == c.prefix {
                            oc.expires = new_expires;
                        }
                    }
                    self.outer.renew_claim(self.domain, &c.prefix, new_expires);
                    self.broadcast_sibling(
                        MascMsg::Renew {
                            claimer: self.domain,
                            prefix: c.prefix,
                            expires: new_expires,
                        },
                        actions,
                    );
                    ranges_changed = true;
                }
            } else {
                // Empty and not our only active range: recycle it
                // (§4.3.1 "treated as unallocated ... can be claimed
                // by others").
                self.release_range(now, c.prefix, actions);
                ranges_changed = true;
            }
        }
        if ranges_changed {
            self.advertise_to_children(actions);
        }
    }

    /// Voluntarily releases a granted range.
    fn release_range(&mut self, _now: Secs, prefix: Prefix, actions: &mut Vec<MascAction>) {
        self.own.retain(|c| c.prefix != prefix);
        self.outer.remove_claim(self.domain, &prefix);
        self.alloc.remove_prefix(&prefix);
        self.stats.releases += 1;
        self.broadcast_sibling(
            MascMsg::Release {
                claimer: self.domain,
                prefix,
            },
            actions,
        );
        actions.push(MascAction::RangeLost { prefix });
    }

    /// Loses a granted range involuntarily (expiry or forced
    /// collision): any client blocks inside it are lost with it.
    fn lose_range(&mut self, _now: Secs, prefix: Prefix, actions: &mut Vec<MascAction>) {
        self.own.retain(|c| c.prefix != prefix);
        self.outer.remove_claim(self.domain, &prefix);
        if let Some(lost_blocks) = self.alloc.remove_prefix(&prefix) {
            for b in lost_blocks {
                if self.leases.cancel(&b).is_some() {
                    actions.push(MascAction::BlockExpired { block: b });
                }
            }
        }
        actions.push(MascAction::RangeLost { prefix });
    }

    // ------------------------------------------------------------------
    // Introspection for experiments
    // ------------------------------------------------------------------

    /// The prefixes this domain currently advertises (granted, for
    /// G-RIB accounting).
    pub fn advertised_prefixes(&self) -> Vec<Prefix> {
        self.granted_ranges().into_iter().map(|(p, _)| p).collect()
    }

    /// Pending (queued) request count.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Known sibling claims (for G-RIB accounting at child domains).
    pub fn known_sibling_claims(&self) -> usize {
        self.outer
            .claims()
            .iter()
            .filter(|c| c.owner != self.domain)
            .count()
    }

    /// Recorded child claims (for G-RIB accounting at parents).
    pub fn child_claim_count(&self) -> usize {
        self.child_claims.len()
    }
}

impl snapshot::SnapshotState for MascNode {
    /// Everything that changes after construction: claim state, the
    /// MAAS allocator and leases, queued requests, retry/deferral
    /// bookkeeping, counters, and the node's RNG state (claim-size
    /// jitter must continue the same sequence after a resume).
    /// Identity and wiring (`domain`, `cfg`, `parent`, `children`,
    /// `siblings`) stay with the rebuilt instance.
    fn encode_state(&self, enc: &mut snapshot::Enc) {
        use snapshot::Snapshot;
        let Self {
            outer,
            own,
            alloc,
            child_claims,
            leases,
            pending,
            next_req_id,
            retry_at,
            deferred_demand,
            signalled,
            stats,
            rng,
            // identity, config and hierarchy wiring stay with the rebuilt instance
            domain: _,
            cfg: _,
            parent: _,
            children: _,
            siblings: _,
            // derived minima, rebuilt on restore
            child_min_expiry: _,
            own_deadline: _,
        } = self;
        outer.encode(enc);
        own.encode(enc);
        alloc.encode(enc);
        child_claims.encode(enc);
        leases.encode(enc);
        pending.encode(enc);
        enc.u64(*next_req_id);
        retry_at.encode(enc);
        deferred_demand.encode(enc);
        signalled.encode(enc);
        stats.encode(enc);
        rng.state().encode(enc);
    }

    fn restore_state(&mut self, dec: &mut snapshot::Dec<'_>) -> Result<(), snapshot::SnapError> {
        use snapshot::Snapshot;
        let Self {
            outer,
            own,
            alloc,
            child_claims,
            leases,
            pending,
            next_req_id,
            retry_at,
            deferred_demand,
            signalled,
            stats,
            rng,
            child_min_expiry,
            own_deadline,
            // identity, config and hierarchy wiring stay with the rebuilt instance
            domain: _,
            cfg: _,
            parent: _,
            children: _,
            siblings: _,
        } = self;
        own_deadline.take();
        *outer = Snapshot::decode(dec)?;
        *own = Snapshot::decode(dec)?;
        *alloc = Snapshot::decode(dec)?;
        *child_claims = Snapshot::decode(dec)?;
        *child_min_expiry = child_claims.iter().map(|c| c.expires).min();
        *leases = Snapshot::decode(dec)?;
        *pending = Snapshot::decode(dec)?;
        *next_req_id = dec.u64()?;
        *retry_at = Snapshot::decode(dec)?;
        *deferred_demand = Snapshot::decode(dec)?;
        *signalled = Snapshot::decode(dec)?;
        *stats = Snapshot::decode(dec)?;
        *rng = StdRng::from_state(Snapshot::decode(dec)?);
        Ok(())
    }
}
