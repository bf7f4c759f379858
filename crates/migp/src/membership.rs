//! Shared membership bookkeeping for MIGP implementations.

use std::collections::{BTreeMap, BTreeSet};

use mcast_addr::McastAddr;

use crate::api::MigpEvent;
use crate::domain_net::LocalRouter;

/// Per-group membership and border-subscription state common to every
/// protocol implementation.
#[derive(Debug, Clone, Default)]
pub struct Membership {
    members: BTreeMap<McastAddr, BTreeSet<LocalRouter>>,
    borders: BTreeMap<McastAddr, BTreeSet<LocalRouter>>,
}

impl Membership {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member; returns `FirstMember` when the domain previously
    /// had none (the Domain-Wide-Report moment).
    pub fn join(&mut self, r: LocalRouter, g: McastAddr) -> Vec<MigpEvent> {
        let set = self.members.entry(g).or_default();
        let was_empty = set.is_empty();
        set.insert(r);
        if was_empty {
            vec![MigpEvent::FirstMember(g)]
        } else {
            vec![]
        }
    }

    /// Removes a member; returns `LastMemberLeft` when it was the last.
    pub fn leave(&mut self, r: LocalRouter, g: McastAddr) -> Vec<MigpEvent> {
        let Some(set) = self.members.get_mut(&g) else {
            return vec![];
        };
        set.remove(&r);
        if set.is_empty() {
            self.members.remove(&g);
            vec![MigpEvent::LastMemberLeft(g)]
        } else {
            vec![]
        }
    }

    /// Border router subscription (BGMP child target).
    pub fn subscribe(&mut self, b: LocalRouter, g: McastAddr) {
        self.borders.entry(g).or_default().insert(b);
    }

    /// Removes a border subscription.
    pub fn unsubscribe(&mut self, b: LocalRouter, g: McastAddr) {
        if let Some(set) = self.borders.get_mut(&g) {
            set.remove(&b);
            if set.is_empty() {
                self.borders.remove(&g);
            }
        }
    }

    /// Any members?
    pub fn has_members(&self, g: McastAddr) -> bool {
        self.members.get(&g).is_some_and(|s| !s.is_empty())
    }

    /// Member routers.
    pub fn members_of(&self, g: McastAddr) -> Vec<LocalRouter> {
        self.members
            .get(&g)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Subscribed border routers.
    pub fn borders_of(&self, g: McastAddr) -> Vec<LocalRouter> {
        self.borders
            .get(&g)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Receivers of a packet: all member routers (hosts at the entry
    /// router still receive a local copy) and all subscribed borders
    /// except `exclude` — the entry border for *transit* data (never
    /// echo it back where it came from); `None` for locally sourced
    /// data, where even the sender's own border must forward.
    pub fn receivers(
        &self,
        g: McastAddr,
        exclude: Option<LocalRouter>,
    ) -> (Vec<LocalRouter>, Vec<LocalRouter>) {
        let members: Vec<LocalRouter> = self.members_of(g);
        let borders: Vec<LocalRouter> = self
            .borders_of(g)
            .into_iter()
            .filter(|r| Some(*r) != exclude)
            .collect();
        (members, borders)
    }
}

impl snapshot::Snapshot for Membership {
    fn encode(&self, enc: &mut snapshot::Enc) {
        let Self { members, borders } = self;
        members.encode(enc);
        borders.encode(enc);
    }
    fn decode(dec: &mut snapshot::Dec<'_>) -> Result<Self, snapshot::SnapError> {
        Ok(Membership {
            members: snapshot::Snapshot::decode(dec)?,
            borders: snapshot::Snapshot::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(x: u32) -> McastAddr {
        McastAddr(0xE000_0000 | x)
    }

    #[test]
    fn first_and_last_member_events() {
        let mut m = Membership::new();
        assert_eq!(m.join(1, g(1)), vec![MigpEvent::FirstMember(g(1))]);
        assert_eq!(m.join(2, g(1)), vec![]);
        assert!(m.has_members(g(1)));
        assert_eq!(m.leave(1, g(1)), vec![]);
        assert_eq!(m.leave(2, g(1)), vec![MigpEvent::LastMemberLeft(g(1))]);
        assert!(!m.has_members(g(1)));
        // Leaving a non-member group is a no-op.
        assert_eq!(m.leave(3, g(9)), vec![]);
    }

    #[test]
    fn subscriptions_are_separate_from_membership() {
        let mut m = Membership::new();
        m.subscribe(0, g(1));
        assert!(!m.has_members(g(1)));
        assert_eq!(m.borders_of(g(1)), vec![0]);
        m.unsubscribe(0, g(1));
        assert!(m.borders_of(g(1)).is_empty());
    }

    #[test]
    fn receivers_exclude_entry_border_but_not_members() {
        let mut m = Membership::new();
        m.join(1, g(1));
        m.join(2, g(1));
        m.subscribe(0, g(1));
        // A member at the entry router still receives its local copy.
        let (mem, bor) = m.receivers(g(1), Some(2));
        assert_eq!(mem, vec![1, 2]);
        assert_eq!(bor, vec![0]);
        // Transit data is never echoed to the entry border...
        let (_, bor) = m.receivers(g(1), Some(0));
        assert!(bor.is_empty());
        // ...but locally sourced data goes to every border.
        let (_, bor) = m.receivers(g(1), None);
        assert_eq!(bor, vec![0]);
    }
}
