//! Binary prefix trie with longest-prefix match.
//!
//! Backs [`Rib::lookup_group`](crate::Rib::lookup_group) so the
//! per-packet G-RIB lookup §3 worries about costs O(prefix length)
//! instead of a scan over every selected route. The value type is
//! generic so other crates (masc, mcast-addr tooling) can reuse the
//! structure for their own prefix-keyed state.
//!
//! Keys are [`Prefix`]es: the trie branches on address bits from the
//! most significant downward, and a node at depth `d` may carry the
//! value stored for the /`d` prefix spelled by the path to it.
//!
//! # Determinism
//!
//! [`lookup`](PrefixTrie::lookup) walks the single root-to-leaf path
//! selected by the address bits, so for a given key set the result is
//! unique: two *distinct* prefixes of equal length can never cover the
//! same address (they differ in some bit at or above their common
//! length). The documented tie-break — longest match, then lowest
//! base — is therefore satisfied by construction.

use mcast_addr::{McastAddr, Prefix};

/// A node holds the value for the prefix spelled by the path to it
/// (if any) and up to two children keyed by the next address bit.
#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Node<V> {
    fn empty() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }

    fn is_leafless(&self) -> bool {
        self.value.is_none() && self.children.iter().all(|c| c.is_none())
    }
}

/// Binary trie mapping [`Prefix`] → `V` with O(prefix-length) insert,
/// remove, exact get and longest-prefix-match lookup.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    root: Node<V>,
    len: usize,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Bit of `addr` consumed at trie depth `depth` (0 = most significant).
fn bit_at(addr: u32, depth: u8) -> usize {
    ((addr >> (31 - depth)) & 1) as usize
}

impl<V> PrefixTrie<V> {
    pub fn new() -> Self {
        PrefixTrie {
            root: Node::empty(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `value` under `prefix`, returning the previous value if
    /// the prefix was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let base = prefix.base_u32();
        let mut node = &mut self.root;
        for depth in 0..prefix.len() {
            node =
                node.children[bit_at(base, depth)].get_or_insert_with(|| Box::new(Node::empty()));
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Exact-match retrieval (no LPM semantics).
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        let base = prefix.base_u32();
        let mut node = &self.root;
        for depth in 0..prefix.len() {
            node = node.children[bit_at(base, depth)].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Remove the value stored under `prefix`, pruning any interior
    /// nodes left without values or children so the trie never grows
    /// monotonically under churn.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        fn rec<V>(node: &mut Node<V>, base: u32, len: u8, depth: u8) -> (Option<V>, bool) {
            if depth == len {
                let taken = node.value.take();
                return (taken, node.is_leafless());
            }
            let bit = bit_at(base, depth);
            let Some(child) = node.children[bit].as_deref_mut() else {
                return (None, false);
            };
            let (taken, prune_child) = rec(child, base, len, depth + 1);
            if prune_child {
                node.children[bit] = None;
            }
            (taken, node.is_leafless())
        }

        let (taken, _) = rec(&mut self.root, prefix.base_u32(), prefix.len(), 0);
        if taken.is_some() {
            self.len -= 1;
        }
        taken
    }

    /// Longest-prefix match: the most specific stored prefix covering
    /// `addr`, together with its value. Walks at most 32 nodes.
    pub fn lookup(&self, addr: McastAddr) -> Option<(Prefix, &V)> {
        let a = addr.0;
        let mut node = &self.root;
        let mut best: Option<(u8, &V)> = node.value.as_ref().map(|v| (0, v));
        for depth in 0..32u8 {
            match node.children[bit_at(a, depth)].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = node.value.as_ref() {
                        best = Some((depth + 1, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, v)| {
            let p = Prefix::containing(addr, len).expect("trie depth is a valid mask length");
            (p, v)
        })
    }

    /// The stored prefixes that strictly cover `prefix` — its proper
    /// ancestors — shortest first, in at most 32 steps.
    pub fn covering(&self, prefix: &Prefix) -> impl Iterator<Item = (Prefix, &V)> {
        let base = prefix.base_u32();
        let mut node = Some(&self.root);
        (0..prefix.len()).filter_map(move |depth| {
            let here = node?;
            node = here.children[bit_at(base, depth)].as_deref();
            let p = Prefix::containing(McastAddr(base), depth);
            Some((
                p.expect("trie depth is a valid mask length"),
                here.value.as_ref()?,
            ))
        })
    }

    /// All stored `(Prefix, &V)` pairs, in ascending (base, len) order
    /// of the path walk. Mostly useful for tests and debugging.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len);
        fn walk<'a, V>(node: &'a Node<V>, base: u32, depth: u8, out: &mut Vec<(Prefix, &'a V)>) {
            if let Some(v) = node.value.as_ref() {
                let p = Prefix::new(base, depth).expect("trie path spells an aligned prefix");
                out.push((p, v));
            }
            if depth == 32 {
                return;
            }
            if let Some(c) = node.children[0].as_deref() {
                walk(c, base, depth + 1, out);
            }
            if let Some(c) = node.children[1].as_deref() {
                walk(c, base | (1 << (31 - depth)), depth + 1, out);
            }
        }
        walk(&self.root, 0, 0, &mut out);
        out.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().expect("test prefix")
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("224.0.0.0/24"), 1), None);
        assert_eq!(t.insert(p("224.0.0.0/24"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("224.0.0.0/24")), Some(&2));
        assert_eq!(t.get(&p("224.0.0.0/25")), None);
        assert_eq!(t.remove(&p("224.0.0.0/24")), Some(2));
        assert_eq!(t.remove(&p("224.0.0.0/24")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn lookup_prefers_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::MULTICAST, "coarse");
        t.insert(p("224.1.0.0/16"), "mid");
        t.insert(p("224.1.2.0/24"), "fine");

        let a = McastAddr::from_octets(224, 1, 2, 9);
        assert_eq!(t.lookup(a), Some((p("224.1.2.0/24"), &"fine")));

        let b = McastAddr::from_octets(224, 1, 9, 9);
        assert_eq!(t.lookup(b), Some((p("224.1.0.0/16"), &"mid")));

        let c = McastAddr::from_octets(239, 9, 9, 9);
        assert_eq!(t.lookup(c), Some((Prefix::MULTICAST, &"coarse")));
    }

    #[test]
    fn lookup_miss_when_nothing_covers() {
        let mut t = PrefixTrie::new();
        t.insert(p("224.1.2.0/24"), ());
        assert_eq!(t.lookup(McastAddr::from_octets(224, 9, 0, 1)), None);
    }

    #[test]
    fn host_route_depth_32() {
        let mut t = PrefixTrie::new();
        let host = p("224.5.6.7/32");
        t.insert(host, 7u8);
        assert_eq!(
            t.lookup(McastAddr::from_octets(224, 5, 6, 7)),
            Some((host, &7))
        );
        assert_eq!(t.lookup(McastAddr::from_octets(224, 5, 6, 8)), None);
    }

    #[test]
    fn remove_prunes_interior_nodes() {
        let mut t = PrefixTrie::new();
        t.insert(p("224.0.0.0/8"), ());
        t.insert(p("224.1.2.0/24"), ());
        t.remove(&p("224.1.2.0/24"));
        // The /8 must survive and still resolve lookups under it.
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.lookup(McastAddr::from_octets(224, 1, 2, 3)),
            Some((p("224.0.0.0/8"), &()))
        );
        t.remove(&p("224.0.0.0/8"));
        assert!(t.is_empty());
        assert!(t.root.is_leafless(), "pruning must leave a bare root");
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = PrefixTrie::new();
        for s in ["224.0.0.0/4", "224.1.0.0/16", "232.0.0.0/8"] {
            t.insert(p(s), s.to_string());
        }
        let got: Vec<Prefix> = t.iter().map(|(pfx, _)| pfx).collect();
        assert_eq!(
            got,
            vec![p("224.0.0.0/4"), p("224.1.0.0/16"), p("232.0.0.0/8")]
        );
    }
}
