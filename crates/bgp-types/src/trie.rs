//! A binary prefix trie with longest-prefix match.
//!
//! Used wherever prefix-containment queries must be fast: forwarding-rule
//! evaluation, bogon checks, and sub-prefix hijack analytics (a hijack of
//! a more-specific prefix is found by enumerating the victims' covered
//! space).

use crate::Prefix;

#[derive(Clone, Debug)]
struct Node<T> {
    children: [Option<usize>; 2],
    /// The stored prefix and value, when a prefix terminates here.
    entry: Option<(Prefix, T)>,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            children: [None, None],
            entry: None,
        }
    }
}

/// A map from [`Prefix`] to `T` supporting exact, longest-match and
/// more-specific queries. IPv4 and IPv6 live in disjoint subtrees.
#[derive(Clone, Debug)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    root_v4: usize,
    root_v6: usize,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bit_at(p: &Prefix, i: u8) -> usize {
    // bit i (0-based from the top) of the network bits
    let width = if p.is_ipv6() { 128 } else { 32 };
    ((p.raw_bits() >> (width - 1 - i as usize)) & 1) as usize
}

impl<T> PrefixTrie<T> {
    /// An empty trie.
    pub fn new() -> Self {
        let nodes = vec![Node::new(), Node::new()];
        PrefixTrie {
            nodes,
            root_v4: 0,
            root_v6: 1,
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn root(&self, p: &Prefix) -> usize {
        if p.is_ipv6() {
            self.root_v6
        } else {
            self.root_v4
        }
    }

    /// Inserts (or replaces) the value for `prefix`; returns the previous
    /// value if any.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let mut cur = self.root(&prefix);
        for i in 0..prefix.len() {
            let b = bit_at(&prefix, i);
            cur = match self.nodes[cur].children[b] {
                Some(n) => n,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(Node::new());
                    self.nodes[cur].children[b] = Some(n);
                    n
                }
            };
        }
        let old = self.nodes[cur].entry.take();
        self.nodes[cur].entry = Some((prefix, value));
        if old.is_none() {
            self.len += 1;
        }
        old.map(|(_, v)| v)
    }

    /// Exact lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        let mut cur = self.root(prefix);
        for i in 0..prefix.len() {
            cur = self.nodes[cur].children[bit_at(prefix, i)]?;
        }
        self.nodes[cur].entry.as_ref().map(|(_, v)| v)
    }

    /// Exact lookup, mutable.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut T> {
        let mut cur = self.root(prefix);
        for i in 0..prefix.len() {
            cur = self.nodes[cur].children[bit_at(prefix, i)]?;
        }
        self.nodes[cur].entry.as_mut().map(|(_, v)| v)
    }

    /// Removes `prefix`, returning its value (nodes are not compacted).
    pub fn remove(&mut self, prefix: &Prefix) -> Option<T> {
        let mut cur = self.root(prefix);
        for i in 0..prefix.len() {
            cur = self.nodes[cur].children[bit_at(prefix, i)]?;
        }
        let out = self.nodes[cur].entry.take();
        if out.is_some() {
            self.len -= 1;
        }
        out.map(|(_, v)| v)
    }

    /// Longest stored prefix covering `prefix` (route-table lookup).
    pub fn longest_match(&self, prefix: &Prefix) -> Option<(&Prefix, &T)> {
        let mut cur = self.root(prefix);
        let mut best = self.nodes[cur].entry.as_ref();
        for i in 0..prefix.len() {
            match self.nodes[cur].children[bit_at(prefix, i)] {
                Some(n) => {
                    cur = n;
                    if let Some(e) = self.nodes[cur].entry.as_ref() {
                        best = Some(e);
                    }
                }
                None => break,
            }
        }
        best.map(|(p, v)| (p, v))
    }

    /// Every stored prefix covering `prefix` (itself included), least
    /// specific first: the chain whose last element `longest_match` returns.
    pub fn covering<'a>(&'a self, prefix: &Prefix) -> Vec<(&'a Prefix, &'a T)> {
        let mut cur = self.root(prefix);
        let mut out: Vec<_> = self.nodes[cur].entry.iter().map(|(p, v)| (p, v)).collect();
        for i in 0..prefix.len() {
            match self.nodes[cur].children[bit_at(prefix, i)] {
                Some(n) => {
                    cur = n;
                    if let Some((p, v)) = self.nodes[cur].entry.as_ref() {
                        out.push((p, v));
                    }
                }
                None => break,
            }
        }
        out
    }

    /// All stored prefixes covered by `prefix` (itself included) — the
    /// sub-prefix enumeration used for more-specific hijack checks.
    pub fn more_specifics<'a>(&'a self, prefix: &Prefix) -> Vec<(&'a Prefix, &'a T)> {
        let mut cur = self.root(prefix);
        for i in 0..prefix.len() {
            match self.nodes[cur].children[bit_at(prefix, i)] {
                Some(n) => cur = n,
                None => return Vec::new(),
            }
        }
        let mut out = Vec::new();
        let mut stack = vec![cur];
        while let Some(n) = stack.pop() {
            if let Some((p, v)) = self.nodes[n].entry.as_ref() {
                out.push((p, v));
            }
            for c in self.nodes[n].children.iter().flatten() {
                stack.push(*c);
            }
        }
        out
    }

    /// Iterates over all entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &T)> {
        self.nodes
            .iter()
            .filter_map(|n| n.entry.as_ref().map(|(p, v)| (p, v)))
    }
}

impl<T> FromIterator<(Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/9")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut t: PrefixTrie<Vec<u32>> = [(p("10.0.0.0/8"), vec![1])].into_iter().collect();
        t.get_mut(&p("10.0.0.0/8")).unwrap().push(2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&vec![1, 2]));
        assert!(t.get_mut(&p("10.0.0.0/9")).is_none());
    }

    #[test]
    fn longest_match_prefers_most_specific() {
        let t: PrefixTrie<u32> = [
            (p("10.0.0.0/8"), 8),
            (p("10.1.0.0/16"), 16),
            (p("10.1.2.0/24"), 24),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.longest_match(&p("10.1.2.0/24")).unwrap().1, &24);
        assert_eq!(t.longest_match(&p("10.1.2.128/25")).unwrap().1, &24);
        assert_eq!(t.longest_match(&p("10.1.9.0/24")).unwrap().1, &16);
        assert_eq!(t.longest_match(&p("10.9.9.0/24")).unwrap().1, &8);
        assert!(t.longest_match(&p("11.0.0.0/8")).is_none());
    }

    #[test]
    fn covering_lists_the_chain_least_specific_first() {
        let t: PrefixTrie<u32> = [
            (p("0.0.0.0/0"), 0),
            (p("10.0.0.0/8"), 8),
            (p("10.1.0.0/16"), 16),
            (p("10.1.2.0/24"), 24),
            (p("10.2.0.0/16"), 2),
        ]
        .into_iter()
        .collect();
        let vals = |q: &str| -> Vec<u32> { t.covering(&p(q)).iter().map(|(_, &v)| v).collect() };
        assert_eq!(vals("10.1.2.0/24"), vec![0, 8, 16, 24]);
        assert_eq!(vals("10.1.2.128/25"), vec![0, 8, 16, 24]);
        assert_eq!(vals("10.1.0.0/16"), vec![0, 8, 16]);
        assert_eq!(vals("11.0.0.0/8"), vec![0]);
        assert!(t.covering(&p("2001:db8::/32")).is_empty());
        for q in ["10.1.2.0/24", "10.1.9.0/24", "10.9.0.0/16", "11.0.0.0/8"] {
            let last = t.covering(&p(q)).last().map(|(p, v)| (**p, **v));
            assert_eq!(last, t.longest_match(&p(q)).map(|(p, v)| (*p, *v)), "{q}");
        }
    }

    #[test]
    fn default_route_matches_everything_v4() {
        let t: PrefixTrie<u32> = [(p("0.0.0.0/0"), 0)].into_iter().collect();
        assert_eq!(t.longest_match(&p("203.0.113.0/24")).unwrap().1, &0);
        // but not v6
        assert!(t.longest_match(&p("2001:db8::/32")).is_none());
    }

    #[test]
    fn more_specifics_enumerates_subtree() {
        let t: PrefixTrie<u32> = [
            (p("10.0.0.0/8"), 8),
            (p("10.1.0.0/16"), 16),
            (p("10.1.2.0/24"), 24),
            (p("10.200.0.0/16"), 200),
            (p("11.0.0.0/8"), 11),
        ]
        .into_iter()
        .collect();
        let subs = t.more_specifics(&p("10.1.0.0/16"));
        let vals: std::collections::BTreeSet<u32> = subs.iter().map(|(_, &v)| v).collect();
        assert_eq!(vals, [16u32, 24].into_iter().collect());
        let all10 = t.more_specifics(&p("10.0.0.0/8"));
        assert_eq!(all10.len(), 4);
        assert!(t.more_specifics(&p("12.0.0.0/8")).is_empty());
    }

    #[test]
    fn v4_v6_are_disjoint() {
        let mut t = PrefixTrie::new();
        t.insert(p("::/0"), 6);
        t.insert(p("0.0.0.0/0"), 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.longest_match(&p("2001:db8::/32")).unwrap().1, &6);
        assert_eq!(t.longest_match(&p("8.8.8.0/24")).unwrap().1, &4);
    }

    #[test]
    fn iter_yields_all_entries() {
        let t: PrefixTrie<u32> = (0..50u32).map(|i| (Prefix::synthetic(i), i)).collect();
        assert_eq!(t.iter().count(), 50);
        assert_eq!(t.len(), 50);
    }
}
