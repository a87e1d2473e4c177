//! Refcounted, dedup-hashed interning arenas for BGP attributes.
//!
//! Real VP streams are massively redundant: the same AS paths, community
//! sets and implicit-withdrawal sets recur across updates and across VPs.
//! The interned [`RouteStore`](crate::RouteStore) exploits that by storing
//! each distinct attribute value exactly once, in an append-only arena, and
//! keeping `u32` ids in its per-update records. Every arena fronts its
//! slots with a dedup hash table (fingerprint → candidate ids, resolved by
//! exact comparison), so interning is one hash + one equality check in the
//! common hit case, and values round-trip exactly — the arena hands back
//! the very bytes that went in.
//!
//! Id `0` is reserved at construction for the empty value in every arena,
//! matching the `EMPTY` constants on the id types in `bgp_types::internid`.

use bgp_types::{
    AsPath, CommSetId, Community, Link, LinkSetId, PathId, Prefix, PrefixId, PrefixTrie,
};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

fn fingerprint<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Fingerprint → candidate ids. Nearly every fingerprint names a single
/// value, so its id sits inline in the table (no per-value `Vec` to
/// allocate on insert or to chase on lookup); any further value under the
/// same fingerprint goes to an overflow list.
#[derive(Default)]
struct Dedup {
    first: HashMap<u64, u32>,
    overflow: HashMap<u64, Vec<u32>>,
}

impl Dedup {
    /// The candidate under `fp` for which `is_eq` holds, if any.
    fn find(&self, fp: u64, is_eq: impl Fn(u32) -> bool) -> Option<u32> {
        let &id = self.first.get(&fp)?;
        if is_eq(id) {
            return Some(id);
        }
        self.overflow
            .get(&fp)?
            .iter()
            .copied()
            .find(|&id| is_eq(id))
    }

    /// Records `id` as a candidate under `fp`.
    fn insert(&mut self, fp: u64, id: u32) {
        match self.first.entry(fp) {
            Entry::Vacant(e) => {
                e.insert(id);
            }
            Entry::Occupied(_) => self.overflow.entry(fp).or_default().push(id),
        }
    }
}

/// One interned AS path, with its link set precomputed so implicit
/// withdrawal derivation is a sorted-slice difference instead of a
/// `BTreeSet` build per update.
struct PathSlot {
    path: AsPath,
    /// `path.links()` materialized: sorted, deduplicated, self-loops
    /// skipped — exactly what `AsPath::links` yields.
    links: Box<[Link]>,
    refs: u64,
}

/// Dedup arena for AS paths.
pub struct PathArena {
    slots: Vec<PathSlot>,
    dedup: Dedup,
}

impl PathArena {
    fn new() -> Self {
        let mut a = PathArena {
            slots: Vec::new(),
            dedup: Dedup::default(),
        };
        let id = a.intern(&AsPath::empty());
        debug_assert_eq!(id, PathId::EMPTY);
        a
    }

    /// Interns `path`, returning the id of the canonical copy (allocating a
    /// slot only on first sight) and bumping its refcount.
    pub fn intern(&mut self, path: &AsPath) -> PathId {
        let fp = fingerprint(path);
        let slots = &self.slots;
        if let Some(id) = self.dedup.find(fp, |id| slots[id as usize].path == *path) {
            self.slots[id as usize].refs += 1;
            return PathId(id);
        }
        let id = self.slots.len() as u32;
        let links: Box<[Link]> = path.links().into_iter().collect();
        self.slots.push(PathSlot {
            path: path.clone(),
            links,
            refs: 1,
        });
        self.dedup.insert(fp, id);
        PathId(id)
    }

    /// The interned path (exact round-trip of what was interned).
    pub fn get(&self, id: PathId) -> &AsPath {
        &self.slots[id.0 as usize].path
    }

    /// The path's link set, sorted ascending (what `AsPath::links` yields).
    pub fn links(&self, id: PathId) -> &[Link] {
        &self.slots[id.0 as usize].links
    }

    /// Bumps the refcount of an already-interned path.
    pub fn bump(&mut self, id: PathId) {
        self.slots[id.0 as usize].refs += 1;
    }

    /// Number of distinct paths interned (including the empty path).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total references handed out across all slots.
    pub fn refs(&self) -> u64 {
        self.slots.iter().map(|s| s.refs).sum()
    }

    /// Approximate heap bytes held by the arena.
    pub fn bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| 48 + s.path.hops().len() as u64 * 4 + s.links.len() as u64 * 8)
            .sum()
    }
}

/// Dedup arena for sorted sets of `Copy + Ord` values (community sets and
/// link sets). Stored as sorted boxed slices — the sorted order is the
/// `BTreeSet` iteration order, so reconstruction into a `BTreeSet` is an
/// exact round-trip.
pub struct SetArena<T> {
    slots: Vec<(Box<[T]>, u64)>,
    dedup: Dedup,
}

impl<T: Copy + Ord + Hash> SetArena<T> {
    fn new() -> Self {
        let mut a = SetArena {
            slots: Vec::new(),
            dedup: Dedup::default(),
        };
        a.intern_sorted(&[]);
        a
    }

    /// Interns a sorted, deduplicated slice; returns the raw arena id.
    ///
    /// Callers must pass sorted input (BTreeSet iteration order or a
    /// sorted-slice set difference) — debug builds assert it.
    pub fn intern_sorted(&mut self, items: &[T]) -> u32 {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "input must be sorted+dedup"
        );
        let fp = fingerprint(items);
        let slots = &self.slots;
        if let Some(id) = self.dedup.find(fp, |id| &*slots[id as usize].0 == items) {
            self.slots[id as usize].1 += 1;
            return id;
        }
        let id = self.slots.len() as u32;
        self.slots.push((items.to_vec().into_boxed_slice(), 1));
        self.dedup.insert(fp, id);
        id
    }

    /// The interned set, sorted ascending.
    pub fn get(&self, id: u32) -> &[T] {
        &self.slots[id as usize].0
    }

    /// Bumps the refcount of an already-interned set.
    pub fn bump(&mut self, id: u32) {
        self.slots[id as usize].1 += 1;
    }

    /// Number of distinct sets interned (including the empty set).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total references handed out across all slots.
    pub fn refs(&self) -> u64 {
        self.slots.iter().map(|s| s.1).sum()
    }

    /// Approximate heap bytes held by the arena.
    pub fn bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| 40 + (s.0.len() * std::mem::size_of::<T>()) as u64)
            .sum()
    }
}

/// Dedup table for prefixes, with a side trie mapping every known prefix to
/// its id — the one prefix trie the whole store shares (the reference store
/// pays for one trie *per shard*).
pub struct PrefixArena {
    prefixes: Vec<Prefix>,
    ids: HashMap<Prefix, u32>,
    trie: PrefixTrie<u32>,
}

impl PrefixArena {
    fn new() -> Self {
        PrefixArena {
            prefixes: Vec::new(),
            ids: HashMap::new(),
            trie: PrefixTrie::new(),
        }
    }

    /// Interns `p`, allocating an id on first sight.
    pub fn intern(&mut self, p: Prefix) -> PrefixId {
        if let Some(&id) = self.ids.get(&p) {
            return PrefixId(id);
        }
        let id = self.prefixes.len() as u32;
        self.prefixes.push(p);
        self.ids.insert(p, id);
        self.trie.insert(p, id);
        PrefixId(id)
    }

    /// The prefix for an id.
    pub fn get(&self, id: PrefixId) -> Prefix {
        self.prefixes[id.0 as usize]
    }

    /// The id of a known prefix, if interned.
    pub fn lookup(&self, p: &Prefix) -> Option<PrefixId> {
        self.ids.get(p).map(|&id| PrefixId(id))
    }

    /// The shared prefix → id trie (covered-join enumeration).
    pub fn trie(&self) -> &PrefixTrie<u32> {
        &self.trie
    }

    /// Number of distinct prefixes seen.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// Approximate heap bytes (table + the shared trie's per-bit nodes).
    pub fn bytes(&self) -> u64 {
        // ~24 B per prefix in the vec + map entry, plus an amortized trie
        // cost: dense prefix sets share upper nodes, so ~4 nodes/prefix.
        self.prefixes.len() as u64 * (24 + 64 + 4 * 56)
    }
}

/// The bundle of arenas the interned store runs on.
pub struct Interner {
    /// AS paths (with precomputed sorted link slices).
    pub paths: PathArena,
    /// Community sets (`C` and `Cw`).
    pub comm_sets: SetArena<Community>,
    /// Implicit-withdrawal link sets (`Lw`).
    pub link_sets: SetArena<Link>,
    /// Prefixes, with the shared prefix→id trie.
    pub prefixes: PrefixArena,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// Fresh arenas with the empty path/sets pre-interned as id 0.
    pub fn new() -> Self {
        Interner {
            paths: PathArena::new(),
            comm_sets: SetArena::new(),
            link_sets: SetArena::new(),
            prefixes: PrefixArena::new(),
        }
    }

    /// Interns a community `BTreeSet` (already sorted by iteration order).
    pub fn intern_comms(&mut self, comms: &std::collections::BTreeSet<Community>) -> CommSetId {
        let sorted: Vec<Community> = comms.iter().copied().collect();
        CommSetId(self.comm_sets.intern_sorted(&sorted))
    }

    /// Interns a link `BTreeSet` (already sorted by iteration order).
    pub fn intern_links(&mut self, links: &std::collections::BTreeSet<Link>) -> LinkSetId {
        let sorted: Vec<Link> = links.iter().copied().collect();
        LinkSetId(self.link_sets.intern_sorted(&sorted))
    }

    /// Total approximate heap bytes across all arenas.
    pub fn bytes(&self) -> u64 {
        self.paths.bytes() + self.comm_sets.bytes() + self.link_sets.bytes() + self.prefixes.bytes()
    }

    /// Total attribute references handed out (for the dedup ratio).
    pub fn refs(&self) -> u64 {
        self.paths.refs() + self.comm_sets.refs() + self.link_sets.refs()
    }

    /// Total distinct attribute entries across the dedup arenas.
    pub fn entries(&self) -> usize {
        self.paths.len() + self.comm_sets.len() + self.link_sets.len()
    }
}

/// Sorted-slice set difference `a \ b` (both inputs sorted ascending),
/// written into `out` (cleared first, so ingest reuses one buffer); the
/// slice analogue of `BTreeSet::difference`, so deriving `Lw`/`Cw` from
/// interned slices matches `Rib::apply` on owned sets exactly.
pub fn diff_sorted<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() {
        if j >= b.len() || a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if a[i] == b[j] {
            i += 1;
            j += 1;
        } else {
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Asn;
    use std::collections::BTreeSet;

    #[test]
    fn paths_dedup_and_round_trip() {
        let mut a = PathArena::new();
        let p1 = AsPath::from_u32s([6, 2, 1, 4]);
        let p2 = AsPath::from_u32s([6, 3, 1, 4]);
        let id1 = a.intern(&p1);
        let id2 = a.intern(&p2);
        let id1b = a.intern(&p1);
        assert_eq!(id1, id1b, "same path interns to same id");
        assert_ne!(id1, id2);
        assert_eq!(a.get(id1), &p1);
        assert_eq!(a.get(id2), &p2);
        assert_eq!(a.len(), 3, "empty + two distinct");
        assert_eq!(a.refs(), 4, "empty once + p1 twice + p2 once");
        // links are the BTreeSet order, materialized
        let want: Vec<Link> = p1.links().into_iter().collect();
        assert_eq!(a.links(id1), &want[..]);
    }

    #[test]
    fn empty_values_are_id_zero() {
        let mut i = Interner::new();
        assert_eq!(i.paths.intern(&AsPath::empty()), PathId::EMPTY);
        assert_eq!(i.intern_comms(&BTreeSet::new()), CommSetId::EMPTY);
        assert_eq!(i.intern_links(&BTreeSet::new()), LinkSetId::EMPTY);
    }

    #[test]
    fn comm_sets_round_trip_btreeset_order() {
        let mut i = Interner::new();
        let set: BTreeSet<Community> = [Community::new(9, 1), Community::new(1, 2)]
            .into_iter()
            .collect();
        let id = i.intern_comms(&set);
        let back: BTreeSet<Community> = i.comm_sets.get(id.0).iter().copied().collect();
        assert_eq!(back, set);
        assert_eq!(i.intern_comms(&set), id);
    }

    #[test]
    fn prefix_arena_tracks_trie() {
        let mut a = PrefixArena::new();
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let p16: Prefix = "10.1.0.0/16".parse().unwrap();
        let id8 = a.intern(p8);
        let id16 = a.intern(p16);
        assert_eq!(a.intern(p8), id8);
        assert_eq!(a.get(id16), p16);
        assert_eq!(a.lookup(&p8), Some(id8));
        assert_eq!(a.lookup(&"11.0.0.0/8".parse().unwrap()), None);
        assert_eq!(a.trie().more_specifics(&p8).len(), 2);
    }

    #[test]
    fn diff_sorted_matches_btreeset_difference() {
        let a: BTreeSet<Link> = [
            Link::new(Asn(1), Asn(2)),
            Link::new(Asn(2), Asn(3)),
            Link::new(Asn(3), Asn(4)),
        ]
        .into_iter()
        .collect();
        let b: BTreeSet<Link> = [Link::new(Asn(2), Asn(3)), Link::new(Asn(9), Asn(9))]
            .into_iter()
            .collect();
        let av: Vec<Link> = a.iter().copied().collect();
        let bv: Vec<Link> = b.iter().copied().collect();
        let want: Vec<Link> = a.difference(&b).copied().collect();
        let mut out = vec![Link::new(Asn(7), Asn(7))];
        diff_sorted(&av, &bv, &mut out);
        assert_eq!(out, want);
        diff_sorted(&av, &[], &mut out);
        assert_eq!(out, av);
        diff_sorted(&[] as &[Link], &bv, &mut out);
        assert_eq!(out, Vec::<Link>::new());
    }
}
