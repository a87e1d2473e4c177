//! Reference answers the collector's outputs are checked against: what
//! the `FilterSet::accepts` oracle retains, and an order-independent
//! digest of a multiset of updates.

use gill::core::FilterSet;
use gill::query::RouteStore;
use gill::scenario::Fnv64;
use gill::types::{BgpUpdate, VpId};
use std::fmt::Write;

/// The fields of an update the collector must preserve, as one line.
/// `with_time` drops the reception time for feeds the collector stamps
/// with its own clock.
pub fn canonical_line(u: &BgpUpdate, with_time: bool) -> String {
    let mut s = String::with_capacity(96);
    let time = if with_time { u.time.as_millis() } else { 0 };
    let _ = write!(
        s,
        "{}#{} {time} {} {:?} {:?} [",
        u.vp.asn.value(),
        u.vp.router,
        u.prefix,
        u.path_id,
        u.kind
    );
    for a in u.path.hops() {
        let _ = write!(s, "{} ", a.value());
    }
    s.push_str("] {");
    for c in &u.communities {
        let _ = write!(s, "{} ", c.0);
    }
    s.push('}');
    s
}

/// Order-independent digest of a multiset of updates: the wrapping sum
/// of each canonical line's FNV-1a hash, plus the count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MultisetDigest {
    /// Sum of per-update hashes.
    pub fold: u64,
    /// Number of updates folded.
    pub count: usize,
}

impl MultisetDigest {
    /// Folds one update in.
    pub fn add(&mut self, u: &BgpUpdate, with_time: bool) {
        let mut h = Fnv64::new();
        h.write_line(&canonical_line(u, with_time));
        self.fold = self.fold.wrapping_add(h.finish());
        self.count += 1;
    }

    /// The digest of `updates`.
    pub fn of<'a>(updates: impl IntoIterator<Item = &'a BgpUpdate>, with_time: bool) -> Self {
        let mut d = MultisetDigest::default();
        for u in updates {
            d.add(u, with_time);
        }
        d
    }
}

/// Digest of everything `store` holds for `vps`.
pub fn stored(store: &RouteStore, vps: &[VpId], with_time: bool) -> MultisetDigest {
    let mut d = MultisetDigest::default();
    for vp in vps {
        for u in store.lane_updates(*vp).unwrap_or_default() {
            d.add(&u, with_time);
        }
    }
    d
}

/// What the filters must do to a sent stream.
pub struct Expected {
    /// Updates the reference filter discards.
    pub filtered: usize,
    /// Per sent update: whether it is retained.
    pub retained: Vec<bool>,
    /// Digest of the retained multiset.
    pub digest: MultisetDigest,
}

/// Runs the reference `FilterSet::accepts` over `sent`.
pub fn expect(filters: &FilterSet, sent: &[BgpUpdate], with_time: bool) -> Expected {
    let retained: Vec<bool> = sent.iter().map(|u| filters.accepts(u)).collect();
    let digest = MultisetDigest::of(
        sent.iter()
            .zip(&retained)
            .filter(|(_, k)| **k)
            .map(|(u, _)| u),
        with_time,
    );
    Expected {
        filtered: retained.iter().filter(|k| !**k).count(),
        retained,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gill::types::{Asn, Prefix, Timestamp, UpdateBuilder, VpId};

    fn upd(vp: u32, p: u32, t: u64) -> BgpUpdate {
        UpdateBuilder::announce(VpId::from_asn(Asn(vp)), Prefix::synthetic(p))
            .at(Timestamp::from_millis(t))
            .path([vp, 2, 3])
            .build()
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = [upd(1, 1, 5), upd(2, 2, 6)];
        let b = [upd(2, 2, 6), upd(1, 1, 5)];
        assert_eq!(MultisetDigest::of(&a, true), MultisetDigest::of(&b, true));
        let c = [upd(2, 2, 7), upd(1, 1, 5)];
        assert_ne!(MultisetDigest::of(&a, true), MultisetDigest::of(&c, true));
        assert_eq!(MultisetDigest::of(&a, false), MultisetDigest::of(&c, false));
    }
}
