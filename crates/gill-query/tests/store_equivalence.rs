//! Acceptance tests for the interned/COW/sealed store: every read path must
//! be bit-identical to the uncompressed [`ReferenceStore`], and a store
//! reloaded from sealed segments must serve byte-identical HTTP responses
//! to the store that wrote them.

use bgp_types::{Asn, BgpUpdate, Prefix, Timestamp, UpdateBuilder, UpdateKind, VpId};
use gill_query::server::route;
use gill_query::{
    JoinMode, MatchMode, ReferenceStore, Request, Response, RouteStore, RouteView, StoreConfig,
};
use parking_lot::RwLock;
use std::path::PathBuf;
use std::sync::Arc;

/// Deterministic xorshift so the stream is reproducible without a rand dep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Prefixes covering some of the synthetic /24s (`10.0.0.0/24` to
/// `10.1.143.0/24`) and /64s (`2001:db8:0:0::/64` up to `2001:db8:0:27::/64`),
/// so LPM and more-specifics lookups see nested prefixes.
const COVERING: [&str; 8] = [
    "10.0.0.0/8",
    "10.0.0.0/16",
    "10.1.0.0/16",
    "10.0.16.0/20",
    "10.1.32.0/20",
    "2001:db8::/32",
    "2001:db8::/48",
    "2001:db8:0:10::/60",
];

/// Prefixes every VP withdraws at the end of the stream: a covering /20,
/// a /24 under the other /20, and a /64 under the /60.
const ALL_WITHDRAWN: [&str; 3] = ["10.0.16.0/20", "10.1.40.0/24", "2001:db8:0:12::/64"];

fn pfx(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// Mixed announce/withdraw stream: 8 VPs, 400 /24s, 40 /64s and the
/// covering prefixes above, jittered clocks — the shape the
/// `rib_equivalence` oracle uses, plus nesting and both families. Odd VPs
/// only ever withdraw the /24s under `10.0.16.0/20`, so their LPM lookups
/// there must widen to a covering prefix; the stream ends with every VP
/// withdrawing [`ALL_WITHDRAWN`].
fn synthetic_stream(n: usize) -> Vec<BgpUpdate> {
    let mut rng = Rng(0x6a09e667f3bcc908);
    let mut t_ms: u64 = 1_000_000;
    let mut out = Vec::with_capacity(n);
    let gapped = pfx("10.0.16.0/20");
    for _ in 0..n - 8 * ALL_WITHDRAWN.len() {
        t_ms = if rng.below(50) == 0 {
            t_ms.saturating_sub(rng.below(2_000))
        } else {
            t_ms + rng.below(400)
        };
        let vp_idx = rng.below(8) as u32;
        let vp = VpId::from_asn(Asn(65_000 + vp_idx));
        let prefix = match rng.below(20) {
            0 => pfx(COVERING[rng.below(COVERING.len() as u64) as usize]),
            1 | 2 => Prefix::synthetic_v6(rng.below(40) as u32),
            _ => Prefix::synthetic(rng.below(400) as u32),
        };
        let odd_gap = vp_idx % 2 == 1 && prefix.len() == 24 && gapped.covers(&prefix);
        let u = if odd_gap || rng.below(5) == 0 {
            UpdateBuilder::withdraw(vp, prefix)
                .at(Timestamp::from_millis(t_ms))
                .build()
        } else {
            let mid = (rng.below(900) + 100) as u32;
            UpdateBuilder::announce(vp, prefix)
                .at(Timestamp::from_millis(t_ms))
                .path([vp.asn.value(), mid, mid + 1, (rng.below(50) + 1) as u32])
                .community((vp.asn.value() & 0xffff) as u16, rng.below(200) as u16)
                .build()
        };
        out.push(u);
    }
    for p in ALL_WITHDRAWN {
        for vp_idx in 0..8 {
            t_ms += 10;
            out.push(
                UpdateBuilder::withdraw(VpId::from_asn(Asn(65_000 + vp_idx)), pfx(p))
                    .at(Timestamp::from_millis(t_ms))
                    .build(),
            );
        }
    }
    out
}

/// Live-table lookup probes: every tenth synthetic /24, the covering and
/// withdrawn prefixes, v6 /64s, a /25 and a /24 that are not stored but
/// have covering routes, and prefixes nothing covers.
fn lookup_probes() -> Vec<Prefix> {
    let mut probes: Vec<Prefix> = (0..40u32).map(|q| Prefix::synthetic(q * 10)).collect();
    probes.extend((16..32).map(Prefix::synthetic));
    probes.extend(COVERING.iter().chain(&ALL_WITHDRAWN).map(|p| pfx(p)));
    probes.extend((0..40).step_by(3).map(Prefix::synthetic_v6));
    probes.extend(
        [
            "10.0.17.128/25",
            "10.1.200.0/24",
            "10.1.41.0/24",
            "2001:db8:0:12:8000::/65",
            "2001:db8:1::/48",
            "11.0.0.0/8",
            "0.0.0.0/0",
            "::/0",
        ]
        .map(pfx),
    );
    probes
}

fn small_cfg() -> StoreConfig {
    StoreConfig {
        shard_width_ms: 60_000,
        snapshot_every_shards: 4,
        ..StoreConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gill-store-eq-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn views_eq(got: &[RouteView], want: &[RouteView], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: result count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.vp, w.vp, "{ctx}: vp");
        assert_eq!(g.prefix, w.prefix, "{ctx}: prefix");
        assert_eq!(g.entry.path, w.entry.path, "{ctx}: path");
        assert_eq!(g.entry.communities, w.entry.communities, "{ctx}: comms");
        assert_eq!(g.entry.time, w.entry.time, "{ctx}: time");
    }
}

/// Probe times spread over the stream's span, plus the edges.
fn probe_times(latest_ms: u64) -> Vec<Timestamp> {
    let mut ts: Vec<u64> = (0..=8)
        .map(|i| 1_000_000 + (latest_ms - 1_000_000) * i / 8)
        .collect();
    ts.push(latest_ms + 500_000);
    ts.into_iter().map(Timestamp::from_millis).collect()
}

#[test]
fn interned_store_is_bit_identical_to_reference() {
    let stream = synthetic_stream(50_000);
    assert!(stream.iter().any(|u| u.kind == UpdateKind::Withdraw));

    let mut reference = ReferenceStore::new(small_cfg());
    let mut interned = RouteStore::new(small_cfg());
    for u in &stream {
        reference.ingest(u.clone());
        interned.ingest(u.clone());
    }

    assert_eq!(interned.stats(), reference.stats(), "stats diverge");
    assert_eq!(interned.vps(), reference.vps(), "vp lanes diverge");
    assert_eq!(
        interned.shard_counts(),
        reference.shard_counts(),
        "shards diverge"
    );
    assert!(
        interned.stats().snapshots > 0,
        "stream must trigger snapshots"
    );

    let probes = probe_times(interned.latest_time().as_millis());
    for vp_asn in 65_000..65_008u32 {
        let vp = VpId::from_asn(Asn(vp_asn));
        // Exact update round-trip: interning must preserve every byte of
        // every attribute, including withdraw link/community bookkeeping.
        let got = interned.lane_updates(vp).expect("vp exists");
        let want: Vec<BgpUpdate> = reference.lane_updates(vp).unwrap().to_vec();
        assert_eq!(got, want, "lane {vp} diverges");

        for &t in &probes {
            let got = interned.rib_at(vp, t).expect("vp exists");
            let want = reference.rib_at(vp, t).expect("vp exists");
            assert_eq!(got.len(), want.len(), "rib size for {vp} at {t}");
            for (p, e) in want.iter() {
                assert_eq!(got.get(p), Some(e), "rib entry {p} for {vp} at {t}");
            }
            assert_eq!(
                interned.rib_len_at(vp, t),
                reference.rib_len_at(vp, t),
                "rib_len_at for {vp} at {t}"
            );
            assert_eq!(
                interned.rib_len_at(vp, t),
                Some(got.len()),
                "rib_len_at must match materialized rib_at for {vp} at {t}"
            );
            assert_eq!(
                interned.replay_depth(vp, t),
                reference.replay_depth(vp, t),
                "replay depth for {vp} at {t}"
            );
        }
    }

    for p in ALL_WITHDRAWN.map(pfx) {
        assert!(
            stream
                .iter()
                .any(|u| u.prefix == p && u.kind == UpdateKind::Announce),
            "{p} is announced before it is withdrawn"
        );
        assert!(interned.lookup(&p, MatchMode::Exact, None).is_empty());
    }
    let vps: Vec<Option<VpId>> = std::iter::once(None)
        .chain((65_000..65_008u32).map(|a| Some(VpId::from_asn(Asn(a)))))
        .collect();
    for p in lookup_probes() {
        for &vp in &vps {
            for mode in [
                MatchMode::Exact,
                MatchMode::Longest,
                MatchMode::MoreSpecific,
            ] {
                views_eq(
                    &interned.lookup(&p, mode, vp),
                    &reference.lookup(&p, mode, vp),
                    &format!("lookup {p} {mode:?} vp {vp:?}"),
                );
            }
        }
    }
    // Odd VPs hold nothing under the withdrawn /20, so their LPM widens
    // past both to the /16.
    let odd = Some(VpId::from_asn(Asn(65_001)));
    let widened = interned.lookup(&Prefix::synthetic(17), MatchMode::Longest, odd);
    assert!(
        widened.iter().all(|r| r.prefix == pfx("10.0.0.0/16")) && !widened.is_empty(),
        "LPM widens to the /16: {widened:?}"
    );

    for q in 0..40u32 {
        let p = Prefix::synthetic(q * 10);
        let mid = Timestamp::from_millis(interned.latest_time().as_millis() / 2);
        views_eq(
            &interned.lookup_at(&p, MatchMode::Exact, None, mid),
            &reference.lookup_at(&p, MatchMode::Exact, None, mid),
            &format!("lookup_at {p}"),
        );
        let got = interned.updates_in_range(Some(&p), JoinMode::Exact, None, Timestamp::ZERO, mid);
        let want: Vec<BgpUpdate> = reference
            .updates_in_range(Some(&p), JoinMode::Exact, None, Timestamp::ZERO, mid)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(got, want, "updates_in_range {p} diverges");
    }
    for asn in [65_001u32, 100, 42] {
        assert_eq!(
            interned.originated(Asn(asn)),
            reference.originated(Asn(asn)),
            "originated {asn}"
        );
    }
}

fn get(store: &Arc<RwLock<RouteStore>>, target: &str) -> Response {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let params = query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|p| {
            let (k, v) = p.split_once('=').unwrap_or((p, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    let req = Request {
        method: "GET".to_string(),
        path: path.to_string(),
        params,
        headers: Vec::new(),
    };
    route(&req, store)
}

/// The endpoint matrix both sides of a restart must answer identically.
/// `/store/stats` is deliberately absent: sealed/resident counters reflect
/// process history, not route data.
fn request_matrix(latest_ms: u64) -> Vec<String> {
    let mid = 1_000_000 + (latest_ms - 1_000_000) / 2;
    let mut targets = vec![
        "/vps".to_string(),
        format!("/updates?from=0&to={latest_ms}&limit=100000"),
        format!(
            "/updates?prefix={}&join=covered&to={latest_ms}",
            Prefix::synthetic(7)
        ),
        format!("/mrt/rib?at={mid}"),
        "/origin?asn=65003".to_string(),
    ];
    for q in [3u32, 17, 250] {
        let p = Prefix::synthetic(q);
        targets.push(format!("/routes?prefix={p}&match=lpm"));
        targets.push(format!("/routes?prefix={p}&match=exact&at={mid}"));
    }
    for vp in 65_000..65_008u32 {
        targets.push(format!("/rib?vp={vp}&at={mid}"));
        targets.push(format!("/rib?vp={vp}"));
        targets.push(format!("/mrt/updates?vp={vp}"));
    }
    targets
}

fn assert_same_responses(a: &Arc<RwLock<RouteStore>>, b: &Arc<RwLock<RouteStore>>, ctx: &str) {
    let latest = a.read().latest_time().as_millis();
    for target in request_matrix(latest) {
        let ra = get(a, &target);
        let rb = get(b, &target);
        assert_eq!(ra.status, rb.status, "{ctx}: status for {target}");
        assert_eq!(
            ra.content_type, rb.content_type,
            "{ctx}: content type for {target}"
        );
        assert_eq!(ra.status, 200, "{ctx}: {target} must succeed");
        assert_eq!(ra.body, rb.body, "{ctx}: body bytes for {target}");
    }
}

#[test]
fn restart_from_sealed_segments_is_byte_identical() {
    let stream = synthetic_stream(50_000);
    let dir = scratch("restart");

    let mut store = RouteStore::new(small_cfg());
    for u in &stream {
        store.ingest(u.clone());
    }
    store.seal_all_into(&dir).unwrap().expect("segment written");

    let mut reloaded = RouteStore::new(small_cfg());
    assert_eq!(reloaded.load_dir(&dir).unwrap(), 50_000);

    let before = Arc::new(RwLock::new(store));
    let after = Arc::new(RwLock::new(reloaded));
    assert_same_responses(&before, &after, "restart");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_restart_with_incremental_seals_is_byte_identical() {
    let stream = synthetic_stream(50_000);
    let dir = scratch("crash");

    // A collector's life: aged-out shards seal while ingest continues, and
    // the final flush seals the tail — producing several segment files.
    let mut store = RouteStore::new(small_cfg());
    for (i, u) in stream.iter().enumerate() {
        store.ingest(u.clone());
        if i % 12_500 == 12_499 {
            store.seal_complete_into(&dir).unwrap();
        }
    }
    store.seal_all_into(&dir).unwrap();
    assert!(
        gill_query::segment::list_segments(&dir).unwrap().len() >= 2,
        "expected multiple incremental segments"
    );

    // "Crash" (drop the process state) and restart from the directory.
    let mut reloaded = RouteStore::new(small_cfg());
    assert_eq!(reloaded.load_dir(&dir).unwrap(), 50_000);
    assert_eq!(reloaded.mem_stats().sealed_updates, 50_000);

    let before = Arc::new(RwLock::new(store));
    let after = Arc::new(RwLock::new(reloaded));
    assert_same_responses(&before, &after, "crash-restart");

    // The reloaded store keeps collecting: new updates land after the
    // sealed ones and seal into the next segment in sequence.
    let next_seq_before = gill_query::segment::list_segments(&dir)
        .unwrap()
        .last()
        .unwrap()
        .0;
    {
        let mut s = after.write();
        let t = s.latest_time().as_millis() + 1_000;
        s.ingest(
            UpdateBuilder::announce(VpId::from_asn(Asn(65_000)), Prefix::synthetic(3))
                .at(Timestamp::from_millis(t))
                .path([65_000, 9, 9, 9])
                .build(),
        );
        s.seal_all_into(&dir).unwrap().expect("tail segment");
    }
    let segs = gill_query::segment::list_segments(&dir).unwrap();
    assert!(
        segs.last().unwrap().0 > next_seq_before,
        "sequence advances"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mem_capped_store_sheds_and_keeps_serving() {
    let stream = synthetic_stream(20_000);

    // Size the cap from a probe run so the test tracks REC_OVERHEAD changes.
    let mut probe = RouteStore::new(small_cfg());
    for u in &stream[..10_000] {
        probe.ingest(u.clone());
    }
    let cap = probe.mem_stats().bytes_resident;

    let mut store = RouteStore::new(StoreConfig {
        mem_cap_bytes: cap,
        ..small_cfg()
    });
    for u in &stream {
        store.ingest(u.clone());
    }
    let m = store.mem_stats();
    assert!(m.shed_updates > 0, "cap must shed some of the stream");
    assert_eq!(
        store.stats().updates + m.shed_updates,
        20_000,
        "every update is either stored or counted as shed"
    );
    assert!(
        m.bytes_resident <= cap + 4_096,
        "resident bytes stay at the cap (got {} vs cap {cap})",
        m.bytes_resident
    );
    // Reads still work on the retained prefix of the stream.
    let shared = Arc::new(RwLock::new(store));
    assert_eq!(get(&shared, "/vps").status, 200);
    assert_eq!(get(&shared, "/store/stats").status, 200);
}
