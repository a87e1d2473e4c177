//! Seeded input generators, one per workload. Every generator is a pure
//! function of its seed: the same seed gives bit-identical inputs, and
//! the collector only ever sees the bytes generated here.

use gill::bmp::codec::BmpMessage;
use gill::core::{FilterGranularity, FilterSet};
use gill::scenario::{
    BackgroundConfig, BmpFeed, CampaignConfig, CampaignKind, Fnv64, ScenarioConfig, ScenarioEngine,
    World,
};
use gill::types::{Asn, BgpUpdate, Community, Prefix, Timestamp, UpdateBuilder, VpId};
use gill::wire::{BgpMessage, UpdateMessage};
use std::collections::{HashMap, HashSet};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Scenario time zero in wall-clock milliseconds (mid-November 2023), so
/// archived updates carry realistic timestamps.
pub const T0_MS: u64 = 1_700_000_000_000;

/// SplitMix64: the input generators' only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x6a09_e667_f3bc_c909))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// SplitMix64 finalizer.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Share of a full-coverage feed that GILL's filters retain: 67%, the
/// 100%-coverage row of EXPERIMENTS.md Table 3 (`table3`), where GILL
/// collects from every VP as the firehose does. Every workload's filters
/// are trained to it.
///
/// Training `GillAnalysis` on the window before a firehose day was tried
/// instead: on seeds 1-3 it discarded only 0.7-4.4% of the next 100k
/// updates, because the scenario's background seldom repeats a
/// (VP, prefix) pair across windows, and it took ~4 s per window.
pub const RETAINED_SHARE: f64 = 0.67;

/// Trains drop rules that discard as close to `1 - RETAINED_SHARE` of
/// `updates` as whole (VP, prefix) pairs allow: pairs are taken in a
/// seeded order, skipping any that would overshoot, so every seed drops
/// the same share and only *which* pairs varies.
fn train_filters(seed: u64, updates: &[BgpUpdate]) -> FilterSet {
    let mut pairs: HashMap<(VpId, Prefix), usize> = HashMap::new();
    for u in updates {
        *pairs.entry((u.vp, u.prefix)).or_default() += 1;
    }
    let mut order: Vec<(u64, (VpId, Prefix), usize)> = pairs
        .into_iter()
        .map(|(pair, n)| {
            let mut h = Fnv64::new();
            h.write_line(&format!(
                "{}#{} {}",
                pair.0.asn.value(),
                pair.0.router,
                pair.1
            ));
            (mix(seed ^ h.finish()), pair, n)
        })
        .collect();
    order.sort_unstable();
    let target = (updates.len() as f64 * (1.0 - RETAINED_SHARE)).round() as usize;
    let mut dropped = 0;
    let mut chosen: HashSet<(VpId, Prefix)> = HashSet::new();
    for (_, pair, n) in order {
        if dropped + n <= target {
            dropped += n;
            chosen.insert(pair);
        }
    }
    FilterSet::generate(
        [],
        updates
            .iter()
            .filter(|u| chosen.contains(&(u.vp, u.prefix))),
        FilterGranularity::VpPrefix,
    )
}

/// A scenario day over `world`: background plus all five campaigns,
/// shifted to start at [`T0_MS`] and cut to exactly `n` updates.
fn scenario_day(world: World, seed: u64, n: usize, n_targets: u32) -> Vec<BgpUpdate> {
    let background = BackgroundConfig::default();
    let span = background.duration_for(n);
    let campaigns = CampaignKind::all()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| CampaignConfig {
            kind,
            // campaigns open inside the first half of the day, so the cut
            // to `n` updates only ever trims background
            start_ms: span * (i as u64 + 1) / 12,
            duration_ms: span / 24,
            n_targets,
            repeats: 2,
            actor: 64_000 + i as u32,
            seed: mix(seed ^ (0xca40 + i as u64)),
        })
        .collect();
    let cfg = ScenarioConfig {
        world,
        background,
        duration_ms: span * 2,
        campaigns,
        seed,
    };
    let mut updates: Vec<BgpUpdate> = ScenarioEngine::new(&cfg)
        .take(n)
        .map(|item| item.update)
        .collect();
    assert_eq!(updates.len(), n, "scenario day too short");
    for u in &mut updates {
        u.time = Timestamp::from_millis(T0_MS + u.time.as_millis());
    }
    updates
}

/// Firehose: two BMP routers, each multiplexing this many monitored peers.
pub const PEERS_PER_ROUTER: u32 = 512;
/// Firehose: BMP router connections.
pub const ROUTERS: u32 = 2;
/// Firehose: updates per round.
pub const FIREHOSE_UPDATES: usize = 100_000;
/// Firehose: every VP whose index is a multiple of this is a freshness
/// probe (its stored updates are timestamped as they land).
pub const PROBE_STRIDE: u32 = 64;

/// One BMP router's byte script.
pub struct RouterFeed {
    /// Initiation and one Peer Up per monitored peer.
    pub setup: Vec<u8>,
    /// Route Monitoring frames in day order, then a Termination.
    pub body: Vec<u8>,
    /// End offset in `body` of each Route Monitoring frame.
    pub frame_end: Vec<usize>,
    /// Index into [`Firehose::updates`] of each frame's update.
    pub frame_update: Vec<u32>,
}

/// The `bmp-firehose` inputs.
pub struct Firehose {
    /// The monitored world (VP `i` is router `i / PEERS_PER_ROUTER`).
    pub world: World,
    /// Every update, in day order.
    pub updates: Vec<BgpUpdate>,
    /// The installed filters.
    pub filters: FilterSet,
    /// One byte script per router connection.
    pub routers: Vec<RouterFeed>,
}

/// Generates day `day` of the `bmp-firehose` inputs for `seed`. Each
/// round of a run streams another day, so a run's medians average over
/// several days' worth of content.
pub fn firehose(seed: u64, day: u64) -> Firehose {
    let world = World {
        n_vps: ROUTERS * PEERS_PER_ROUTER,
        n_prefixes: 4_096,
        seed: mix(seed ^ 0xf12e),
        dual_stack: false,
    };
    let day_seed = mix(seed ^ mix(day.wrapping_add(0xda7)));
    let updates = scenario_day(world, day_seed, FIREHOSE_UPDATES, 4);
    let filters = train_filters(day_seed, &updates);
    let mut routers: Vec<(BmpFeed, RouterFeed)> = (0..ROUTERS)
        .map(|r| {
            let vps: Vec<VpId> = (0..PEERS_PER_ROUTER)
                .map(|k| world.vp(r * PEERS_PER_ROUTER + k))
                .collect();
            let feed = BmpFeed::new(&vps);
            let mut setup = BmpFeed::initiation_frame(&format!("bench-router-{r}"));
            for f in feed.peer_up_frames(T0_MS) {
                setup.extend_from_slice(&f);
            }
            let script = RouterFeed {
                setup,
                body: Vec::new(),
                frame_end: Vec::new(),
                frame_update: Vec::new(),
            };
            (feed, script)
        })
        .collect();
    for (i, u) in updates.iter().enumerate() {
        let vp_i = world.vp_index(u.vp).expect("world VP");
        let (feed, script) = &mut routers[(vp_i / PEERS_PER_ROUTER) as usize];
        let peer = feed
            .peer_header(u.vp, u.time.as_millis())
            .expect("VP is monitored by its router");
        let update = UpdateMessage::from_domain(u).expect("scenario update encodes");
        let frame = BmpMessage::RouteMonitoring { peer, update }
            .encode_to_vec()
            .expect("route monitoring frame encodes");
        script.body.extend_from_slice(&frame);
        script.frame_end.push(script.body.len());
        script.frame_update.push(i as u32);
    }
    let routers = routers
        .into_iter()
        .map(|(_, mut script)| {
            script.body.extend_from_slice(&BmpFeed::termination_frame());
            script
        })
        .collect();
    Firehose {
        world,
        updates,
        filters,
        routers,
    }
}

/// Whether VP index `i` is a freshness probe.
pub fn is_probe(i: u32) -> bool {
    i.is_multiple_of(PROBE_STRIDE)
}

/// First community value of the sequence tag space: when update `i` of a
/// paced BGP feed is an announcement it carries `Community(TAG_BASE + i)`,
/// so a streamed line shows which send it is.
pub const TAG_BASE: u32 = 0xfc00_0000;

/// A paced BGP feed over one session: pre-encoded UPDATE messages sent
/// on a fixed schedule.
pub struct PacedFeed {
    /// The session's peer ASN (its VP is `VpId::from_asn(asn)`).
    pub asn: u32,
    /// The updates, as the collector will see them (time aside).
    pub updates: Vec<BgpUpdate>,
    /// Every UPDATE message, concatenated in send order.
    pub wire: Vec<u8>,
    /// End offset in `wire` of each update's message.
    pub ends: Vec<usize>,
    /// Updates per second.
    pub rate: f64,
    /// The installed filters.
    pub filters: FilterSet,
}

impl PacedFeed {
    /// Scheduled send offset of update `i` from the start of the feed.
    pub fn due(&self, i: usize) -> std::time::Duration {
        std::time::Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// The VP the collector attributes this feed's updates to.
    pub fn vp(&self) -> VpId {
        VpId::from_asn(Asn(self.asn))
    }
}

/// How a paced feed draws its prefixes and origins.
#[derive(Clone, Copy)]
enum PrefixSpace {
    /// The scenario worlds' dual-stack `10/8` + `2001:db8::/32` space.
    Scenario,
    /// `100.64.0.0/10` with origins above 4.2e9: disjoint from every
    /// archive, so live writes never change an archived answer.
    Disjoint,
}

/// `n` tagged updates from one dual-stack ADD-PATH session of `asn`:
/// announcements (two path ids per prefix) with a share of withdrawals.
fn paced_feed(seed: u64, asn: u32, n: usize, rate: f64, space: PrefixSpace) -> PacedFeed {
    let mut rng = Rng::new(seed, asn as u64);
    let vp = VpId::from_asn(Asn(asn));
    let mut updates = Vec::with_capacity(n);
    let mut wire = Vec::new();
    let mut ends = Vec::with_capacity(n);
    for i in 0..n {
        let idx = rng.below(2_048) as u32;
        let (prefix, origin) = match space {
            PrefixSpace::Scenario if idx % 2 == 1 => (Prefix::synthetic_v6(idx), 10_000 + idx),
            PrefixSpace::Scenario => (Prefix::synthetic(idx), 10_000 + idx),
            PrefixSpace::Disjoint => (
                Prefix::v4(Ipv4Addr::new(100, 64 + (idx >> 8) as u8, idx as u8, 0), 24),
                4_200_000_000 + idx,
            ),
        };
        let path_id = 1 + rng.below(2) as u32;
        let tag = Community(TAG_BASE + i as u32);
        let u = if rng.below(5) == 0 {
            UpdateBuilder::withdraw(vp, prefix)
        } else {
            let transit = 1_000 + rng.below(5_000) as u32;
            UpdateBuilder::announce(vp, prefix)
                .path([asn, transit, transit + 1, origin])
                .communities([tag])
        }
        .path_id(path_id)
        .build();
        let msg = UpdateMessage::from_domain(&u).expect("feed update encodes");
        wire.extend_from_slice(
            &BgpMessage::Update(msg)
                .encode_to_vec()
                .expect("UPDATE encodes"),
        );
        ends.push(wire.len());
        updates.push(u);
    }
    let filters = train_filters(seed, &updates);
    PacedFeed {
        asn,
        updates,
        wire,
        ends,
        rate,
        filters,
    }
}

/// `bgp-live-stream`: updates per second on the one BGP session. There
/// is no measured source for a stream user's rate in the repository; the
/// rate is set well below `bmp-firehose`'s sustained ~250k updates/s so
/// the generator keeps its schedule and the stream path, not the store,
/// is what is measured.
pub const LIVE_RATE: f64 = 10_000.0;
/// `bgp-live-stream`: seconds of schedule per round.
pub const LIVE_ROUND_S: f64 = 2.5;
/// `bgp-live-stream`: the session's peer ASN.
pub const LIVE_ASN: u32 = 64_700;

/// Generates the `bgp-live-stream` feed for `seed` (one round).
pub fn live(seed: u64) -> PacedFeed {
    let n = (LIVE_RATE * LIVE_ROUND_S) as usize;
    paced_feed(seed, LIVE_ASN, n, LIVE_RATE, PrefixSpace::Scenario)
}

/// `looking-glass-mixed`: updates in the pre-sealed archive. No source:
/// sized so `load_dir` is a visible share of `setup_s` (~0.5 s).
pub const ARCHIVE_UPDATES: usize = 150_000;
/// `looking-glass-mixed`: VPs of the archive's world.
pub const LG_VPS: u32 = 32;
/// The paper's p99 per-peer update rate, updates per hour (EXPERIMENTS.md
/// Table 1).
pub const P99_PEER_RATE_PER_H: f64 = 241_000.0;
/// `looking-glass-mixed`: live writes per second beside the queries: the
/// archive world's [`LG_VPS`] VPs each at the p99 per-peer rate, ~2142/s.
pub const LG_WRITE_RATE: f64 = LG_VPS as f64 * P99_PEER_RATE_PER_H / 3_600.0;
/// `looking-glass-mixed`: seconds of schedule per round.
pub const LG_ROUND_S: f64 = 2.5;
/// `looking-glass-mixed`: the writing session's peer ASN.
pub const LG_ASN: u32 = 64_800;
/// `looking-glass-mixed`: distinct request targets in the seeded mix.
pub const LG_QUERIES: usize = 1_024;

/// The `looking-glass-mixed` inputs.
pub struct LookingGlass {
    /// The archive's world.
    pub world: World,
    /// The archived day, in ingest order.
    pub archive: Vec<BgpUpdate>,
    /// The live writes (disjoint VP, prefixes and origins).
    pub writes: PacedFeed,
    /// Request targets (`/path?query`), issued in this order, cycling.
    pub queries: Vec<String>,
}

/// Generates the `looking-glass-mixed` inputs for `seed`.
pub fn looking_glass(seed: u64) -> LookingGlass {
    let world = World {
        n_vps: LG_VPS,
        n_prefixes: 2_048,
        seed: mix(seed ^ 0x1a55),
        dual_stack: true,
    };
    let archive = scenario_day(world, seed, ARCHIVE_UPDATES, 16);
    let n_writes = (LG_WRITE_RATE * LG_ROUND_S) as usize;
    let writes = paced_feed(seed, LG_ASN, n_writes, LG_WRITE_RATE, PrefixSpace::Disjoint);
    let queries = query_mix(&archive, seed);
    LookingGlass {
        world,
        archive,
        writes,
        queries,
    }
}

/// A single-address prefix inside `p` (`/32` or `/128`), for
/// longest-prefix-match queries.
pub fn host_of(p: Prefix) -> Prefix {
    match p.addr() {
        IpAddr::V4(a) => Prefix::v4(Ipv4Addr::from(u32::from(a) | 0x77), 32),
        IpAddr::V6(a) => Prefix::v6(Ipv6Addr::from(u128::from(a) | 0x77), 128),
    }
}

/// A seeded looking-glass request mix over what `updates` put in a
/// store, [`LG_QUERIES`] targets long, a quarter each: longest-prefix
/// matches of an address, one VP's RIB at a past instant, a minute of
/// updates (limited), and everything one origin announces. The repository
/// has no usage data for a looking glass, so the four kinds weigh the
/// same.
pub fn query_mix(updates: &[BgpUpdate], seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x9e7);
    (0..LG_QUERIES)
        .map(|_| {
            let u = &updates[rng.below(updates.len() as u64) as usize];
            let at = u.time.as_millis();
            let vp = if u.vp.router == 0 {
                u.vp.asn.value().to_string()
            } else {
                format!("{}#{}", u.vp.asn.value(), u.vp.router)
            };
            match (rng.below(4), u.path.origin()) {
                (1, _) => format!("/rib?vp={vp}&at={at}"),
                (2, _) => format!("/updates?from={at}&to={}&limit=100", at + 60_000),
                (3, Some(origin)) => format!("/origin?asn={}", origin.value()),
                _ => format!("/routes?prefix={}&match=lpm", host_of(u.prefix)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a digest over a workload's generated inputs, for the
    /// determinism tests.
    fn digest_updates(updates: &[BgpUpdate]) -> u64 {
        let mut h = Fnv64::new();
        for u in updates {
            h.write_line(&crate::oracle::canonical_line(u, true));
        }
        h.finish()
    }

    fn fh_digest(f: &Firehose) -> (u64, Vec<u64>, usize) {
        let bytes = f
            .routers
            .iter()
            .map(|r| {
                let mut h = Fnv64::new();
                h.write(&r.setup);
                h.write(&r.body);
                h.finish()
            })
            .collect();
        (digest_updates(&f.updates), bytes, f.filters.num_rules())
    }

    #[test]
    fn firehose_is_bit_identical_per_seed_and_differs_across_seeds() {
        let a = fh_digest(&firehose(1, 0));
        assert_eq!(a, fh_digest(&firehose(1, 0)));
        assert_ne!(a, fh_digest(&firehose(2, 0)));
        assert_ne!(a, fh_digest(&firehose(1, 1)));
        let f = firehose(1, 0);
        assert_eq!(f.updates.len(), FIREHOSE_UPDATES);
        let frames: usize = f.routers.iter().map(|r| r.frame_end.len()).sum();
        assert_eq!(frames, FIREHOSE_UPDATES);
        assert!(f.filters.num_rules() > 0);
    }

    #[test]
    fn live_feed_is_bit_identical_per_seed_and_differs_across_seeds() {
        let d = |f: &PacedFeed| (digest_updates(&f.updates), f.wire.clone());
        assert_eq!(d(&live(7)), d(&live(7)));
        assert_ne!(d(&live(7)), d(&live(8)));
        let f = live(7);
        assert!(f.updates.iter().any(|u| u.prefix.addr().is_ipv6()));
        assert!(f.updates.iter().all(|u| u.path_id.is_some()));
        let tags: Vec<u32> = f
            .updates
            .iter()
            .flat_map(|u| u.communities.iter().map(|c| c.0 - TAG_BASE))
            .collect();
        assert!(
            tags.windows(2).all(|w| w[0] < w[1]),
            "tags rise with send order"
        );
    }

    #[test]
    fn looking_glass_is_bit_identical_per_seed_and_differs_across_seeds() {
        let d = |l: &LookingGlass| {
            (
                digest_updates(&l.archive),
                digest_updates(&l.writes.updates),
                l.queries.clone(),
            )
        };
        let a = d(&looking_glass(3));
        assert_eq!(a, d(&looking_glass(3)));
        let b = d(&looking_glass(4));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }
}
