//! `bmp-firehose`: two BMP routers multiplexing 1024 monitored peers
//! stream a scenario day (background plus all five campaigns) as fast as
//! TCP flow control lets them. No stream subscriber, no HTTP traffic:
//! decode, `to_domain`, filter, `offer`, queue, store insert and seal do
//! nearly all the work, and the broker sheds before encoding.
//!
//! One round boots a collector, lands one whole day in its store, seals
//! it and shuts down; rounds repeat, each with the seed's next day, until
//! the time budget is spent. The
//! operation is one ingested update; its latency is freshness: from the
//! router's write of the frame carrying it to the update being stored.

use crate::collector::{self, Boot, Collector, Tap};
use crate::inputs::{self, Firehose, PEERS_PER_ROUTER, ROUTERS};
use crate::oracle::{self, Expected};
use crate::procfs;
use crate::report::Outcome;
use crate::round::{self, CpuWindow, RoundStats};
use gill::query::RouteStore;
use gill::scenario::world::VP_ASN_BASE;
use gill::types::BgpUpdate;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Bytes per generator write.
const CHUNK: usize = 64 * 1024;

/// Rounds a run makes at least, whatever its budget.
const MIN_ROUNDS: usize = 3;

/// Maps a stored update to its VP index when that VP is a probe.
fn probe(u: &BgpUpdate) -> Option<u32> {
    let i = u.vp.asn.value().checked_sub(VP_ASN_BASE)?;
    (i < ROUTERS * PEERS_PER_ROUTER && inputs::is_probe(i)).then_some(i)
}

/// What a generator thread saw: per router it wrote, the instant each
/// chunk write began, and when its last byte was written.
struct Sent {
    router: usize,
    chunk_starts: Vec<Instant>,
    last_byte: Instant,
}

/// Writes each router's setup, waits for the release, then streams the
/// routers' bodies chunk by chunk, interleaved.
fn generate(
    conns: Vec<(usize, TcpStream)>,
    inp: &Firehose,
    release: &Barrier,
) -> std::io::Result<Vec<Sent>> {
    let mut conns = conns;
    for (r, c) in &mut conns {
        c.write_all(&inp.routers[*r].setup)?;
    }
    release.wait();
    let mut off = vec![0usize; conns.len()];
    let mut sent: Vec<Sent> = conns
        .iter()
        .map(|(r, _)| Sent {
            router: *r,
            chunk_starts: Vec::new(),
            last_byte: Instant::now(),
        })
        .collect();
    loop {
        let mut progressed = false;
        for (k, (r, c)) in conns.iter_mut().enumerate() {
            let body = &inp.routers[*r].body;
            if off[k] < body.len() {
                let end = (off[k] + CHUNK).min(body.len());
                sent[k].chunk_starts.push(Instant::now());
                c.write_all(&body[off[k]..end])?;
                off[k] = end;
                if end == body.len() {
                    sent[k].last_byte = Instant::now();
                }
                progressed = true;
            }
        }
        if !progressed {
            return Ok(sent);
        }
    }
}

/// Per probe VP, the send instant of each retained update in order.
fn probe_sends(inp: &Firehose, exp: &Expected, sent: &[Sent]) -> Vec<Vec<Instant>> {
    let mut out = vec![Vec::new(); (ROUTERS * PEERS_PER_ROUTER) as usize];
    for s in sent {
        let feed = &inp.routers[s.router];
        for (end, &idx) in feed.frame_end.iter().zip(&feed.frame_update) {
            let u = &inp.updates[idx as usize];
            if let (Some(i), true) = (probe(u), exp.retained[idx as usize]) {
                out[i as usize].push(s.chunk_starts[(end - 1) / CHUNK]);
            }
        }
    }
    out
}

fn round(
    inp: &Firehose,
    exp: &Expected,
    k: usize,
    probe_locks: bool,
    out: &mut Outcome,
) -> RoundStats {
    let total = inp.updates.len();
    // memory is measured on the first round, before the allocator holds
    // freed pages of earlier rounds
    let rss_base_mb = (k == 0).then(procfs::reset_peak_rss_mb);
    let boot = Instant::now();
    let col = Collector::start(Boot {
        filters: inp.filters.clone(),
        // the whole round fits: a shed would be lost data, not a measurement
        queue_capacity: total + 1_024,
        preload: None,
        data_dir: collector::work_dir(&format!("firehose-{k}")),
    })
    .expect("collector boots");
    let bmp_addr = col.pool.bmp_addrs()[0];
    let gen_threads = collector::workers().min(ROUTERS as usize);
    let mut per_thread: Vec<Vec<(usize, TcpStream)>> =
        (0..gen_threads).map(|_| Vec::new()).collect();
    for r in 0..ROUTERS as usize {
        let c = TcpStream::connect(bmp_addr).expect("router connects");
        per_thread[r % gen_threads].push((r, c));
    }
    let bmp = col.pool.bmp_stats().clone();
    let stored = Arc::new(AtomicUsize::new(0));
    let release = Barrier::new(gen_threads + 1);
    let stop = AtomicBool::new(false);
    let mut r = RoundStats {
        runtime_start_ms: col.runtime_start.as_secs_f64() * 1e3,
        rss_base_mb,
        ..RoundStats::default()
    };
    let load = |c: &AtomicUsize| c.load(Ordering::Relaxed);

    let (tap, archived_at, sent, t0, before) = std::thread::scope(|s| {
        let tap = Tap::new(
            col.storage(),
            total - exp.filtered,
            stored.clone(),
            Some(probe),
        );
        let drain = collector::spawn_drain(s, &col, tap);
        let gens: Vec<_> = per_thread
            .into_iter()
            .enumerate()
            .map(|(g, conns)| {
                let release = &release;
                std::thread::Builder::new()
                    .name(format!("bench-gen-{g}"))
                    .spawn_scoped(s, move || generate(conns, inp, release))
                    .expect("spawn generator")
            })
            .collect();
        let peers = (ROUTERS * PEERS_PER_ROUTER) as usize;
        let up = collector::wait_until(Duration::from_secs(30), || load(&bmp.peers_up) == peers);
        out.check(up, || {
            format!("only {} of {peers} peers came up", load(&bmp.peers_up))
        });
        r.setup_s = boot.elapsed().as_secs_f64();
        let prober = probe_locks.then(|| collector::probe_read_lock(s, col.store.clone(), &stop));
        let before = col.pool.totals();
        let cpu = CpuWindow::open();
        let t0 = Instant::now();
        release.wait();
        let (done, peak) = collector::wait_accounted(&col, &stored, total, Duration::from_secs(60));
        r.cpu = cpu.close();
        r.backlog_peak = peak;
        out.check(done, || {
            format!("ingest stalled: stored {} updates", load(&stored))
        });
        stop.store(true, Ordering::Relaxed);
        col.pool.pool().request_stop();
        r.lock_waits_us = prober
            .map(|p| p.join().expect("lock probe"))
            .unwrap_or_default();
        let sent: Vec<Sent> = gens
            .into_iter()
            .flat_map(|g| g.join().expect("generator").expect("router writes"))
            .collect();
        let (tap, archived_at) = drain.join().expect("drain");
        (tap, archived_at, sent, t0, before)
    });

    r.read_counters(&col, before, total, exp, out);
    let last_byte = sent.iter().map(|s| s.last_byte).max().expect("a router");
    r.archive_s = archived_at
        .saturating_duration_since(last_byte)
        .as_secs_f64();
    let done_at = tap.done_at.unwrap_or(archived_at);
    r.window_s = done_at.saturating_duration_since(t0).as_secs_f64();
    r.ops = r.decoded as f64;
    let frames = load(&bmp.updates);
    let unknown = load(&bmp.unknown_peer);
    let broker = col.broker.stats();
    let store = col.store.clone();
    let data_dir = col.data_dir.clone();
    col.shutdown();

    // freshness of every retained probe update, matched in per-VP order
    let sends = probe_sends(inp, exp, &sent);
    let mut landed = vec![Vec::new(); sends.len()];
    for &(i, at) in &tap.probes {
        landed[i as usize].push(at);
    }
    for (i, (sent_at, stored_at)) in sends.iter().zip(&landed).enumerate() {
        out.check(sent_at.len() == stored_at.len(), || {
            format!(
                "probe VP {i}: {} retained, {} stored",
                sent_at.len(),
                stored_at.len()
            )
        });
        r.latencies_ms.extend(
            sent_at
                .iter()
                .zip(stored_at)
                .map(|(a, b)| b.saturating_duration_since(*a).as_secs_f64() * 1e3),
        );
    }

    out.check(frames == total, || {
        format!("{frames} route monitoring frames of {total}")
    });
    out.check(unknown == 0, || {
        format!("{unknown} frames for unknown peers")
    });
    out.check(
        broker.published == 0 && broker.shed == r.retained + r.shed,
        || {
            format!(
                "broker published {} shed {} with no subscriber",
                broker.published, broker.shed
            )
        },
    );
    let vps = inp.world.vps();
    let live = oracle::stored(&store.read(), &vps, true);
    drop(store);
    out.check(live == exp.digest, || {
        format!("stored multiset {live:?} != reference {:?}", exp.digest)
    });
    r.archive_bytes = collector::segment_bytes(&data_dir);
    if k == 0 {
        let mut reloaded = RouteStore::default();
        let n = reloaded.load_dir(&data_dir).unwrap_or(0);
        out.check(n == r.retained, || {
            format!("archive reloads {n} of {} updates", r.retained)
        });
        let again = oracle::stored(&reloaded, &vps, true);
        out.check(again == exp.digest, || {
            "reloaded archive differs from the reference".into()
        });
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    r
}

/// Runs the workload for `budget`.
pub fn run(seed: u64, budget: Duration, out: &mut Outcome) -> Vec<RoundStats> {
    run_with(seed, budget, false, out)
}

/// Runs the workload for `budget`; `probe_locks` adds the read-lock
/// probe a traced run reports.
pub fn run_with(
    seed: u64,
    budget: Duration,
    probe_locks: bool,
    out: &mut Outcome,
) -> Vec<RoundStats> {
    let mut attempted = 0;
    let rounds = round::repeat(budget, MIN_ROUNDS, |k| {
        let inp = inputs::firehose(seed, k as u64);
        let exp = oracle::expect(&inp.filters, &inp.updates, true);
        attempted += inp.updates.len() as u64;
        let r = round(&inp, &exp, k, probe_locks, out);
        (r, out.violations.is_empty())
    });
    out.attempted += attempted;
    out.failed += rounds.iter().map(|r| r.shed as u64).sum::<u64>();
    rounds
}
