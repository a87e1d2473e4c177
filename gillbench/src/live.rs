//! `bgp-live-stream`: a RIS-Live-style user. One dual-stack ADD-PATH BGP
//! session sends tagged updates on a fixed open-loop schedule while one
//! HTTP `/stream/updates` subscriber reads the NDJSON stream. Broker
//! encode, the ring and the streaming thread sit on the path of every
//! delivered update; store and filter are nearly idle at this rate.
//!
//! The operation is one delivered stream line; its latency runs from the
//! update's *scheduled* send time to the line being read, so a stall in
//! the generator or the collector counts against every update behind it.

use crate::collector::{self, Boot, Collector, Tap};
use crate::httpc;
use crate::inputs::{self, PacedFeed};
use crate::oracle::{self, Expected};
use crate::procfs;
use crate::report::Outcome;
use crate::round::{self, CpuWindow, RoundStats};
use crate::stats;
use gill::collector::daemon::{handshake_client_mp, MessageStream};
use gill::query::RouteStore;
use gill::stream::FramePayload;
use gill::types::{BgpUpdate, FamilySet};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Rounds a run makes at least, whatever its budget.
const MIN_ROUNDS: usize = 3;

/// Storage queue capacity (the `gill-collectord` default).
pub const QUEUE: usize = 65_536;

/// What the paced generator measured.
pub struct Paced {
    /// When the schedule started.
    pub t0: Instant,
    /// When the last update was written.
    pub last_byte: Instant,
    /// Per update: when the write carrying it started, minus its
    /// scheduled time, ms. This is the generator's own lateness; the
    /// write itself is the collector's transport.
    pub late_ms: Vec<f64>,
}

/// Sends `feed` over `conn` on its schedule: whenever updates are due,
/// writes all of them in one call; otherwise sleeps until the next is due.
/// The thread's timer slack is set to 1 ns first, so a sleep ends when
/// asked rather than up to the default 50 µs later. It does not spin: on a
/// 2-core host a spinning generator takes the CPU the collector's threads
/// need and multiplies the latency it measures.
pub fn pace(feed: &PacedFeed, conn: &mut TcpStream, release: &Barrier) -> std::io::Result<Paced> {
    let n = feed.updates.len();
    let mut late_ms = Vec::with_capacity(n);
    precise_timer_slack();
    release.wait();
    let t0 = Instant::now();
    let mut i = 0;
    while i < n {
        let elapsed = t0.elapsed();
        let mut j = i;
        while j < n && feed.due(j) <= elapsed {
            j += 1;
        }
        if j == i {
            std::thread::sleep(feed.due(i) - elapsed);
            continue;
        }
        late_ms.extend((i..j).map(|m| (elapsed - feed.due(m)).as_secs_f64() * 1e3));
        let start = if i == 0 { 0 } else { feed.ends[i - 1] };
        conn.write_all(&feed.wire[start..feed.ends[j - 1]])?;
        i = j;
    }
    Ok(Paced {
        t0,
        last_byte: Instant::now(),
        late_ms,
    })
}

/// Sets the calling thread's timer slack to 1 ns (`PR_SET_TIMERSLACK`).
fn precise_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, ...) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and touches
        // only the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
        }
    }
}

/// Boots the BGP writer session the paced feeds use: dual-stack with
/// ADD-PATH on both families.
pub fn connect_writer(col: &Collector, feed: &PacedFeed, out: &mut Outcome) -> TcpStream {
    let addr = col.pool.bgp_addr().expect("bgp listener");
    let stream = TcpStream::connect(addr).expect("bgp connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut ms = MessageStream::new(stream);
    let (families, add_paths) =
        handshake_client_mp(&mut ms, feed.asn, FamilySet::ALL, FamilySet::ALL)
            .expect("bgp handshake");
    out.check(
        families == FamilySet::ALL && add_paths == FamilySet::ALL,
        || format!("negotiated {families:?} / add-path {add_paths:?}"),
    );
    let stats = col.pool.stats();
    let up = collector::wait_until(Duration::from_secs(10), || {
        stats.sessions_opened.load(Ordering::Relaxed) >= 1
    });
    out.check(up, || "writer session never established".into());
    ms.transport_mut()
        .try_clone()
        .expect("clone session socket")
}

/// Open-loop validity: how far the generator ran behind its schedule.
/// `sched_latency_p50_ms` is the median of a latency measured from the
/// same schedule, when the workload has one: the run is also invalid when
/// the generator's median lateness is more than [`MAX_LATE_SHARE`] of it.
pub fn record_generator(
    out: &mut Outcome,
    feed: &PacedFeed,
    paced: &[Paced],
    sched_latency_p50_ms: Option<f64>,
) {
    let late: Vec<f64> = paced
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    let span: f64 = paced
        .iter()
        .map(|p| p.last_byte.saturating_duration_since(p.t0).as_secs_f64())
        .sum();
    let offered = late.len() as f64 / span;
    let late_p50 = stats::percentile(&late, 50.0).unwrap_or(f64::NAN);
    let late_p99 = stats::percentile(&late, 99.0).unwrap_or(f64::NAN);
    out.put("gen.offered_per_s", offered, "1/s", paced.len());
    out.put("gen.late_p50_ms", late_p50, "ms", late.len());
    out.put("gen.late_p99_ms", late_p99, "ms", late.len());
    let mut why = Vec::new();
    if offered < MIN_RATE_SHARE * feed.rate || late_p99 > MAX_LATE_P99_MS {
        why.push(format!(
            "offered {offered:.0}/s of {:.0}/s, late p99 {late_p99:.2} ms",
            feed.rate
        ));
    }
    if let Some(lat) = sched_latency_p50_ms {
        let kept_up = late_p50 <= MAX_LATE_SHARE * lat;
        if !kept_up {
            why.push(format!(
                "late p50 {late_p50:.4} ms is over {MAX_LATE_SHARE} of the latency p50 {lat:.4} ms"
            ));
        }
    }
    if !why.is_empty() {
        out.invalid = Some(format!("generator fell behind: {}", why.join("; ")));
    }
}

/// A schedule counts as kept while the generator sends at least this
/// share of its rate and its p99 lateness stays under
/// [`MAX_LATE_P99_MS`]; past either, queueing in the generator itself
/// would show up as collector latency.
const MIN_RATE_SHARE: f64 = 0.98;
/// See [`MIN_RATE_SHARE`].
const MAX_LATE_P99_MS: f64 = 50.0;
/// The most of a latency median measured from the schedule that the
/// generator's own median lateness may make up: the bound of
/// `latency_p50_ms` in BENCHMARK.json, so that the generator's timing
/// alone, were its lateness to double, could not move the metric past
/// its bound.
const MAX_LATE_SHARE: f64 = 0.25;

fn round(
    feed: &PacedFeed,
    exp: &Expected,
    k: usize,
    probe_locks: bool,
    out: &mut Outcome,
) -> (RoundStats, Paced) {
    let n = feed.updates.len();
    // memory is measured on the first round, before the allocator holds
    // freed pages of earlier rounds
    let rss_base_mb = (k == 0).then(procfs::reset_peak_rss_mb);
    let boot = Instant::now();
    let col = Collector::start(Boot {
        filters: feed.filters.clone(),
        queue_capacity: QUEUE,
        preload: None,
        data_dir: collector::work_dir(&format!("live-{k}")),
    })
    .expect("collector boots");
    let mut conn = connect_writer(&col, feed, out);
    let mut sub =
        httpc::open_stream(col.server.local_addr(), "/stream/updates").expect("subscribe");
    let mut r = RoundStats {
        setup_s: boot.elapsed().as_secs_f64(),
        runtime_start_ms: col.runtime_start.as_secs_f64() * 1e3,
        rss_base_mb,
        ..RoundStats::default()
    };
    let load = |c: &AtomicUsize| c.load(Ordering::Relaxed);
    let stored = Arc::new(AtomicUsize::new(0));
    let release = Barrier::new(2);
    let stop = AtomicBool::new(false);

    let (archived_at, paced, lines, before) = std::thread::scope(|s| {
        let tap = Tap::new(col.storage(), n - exp.filtered, stored.clone(), None);
        let drain = collector::spawn_drain(s, &col, tap);
        let reader = std::thread::Builder::new()
            .name("bench-sub".into())
            .spawn_scoped(s, move || {
                let mut lines: Vec<(Vec<u8>, Instant)> = Vec::with_capacity(n + 16);
                let res = httpc::read_lines(&mut sub, |l, at| lines.push((l.to_vec(), at)));
                (lines, res)
            })
            .expect("spawn subscriber");
        let gen = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(s, {
                let release = &release;
                let conn = &mut conn;
                move || pace(feed, conn, release)
            })
            .expect("spawn generator");
        let prober = probe_locks.then(|| collector::probe_read_lock(s, col.store.clone(), &stop));
        let before = col.pool.totals();
        let cpu = CpuWindow::open();
        release.wait();
        let paced = gen.join().expect("generator").expect("session writes");
        let (done, peak) = collector::wait_accounted(&col, &stored, n, Duration::from_secs(30));
        r.cpu = cpu.close();
        r.backlog_peak = peak;
        out.check(done, || {
            format!("ingest stalled: stored {} updates", load(&stored))
        });
        stop.store(true, Ordering::Relaxed);
        col.pool.pool().request_stop();
        let (_, archived_at) = drain.join().expect("drain");
        r.lock_waits_us = prober
            .map(|p| p.join().expect("lock probe"))
            .unwrap_or_default();
        // end of stream: every frame published so far, then the EOS
        col.broker.close();
        let (lines, res) = reader.join().expect("subscriber");
        out.check(res.is_ok(), || format!("stream ended badly: {res:?}"));
        (archived_at, paced, lines, before)
    });

    r.read_counters(&col, before, n, exp, out);
    let published = load(&col.pool.stats().stream_published);
    r.archive_s = archived_at
        .saturating_duration_since(paced.last_byte)
        .as_secs_f64();
    let store = col.store.clone();
    let data_dir = col.data_dir.clone();
    drop(conn);
    col.shutdown();

    // match delivered lines to sends in order, skipping announced gaps
    let kept: Vec<usize> = (0..n).filter(|&i| exp.retained[i]).collect();
    let mut next = 0usize;
    let mut missed = 0u64;
    let mut eos = None;
    let mut last_at = paced.t0;
    for (line, at) in &lines {
        let text = String::from_utf8_lossy(line);
        match gill::stream::Frame::from_json(&text) {
            Ok((_, FramePayload::Update(u))) => {
                let Some(&i) = kept.get(next) else {
                    out.check(false, || "more stream lines than retained updates".into());
                    break;
                };
                out.check(same_update(&u, &feed.updates[i]), || {
                    format!(
                        "stream line {next} carries {u:?}, sent {:?}",
                        feed.updates[i]
                    )
                });
                let due = paced.t0 + feed.due(i);
                r.latencies_ms
                    .push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
                last_at = *at;
                next += 1;
            }
            Ok((_, FramePayload::Gap { missed: m })) => {
                missed += m;
                next += m as usize;
            }
            Ok((_, FramePayload::Eos { published })) => eos = Some(published),
            Err(e) => out.check(false, || format!("unparsable stream line: {e}")),
        }
    }
    r.ops = r.latencies_ms.len() as f64;
    r.window_s = last_at.saturating_duration_since(paced.t0).as_secs_f64();
    out.failed += missed;

    out.check(published == r.retained + r.shed, || {
        format!("published {published} of {} accepted", r.retained + r.shed)
    });
    out.check(next == published && eos == Some(published as u64), || {
        format!("stream delivered {next} (gaps {missed}) of {published}, eos {eos:?}")
    });
    let live = oracle::stored(&store.read(), &[feed.vp()], false);
    drop(store);
    out.check(live == exp.digest, || {
        format!("stored {live:?} != reference {:?}", exp.digest)
    });
    r.archive_bytes = collector::segment_bytes(&data_dir);
    let reloaded = RouteStore::default().load_dir(&data_dir).unwrap_or(0);
    out.check(reloaded == r.retained, || {
        format!("archive reloads {reloaded} of {} updates", r.retained)
    });
    let _ = std::fs::remove_dir_all(&data_dir);
    (r, paced)
}

/// Whether a streamed update carries what was sent (its time is the
/// collector's reception stamp, so it is not compared).
fn same_update(got: &BgpUpdate, sent: &BgpUpdate) -> bool {
    got.vp == sent.vp
        && got.prefix == sent.prefix
        && got.path_id == sent.path_id
        && got.kind == sent.kind
        && got.path == sent.path
        && got.communities == sent.communities
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
    let feed = inputs::live(seed);
    let exp = oracle::expect(&feed.filters, &feed.updates, false);
    let mut paced = Vec::new();
    let rounds = round::repeat(budget, MIN_ROUNDS, |k| {
        let (r, p) = round(&feed, &exp, k, probe_locks, out);
        paced.push(p);
        (r, out.violations.is_empty())
    });
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    record_generator(out, &feed, &paced, stats::percentile(&lat, 50.0));
    out.attempted += (feed.updates.len() * rounds.len()) as u64;
    out.failed += rounds.iter().map(|r| r.shed as u64).sum::<u64>();
    rounds
}
