//! `looking-glass-mixed`: the collector cold-starts its store from a
//! pre-sealed archive (so `load_dir` is part of `setup_s`), then one
//! keep-alive client issues a seeded mix of `/routes?match=lpm`,
//! `/rib?vp=&at=`, `/updates` and `/origin` queries in a closed loop
//! while one BGP session writes on an open-loop schedule beside it, so
//! the drain holds the store's write lock against the readers.
//!
//! The live writes use a VP, prefixes and origins the archive never
//! does, so every answer must equal, byte for byte, what
//! `server::route` gives on a store built by direct `RouteStore::ingest`
//! of the archive. The operation is one answered query.

use crate::collector::{self, Boot, Collector, Tap};
use crate::httpc::Client;
use crate::inputs::{self, LookingGlass};
use crate::live::{self, Paced};
use crate::oracle::{self, Expected};
use crate::procfs;
use crate::report::Outcome;
use crate::round::{self, CpuWindow, RoundStats};
use gill::query::http::Request;
use gill::query::{server, RouteStore, SharedStore};
use gill::scenario::Fnv64;
use parking_lot::RwLock;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Rounds a run makes at least, whatever its budget.
const MIN_ROUNDS: usize = 3;

/// Parses a request target (`/path?k=v&...`) the way the server does
/// for these unescaped targets.
pub fn request(target: &str) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k.to_string(), v.to_string())
        })
        .collect();
    Request {
        method: "GET".into(),
        path: path.into(),
        params,
        headers: Vec::new(),
    }
}

/// FNV-1a of a response body.
pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(body);
    h.finish()
}

/// The archive on disk plus the reference answer to every query.
pub struct Prepared {
    /// Directory holding the sealed archive.
    pub archive_dir: PathBuf,
    /// Per query: expected status and body hash.
    pub answers: Vec<(u16, u64)>,
}

/// Builds the reference store by direct ingest, seals it as the archive
/// the collector cold-starts from, and records every query's answer.
pub fn prepare(inp: &LookingGlass) -> Prepared {
    let archive_dir = collector::work_dir("archive");
    let mut store = RouteStore::default();
    for u in &inp.archive {
        store.ingest(u.clone());
    }
    store.seal_all_into(&archive_dir).expect("seal archive");
    let shared: SharedStore = Arc::new(RwLock::new(store));
    let answers = inp
        .queries
        .iter()
        .map(|q| {
            let resp = server::route(&request(q), &shared);
            (resp.status, body_hash(&resp.body))
        })
        .collect();
    Prepared {
        archive_dir,
        answers,
    }
}

/// What the query client saw in one round.
struct Queried {
    latencies_ms: Vec<f64>,
    window_s: f64,
    failed: u64,
    wrong: Vec<String>,
}

/// Issues the query mix in order from `*next`, cycling, until `stop` is
/// set; leaves `*next` where the next round should resume.
fn query_loop(
    client: &mut Client,
    inp: &LookingGlass,
    prep: &Prepared,
    next: &mut usize,
    stop: &AtomicBool,
    release: &Barrier,
) -> Queried {
    let mut q = Queried {
        latencies_ms: Vec::new(),
        window_s: 0.0,
        failed: 0,
        wrong: Vec::new(),
    };
    release.wait();
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let k = *next % inp.queries.len();
        let t = Instant::now();
        match client.get(&inp.queries[k]) {
            Ok(reply) => {
                q.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if (reply.status, body_hash(&reply.body)) != prep.answers[k] {
                    q.wrong.push(format!(
                        "{} answered {} differently",
                        inp.queries[k], reply.status
                    ));
                }
            }
            Err(_) => q.failed += 1,
        }
        *next += 1;
    }
    q.window_s = start.elapsed().as_secs_f64();
    q
}

fn round(
    inp: &LookingGlass,
    prep: &Prepared,
    exp: &Expected,
    k: usize,
    next_query: &mut usize,
    probe_locks: bool,
    out: &mut Outcome,
) -> (RoundStats, Paced) {
    let feed = &inp.writes;
    let n = feed.updates.len();
    // memory is measured on the first round, before the allocator holds
    // freed pages of earlier rounds
    let rss_base_mb = (k == 0).then(procfs::reset_peak_rss_mb);
    let boot = Instant::now();
    let col = Collector::start(Boot {
        filters: feed.filters.clone(),
        queue_capacity: live::QUEUE,
        preload: Some(&prep.archive_dir),
        data_dir: collector::work_dir(&format!("lg-{k}")),
    })
    .expect("collector boots");
    out.check(col.loaded == inp.archive.len(), || {
        format!("cold start loaded {} of {}", col.loaded, inp.archive.len())
    });
    let mut conn = live::connect_writer(&col, feed, out);
    let mut client = Client::new(col.server.local_addr());
    client.connect().expect("query client connects");
    let mut r = RoundStats {
        setup_s: boot.elapsed().as_secs_f64(),
        runtime_start_ms: col.runtime_start.as_secs_f64() * 1e3,
        rss_base_mb,
        ..RoundStats::default()
    };
    let stored = Arc::new(AtomicUsize::new(0));
    let release = Barrier::new(3);
    let stop = AtomicBool::new(false);

    let (archived_at, paced, queried, before) = std::thread::scope(|s| {
        let tap = Tap::new(col.storage(), n - exp.filtered, stored.clone(), None);
        let drain = collector::spawn_drain(s, &col, tap);
        let stop = &stop;
        let release = &release;
        let querier = std::thread::Builder::new()
            .name("bench-client".into())
            .spawn_scoped(s, {
                let client = &mut client;
                move || query_loop(client, inp, prep, next_query, stop, release)
            })
            .expect("spawn client");
        let gen = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(s, {
                let conn = &mut conn;
                move || live::pace(feed, conn, release)
            })
            .expect("spawn generator");
        let prober = probe_locks.then(|| collector::probe_read_lock(s, col.store.clone(), stop));
        let before = col.pool.totals();
        let cpu = CpuWindow::open();
        release.wait();
        let paced = gen.join().expect("generator").expect("session writes");
        stop.store(true, Ordering::Relaxed);
        let queried = querier.join().expect("client");
        let (done, peak) = collector::wait_accounted(&col, &stored, n, Duration::from_secs(30));
        r.cpu = cpu.close();
        r.backlog_peak = peak;
        out.check(done, || {
            format!(
                "writes stalled: stored {} updates",
                stored.load(Ordering::Relaxed)
            )
        });
        col.pool.pool().request_stop();
        let (_, archived_at) = drain.join().expect("drain");
        r.lock_waits_us = prober
            .map(|p| p.join().expect("lock probe"))
            .unwrap_or_default();
        (archived_at, paced, queried, before)
    });

    r.read_counters(&col, before, n, exp, out);
    r.archive_s = archived_at
        .saturating_duration_since(paced.last_byte)
        .as_secs_f64();
    r.ops = queried.latencies_ms.len() as f64;
    r.window_s = queried.window_s;
    r.latencies_ms = queried.latencies_ms;
    out.failed += queried.failed;
    out.attempted += r.ops as u64 + queried.failed;
    for w in queried.wrong.iter().take(5) {
        out.check(false, || w.clone());
    }
    out.check(queried.wrong.is_empty(), || {
        format!("{} wrong answers", queried.wrong.len())
    });
    let store = col.store.clone();
    let data_dir = col.data_dir.clone();
    drop(conn);
    drop(client);
    col.shutdown();

    let written = oracle::stored(&store.read(), &[feed.vp()], false);
    drop(store);
    out.check(written == exp.digest, || {
        format!("stored {written:?} != reference {:?}", exp.digest)
    });
    r.archive_bytes = collector::segment_bytes(&data_dir);
    if k == 0 {
        let mut reloaded = RouteStore::default();
        let n_arch = reloaded.load_dir(&prep.archive_dir).unwrap_or(0);
        let n_live = reloaded.load_dir(&data_dir).unwrap_or(0);
        out.check(n_arch == inp.archive.len() && n_live == r.retained, || {
            format!("archive + live segments reload {n_arch} + {n_live}")
        });
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    (r, paced)
}

/// Runs the workload for `budget`; `probe_locks` adds the read-lock
/// probe a traced run reports.
pub fn run_with(
    seed: u64,
    budget: Duration,
    probe_locks: bool,
    out: &mut Outcome,
) -> Vec<RoundStats> {
    let inp = inputs::looking_glass(seed);
    let prep = prepare(&inp);
    let exp = oracle::expect(&inp.writes.filters, &inp.writes.updates, false);
    let mut paced = Vec::new();
    // rounds resume the mix where the last one stopped, so a run covers
    // as much of it as its time allows
    let mut next_query = 0;
    let rounds = round::repeat(budget, MIN_ROUNDS, |k| {
        let (r, p) = round(&inp, &prep, &exp, k, &mut next_query, probe_locks, out);
        paced.push(p);
        (r, out.violations.is_empty())
    });
    live::record_generator(out, &inp.writes, &paced, None);
    out.attempted += (inp.writes.updates.len() * rounds.len()) as u64;
    out.failed += rounds.iter().map(|r| r.shed as u64).sum::<u64>();
    rounds
}

/// Runs the workload for `budget`.
pub fn run(seed: u64, budget: Duration, out: &mut Outcome) -> Vec<RoundStats> {
    run_with(seed, budget, false, out)
}
