//! The collector under test, composed from the public crates the way
//! `gill-collectord --runtime evented` composes it: an [`EventedPool`]
//! with one worker per core accepting BGP and BMP, a drain thread running
//! `DaemonPool::drain_into` a `QueryableStorage::persist_to(dir)`, and
//! `serve_streaming` over the same store, filter handle and broker.

use gill::bmp::BmpConfig;
use gill::collector::{DaemonConfig, Storage, StoredUpdate};
use gill::core::FilterSet;
use gill::query::http::HttpServer;
use gill::query::{QueryableStorage, RouteStore, ServerConfig, SharedStore};
use gill::runtime::{EventedPool, RuntimeConfig};
use gill::stream::{serve_streaming, BrokerConfig, StreamBroker};
use gill::types::BgpUpdate;
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to boot one collector.
pub struct Boot<'a> {
    /// Filters installed before any session connects.
    pub filters: FilterSet,
    /// Capacity of the bounded storage queue.
    pub queue_capacity: usize,
    /// Sealed archive to cold-start the store from, if any.
    pub preload: Option<&'a Path>,
    /// Where the drain seals segments.
    pub data_dir: PathBuf,
}

/// A running collector.
pub struct Collector {
    /// The session runtime and its shared pipeline.
    pub pool: EventedPool,
    /// The looking-glass + streaming HTTP server.
    pub server: HttpServer,
    /// The store the drain writes and the server reads.
    pub store: SharedStore,
    /// The live-stream broker the pipeline publishes into.
    pub broker: StreamBroker,
    /// Where the drain seals segments.
    pub data_dir: PathBuf,
    /// How long `EventedPool::start` took.
    pub runtime_start: Duration,
    /// Updates the cold start replayed.
    pub loaded: usize,
}

/// Event-loop workers: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Collector {
    /// Boots a collector: cold-starts the store, binds the HTTP server and
    /// starts the runtime with BGP and BMP listeners on loopback.
    pub fn start(boot: Boot<'_>) -> std::io::Result<Collector> {
        let mut store = RouteStore::default();
        let loaded = match boot.preload {
            Some(dir) => store.load_dir(dir)?,
            None => 0,
        };
        let store: SharedStore = Arc::new(RwLock::new(store));
        let broker = StreamBroker::new(BrokerConfig::default());
        let daemon = DaemonConfig {
            queue_capacity: boot.queue_capacity,
            ..DaemonConfig::default()
        };
        let t = Instant::now();
        let pool = EventedPool::start(
            daemon,
            RuntimeConfig {
                workers: workers(),
                bgp_addr: Some("127.0.0.1:0".into()),
                bmp: Some(BmpConfig::single("127.0.0.1:0")),
            },
            Some(Arc::new(broker.publisher())),
        )?;
        let runtime_start = t.elapsed();
        pool.pool().install_filters(boot.filters);
        let server = serve_streaming(
            "127.0.0.1:0",
            ServerConfig::default(),
            store.clone(),
            Some(pool.pool().filter_handle().clone()),
            broker.clone(),
        )?;
        std::fs::create_dir_all(&boot.data_dir)?;
        Ok(Collector {
            pool,
            server,
            store,
            broker,
            data_dir: boot.data_dir,
            runtime_start,
            loaded,
        })
    }

    /// The storage backend the drain thread feeds: the shared store,
    /// sealing into the data directory.
    pub fn storage(&self) -> QueryableStorage {
        QueryableStorage::with_store(self.store.clone()).persist_to(self.data_dir.clone())
    }

    /// Stops everything: sessions close, workers and server threads join,
    /// and the stream ends.
    pub fn shutdown(mut self) {
        self.pool.pool().request_stop();
        self.pool.stop();
        self.broker.close();
        self.server.stop();
    }
}

/// Maps a stored update to a probe id when its arrival should be timed.
pub type ProbeFn = fn(&BgpUpdate) -> Option<u32>;

/// The drain thread's storage: forwards every record to the collector's
/// `QueryableStorage` and notes, without touching the records, when the
/// timed window's last update landed and when probe updates landed.
pub struct Tap {
    inner: QueryableStorage,
    stored: Arc<AtomicUsize>,
    count: usize,
    expect: usize,
    /// When the `expect`-th update was stored.
    pub done_at: Option<Instant>,
    probe: Option<ProbeFn>,
    /// `(probe id, stored at)` in storage order.
    pub probes: Vec<(u32, Instant)>,
}

impl Tap {
    /// A tap that marks the `expect`-th stored update and publishes its
    /// running count through `stored`.
    pub fn new(
        inner: QueryableStorage,
        expect: usize,
        stored: Arc<AtomicUsize>,
        probe: Option<ProbeFn>,
    ) -> Tap {
        Tap {
            inner,
            stored,
            count: 0,
            expect,
            done_at: None,
            probe,
            probes: Vec::new(),
        }
    }
}

impl Storage for Tap {
    fn store(&mut self, rec: StoredUpdate) {
        let probe = self.probe.and_then(|f| f(&rec.update));
        self.inner.store(rec);
        self.count += 1;
        self.stored.store(self.count, Ordering::Relaxed);
        if let Some(id) = probe {
            self.probes.push((id, Instant::now()));
        }
        if self.count == self.expect {
            self.done_at = Some(Instant::now());
        }
    }

    fn stored(&self) -> usize {
        self.count
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Runs `DaemonPool::drain_into` the tap on the drain thread, as
/// `gill-collectord` runs it on its storage thread; the handle yields the
/// tap and the instant `drain_into` returned (the tail sealed).
pub fn spawn_drain<'s>(
    s: &'s std::thread::Scope<'s, '_>,
    col: &'s Collector,
    tap: Tap,
) -> std::thread::ScopedJoinHandle<'s, (Tap, Instant)> {
    std::thread::Builder::new()
        .name(DRAIN_THREAD.into())
        .spawn_scoped(s, move || {
            let mut tap = tap;
            col.pool.pool().drain_into(&mut tap);
            (tap, Instant::now())
        })
        .expect("spawn drain")
}

/// Name of the thread running `DaemonPool::drain_into`.
pub const DRAIN_THREAD: &str = "gill-drain";

/// Waits until all `n` sent updates are accounted for — decoded, and
/// retained, filtered or shed — and every retained one is stored.
/// Returns whether that happened within `limit`, and the highest
/// `retained − stored` backlog seen meanwhile.
pub fn wait_accounted(
    col: &Collector,
    stored: &AtomicUsize,
    n: usize,
    limit: Duration,
) -> (bool, usize) {
    let stats = col.pool.stats();
    let load = |c: &AtomicUsize| c.load(Ordering::Relaxed);
    let mut peak = 0;
    let done = wait_until(limit, || {
        let retained = load(&stats.retained);
        let landed = load(stored);
        peak = peak.max(retained.saturating_sub(landed));
        load(&stats.received) == n
            && retained + load(&stats.filtered) + load(&stats.lost) == n
            && landed == retained
    });
    (done, peak)
}

/// Polls `cond` every [`POLL_US`] µs until it holds or `limit` passes; returns
/// whether it held.
pub fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(POLL_US));
    }
}

/// How often the benchmark's main thread polls the collector's counters.
const POLL_US: u64 = 500;

/// Samples how long `SharedStore::read()` takes to acquire, every
/// 500 µs until `stop` is set, on a benchmark thread; returns the waits
/// in µs.
pub fn probe_read_lock<'s>(
    s: &'s std::thread::Scope<'s, '_>,
    store: SharedStore,
    stop: &'s AtomicBool,
) -> std::thread::ScopedJoinHandle<'s, Vec<f64>> {
    std::thread::Builder::new()
        .name("bench-lockprobe".into())
        .spawn_scoped(s, move || {
            let mut waits = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let t = Instant::now();
                drop(store.read());
                waits.push(t.elapsed().as_secs_f64() * 1e6);
                std::thread::sleep(Duration::from_micros(500));
            }
            waits
        })
        .expect("spawn lock probe")
}

/// Total bytes of the sealed segment files under `dir`.
pub fn segment_bytes(dir: &Path) -> u64 {
    gill::query::segment::list_segments(dir)
        .map(|segs| {
            segs.iter()
                .filter_map(|(_, p)| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fresh, empty working directory for one round, inside the checkout.
pub fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(".bench_out")
        .join(format!("work-{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Removes this process's working directories.
pub fn clean_work() {
    let _ = std::fs::remove_dir_all(
        Path::new(".bench_out").join(format!("work-{}", std::process::id())),
    );
}
