//! What every workload measures in one round (one collector boot, one
//! timed window, one shutdown), and how rounds become metrics.

use crate::collector::{self, Collector};
use crate::oracle::Expected;
use crate::procfs::{self, ThreadCpu};
use crate::report::Outcome;
use crate::stats;
use gill::runtime::RuntimeTotals;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One round's measurements.
#[derive(Default)]
pub struct RoundStats {
    /// Boot until the first timed update could be sent.
    pub setup_s: f64,
    /// Length of the timed window.
    pub window_s: f64,
    /// User-facing operations completed in the window.
    pub ops: f64,
    /// Per-operation latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Updates the collector decoded.
    pub decoded: usize,
    /// Updates the collector retained.
    pub retained: usize,
    /// Updates shed at the storage queue.
    pub shed: usize,
    /// Generator's last byte until `drain_into` returned with the tail
    /// sealed.
    pub archive_s: f64,
    /// Sealed segment bytes the round wrote.
    pub archive_bytes: u64,
    /// CPU split of the timed window.
    pub cpu: CpuSplit,
    /// Readiness events the runtime processed in the window.
    pub ready_events: usize,
    /// Cross-thread wakes the runtime saw in the window.
    pub wakes: usize,
    /// Highest sampled `retained − stored` during the window.
    pub backlog_peak: usize,
    /// `EventedPool::start`, ms.
    pub runtime_start_ms: f64,
    /// Resident memory of the process just before the collector booted,
    /// with the peak reset to it, MiB, on rounds that measure memory.
    pub rss_base_mb: Option<f64>,
    /// Peak resident memory of the process from boot until the round's
    /// archive was sealed, less [`RoundStats::rss_base_mb`], MiB.
    pub rss_mb: Option<f64>,
    /// `SharedStore::read()` acquisition times sampled while the drain
    /// wrote (traced rounds only), µs.
    pub lock_waits_us: Vec<f64>,
    /// Connections the HTTP server refused.
    pub http_refused: usize,
    /// Gap frames subscribers were sent.
    pub stream_gaps: usize,
    /// Updates the broker shed for want of subscribers.
    pub stream_shed: usize,
}

impl RoundStats {
    /// Reads the collector's counters once the window closed (`before`:
    /// the runtime totals when it opened) and checks its exact
    /// accounting of the `sent` updates against the reference filter.
    pub fn read_counters(
        &mut self,
        col: &Collector,
        before: RuntimeTotals,
        sent: usize,
        exp: &Expected,
        out: &mut Outcome,
    ) {
        let load = |c: &AtomicUsize| c.load(Ordering::Relaxed);
        let stats = col.pool.stats();
        let after = col.pool.totals();
        self.ready_events = after.ready_events - before.ready_events;
        self.wakes = after.wakes - before.wakes;
        self.decoded = load(&stats.received);
        self.retained = load(&stats.retained);
        self.shed = load(&stats.lost);
        self.http_refused = load(&col.server.stats().refused);
        self.rss_mb = self.rss_base_mb.map(|base| procfs::peak_rss_mb() - base);
        let broker = col.broker.stats();
        (self.stream_gaps, self.stream_shed) = (broker.gaps_emitted, broker.shed);
        let filtered = load(&stats.filtered);
        out.check(self.decoded == sent, || {
            format!("decoded {} of {sent}", self.decoded)
        });
        out.check(self.decoded == self.retained + filtered + self.shed, || {
            format!(
                "decoded {} != retained {} + filtered {filtered} + shed {}",
                self.decoded, self.retained, self.shed
            )
        });
        out.check(filtered == exp.filtered, || {
            format!(
                "filtered {filtered}, reference filter says {}",
                exp.filtered
            )
        });
    }
}

/// CPU time of the collector's threads over a window.
#[derive(Default, Clone)]
pub struct CpuSplit {
    /// Every collector thread.
    pub collector_ns: u64,
    /// Each `gill-evented-*` worker.
    pub workers_ns: Vec<u64>,
    /// The drain thread.
    pub drain_ns: u64,
}

/// A thread CPU snapshot taken when a window opens.
pub struct CpuWindow(HashMap<u32, ThreadCpu>);

impl CpuWindow {
    /// Opens a window now.
    pub fn open() -> CpuWindow {
        CpuWindow(procfs::threads())
    }

    /// Splits the CPU spent since the window opened by thread role.
    pub fn close(&self) -> CpuSplit {
        let mut split = CpuSplit::default();
        for (name, tid, ns) in procfs::cpu_between(&self.0, &procfs::threads()) {
            if !procfs::is_collector_thread(&name, tid) {
                continue;
            }
            split.collector_ns += ns;
            if name.starts_with("gill-evented-") {
                split.workers_ns.push(ns);
            } else if name == collector::DRAIN_THREAD {
                split.drain_ns += ns;
            }
        }
        split
    }
}

/// Runs `round` until `budget` is spent, at least `min_rounds` times,
/// stopping early after a round whose checks failed (`round` returns
/// whether they held).
pub fn repeat(
    budget: Duration,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> (RoundStats, bool),
) -> Vec<RoundStats> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < budget {
        let (r, ok) = round(rounds.len());
        eprintln!(
            "round {}: setup {:.4} s, {:.0} ops/s over {:.3} s, {} latencies, archive {:.4} s, cpu {:.2} us/update, drain busy {:.2}",
            rounds.len(),
            r.setup_s,
            r.ops / r.window_s,
            r.window_s,
            r.latencies_ms.len(),
            r.archive_s,
            r.cpu.collector_ns as f64 / 1e3 / r.decoded as f64,
            r.cpu.drain_ns as f64 / 1e9 / r.window_s,
        );
        rounds.push(r);
        if !ok {
            break;
        }
    }
    rounds
}

fn per_round(rounds: &[RoundStats], f: impl Fn(&RoundStats) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

/// Adds the end-to-end metrics every workload reports. Per-round values
/// are summarized by their median; latencies are pooled over rounds.
pub fn end_to_end(out: &mut Outcome, rounds: &[RoundStats]) {
    out.put_rounds("setup_s", &per_round(rounds, |r| r.setup_s), "s");
    out.put_rounds(
        "ops_per_s",
        &per_round(rounds, |r| r.ops / r.window_s),
        "1/s",
    );
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    let tail = stats::supported_tail(lat.len());
    out.check(tail.is_some(), || {
        format!("{} latency samples cannot support a median", lat.len())
    });
    out.put(
        "latency_p50_ms",
        stats::percentile(&lat, 50.0).unwrap_or(f64::NAN),
        "ms",
        lat.len(),
    );
    // tails, as far as the sample count supports them
    for (name, p) in [
        ("latency_p90_ms", 90.0),
        ("latency_p95_ms", 95.0),
        ("latency_p99_ms", 99.0),
        ("latency_p99.9_ms", 99.9),
    ] {
        if tail >= Some(p) {
            let v = stats::percentile(&lat, p).unwrap_or(f64::NAN);
            out.put(name, v, "ms", lat.len());
        }
    }
    out.put_rounds(
        "cpu_us_per_update",
        &per_round(rounds, |r| {
            r.cpu.collector_ns as f64 / 1e3 / r.decoded as f64
        }),
        "us",
    );
    out.put_rounds("archive_s", &per_round(rounds, |r| r.archive_s), "s");
    out.put_rounds(
        "archive_bytes_per_update",
        &per_round(rounds, |r| r.archive_bytes as f64 / r.retained as f64),
        "B",
    );
    let rss = rounds[0].rss_mb.expect("the first round measures memory");
    out.put("peak_rss_mb", rss, "MiB", 1);
}

/// Adds the per-layer metrics read off the live collector's own counters
/// and its threads' CPU during the timed windows.
pub fn live_layers(out: &mut Outcome, rounds: &[RoundStats]) {
    let mut put = |name: &str, unit: &'static str, f: &dyn Fn(&RoundStats) -> f64| {
        out.put_rounds(name, &per_round(rounds, f), unit);
    };
    put("gill-runtime.start_ms", "ms", &|r| r.runtime_start_ms);
    put("gill-runtime.worker_busy_ratio", "ratio", &|r| {
        let w = r.cpu.workers_ns.len().max(1) as f64;
        r.cpu.workers_ns.iter().sum::<u64>() as f64 / 1e9 / r.window_s / w
    });
    put("gill-runtime.worker_skew", "ratio", &|r| {
        let w = &r.cpu.workers_ns;
        let mean = w.iter().sum::<u64>() as f64 / w.len().max(1) as f64;
        w.iter().copied().max().unwrap_or(0) as f64 / mean
    });
    put("gill-runtime.ready_events_per_update", "count", &|r| {
        r.ready_events as f64 / r.decoded as f64
    });
    put("gill-runtime.wakes_per_update", "count", &|r| {
        r.wakes as f64 / r.decoded as f64
    });
    put("gill-query.drain_busy_ratio", "ratio", &|r| {
        r.cpu.drain_ns as f64 / 1e9 / r.window_s
    });
    put("gill-collector.queue_backlog_peak", "count", &|r| {
        r.backlog_peak as f64
    });
    // the worst round: any shed at all is lost data
    out.count(
        "gill-collector.shed",
        rounds.iter().map(|r| r.shed).max().unwrap_or(0) as f64,
        "count",
    );
}
