//! The traced run (`--trace 1`). It first drives the live collector as
//! the end-to-end run does and reads the program's own counters and its
//! threads' CPU; then it replays the workload's exact generated inputs
//! through each layer's public function — stage by stage, and stacked
//! through `SessionCtx::offer` into `RouteStore::ingest` — inside spans
//! kept in memory and written to `.bench_out/` when the run ends.
//!
//! Nothing inside the program is instrumented: every span wraps a call
//! the benchmark makes into a layer.

use crate::alloc::thread_allocs;
use crate::collector;
use crate::httpc::Client;
use crate::inputs;
use crate::lookingglass::request;
use crate::report::{Outcome, RunMeta};
use crate::round::{self, RoundStats};
use crate::stats;
use crate::trace::Tracer;
use crate::{firehose, live, lookingglass};
use bytes::BytesMut;
use crossbeam::channel::bounded;
use gill::bmp::codec::BmpMessage;
use gill::bmp::{BmpEvent, BmpFsm, BmpSessionConfig};
use gill::collector::daemon::{DaemonConfig, DaemonStats, SessionCtx};
use gill::collector::{Forwarder, SessionConfig, SessionFsm, SessionRole, StoredUpdate};
use gill::core::{FilterHandle, FilterSet};
use gill::query::{server, RouteStore, ServerConfig, SharedStore};
use gill::scenario::BmpFeed;
use gill::stream::{BrokerConfig, Delivery, SlowPolicy, StreamBroker, StreamFilter};
use gill::types::{BgpUpdate, FamilySet, Timestamp, VpId};
use gill::wire::{BgpMessage, DecodeCtx, UpdateMessage};
use parking_lot::RwLock;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [&str; 44] = [
    "bgp-wire.decode_ns_per_update",
    "bgp-wire.to_domain_ns_per_update",
    "bgp-wire.to_domain_allocs_per_update",
    "bgp-wire.bytes_per_update",
    "gill-bmp.handle_bytes_ns_per_update",
    "gill-bmp.route_monitoring_frames",
    "gill-collector.fsm_ns_per_update",
    "gill-core.judge_ns_per_update",
    "gill-core.drop_ratio",
    "gill-collector.offer_ns_per_update",
    "gill-collector.offer_sink_ns_per_update",
    "gill-collector.offer_allocs_per_update",
    "gill-collector.shed",
    "gill-collector.queue_backlog_peak",
    "gill-runtime.start_ms",
    "gill-runtime.worker_busy_ratio",
    "gill-runtime.worker_skew",
    "gill-runtime.ready_events_per_update",
    "gill-runtime.wakes_per_update",
    "gill-stream.publish_ns_per_update",
    "gill-stream.publish_allocs_per_update",
    "gill-stream.frame_json_bytes",
    "gill-stream.poll_ns_per_frame",
    "gill-stream.gaps",
    "gill-stream.shed",
    "gill-query.ingest_ns_per_update",
    "gill-query.ingest_allocs_per_update",
    "gill-query.drain_busy_ratio",
    "gill-query.resident_bytes_per_update",
    "gill-query.dedup_ratio",
    "gill-query.seal_ms",
    "gill-query.segment_bytes_per_update",
    "gill-query.load_ms",
    "gill-query.handler_us_p50",
    "gill-query.handler_us_p99",
    "gill-query.rib_at_us",
    "gill-query.replay_depth_mean",
    "gill-query.read_lock_wait_us_p99",
    "gill-query.http_overhead_us",
    "gill-query.http_connects_per_request",
    "gill-query.http_refused",
    "trace.coverage_ratio",
    "trace.overhead_ratio",
    "stack.ns_per_update",
];

/// Passes each replayed stage makes; its per-update figure is the median.
const PASSES: usize = 3;

/// Messages the per-update traced stacked pass covers (its spans are
/// kept in memory, four per update).
const TRACED_UPDATES: usize = 20_000;

/// The stage spans of the stacked pass: `trace.coverage_ratio` is their
/// summed self time over the traced pass's duration.
const STACK_STAGES: [&str; 3] = [
    "bgp-wire.decode",
    "gill-collector.offer",
    "gill-query.ingest",
];

/// Bytes handed to a sans-I/O machine per call, as an event loop's read
/// buffer would.
const READ_SLICE: usize = 16 * 1024;

/// HTTP requests the probe client issues against the replayed store.
const HTTP_PROBE: usize = 40;

/// A run of UPDATE messages sharing one decode context.
struct Segment {
    ctx: DecodeCtx,
    wire: Vec<u8>,
}

/// One workload's inputs, as every layer sees them.
struct Replay {
    /// Per message, in arrival order: the VP it is attributed to and its
    /// reception time.
    origin: Vec<(VpId, Timestamp)>,
    /// The messages' bytes, by decode context.
    segments: Vec<Segment>,
    /// BMP sessions carrying the same updates.
    bmp: Vec<Vec<u8>>,
    /// The installed filters.
    filters: FilterSet,
    /// Stream subscribers the workload attaches.
    subscribers: usize,
    /// The looking-glass request mix.
    queries: Vec<String>,
}

fn encode(u: &BgpUpdate) -> Vec<u8> {
    BgpMessage::Update(UpdateMessage::from_domain(u).expect("update encodes"))
        .encode_to_vec()
        .expect("UPDATE encodes")
}

/// A BMP session monitoring `vps` that carries `updates` (path ids
/// stripped: BMP feeds here negotiate no ADD-PATH).
fn bmp_stream(vps: &[VpId], updates: &[BgpUpdate]) -> Vec<u8> {
    let feed = BmpFeed::new(vps);
    let mut out = BmpFeed::initiation_frame("bench-replay");
    for f in feed.peer_up_frames(inputs::T0_MS) {
        out.extend_from_slice(&f);
    }
    for u in updates {
        let peer = feed.peer_header(u.vp, inputs::T0_MS).expect("monitored VP");
        let update = UpdateMessage::from_domain(u)
            .expect("update encodes")
            .without_path_ids();
        let frame = BmpMessage::RouteMonitoring { peer, update }
            .encode_to_vec()
            .expect("frame encodes");
        out.extend_from_slice(&frame);
    }
    out
}

const CLASSIC: DecodeCtx = DecodeCtx {
    addpath_v4: false,
    addpath_v6: false,
};
const ADD_PATH: DecodeCtx = DecodeCtx {
    addpath_v4: true,
    addpath_v6: true,
};

fn replay_inputs(workload: &str, seed: u64) -> Replay {
    match workload {
        "bmp-firehose" => {
            let inp = inputs::firehose(seed, 0);
            let mut wire = Vec::new();
            for u in &inp.updates {
                wire.extend_from_slice(&encode(u));
            }
            Replay {
                origin: inp.updates.iter().map(|u| (u.vp, u.time)).collect(),
                segments: vec![Segment { ctx: CLASSIC, wire }],
                bmp: inp
                    .routers
                    .iter()
                    .map(|r| [r.setup.as_slice(), r.body.as_slice()].concat())
                    .collect(),
                filters: inp.filters,
                subscribers: 0,
                queries: inputs::query_mix(&inp.updates, seed),
            }
        }
        "bgp-live-stream" => {
            let feed = inputs::live(seed);
            let vp = feed.vp();
            let stamped: Vec<BgpUpdate> = (0..feed.updates.len())
                .map(|i| BgpUpdate {
                    time: Timestamp::from_millis(i as u64),
                    ..feed.updates[i].clone()
                })
                .collect();
            Replay {
                origin: stamped.iter().map(|u| (u.vp, u.time)).collect(),
                segments: vec![Segment {
                    ctx: ADD_PATH,
                    wire: feed.wire.clone(),
                }],
                bmp: vec![bmp_stream(&[vp], &feed.updates)],
                queries: inputs::query_mix(&stamped, seed),
                filters: feed.filters,
                subscribers: 1,
            }
        }
        _ => {
            let inp = inputs::looking_glass(seed);
            let mut archive_wire = Vec::new();
            for u in &inp.archive {
                archive_wire.extend_from_slice(&encode(u));
            }
            let vp = inp.writes.vp();
            let mut origin: Vec<_> = inp.archive.iter().map(|u| (u.vp, u.time)).collect();
            origin.extend(
                (0..inp.writes.updates.len()).map(|i| (vp, Timestamp::from_millis(i as u64))),
            );
            Replay {
                origin,
                segments: vec![
                    Segment {
                        ctx: CLASSIC,
                        wire: archive_wire,
                    },
                    Segment {
                        ctx: ADD_PATH,
                        wire: inp.writes.wire.clone(),
                    },
                ],
                bmp: vec![bmp_stream(&inp.world.vps(), &inp.archive)],
                filters: inp.writes.filters,
                subscribers: 0,
                queries: inp.queries,
            }
        }
    }
}

/// Runs `pass` [`PASSES`] times inside spans named `name`; each pass
/// returns what [`timed`] measured around its layer call. Returns the
/// median nanoseconds per item and the (repeatable) allocations per item
/// of the last pass, for `items` items per pass.
fn stage<T>(
    tr: &mut Tracer,
    name: &'static str,
    items: usize,
    mut pass: impl FnMut() -> (Duration, u64, T),
) -> (f64, f64, T) {
    let mut ns = Vec::with_capacity(PASSES);
    let mut last = None;
    let mut allocs = 0;
    for _ in 0..PASSES {
        let id = tr.begin(name);
        let (d, a, out) = pass();
        allocs = a;
        tr.end(id);
        ns.push(d.as_nanos() as f64 / items as f64);
        last = Some(out);
    }
    (
        stats::median(&ns).expect("passes ran"),
        allocs as f64 / items as f64,
        last.expect("passes ran"),
    )
}

/// Wall time and this thread's allocations of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, u64, T) {
    let a0 = thread_allocs();
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed(), thread_allocs() - a0, out)
}

/// Completes a BGP handshake in memory and returns the collector side,
/// Established with or without ADD-PATH.
fn established(ctx: DecodeCtx) -> SessionFsm {
    let families = if ctx.addpath_v4 {
        FamilySet::ALL
    } else {
        FamilySet::EMPTY
    };
    let mut server = SessionFsm::new(
        SessionRole::Passive,
        DaemonConfig::default().session_config(),
    );
    let mut client = SessionFsm::new(
        SessionRole::Active,
        SessionConfig {
            local_asn: 64_999,
            families,
            add_paths: families,
            ..SessionConfig::default()
        },
    );
    server.start(0);
    client.start(0);
    for _ in 0..4 {
        let out = client.take_output();
        server.handle_bytes(&out, 0);
        let out = server.take_output();
        client.handle_bytes(&out, 0);
    }
    while server.poll_event().is_some() {}
    assert!(server.reached_established(), "in-memory handshake");
    server
}

/// A session pipeline like the pool's: compiled filters, forwarder tee,
/// bounded queue (sized for the whole pass), optional sink.
fn pipeline(
    filters: &FilterSet,
    n: usize,
    sink: Option<&StreamBroker>,
) -> (SessionCtx, crossbeam::channel::Receiver<StoredUpdate>) {
    let (tx, rx) = bounded(n + 1);
    let mut ctx = SessionCtx::new(
        FilterHandle::new(filters).view(),
        tx,
        Arc::new(DaemonStats::default()),
    );
    ctx.forwarder = Some(Arc::new(RwLock::new(Forwarder::new())));
    if let Some(b) = sink {
        ctx = ctx.with_sink(Arc::new(b.publisher()));
    }
    (ctx, rx)
}

/// Opens a span named `name` when tracing.
fn open(tr: &mut Option<&mut Tracer>, name: &'static str) -> Option<u32> {
    tr.as_mut().map(|t| t.begin(name))
}

/// Closes a span [`open`] opened.
fn close(tr: &mut Option<&mut Tracer>, id: Option<u32>) {
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.end(id);
    }
}

/// Runs the traced run for `workload`.
pub fn run(workload: &str, seed: u64, budget: Duration, out: &mut Outcome, meta: &RunMeta) {
    // 1. the live collector, with the counters and a read-lock probe
    let live_budget = budget / 2;
    let rounds: Vec<RoundStats> = match workload {
        "bmp-firehose" => firehose::run_with(seed, live_budget, true, out),
        "bgp-live-stream" => live::run_with(seed, live_budget, true, out),
        _ => lookingglass::run_with(seed, live_budget, true, out),
    };
    round::live_layers(out, &rounds);
    let waits: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lock_waits_us.iter().copied())
        .collect();
    out.put(
        "gill-query.read_lock_wait_us_p99",
        stats::percentile(&waits, 99.0).unwrap_or(f64::NAN),
        "us",
        waits.len(),
    );
    let worst = |f: fn(&RoundStats) -> usize| rounds.iter().map(f).max().unwrap_or(0) as f64;
    out.count(
        "gill-query.http_refused",
        worst(|r| r.http_refused),
        "count",
    );
    out.count("gill-stream.gaps", worst(|r| r.stream_gaps), "count");
    out.count("gill-stream.shed", worst(|r| r.stream_shed), "count");

    // 2. the same inputs, layer by layer
    let rep = replay_inputs(workload, seed);
    let mut tr = Tracer::new();
    let root = tr.begin("replay");
    let n = rep.origin.len();
    let wire_bytes: usize = rep.segments.iter().map(|s| s.wire.len()).sum();
    out.count(
        "bgp-wire.bytes_per_update",
        wire_bytes as f64 / n as f64,
        "B",
    );

    let (decode_ns, _, msgs) = stage(&mut tr, "bgp-wire.decode", n, || {
        let mut bufs: Vec<(BytesMut, DecodeCtx)> = rep
            .segments
            .iter()
            .map(|s| (BytesMut::from(&s.wire[..]), s.ctx))
            .collect();
        timed(|| {
            let mut msgs = Vec::with_capacity(n);
            for (buf, ctx) in &mut bufs {
                while let Some(m) = BgpMessage::decode_ctx(buf, ctx).expect("replayed bytes decode")
                {
                    if let BgpMessage::Update(u) = m {
                        msgs.push(u);
                    }
                }
            }
            msgs
        })
    });
    assert_eq!(msgs.len(), n, "every replayed message decodes to an UPDATE");
    out.put("bgp-wire.decode_ns_per_update", decode_ns, "ns", PASSES);

    let (to_domain_ns, to_domain_allocs, domain) = stage(&mut tr, "bgp-wire.to_domain", n, || {
        let mut domain = Vec::with_capacity(n);
        let (d, a, ()) = timed(|| {
            for (m, (vp, t)) in msgs.iter().zip(&rep.origin) {
                domain.extend(m.to_domain(*vp, *t));
            }
        });
        (d, a, domain)
    });
    out.put(
        "bgp-wire.to_domain_ns_per_update",
        to_domain_ns,
        "ns",
        PASSES,
    );
    out.count(
        "bgp-wire.to_domain_allocs_per_update",
        to_domain_allocs,
        "count",
    );

    let (bmp_ns, _, frames) = stage(&mut tr, "gill-bmp.handle_bytes", n, || {
        timed(|| {
            let mut frames = 0u64;
            for stream in &rep.bmp {
                let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
                for chunk in stream.chunks(READ_SLICE) {
                    fsm.handle_bytes(chunk, 0);
                    while let Some(ev) = fsm.poll_event() {
                        if let BmpEvent::Update { update, .. } = ev {
                            std::hint::black_box(update);
                        }
                    }
                }
                frames += fsm.ledger().route_monitoring;
            }
            frames
        })
    });
    out.put("gill-bmp.handle_bytes_ns_per_update", bmp_ns, "ns", PASSES);
    out.count("gill-bmp.route_monitoring_frames", frames as f64, "count");

    let (fsm_ns, _, _) = stage(&mut tr, "gill-collector.fsm", n, || {
        let mut fsms: Vec<SessionFsm> = rep.segments.iter().map(|s| established(s.ctx)).collect();
        timed(|| {
            let mut updates = 0usize;
            for (fsm, seg) in fsms.iter_mut().zip(&rep.segments) {
                for chunk in seg.wire.chunks(READ_SLICE) {
                    fsm.handle_bytes(chunk, 0);
                    while let Some(ev) = fsm.poll_event() {
                        updates +=
                            usize::from(matches!(ev, gill::collector::SessionEvent::Update(_)));
                    }
                }
            }
            updates
        })
    });
    out.put("gill-collector.fsm_ns_per_update", fsm_ns, "ns", PASSES);

    let handle = FilterHandle::new(&rep.filters);
    let view = handle.view();
    let (judge_ns, _, kept) = stage(&mut tr, "gill-core.judge", domain.len(), || {
        timed(|| {
            domain
                .iter()
                .map(|u| view.judge(u).0)
                .collect::<Vec<bool>>()
        })
    });
    let dropped = kept.iter().filter(|k| !**k).count();
    out.put("gill-core.judge_ns_per_update", judge_ns, "ns", PASSES);
    out.count(
        "gill-core.drop_ratio",
        dropped as f64 / domain.len() as f64,
        "ratio",
    );
    let retained: Vec<BgpUpdate> = domain
        .iter()
        .zip(&kept)
        .filter(|(_, k)| **k)
        .map(|(u, _)| u.clone())
        .collect();

    let (offer_ns, offer_allocs, _) = stage(&mut tr, "gill-collector.offer", n, || {
        let (ctx, rx) = pipeline(&rep.filters, n, None);
        let batch = msgs.clone();
        let (d, a, ()) = timed(|| {
            for (m, (vp, t)) in batch.into_iter().zip(&rep.origin) {
                ctx.offer(*vp, m, *t);
            }
        });
        drop(rx);
        (d, a, ())
    });
    out.put("gill-collector.offer_ns_per_update", offer_ns, "ns", PASSES);
    out.count(
        "gill-collector.offer_allocs_per_update",
        offer_allocs,
        "count",
    );

    let (offer_sink_ns, _, _) = stage(&mut tr, "gill-collector.offer_sink", n, || {
        let broker = StreamBroker::new(BrokerConfig::default());
        let sub = broker.subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker);
        let (ctx, rx) = pipeline(&rep.filters, n, Some(&broker));
        let batch = msgs.clone();
        let (d, a, ()) = timed(|| {
            for (m, (vp, t)) in batch.into_iter().zip(&rep.origin) {
                ctx.offer(*vp, m, *t);
            }
        });
        drop((rx, sub));
        (d, a, ())
    });
    out.put(
        "gill-collector.offer_sink_ns_per_update",
        offer_sink_ns,
        "ns",
        PASSES,
    );

    // publish and poll alternate in ring-sized batches, so the one
    // subscriber never falls behind
    let mut publish_ns = Vec::new();
    let mut poll_ns = Vec::new();
    let mut publish_allocs = 0;
    let mut json_bytes = 0usize;
    let mut frames_seen = 0usize;
    for _ in 0..PASSES {
        let id = tr.begin("gill-stream.publish+poll");
        let broker = StreamBroker::new(BrokerConfig::default());
        let mut sub = broker
            .subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker)
            .expect("subscribe");
        let (mut pub_d, mut poll_d) = (Duration::ZERO, Duration::ZERO);
        let (mut allocs, mut bytes, mut seen) = (0, 0, 0);
        for batch in retained.chunks(1_024) {
            let (d, a, ()) = timed(|| {
                for u in batch {
                    broker.publish(u);
                }
            });
            pub_d += d;
            allocs += a;
            let t = Instant::now();
            loop {
                match sub.poll_next() {
                    Delivery::Frame(f) => {
                        bytes += f.json().len();
                        seen += 1;
                    }
                    Delivery::Pending | Delivery::Closed => break,
                    Delivery::Gap(_) | Delivery::Overrun { .. } => {}
                }
            }
            poll_d += t.elapsed();
        }
        tr.end(id);
        publish_ns.push(pub_d.as_nanos() as f64 / retained.len() as f64);
        poll_ns.push(poll_d.as_nanos() as f64 / seen.max(1) as f64);
        (publish_allocs, json_bytes, frames_seen) = (allocs, bytes, seen);
    }
    out.put(
        "gill-stream.publish_ns_per_update",
        stats::median(&publish_ns).expect("passes ran"),
        "ns",
        PASSES,
    );
    out.count(
        "gill-stream.publish_allocs_per_update",
        publish_allocs as f64 / retained.len() as f64,
        "count",
    );
    out.count(
        "gill-stream.frame_json_bytes",
        json_bytes as f64 / frames_seen.max(1) as f64,
        "B",
    );
    out.put(
        "gill-stream.poll_ns_per_frame",
        stats::median(&poll_ns).expect("passes ran"),
        "ns",
        PASSES,
    );
    out.check(frames_seen == retained.len(), || {
        format!(
            "replayed subscriber saw {frames_seen} of {} frames",
            retained.len()
        )
    });

    let (ingest_ns, ingest_allocs, store) =
        stage(&mut tr, "gill-query.ingest", retained.len(), || {
            let batch = retained.clone();
            let mut store = RouteStore::default();
            let (d, a, ()) = timed(|| {
                for u in batch {
                    store.ingest(u);
                }
            });
            (d, a, store)
        });
    out.put("gill-query.ingest_ns_per_update", ingest_ns, "ns", PASSES);
    out.count(
        "gill-query.ingest_allocs_per_update",
        ingest_allocs,
        "count",
    );
    let mem = store.mem_stats();
    out.count(
        "gill-query.resident_bytes_per_update",
        mem.bytes_resident as f64 / retained.len() as f64,
        "B",
    );
    out.count("gill-query.dedup_ratio", mem.dedup_ratio, "ratio");

    let seal_dir = collector::work_dir("replay-seal");
    let mut seal_ms = Vec::new();
    let mut ingested = Some(store);
    let mut sealed = RouteStore::default();
    for p in 0..PASSES {
        // earlier passes seal fresh copies; the last seals the ingested store
        let mut copy = if p + 1 < PASSES {
            let mut s = RouteStore::default();
            for u in &retained {
                s.ingest(u.clone());
            }
            s
        } else {
            ingested.take().expect("ingested store")
        };
        let id = tr.begin("gill-query.seal");
        let (d, _, res) = timed(|| copy.seal_all_into(&seal_dir.join(p.to_string())));
        tr.end(id);
        res.expect("seal");
        seal_ms.push(d.as_secs_f64() * 1e3);
        sealed = copy;
    }
    out.put(
        "gill-query.seal_ms",
        stats::median(&seal_ms).expect("passes"),
        "ms",
        PASSES,
    );
    let last_dir = seal_dir.join((PASSES - 1).to_string());
    let seg_bytes = collector::segment_bytes(&last_dir);
    out.count(
        "gill-query.segment_bytes_per_update",
        seg_bytes as f64 / retained.len() as f64,
        "B",
    );
    let (load_ms, _, loaded) = stage(&mut tr, "gill-query.load", 1, || {
        let mut s = RouteStore::default();
        let (d, a, n) = timed(|| s.load_dir(&last_dir));
        (d, a, n.expect("load"))
    });
    out.check(loaded == retained.len(), || {
        format!("replayed archive reloads {loaded} of {}", retained.len())
    });
    out.put("gill-query.load_ms", load_ms / 1e6, "ms", PASSES);

    let shared: SharedStore = Arc::new(RwLock::new(sealed));
    handlers(&mut tr, &rep, &shared, out);

    // stacked: decode → offer (to_domain, filter, sink, queue) → ingest
    let subs_broker = StreamBroker::new(BrokerConfig::default());
    let stack = |traced: Option<&mut Tracer>, limit: usize| -> Duration {
        let mut tr = traced;
        let _subs: Vec<_> = (0..rep.subscribers)
            .map(|_| subs_broker.subscribe(StreamFilter::any(), SlowPolicy::SkipWithGapMarker))
            .collect();
        let (ctx, rx) = pipeline(&rep.filters, limit, Some(&subs_broker));
        let mut store = RouteStore::default();
        let mut bufs: Vec<(BytesMut, DecodeCtx)> = rep
            .segments
            .iter()
            .map(|s| (BytesMut::from(&s.wire[..]), s.ctx))
            .collect();
        let t = Instant::now();
        let mut done = 0;
        'outer: for (buf, dctx) in &mut bufs {
            loop {
                if done == limit {
                    break 'outer;
                }
                let (vp, time) = rep.origin[done];
                let root = open(&mut tr, "stack.update");
                let span = open(&mut tr, "bgp-wire.decode");
                let msg = BgpMessage::decode_ctx(buf, dctx).expect("replayed bytes decode");
                close(&mut tr, span);
                let Some(BgpMessage::Update(m)) = msg else {
                    close(&mut tr, root);
                    break;
                };
                let span = open(&mut tr, "gill-collector.offer");
                ctx.offer(vp, m, time);
                close(&mut tr, span);
                if let Ok(rec) = rx.try_recv() {
                    let span = open(&mut tr, "gill-query.ingest");
                    store.ingest(rec.update);
                    close(&mut tr, span);
                }
                close(&mut tr, root);
                done += 1;
            }
        }
        let d = t.elapsed();
        std::hint::black_box(store.stats());
        d
    };
    let mut untraced = Vec::new();
    for _ in 0..PASSES {
        let id = tr.begin("stack.untraced");
        untraced.push(stack(None, n).as_nanos() as f64 / n as f64);
        tr.end(id);
    }
    let stacked_ns = stats::median(&untraced).expect("passes");
    let limit = n.min(TRACED_UPDATES);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut coverage = f64::NAN;
    for p in 0..PASSES {
        plain.push(stack(None, limit).as_nanos() as f64 / limit as f64);
        // only the last traced pass keeps its spans
        let d = if p + 1 < PASSES {
            stack(Some(&mut Tracer::new()), limit)
        } else {
            let id = tr.begin("stack.traced");
            let d = stack(Some(&mut tr), limit);
            tr.end(id);
            coverage = tr.coverage(id, &STACK_STAGES);
            d
        };
        traced.push(d.as_nanos() as f64 / limit as f64);
    }
    tr.end(root);
    out.count("trace.coverage_ratio", coverage, "ratio");
    out.count(
        "trace.overhead_ratio",
        stats::median(&traced).expect("passes") / stats::median(&plain).expect("passes"),
        "ratio",
    );
    out.put("stack.ns_per_update", stacked_ns, "ns", PASSES);
    for (name, (count, self_ns)) in tr.self_times_by_name() {
        eprintln!(
            "span {name:<32} x{count:<8} self {:.3} ms",
            self_ns as f64 / 1e6
        );
    }
    let path = Path::new(".bench_out").join(format!("trace-{workload}-seed{seed}.json"));
    if let Err(e) = tr.write_json(&path, &meta.json()) {
        out.check(false, || format!("writing {}: {e}", path.display()));
    }
}

/// The query mix against the replayed store: the handler alone
/// (`server::route_with` without a socket), `rib_at` alone, and a short
/// keep-alive HTTP probe for the socket's share.
fn handlers(tr: &mut Tracer, rep: &Replay, shared: &SharedStore, out: &mut Outcome) {
    let reqs: Vec<_> = rep.queries.iter().map(|q| request(q)).collect();
    let us: Vec<f64> = tr.span("gill-query.handler", |_| {
        reqs.iter()
            .map(|r| {
                timed(|| server::route_with(r, shared, None))
                    .0
                    .as_secs_f64()
                    * 1e6
            })
            .collect()
    });
    let handler_p50 = stats::percentile(&us, 50.0).unwrap_or(f64::NAN);
    out.put("gill-query.handler_us_p50", handler_p50, "us", us.len());
    out.put(
        "gill-query.handler_us_p99",
        stats::percentile(&us, 99.0).unwrap_or(f64::NAN),
        "us",
        us.len(),
    );
    let ribs: Vec<(VpId, Timestamp)> = reqs
        .iter()
        .filter(|r| r.path == "/rib")
        .filter_map(|r| {
            let vp = server::parse_vp(r.param("vp")?)?;
            let at = r.param("at")?.parse().ok()?;
            Some((vp, Timestamp::from_millis(at)))
        })
        .collect();
    let store = shared.read();
    let (d, _, _) = tr.span("gill-query.rib_at", |_| {
        timed(|| {
            ribs.iter()
                .map(|(vp, at)| store.rib_at(*vp, *at).map_or(0, |r| r.len()))
                .sum::<usize>()
        })
    });
    let depth: usize = ribs
        .iter()
        .filter_map(|(vp, at)| store.replay_depth(*vp, *at))
        .sum();
    drop(store);
    out.put(
        "gill-query.rib_at_us",
        d.as_secs_f64() * 1e6 / ribs.len().max(1) as f64,
        "us",
        ribs.len(),
    );
    out.count(
        "gill-query.replay_depth_mean",
        depth as f64 / ribs.len().max(1) as f64,
        "count",
    );

    let mut server = gill::query::serve("127.0.0.1:0", ServerConfig::default(), shared.clone())
        .expect("probe server binds");
    let mut client = Client::new(server.local_addr());
    let mut ms = Vec::new();
    tr.span("gill-query.http_probe", |_| {
        for q in rep.queries.iter().take(HTTP_PROBE) {
            let t = Instant::now();
            match client.get(q) {
                Ok(_) => ms.push(t.elapsed().as_secs_f64() * 1e3),
                Err(e) => out.check(false, || format!("probe request {q} failed: {e}")),
            }
        }
    });
    let refused = server.stats().refused.load(Ordering::Relaxed);
    server.stop();
    let client_p50_us = stats::percentile(&ms, 50.0).unwrap_or(f64::NAN) * 1e3;
    out.put(
        "gill-query.http_overhead_us",
        client_p50_us - handler_p50,
        "us",
        ms.len(),
    );
    out.count(
        "gill-query.http_connects_per_request",
        client.connects as f64 / ms.len().max(1) as f64,
        "count",
    );
    out.check(refused == 0, || {
        format!("probe server refused {refused} connections")
    });
}
