//! `gill-replay` — apply a published filter file to an archived MRT stream
//! offline: what users with limited resources do with GILL's artifacts
//! (§9 — "help users find which bits of data they should process").
//!
//! ```sh
//! gill-replay --updates updates.mrt --filters filters.txt --out kept.mrt
//! ```
//!
//! With `--serve`, the (optionally filtered) stream is loaded into the
//! time-indexed route store and served over the looking-glass HTTP API —
//! including the live `/stream/updates` endpoint, which replays the archive
//! through the broadcast ring so `curl -N` clients see a RIS-Live-style
//! feed:
//!
//! ```sh
//! gill-replay --updates updates.mrt --serve 127.0.0.1:8480 \
//!     --stream-repeat 100 --stream-interval-ms 1
//! curl -N 'http://127.0.0.1:8480/stream/updates'
//! ```
//!
//! The replay publisher closes the broker when the archive is exhausted, so
//! streaming clients terminate cleanly (end-of-stream frame + final chunk).
//! `--stream-wait-subs N` holds the replay until N subscribers are attached
//! — the lever CI uses to race a fast and a deliberately stalled client
//! against the same deterministic publish sequence.

use gill::cli::{parse_families, read_updates_mrt_ctx, write_updates_mrt, Args};
use gill::core::FilterSet;
use gill::query::{RouteStore, ServerConfig, StoreConfig};
use gill::stream::{serve_streaming, BrokerConfig, StreamBroker};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Every flag this tool accepts (the ones its usage line prints).
const FLAGS: &[&str] = &[
    "updates",
    "addpath",
    "filters",
    "out",
    "bgp-to",
    "bmp-to",
    "serve",
    "data-dir",
    "store-mem-cap",
    "stream-repeat",
    "stream-wait-subs",
    "stream-interval-ms",
    "ring-capacity",
    "max-subscribers",
];

fn run() -> Result<(), String> {
    let args = Args::parse(FLAGS)?;
    let updates_path = PathBuf::from(args.required("updates")?);
    let filters_path = args.optional("filters").map(PathBuf::from);
    let out = args.optional("out").map(PathBuf::from);
    let serve_addr = args.optional("serve");
    if filters_path.is_none()
        && serve_addr.is_none()
        && args.optional("bmp-to").is_none()
        && args.optional("bgp-to").is_none()
    {
        return Err("need --filters (replay), --bgp-to / --bmp-to (live feed) \
             and/or --serve (looking glass)"
            .into());
    }

    // --addpath v6 (or v4, or v4,v6): the archive was written from an
    // ADD-PATH session, so its NLRI carry leading path identifiers for the
    // named families and must decode under the matching context.
    let ctx = match args.optional("addpath") {
        Some(fams) => gill::wire::DecodeCtx::from_families(parse_families(&fams)?),
        None => gill::wire::DecodeCtx::default(),
    };
    let updates = read_updates_mrt_ctx(&updates_path, &ctx).map_err(|e| e.to_string())?;
    let kept: Vec<_> = match &filters_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
            let filters = FilterSet::from_text(&text)?;
            let kept: Vec<_> = updates
                .iter()
                .filter(|u| filters.accepts(u))
                .cloned()
                .collect();
            println!(
                "{} of {} updates pass the filters ({:.1}% discarded)",
                kept.len(),
                updates.len(),
                (1.0 - kept.len() as f64 / updates.len().max(1) as f64) * 100.0
            );
            kept
        }
        None => updates,
    };
    if let Some(p) = out {
        let n = write_updates_mrt(&p, &kept).map_err(|e| e.to_string())?;
        println!("wrote {n} records to {}", p.display());
    }
    // --bgp-to HOST:PORT: replay the (filtered) stream as live BGP peers —
    // one loopback session per distinct VP ASN, handshake, the VP's
    // updates in archive order, then NOTIFICATION Cease and a wait for
    // the collector's close so its counters have settled when we exit.
    // This is how CI feeds a fixture day into a collector's BGP listener.
    if let Some(addr) = args.optional("bgp-to") {
        use gill::collector::daemon::{handshake_client, MessageStream};
        use gill::wire::{BgpMessage, Notification, UpdateMessage};
        use std::io::Read;
        let asns: Vec<u32> = {
            let mut seen = std::collections::BTreeSet::new();
            kept.iter()
                .map(|u| u.vp.asn.value())
                .filter(|a| seen.insert(*a))
                .collect()
        };
        let mut sent = 0usize;
        for &asn in &asns {
            let stream = std::net::TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
            let mut ms = MessageStream::new(stream);
            handshake_client(&mut ms, asn).map_err(|e| format!("AS{asn} handshake: {e}"))?;
            for u in kept.iter().filter(|u| u.vp.asn.value() == asn) {
                let wire = UpdateMessage::from_domain(u).map_err(|e| format!("AS{asn}: {e:?}"))?;
                ms.write_message(&BgpMessage::Update(wire))
                    .map_err(|e| format!("AS{asn}: {e}"))?;
                sent += 1;
            }
            ms.write_message(&BgpMessage::Notification(Notification::cease()))
                .map_err(|e| format!("AS{asn}: {e}"))?;
            let sock = ms.transport_mut();
            let _ = sock.set_read_timeout(Some(Duration::from_secs(10)));
            let mut buf = [0u8; 4096];
            loop {
                match sock.read(&mut buf) {
                    Ok(0) | Err(_) => break, // collector processed our Cease
                    Ok(_) => {}
                }
            }
        }
        println!(
            "bgp: replayed {sent} updates over {} sessions to {addr}",
            asns.len()
        );
    }
    // --bmp-to HOST:PORT: replay the (filtered) stream as one BMP router
    // session — Initiation, a Peer Up per distinct VP, a Route Monitoring
    // frame per update, Termination. This is how CI feeds a fixture day
    // into a live collector's --bmp-addr listener over loopback.
    if let Some(addr) = args.optional("bmp-to") {
        use gill::scenario::{BmpFeed, ScenarioItem, Source};
        use std::io::Write;
        let mut vps: Vec<_> = {
            let mut seen = std::collections::BTreeSet::new();
            kept.iter()
                .map(|u| u.vp)
                .filter(|vp| seen.insert(*vp))
                .collect()
        };
        // BmpFeed allocates router discriminators in Peer Up arrival
        // order, so register each AS's routers in rank order
        vps.sort_by_key(|vp| (vp.asn.value(), vp.router));
        let feed = BmpFeed::new(&vps);
        let mut sock = std::net::TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
        let send = |sock: &mut std::net::TcpStream, frame: &[u8]| {
            sock.write_all(frame).map_err(|e| format!("{addr}: {e}"))
        };
        send(&mut sock, &BmpFeed::initiation_frame("gill-replay"))?;
        let t0 = kept.first().map(|u| u.time.as_millis()).unwrap_or(0);
        for frame in feed.peer_up_frames(t0) {
            send(&mut sock, &frame)?;
        }
        let mut frames = 0usize;
        for u in &kept {
            let item = ScenarioItem {
                update: u.clone(),
                source: Source::Extra,
            };
            if let Some(frame) = feed.route_monitoring_frame(&item) {
                send(&mut sock, &frame)?;
                frames += 1;
            }
        }
        send(&mut sock, &BmpFeed::termination_frame())?;
        sock.flush().map_err(|e| e.to_string())?;
        println!(
            "bmp: sent {} peers + {frames} route-monitoring frames to {addr}",
            vps.len()
        );
    }
    if let Some(addr) = serve_addr {
        // Replay pacing / determinism knobs for the streaming endpoint.
        let repeat: usize = args.num("stream-repeat", 1)?;
        let wait_subs: usize = args.num("stream-wait-subs", 0)?;
        let interval_ms: u64 = args.num("stream-interval-ms", 0)?;
        let broker_defaults = BrokerConfig::default();
        let broker = StreamBroker::new(BrokerConfig {
            ring_capacity: args.num("ring-capacity", broker_defaults.ring_capacity)?,
            max_subscribers: args.num("max-subscribers", broker_defaults.max_subscribers)?,
        });

        let data_dir = args.optional("data-dir").map(PathBuf::from);
        let mut store = RouteStore::new(StoreConfig {
            mem_cap_bytes: args.num("store-mem-cap", 0)?,
            ..StoreConfig::default()
        });
        if let Some(dir) = &data_dir {
            if dir.exists() {
                let replayed = store.load_dir(dir).map_err(|e| e.to_string())?;
                if replayed > 0 {
                    println!("replayed {replayed} updates from {}", dir.display());
                }
            }
        }
        let n = kept.len();
        for u in &kept {
            store.ingest(u.clone());
        }
        if let Some(dir) = &data_dir {
            if let Some(path) = store.seal_all_into(dir).map_err(|e| e.to_string())? {
                println!("sealed new updates to {}", path.display());
            }
        }
        let store = Arc::new(parking_lot::RwLock::new(store));
        let server = serve_streaming(&addr, ServerConfig::default(), store, None, broker.clone())
            .map_err(|e| e.to_string())?;
        println!("serving {n} updates on http://{}", server.local_addr());

        if wait_subs > 0 {
            println!("waiting for {wait_subs} stream subscriber(s) before replaying");
            while broker.stats().subscribers < wait_subs {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        println!("replaying {n} updates x{repeat} into /stream/updates");
        for _ in 0..repeat {
            for u in &kept {
                broker.publish_always(u);
                if interval_ms > 0 {
                    std::thread::sleep(Duration::from_millis(interval_ms));
                }
            }
        }
        // Signals end-of-stream so `curl -N` clients exit cleanly; the query
        // endpoints stay up until the process is killed.
        broker.close();
        loop {
            std::thread::park();
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gill-replay --updates updates.mrt [--addpath v4,v6] \
                 [--filters filters.txt] \
                 [--out kept.mrt] [--bgp-to host:port] [--bmp-to host:port] \
                 [--serve host:port] [--data-dir dir] \
                 [--store-mem-cap bytes] [--stream-repeat n] \
                 [--stream-wait-subs n] [--stream-interval-ms ms] \
                 [--ring-capacity frames] [--max-subscribers n]"
            );
            ExitCode::FAILURE
        }
    }
}
