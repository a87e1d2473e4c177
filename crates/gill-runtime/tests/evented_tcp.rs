//! End-to-end tests for the evented runtime over real TCP: BGP peers and
//! BMP routers against an [`EventedPool`], asserting the shared pipeline
//! counters, the accept-cap shed path, and the bounded-deadline
//! shutdown.

use bgp_types::{Asn, Prefix, UpdateBuilder, VpId};
use bgp_wire::{BgpMessage, Notification, UpdateMessage};
use gill_collector::daemon::{handshake_client, DaemonConfig, MessageStream};
use gill_collector::transport::Transport;
use gill_runtime::{EventedPool, RuntimeConfig};
use gill_scenario::{
    BackgroundConfig, BmpFeed, ScenarioConfig, ScenarioEngine, ScenarioItem, World,
};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn daemon_cfg() -> DaemonConfig {
    DaemonConfig {
        local_asn: 65535,
        queue_capacity: 4096,
        ..DaemonConfig::default()
    }
}

/// Polls `cond` for up to ~5 s.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    for _ in 0..500 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn send_updates(addr: std::net::SocketAddr, asn: u32, prefixes: &[u32]) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut ms = MessageStream::new(stream);
    handshake_client(&mut ms, asn).unwrap();
    for &p in prefixes {
        let u = UpdateBuilder::announce(VpId::from_asn(Asn(asn)), Prefix::synthetic(p))
            .path([asn, 2, 3])
            .build();
        let wire = UpdateMessage::from_domain(&u).unwrap();
        ms.write_message(&BgpMessage::Update(wire)).unwrap();
    }
    ms.write_message(&BgpMessage::Notification(Notification::cease()))
        .unwrap();
}

#[test]
fn bgp_sessions_flow_through_the_evented_pipeline() {
    let mut pool = EventedPool::start(
        daemon_cfg(),
        RuntimeConfig {
            workers: 2,
            bgp_addr: Some("127.0.0.1:0".into()),
            bmp: None,
        },
        None,
    )
    .unwrap();
    let addr = pool.bgp_addr().unwrap();

    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                send_updates(addr, 65001 + i, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    assert!(
        wait_until(|| pool.stats().received.load(Ordering::Relaxed) >= 80),
        "evented pipeline saw {} of 80 updates",
        pool.stats().received.load(Ordering::Relaxed)
    );
    assert!(wait_until(|| {
        pool.stats().sessions_closed.load(Ordering::Relaxed) >= 8
    }));
    assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 8);
    assert_eq!(pool.stats().received.load(Ordering::Relaxed), 80);
    // no filters installed: everything received was retained
    assert_eq!(pool.stats().retained.load(Ordering::Relaxed), 80);
    let totals = pool.totals();
    assert_eq!(totals.accepted, 8, "every session admitted to a loop");
    assert!(totals.ready_events > 0);

    pool.stop();
    assert_eq!(pool.totals().sessions, 0, "all sessions drained on stop");
}

#[test]
fn accept_cap_rejects_with_notification_cease() {
    let mut pool = EventedPool::start(
        DaemonConfig {
            max_sessions: 2,
            ..daemon_cfg()
        },
        RuntimeConfig {
            workers: 1,
            bgp_addr: Some("127.0.0.1:0".into()),
            bmp: None,
        },
        None,
    )
    .unwrap();
    let addr = pool.bgp_addr().unwrap();

    // fill the cap with two held-open sessions
    let mut held = Vec::new();
    for i in 0..2 {
        let stream = TcpStream::connect(addr).unwrap();
        let mut ms = MessageStream::new(stream);
        handshake_client(&mut ms, 65101 + i).unwrap();
        held.push(ms);
    }
    assert!(wait_until(|| pool.active_sessions() == 2));

    // the third connection is told to go away before any handshake
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut ms = MessageStream::new(stream);
    match ms.read_message() {
        Ok(Some(BgpMessage::Notification(n))) => {
            assert_eq!(n.code, 6, "NOTIFICATION must be Cease, got code {}", n.code);
        }
        other => panic!("expected NOTIFICATION Cease at accept, got {other:?}"),
    }
    assert!(wait_until(|| {
        pool.stats().accept_rejected.load(Ordering::Relaxed) == 1
    }));
    assert_eq!(pool.totals().accept_shed, 1);

    // capacity frees up once a held session closes
    drop(held.pop());
    assert!(wait_until(|| pool.active_sessions() == 1));
    let stream = TcpStream::connect(addr).unwrap();
    let mut ms = MessageStream::new(stream);
    handshake_client(&mut ms, 65111).unwrap();
    assert!(wait_until(|| pool.active_sessions() == 2));
    pool.stop();
}

/// Builds one BMP session script (Initiation, Peer Ups, Route
/// Monitoring, Termination) and the expected update count.
fn bmp_script() -> (Vec<Vec<u8>>, usize) {
    let world = World {
        n_vps: 4,
        n_prefixes: 64,
        seed: 0xeb1,
        dual_stack: false,
    };
    let background = BackgroundConfig::default();
    let duration_ms = background.duration_for(200);
    let cfg = ScenarioConfig {
        world,
        background,
        duration_ms,
        campaigns: Vec::new(),
        seed: 11,
    };
    let items: Vec<ScenarioItem> = ScenarioEngine::new(&cfg).collect();
    let vps: Vec<_> = (0..4).map(|i| world.vp(i)).collect();
    let feed = BmpFeed::new(&vps);
    let mut frames = vec![BmpFeed::initiation_frame("evented-test")];
    frames.extend(feed.peer_up_frames(0));
    let mut updates = 0;
    for item in &items {
        if let Some(f) = feed.route_monitoring_frame(item) {
            frames.push(f);
            updates += 1;
        }
    }
    frames.push(BmpFeed::termination_frame());
    (frames, updates)
}

#[test]
fn bmp_routers_feed_the_same_pipeline() {
    let (frames, updates) = bmp_script();
    assert!(updates > 0, "scenario produced no monitored updates");
    let mut pool = EventedPool::start(
        daemon_cfg(),
        RuntimeConfig {
            workers: 2,
            bgp_addr: None,
            bmp: Some(gill_bmp::config::BmpConfig::single("127.0.0.1:0")),
        },
        None,
    )
    .unwrap();
    let addr = pool.bmp_addrs()[0];

    let mut router = TcpStream::connect(addr).unwrap();
    for f in &frames {
        router.write_all(f).unwrap();
    }

    assert!(
        wait_until(|| pool.bmp_stats().updates.load(Ordering::Relaxed) >= updates),
        "bmp updates: {} of {updates}",
        pool.bmp_stats().updates.load(Ordering::Relaxed)
    );
    assert!(wait_until(|| {
        pool.bmp_stats().sessions_closed.load(Ordering::Relaxed) == 1
    }));
    assert_eq!(pool.bmp_stats().sessions_opened.load(Ordering::Relaxed), 1);
    assert_eq!(pool.bmp_stats().peers_up.load(Ordering::Relaxed), 4);
    assert_eq!(pool.bmp_stats().terminations.load(Ordering::Relaxed), 1);
    assert_eq!(pool.bmp_stats().unknown_peer.load(Ordering::Relaxed), 0);
    // the shared pipeline counted the same updates as the BMP ledger
    assert_eq!(pool.stats().received.load(Ordering::Relaxed), updates);
    pool.stop();
}

#[test]
fn stop_winds_down_open_sessions_with_a_bounded_deadline() {
    let mut pool = EventedPool::start(
        daemon_cfg(),
        RuntimeConfig {
            workers: 2,
            bgp_addr: Some("127.0.0.1:0".into()),
            bmp: None,
        },
        None,
    )
    .unwrap();
    let addr = pool.bgp_addr().unwrap();

    let mut held = Vec::new();
    for i in 0..4 {
        let stream = TcpStream::connect(addr).unwrap();
        let mut ms = MessageStream::new(stream);
        handshake_client(&mut ms, 65201 + i).unwrap();
        held.push(ms);
    }
    assert!(wait_until(|| pool.active_sessions() == 4));

    let t0 = std::time::Instant::now();
    pool.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "stop took {:?}",
        t0.elapsed()
    );
    assert_eq!(pool.totals().sessions, 0, "sessions drained");
    assert_eq!(pool.active_sessions(), 0);

    // each held peer got the parting NOTIFICATION Cease (graceful close)
    for ms in &mut held {
        ms.transport_mut()
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        match ms.read_message() {
            Ok(Some(BgpMessage::Notification(n))) => assert_eq!(n.code, 6),
            other => panic!("expected parting NOTIFICATION, got {other:?}"),
        }
    }
}
