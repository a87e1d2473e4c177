//! The collection pipeline behind real TCP BGP sessions: storage,
//! filters, overload loss, session accounting, the §14 services, and
//! the §8 fake peers — every session accepted and driven by an
//! [`EventedPool`].

use bgp_types::{Asn, BgpUpdate, Link, Prefix, UpdateBuilder, VpId};
use bgp_wire::{BgpMessage, Notification, UpdateMessage};
use gill_collector::daemon::{handshake_client, DaemonConfig, MessageStream};
use gill_collector::forwarding::ForwardRule;
use gill_collector::peer::{run_fake_peer, run_resilient_peer, FakePeerConfig};
use gill_collector::storage::MemoryStorage;
use gill_collector::transport::BackoffPolicy;
use gill_core::{FilterGranularity, FilterSet};
use gill_runtime::{EventedPool, RuntimeConfig};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Boots a two-worker pool with a BGP listener on `addr`.
fn start_on(addr: &str, cfg: DaemonConfig) -> EventedPool {
    EventedPool::start(
        cfg,
        RuntimeConfig {
            workers: 2,
            bgp_addr: Some(addr.into()),
            bmp: None,
        },
        None,
    )
    .unwrap()
}

fn start(cfg: DaemonConfig) -> (EventedPool, SocketAddr) {
    let pool = start_on("127.0.0.1:0", cfg);
    let addr = pool.bgp_addr().unwrap();
    (pool, addr)
}

/// Stops the pool, then drains what was retained.
fn stop_and_drain(pool: &mut EventedPool) -> MemoryStorage {
    pool.stop();
    let mut storage = MemoryStorage::default();
    pool.pool().drain_into(&mut storage);
    storage
}

fn send_raw(addr: SocketAddr, asn: u32, updates: Vec<BgpUpdate>) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut ms = MessageStream::new(stream);
    handshake_client(&mut ms, asn).unwrap();
    for u in updates {
        let wire = UpdateMessage::from_domain(&u).unwrap();
        ms.write_message(&BgpMessage::Update(wire)).unwrap();
    }
    // graceful close
    ms.write_message(&BgpMessage::Notification(Notification::cease()))
        .unwrap();
}

fn send_updates(addr: SocketAddr, asn: u32, prefixes: &[u32]) {
    let updates = prefixes
        .iter()
        .map(|&p| {
            UpdateBuilder::announce(VpId::from_asn(Asn(asn)), Prefix::synthetic(p))
                .path([asn, 2, 3])
                .build()
        })
        .collect();
    send_raw(addr, asn, updates);
}

/// Waits until `cond` holds (bounded, for counters without a channel).
fn wait_until(cond: impl Fn() -> bool) -> bool {
    for _ in 0..500 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Waits until the pool has received `expect` updates (bounded wait).
fn wait_received(pool: &EventedPool, expect: usize) {
    wait_until(|| pool.stats().received.load(Ordering::Relaxed) >= expect);
}

#[test]
fn end_to_end_session_stores_updates() {
    let (mut pool, addr) = start(DaemonConfig::default());
    std::thread::spawn(move || send_updates(addr, 65001, &[1, 2, 3]))
        .join()
        .unwrap();
    wait_received(&pool, 3);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 3);
    assert_eq!(pool.stats().received.load(Ordering::Relaxed), 3);
    assert_eq!(pool.stats().retained.load(Ordering::Relaxed), 3);
    assert_eq!(pool.stats().lost.load(Ordering::Relaxed), 0);
    assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 1);
    // VP identity comes from the OPEN handshake
    assert!(storage
        .updates
        .iter()
        .all(|u| u.vp == VpId::from_asn(Asn(65001))));
}

#[test]
fn filters_drop_matching_updates() {
    let (mut pool, addr) = start(DaemonConfig::default());
    // drop (vp 65002, prefix 1)
    let template = UpdateBuilder::announce(VpId::from_asn(Asn(65002)), Prefix::synthetic(1))
        .path([65002, 9])
        .build();
    pool.pool().install_filters(FilterSet::generate(
        [],
        [&template],
        FilterGranularity::VpPrefix,
    ));
    std::thread::spawn(move || send_updates(addr, 65002, &[1, 2]))
        .join()
        .unwrap();
    wait_received(&pool, 2);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 1);
    assert_eq!(pool.stats().filtered.load(Ordering::Relaxed), 1);
    assert_eq!(storage.updates[0].prefix, Prefix::synthetic(2));
}

#[test]
fn overload_counts_losses() {
    let (mut pool, addr) = start(DaemonConfig {
        queue_capacity: 4,
        ..DaemonConfig::default()
    });
    // nobody drains the queue while 50 updates arrive
    std::thread::spawn(move || send_updates(addr, 65003, &(0..50).collect::<Vec<_>>()))
        .join()
        .unwrap();
    wait_received(&pool, 50);
    pool.stop();
    let lost = pool.stats().lost.load(Ordering::Relaxed);
    let retained = pool.stats().retained.load(Ordering::Relaxed);
    assert_eq!(retained, 4, "queue capacity bounds retained");
    assert_eq!(lost, 46);
    assert!(pool.stats().loss_rate() > 0.9);
}

#[test]
fn multiple_concurrent_peers() {
    let (mut pool, addr) = start(DaemonConfig::default());
    let handles: Vec<_> = (0..8)
        .map(|k| std::thread::spawn(move || send_updates(addr, 65100 + k, &[k, k + 1])))
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    wait_received(&pool, 16);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 16);
    let vps: std::collections::BTreeSet<VpId> = storage.updates.iter().map(|u| u.vp).collect();
    assert_eq!(vps.len(), 8);
    assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 8);
}

#[test]
fn garbage_handshake_counts_as_failure() {
    let (mut pool, addr) = start(DaemonConfig::default());
    {
        let mut s = TcpStream::connect(addr).unwrap();
        std::io::Write::write_all(&mut s, b"not a bgp open").unwrap();
    }
    assert!(
        wait_until(|| pool.stats().handshake_failures.load(Ordering::Relaxed) >= 1),
        "garbage handshake must be counted"
    );
    pool.stop();
    assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 0);
}

#[test]
fn same_peer_reconnecting_is_counted() {
    let (mut pool, addr) = start(DaemonConfig::default());
    for round in 0..2 {
        std::thread::spawn(move || send_updates(addr, 65042, &[round]))
            .join()
            .unwrap();
        wait_received(&pool, round as usize + 1);
    }
    assert!(
        wait_until(|| pool.stats().sessions_closed.load(Ordering::Relaxed) >= 2),
        "both sessions should close"
    );
    pool.stop();
    assert_eq!(pool.stats().sessions_opened.load(Ordering::Relaxed), 2);
    assert_eq!(pool.stats().reconnects.load(Ordering::Relaxed), 1);
}

#[test]
fn validation_drops_spoofed_first_hop() {
    let (mut pool, addr) = start(DaemonConfig {
        validate: true,
        ..DaemonConfig::default()
    });
    pool.pool().seed_validator([Link::new(Asn(2), Asn(3))]);
    let vp = VpId::from_asn(Asn(65001));
    let good = UpdateBuilder::announce(vp, Prefix::synthetic(1))
        .path([65001, 2, 3])
        .build();
    // path does not start with the peering AS: spoofed
    let spoofed = UpdateBuilder::announce(vp, Prefix::synthetic(2))
        .path([9999, 2, 3])
        .build();
    std::thread::spawn(move || send_raw(addr, 65001, vec![good, spoofed]))
        .join()
        .unwrap();
    wait_received(&pool, 2);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 1, "spoofed update must be dropped");
    assert_eq!(pool.stats().invalid.load(Ordering::Relaxed), 1);
    assert_eq!(storage.updates[0].prefix, Prefix::synthetic(1));
}

#[test]
fn forwarding_tee_bypasses_filters() {
    let (mut pool, addr) = start(DaemonConfig::default());
    // filters drop everything this peer sends for prefix 1
    let vp = VpId::from_asn(Asn(65002));
    let template = UpdateBuilder::announce(vp, Prefix::synthetic(1))
        .path([65002, 2])
        .build();
    pool.pool().install_filters(FilterSet::generate(
        [],
        [&template],
        FilterGranularity::VpPrefix,
    ));
    // ...but the operator subscribed to that prefix
    let (_, sub) = pool
        .pool()
        .subscribe(vec![ForwardRule::for_prefix(Prefix::synthetic(1))]);
    let u = UpdateBuilder::announce(vp, Prefix::synthetic(1))
        .path([65002, 9, 4])
        .build();
    std::thread::spawn(move || send_raw(addr, 65002, vec![u]))
        .join()
        .unwrap();
    wait_received(&pool, 1);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 0, "filters discarded the update");
    let got: Vec<_> = sub.feed.try_iter().collect();
    assert_eq!(got.len(), 1, "but the subscriber still received it");
    assert_eq!(pool.stats().forwarded.load(Ordering::Relaxed), 1);
}

#[test]
fn fake_peer_delivers_at_roughly_the_configured_rate() {
    let (mut pool, addr) = start(DaemonConfig::default());
    let cfg = FakePeerConfig {
        asn: 65009,
        rate_per_sec: 200.0,
        count: 40,
        prefixes: 10,
    };
    let begin = Instant::now();
    let sent = std::thread::spawn(move || run_fake_peer(addr, &cfg).unwrap())
        .join()
        .unwrap();
    let elapsed = begin.elapsed();
    assert_eq!(sent, 40);
    // 40 updates at 200/s ≈ 200 ms; allow generous slack
    assert!(elapsed >= Duration::from_millis(150), "{elapsed:?}");
    // deterministic drain: wait on the counter, not wall-clock time
    wait_received(&pool, 40);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 40);
}

#[test]
fn resilient_peer_retries_until_the_collector_appears() {
    // reserve a port, then close the listener: connects will fail
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let cfg = FakePeerConfig {
        asn: 65021,
        rate_per_sec: 0.0,
        count: 5,
        prefixes: 5,
    };
    let backoff = BackoffPolicy {
        base_ms: 20,
        cap_ms: 100,
        seed: 3,
    };
    let peer = std::thread::spawn(move || run_resilient_peer(addr, &cfg, backoff, 50));
    // let a few attempts fail, then start the pool on that port
    std::thread::sleep(Duration::from_millis(60));
    let mut pool = start_on(&addr.to_string(), DaemonConfig::default());
    let report = peer.join().unwrap().unwrap();
    assert!(report.attempts > 1, "at least one retry expected");
    assert_eq!(report.sent, 5);
    assert!(report.backoff_ms > 0);
    wait_received(&pool, 5);
    let storage = stop_and_drain(&mut pool);
    assert_eq!(storage.updates.len(), 5);
}
