//! The evented runtime pool: a small fixed worker set, each running one
//! [`EventLoop`] over its own [`Reactor`], multiplexing thousands of
//! BGP and BMP sessions.
//!
//! Worker 0 additionally owns the listeners. Accepted connections are
//! capacity-checked (a 503-style shed: BGP peers get NOTIFICATION
//! Cease, BMP routers a close), made non-blocking, and dispatched
//! round-robin to the workers over crossbeam channels; the target
//! worker's [`Waker`] interrupts its readiness wait so admission is
//! immediate. Every session feeds the one shared [`DaemonPool`]
//! pipeline (filters → validate → sink → bounded queue).

use crate::eventloop::{EventLoop, LoopStats, Machine, LISTENER_TOKEN_BASE};
use crate::reactor::{Reactor, Token, Waker};
use crate::sys;
use bgp_wire::{BgpMessage, Notification};
use crossbeam::channel::{unbounded, Receiver, Sender};
use gill_bmp::config::BmpConfig;
use gill_bmp::fsm::{BmpFsm, BmpSessionConfig};
use gill_bmp::listener::BmpStats;
use gill_collector::daemon::{DaemonConfig, DaemonPool, DaemonStats, MessageStream, UpdateSink};
use gill_collector::fsm::{SessionFsm, SessionRole};
use gill_collector::transport::{SystemClock, Transport};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the evented runtime is shaped.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Event-loop worker threads (listeners live on worker 0).
    pub workers: usize,
    /// BGP listen address (`host:port`, port 0 for ephemeral); `None`
    /// runs without a BGP listener (e.g. BMP-only deployments).
    pub bgp_addr: Option<String>,
    /// BMP listener/policy configuration, if BMP ingest is wanted.
    pub bmp: Option<BmpConfig>,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            workers: 4,
            bgp_addr: Some("127.0.0.1:0".to_string()),
            bmp: None,
        }
    }
}

/// The protocol a listener speaks.
#[derive(Clone)]
enum Proto {
    Bgp,
    Bmp(BmpSessionConfig),
}

/// Work handed to an event-loop worker.
enum Cmd {
    /// An accepted stream and the live count it holds a slot in; the
    /// worker releases the slot if the stream never becomes a session.
    Admit(TcpStream, Proto, Arc<AtomicUsize>),
    Shutdown,
}

/// One bound listener and the session cap its accepts count against.
struct Listener {
    socket: TcpListener,
    token: Token,
    proto: Proto,
    /// Session cap (0 = unlimited) over `live`.
    cap: usize,
    live: Arc<AtomicUsize>,
}

/// Aggregated per-loop counters (sum over workers).
#[derive(Default, Debug, Clone, Copy)]
pub struct RuntimeTotals {
    /// Fds currently registered across all loops.
    pub registered: usize,
    /// Sessions currently multiplexed across all loops.
    pub sessions: usize,
    /// Readiness events processed.
    pub ready_events: usize,
    /// Timer fires delivered.
    pub timer_fires: usize,
    /// Cross-thread wakes observed.
    pub wakes: usize,
    /// Sessions admitted over all time.
    pub accepted: usize,
    /// Connections shed at accept by the session cap.
    pub accept_shed: usize,
}

/// The evented runtime: listeners + workers around a shared
/// [`DaemonPool`] pipeline.
pub struct EventedPool {
    pool: DaemonPool,
    bmp_stats: Arc<BmpStats>,
    loop_stats: Vec<Arc<LoopStats>>,
    txs: Vec<Sender<Cmd>>,
    wakers: Vec<Waker>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stopped: bool,
    active: Arc<AtomicUsize>,
    bgp_addr: Option<SocketAddr>,
    bmp_addrs: Vec<SocketAddr>,
}

/// Listener-side state owned by worker 0.
struct Acceptor {
    listeners: Vec<Listener>,
    txs: Vec<Sender<Cmd>>,
    wakers: Vec<Waker>,
    next: usize,
    stats: Arc<DaemonStats>,
    bmp_stats: Arc<BmpStats>,
    loop_stats: Arc<LoopStats>,
}

impl Acceptor {
    /// Drains one ready listener to `WouldBlock` (mandatory under edge
    /// triggering), shedding over-capacity connections and dispatching
    /// the rest round-robin.
    fn accept_burst(&mut self, token: Token) {
        let Some(l) = self.listeners.iter().find(|l| l.token == token) else {
            return;
        };
        loop {
            let mut stream = match l.socket.accept() {
                Ok((stream, _)) => stream,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if l.cap > 0 && l.live.load(Ordering::Relaxed) >= l.cap {
                self.loop_stats.accept_shed.fetch_add(1, Ordering::Relaxed);
                match l.proto {
                    Proto::Bgp => reject_over_capacity(stream, &self.stats),
                    Proto::Bmp(_) => {
                        self.bmp_stats
                            .accept_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        Transport::shutdown(&mut stream);
                    }
                }
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            l.live.fetch_add(1, Ordering::Relaxed);
            let i = self.next % self.txs.len();
            self.next = self.next.wrapping_add(1);
            match self.txs[i].send(Cmd::Admit(stream, l.proto.clone(), l.live.clone())) {
                Ok(()) => self.wakers[i].wake(),
                // the worker is gone: the stream never becomes a session
                Err(_) => {
                    l.live.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl EventedPool {
    /// Boots the evented runtime: builds the shared pipeline, binds the
    /// configured listeners, and spawns `rt.workers` event-loop
    /// threads. `sink` is the optional live-stream tee (as in
    /// [`DaemonPool::pipeline`]).
    pub fn start(
        cfg: DaemonConfig,
        rt: RuntimeConfig,
        sink: Option<Arc<dyn UpdateSink>>,
    ) -> io::Result<EventedPool> {
        let workers = rt.workers.max(1);
        // thousands of sessions means thousands of fds; ask for headroom
        let _ = sys::raise_nofile(65_536);
        let pool = DaemonPool::pipeline(cfg.clone(), sink);
        let bmp_stats = Arc::new(BmpStats::default());
        let active = Arc::new(AtomicUsize::new(0));
        let bmp_active = Arc::new(AtomicUsize::new(0));
        let known_peers = Arc::new(Mutex::new(HashSet::new()));
        let clock = Arc::new(SystemClock::new());

        let bgp_listener = match &rt.bgp_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let bgp_addr = bgp_listener.as_ref().map(|l| l.local_addr()).transpose()?;
        let mut listeners: Vec<Listener> = Vec::new();
        let mut listen = |socket, proto, cap, live: &Arc<AtomicUsize>| {
            let token = LISTENER_TOKEN_BASE + listeners.len() as Token;
            listeners.push(Listener {
                socket,
                token,
                proto,
                cap,
                live: live.clone(),
            });
        };
        if let Some(l) = bgp_listener {
            listen(l, Proto::Bgp, cfg.max_sessions, &active);
        }
        let mut bmp_addrs = Vec::new();
        if let Some(bmp_cfg) = &rt.bmp {
            for lst in &bmp_cfg.listeners {
                let l = TcpListener::bind(&lst.bind)?;
                bmp_addrs.push(l.local_addr()?);
                l.set_nonblocking(true)?;
                let session_cfg = BmpSessionConfig {
                    idle_timeout_ms: lst.idle_timeout_ms,
                    policy: bmp_cfg.policy.clone(),
                };
                let cap = bmp_cfg.max_sessions;
                listen(l, Proto::Bmp(session_cfg), cap, &bmp_active);
            }
        }

        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..workers {
            let (tx, rx) = unbounded::<Cmd>();
            txs.push(tx);
            rxs.push(rx);
        }
        let mut loops = Vec::new();
        let mut wakers = Vec::new();
        let mut loop_stats = Vec::new();
        for _ in 0..workers {
            let reactor = Reactor::new()?;
            let ctx = pool.session_ctx();
            let mut el: EventLoop<TcpStream, Reactor> =
                EventLoop::new(reactor, clock.clone(), ctx, bmp_stats.clone());
            el.set_active_counter(active.clone());
            el.set_bmp_active_counter(bmp_active.clone());
            el.set_known_peers(known_peers.clone());
            wakers.push(el.source_mut().waker());
            loop_stats.push(el.stats());
            loops.push(el);
        }

        // worker 0 owns the listeners
        for l in &listeners {
            loops[0].register_external(l.socket.as_raw_fd(), l.token)?;
        }
        let mut acceptor = (!listeners.is_empty()).then(|| Acceptor {
            listeners,
            txs: txs.clone(),
            wakers: wakers.clone(),
            next: 0,
            stats: pool.session_ctx().stats.clone(),
            bmp_stats: bmp_stats.clone(),
            loop_stats: loop_stats[0].clone(),
        });

        let mut handles = Vec::new();
        for (i, el) in loops.into_iter().enumerate() {
            let rx = rxs[i].clone();
            let acceptor = if i == 0 { acceptor.take() } else { None };
            let session_cfg = cfg.session_config();
            let clock = clock.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gill-evented-{i}"))
                    .spawn(move || worker_loop(el, rx, acceptor, session_cfg, clock))?,
            );
        }

        Ok(EventedPool {
            pool,
            bmp_stats,
            loop_stats,
            txs,
            wakers,
            workers: handles,
            stopped: false,
            active,
            bgp_addr,
            bmp_addrs,
        })
    }

    /// The shared pipeline (filters, counters, storage queue, §14
    /// services). Query layers and storage drains attach here.
    pub fn pool(&self) -> &DaemonPool {
        &self.pool
    }

    /// Mutable pipeline access (e.g. to attach an orchestrator).
    pub fn pool_mut(&mut self) -> &mut DaemonPool {
        &mut self.pool
    }

    /// Address BGP peers should connect to, when a listener is bound.
    pub fn bgp_addr(&self) -> Option<SocketAddr> {
        self.bgp_addr
    }

    /// Addresses BMP routers should connect to, one per listener.
    pub fn bmp_addrs(&self) -> &[SocketAddr] {
        &self.bmp_addrs
    }

    /// BGP pipeline counters (shared with every session).
    pub fn stats(&self) -> &DaemonStats {
        self.pool.stats()
    }

    /// BMP subsystem counters.
    pub fn bmp_stats(&self) -> &Arc<BmpStats> {
        &self.bmp_stats
    }

    /// Per-worker event-loop counters.
    pub fn loop_stats(&self) -> &[Arc<LoopStats>] {
        &self.loop_stats
    }

    /// Live BGP sessions across all loops.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Sums the per-loop counters.
    pub fn totals(&self) -> RuntimeTotals {
        let mut t = RuntimeTotals::default();
        for s in &self.loop_stats {
            t.registered += s.registered.load(Ordering::Relaxed);
            t.sessions += s.sessions.load(Ordering::Relaxed);
            t.ready_events += s.ready_events.load(Ordering::Relaxed);
            t.timer_fires += s.timer_fires.load(Ordering::Relaxed);
            t.wakes += s.wakes.load(Ordering::Relaxed);
            t.accepted += s.accepted.load(Ordering::Relaxed);
            t.accept_shed += s.accept_shed.load(Ordering::Relaxed);
        }
        t
    }

    /// Stops the runtime: listeners close with worker 0, every session
    /// winds down gracefully (BGP sends NOTIFICATION Cease), and the
    /// workers are joined with a bounded deadline. Then the pipeline
    /// stops too: [`DaemonPool::drain_into`] returns once the queue is
    /// empty.
    pub fn stop(&mut self) {
        if std::mem::replace(&mut self.stopped, true) {
            return;
        }
        for (tx, waker) in self.txs.iter().zip(&self.wakers) {
            let _ = tx.send(Cmd::Shutdown);
            waker.wake();
        }
        let handles = std::mem::take(&mut self.workers);
        let _stragglers = join_with_deadline(handles, Duration::from_secs(5));
        self.pool.stop();
    }
}

impl Drop for EventedPool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// 503-style accept rejection: the cap is reached, so tell the peer to
/// go away (NOTIFICATION Cease — the standard administrative-shutdown
/// signal) and close, without admitting anything.
fn reject_over_capacity(stream: TcpStream, stats: &DaemonStats) {
    stats.accept_rejected.fetch_add(1, Ordering::Relaxed);
    let mut ms = MessageStream::new(stream);
    let _ = ms.write_message(&BgpMessage::Notification(Notification::cease()));
    Transport::shutdown(ms.transport_mut());
}

/// Joins `handles` with a bounded deadline, polling completion; threads
/// still running when the deadline passes are detached (dropped), and
/// their count is returned.
fn join_with_deadline(mut handles: Vec<std::thread::JoinHandle<()>>, deadline: Duration) -> usize {
    let t0 = Instant::now();
    loop {
        handles = handles
            .into_iter()
            .filter_map(|h| {
                if h.is_finished() {
                    let _ = h.join();
                    None
                } else {
                    Some(h)
                }
            })
            .collect();
        if handles.is_empty() {
            return 0;
        }
        if t0.elapsed() >= deadline {
            return handles.len();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One worker thread: readiness turns, inbox admission, accept bursts
/// (worker 0), and the graceful drain on shutdown. An admitted stream
/// that never becomes a session (the worker is draining, or the stream
/// cannot be registered) gives its slot back.
fn worker_loop(
    mut el: EventLoop<TcpStream, Reactor>,
    rx: Receiver<Cmd>,
    mut acceptor: Option<Acceptor>,
    session_cfg: gill_collector::fsm::SessionConfig,
    clock: Arc<SystemClock>,
) {
    use gill_collector::transport::Clock;
    let mut other = Vec::new();
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    loop {
        other.clear();
        if el.run_once(Some(50), &mut other).is_err() {
            break;
        }
        if let Some(acc) = &mut acceptor {
            for ev in &other {
                if ev.token >= LISTENER_TOKEN_BASE && ev.token != crate::reactor::WAKE_TOKEN {
                    acc.accept_burst(ev.token);
                }
            }
        }
        while let Ok(cmd) = rx.try_recv() {
            match cmd {
                Cmd::Admit(_, _, live) if draining => {
                    live.fetch_sub(1, Ordering::Relaxed);
                }
                Cmd::Admit(stream, proto, _) => {
                    let fd = stream.as_raw_fd();
                    let machine = match proto {
                        Proto::Bgp => {
                            Machine::Bgp(SessionFsm::new(SessionRole::Passive, session_cfg))
                        }
                        Proto::Bmp(scfg) => Machine::Bmp(BmpFsm::new(scfg, clock.now_ms())),
                    };
                    // on failure the loop has released the slot
                    let _ = el.add_session(stream, Some(fd), machine);
                }
                Cmd::Shutdown => {
                    if !draining {
                        draining = true;
                        drain_deadline = Instant::now() + Duration::from_secs(2);
                        // listeners close with the acceptor
                        acceptor = None;
                        el.graceful_close_all();
                    }
                }
            }
        }
        if draining && (el.session_count() == 0 || Instant::now() >= drain_deadline) {
            break;
        }
    }
    // admissions still queued never become sessions
    while let Ok(cmd) = rx.try_recv() {
        if let Cmd::Admit(_, _, live) = cmd {
            live.fetch_sub(1, Ordering::Relaxed);
        }
    }
}
