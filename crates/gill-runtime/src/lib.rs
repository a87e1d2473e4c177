//! gill-runtime — the collector's session runtime.
//!
//! A route collector peering with thousands of vantage points cannot
//! afford one OS thread per session: thousands of stacks and a
//! scheduler thrashing between them. This crate is the only code that
//! accepts and drives BGP and BMP sockets, and it multiplexes all of
//! those sessions onto a small fixed worker set, without touching the
//! protocol logic: the sans-I/O `SessionFsm` and `BmpFsm` already
//! speak byte-in/byte-out, so the runtime only decides *when* bytes
//! and ticks happen.
//!
//! Layers, bottom up:
//!
//! - [`sys`] — the only unsafe code: direct `extern "C"` bindings to
//!   epoll (Linux) and poll(2), an eventfd/pipe waker, and the
//!   RLIMIT_NOFILE raise. No external crates.
//! - [`timer`] — [`Timers`], one `BTreeMap` keyed by `(deadline, arm
//!   id)` for hold/keepalive/idle deadlines: O(log n) arm, cancel and
//!   earliest-deadline lookup, deterministic fire order `(deadline, arm
//!   id)`, and only live timers held.
//! - [`reactor`] — [`reactor::Reactor`], the readiness source:
//!   edge-triggered epoll with a level-triggered poll(2) fallback, and
//!   cross-thread [`reactor::Waker`]s. The [`ReadinessSource`] trait
//!   abstracts it so...
//! - [`sim`] — ...[`sim::SimReactor`] can replay scripted readiness
//!   batches (including spurious wakeups) deterministically in tests.
//! - [`conn`] — [`conn::EventedConn`], per-connection buffering
//!   between a non-blocking transport and an FSM: drain-to-WouldBlock
//!   reads (mandatory under edge triggering), partial-write output
//!   queueing.
//! - [`eventloop`] — [`eventloop::EventLoop`], one thread's worth of
//!   multiplexing: slab of sessions, the timers, readiness dispatch,
//!   and the `DaemonStats` / `BmpStats` session counters.
//! - [`pool`] — [`pool::EventedPool`], the deployable shape: worker 0
//!   owns the listeners, accepted connections are capacity-checked and
//!   dispatched round-robin, everything feeds one shared `DaemonPool`
//!   pipeline.
//!
//! [`ReadinessSource`]: reactor::ReadinessSource

pub mod conn;
pub mod eventloop;
pub mod pool;
pub mod reactor;
pub mod sim;
pub mod sys;
pub mod timer;

pub use conn::EventedConn;
pub use eventloop::{EventLoop, LoopStats, Machine, LISTENER_TOKEN_BASE};
pub use pool::{EventedPool, RuntimeConfig, RuntimeTotals};
pub use reactor::{Event, Interest, Reactor, ReadinessSource, Token, Waker, WAKE_TOKEN};
pub use sim::SimReactor;
pub use timer::{Expired, TimerId, Timers};
