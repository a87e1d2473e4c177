//! # GILL — redundancy-aware BGP data collection
//!
//! A from-scratch Rust reproduction of *"The Next Generation of BGP Data
//! Collection Platforms"* (ACM SIGCOMM 2024). This facade crate re-exports
//! every subsystem of the workspace under one roof:
//!
//! * [`types`] — BGP value types (prefixes, AS paths, communities, updates,
//!   RIBs).
//! * [`wire`] — RFC 4271 message codec and MRT (RFC 6396) storage format.
//! * [`topology`] — AS-topology generation with Gao–Rexford relationships
//!   and the graph features used by anchor-VP selection.
//! * [`sim`] — a C-BGP-like route-propagation simulator and event engine
//!   that synthesizes realistic BGP update streams.
//! * [`core`] — the paper's contribution: redundancy definitions,
//!   correlation groups, reconstitution power, anchor-VP selection, and
//!   filter generation.
//! * [`sampling`] — GILL's sampling scheme plus every baseline of §10.
//! * [`use_cases`] — the canonical BGP analyses used for evaluation.
//! * [`collector`] — the collection platform: per-peer BGP daemons and the
//!   orchestrator.
//! * [`bmp`] — BMP (RFC 7854) ingestion: one session carries a router's
//!   view of many monitored BGP peers into the same pipeline.
//! * [`query`] — the serving half: time-indexed route store and the
//!   looking-glass HTTP query API (bgproutes.io's role in §9).
//! * [`runtime`] — the readiness-driven session runtime: an epoll/poll
//!   reactor, ordered timer map, and evented pool multiplexing thousands of
//!   BGP/BMP sessions over a small fixed worker set.
//! * [`scenario`] — seeded adversarial-workload engine: bursty background
//!   traffic plus campaign generators with ground truth, driving the
//!   full-pipeline soak harness in [`soak`].
//! * [`soak`] — the end-to-end soak: scenario → sessions → FSM → filters →
//!   store → broker → query, with continuously asserted invariants.
//!
//! ## Quickstart
//!
//! ```
//! use gill::prelude::*;
//!
//! // 1. Generate a small Internet and simulate routing events.
//! let topo = TopologyBuilder::artificial(200, 42).build();
//! let mut sim = Simulator::new(&topo);
//! let vps = topo.pick_vps(0.25, 7);
//! let stream = sim.synthesize_stream(&vps, StreamConfig::default().events(40).seed(7));
//!
//! // 2. Run GILL's redundancy analysis and generate filters.
//! let analysis = GillAnalysis::run(&stream, &GillConfig::default());
//! let filters = analysis.filter_set();
//!
//! // 3. Filter a fresh stream: redundant updates are discarded.
//! let fresh = sim.synthesize_stream(&vps, StreamConfig::default().events(40).seed(8));
//! let kept = fresh.updates.iter().filter(|u| filters.accepts(u)).count();
//! assert!(kept <= fresh.updates.len());
//! ```

pub mod cli;
pub mod soak;

pub use as_topology as topology;
pub use bgp_sim as sim;
pub use bgp_types as types;
pub use bgp_wire as wire;
pub use gill_bmp as bmp;
pub use gill_collector as collector;
pub use gill_core as core;
pub use gill_query as query;
pub use gill_runtime as runtime;
pub use gill_scenario as scenario;
pub use gill_stream as stream;
pub use sampling;
pub use use_cases;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::core::{
        AnchorConfig, AnchorSelection, FilterSet, GillAnalysis, GillConfig, RedundancyDef,
    };
    pub use crate::sim::{EventKind, Simulator, StreamConfig, UpdateStream};
    pub use crate::topology::{AsCategory, Relationship, Topology, TopologyBuilder};
    pub use crate::types::{
        AsPath, Asn, BgpUpdate, Community, Link, Prefix, Rib, Timestamp, UpdateBuilder, UpdateKind,
        VpId,
    };
}
