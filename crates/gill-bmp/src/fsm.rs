//! The sans-I/O BMP session state machine.
//!
//! Like the BGP `SessionFsm`, this is a pure state machine: callers feed
//! it bytes ([`BmpFsm::handle_bytes`]), EOF ([`BmpFsm::handle_eof`]) and
//! timer ticks ([`BmpFsm::tick`]), and drain typed events
//! ([`BmpFsm::poll_event`]). It performs no I/O and reads no clocks, so
//! the same machine runs over TCP, over `SimTransport` fault schedules,
//! and inside the deterministic soak harness with bit-identical behavior.
//! BMP is one-way — the monitoring station never sends — so unlike the
//! BGP FSM there is no output buffer.
//!
//! ```text
//!                 Initiation             Termination / EOF / error
//! AwaitInitiation ----------->  Active  --------------------------> Closed
//!        |                     |      ^
//!        | any other msg       | PeerUp: demux[key] = VpId
//!        v                     | PeerDown: demux.remove(key)
//!      Closed                  | RouteMonitoring: demux lookup -> Update event
//! ```
//!
//! **Demux.** One BMP session multiplexes many monitored BGP peers. Each
//! is keyed by [`PeerKey`] — (peer address, route distinguisher, peer
//! ASN) from the per-peer header — and mapped to a [`VpId`] when its Peer
//! Up arrives. Router discriminators are allocated per ASN in Peer Up
//! arrival order (the first peer of AS x is `vp(ASx)`, the second
//! `vp(ASx#1)`, …) unless a config override pins one. Route Monitoring
//! for a peer with no live Peer Up is dropped and counted, never guessed.
//!
//! **Peer Down teardown.** Peer Down removes the demux entry: later
//! updates attributed to that key are unknown-peer drops until a fresh
//! Peer Up re-registers it (possibly with a new discriminator — a new
//! session of the same peer is a new VP epoch, not a silent resume).

use crate::codec::{info_type, tlv_text, BmpError, BmpMessage, StatCounter};
use crate::config::PeerPolicy;
use bgp_types::{Asn, FamilySet, VpId};
use bgp_wire::{OpenMessage, UpdateMessage};
use bytes::BytesMut;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Session states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BmpState {
    /// Waiting for the mandatory Initiation message.
    AwaitInitiation,
    /// Initiation seen; monitoring messages flow.
    Active,
    /// Session over (terminated, closed, or errored).
    Closed,
}

/// Why a BMP session ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmpCloseReason {
    /// The router sent a Termination message (clean shutdown).
    Terminated,
    /// EOF at a frame boundary.
    PeerClosed,
    /// EOF mid-frame.
    PeerClosedMidMessage,
    /// No bytes arrived within the configured idle timeout (half-open
    /// peer; BMP has no keepalive, so silence is the only signal).
    IdleTimeout,
    /// A frame failed to decode.
    DecodeError(BmpError),
    /// The peer broke protocol (e.g. monitoring before Initiation).
    ProtocolError(&'static str),
}

impl fmt::Display for BmpCloseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmpCloseReason::Terminated => write!(f, "terminated by router"),
            BmpCloseReason::PeerClosed => write!(f, "peer closed"),
            BmpCloseReason::PeerClosedMidMessage => write!(f, "peer closed mid-message"),
            BmpCloseReason::IdleTimeout => write!(f, "idle timeout"),
            BmpCloseReason::DecodeError(e) => write!(f, "decode error: {e}"),
            BmpCloseReason::ProtocolError(w) => write!(f, "protocol error: {w}"),
        }
    }
}

/// Identity of one monitored peer within a BMP session: the demux key.
///
/// RFC 7854 distinguishes peers by address *and* peer distinguisher (the
/// route distinguisher for RD-instance peers); the ASN is included so a
/// renumbered peer at the same address is a distinct identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerKey {
    /// Peer address from the per-peer header.
    pub address: [u8; 16],
    /// Peer distinguisher (0 outside RD instances).
    pub distinguisher: u64,
    /// Peer AS number.
    pub asn: u32,
}

impl PeerKey {
    /// The key of a per-peer header.
    pub fn of(peer: &crate::codec::PeerHeader) -> PeerKey {
        PeerKey {
            address: peer.address,
            distinguisher: peer.distinguisher,
            asn: peer.asn,
        }
    }
}

impl fmt::Debug for PeerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = crate::codec::PeerHeader {
            peer_type: 0,
            flags: 0,
            distinguisher: self.distinguisher,
            address: self.address,
            asn: self.asn,
            bgp_id: 0,
            ts_sec: 0,
            ts_usec: 0,
        };
        write!(f, "peer(AS{} {}", self.asn, p.addr_string())?;
        if self.distinguisher != 0 {
            write!(f, " rd={}", self.distinguisher)?;
        }
        write!(f, ")")
    }
}

/// Events a BMP session produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmpEvent {
    /// Initiation arrived; the session is active.
    SessionStarted {
        /// The router's sysName TLV, if sent.
        sys_name: Option<String>,
        /// The router's sysDescr TLV, if sent.
        sys_descr: Option<String>,
    },
    /// A monitored peer came up and was registered in the demux table.
    PeerUp {
        /// The vantage point assigned to the peer.
        vp: VpId,
        /// The peer's demux key.
        key: PeerKey,
        /// Operator-assigned name (config override, else the Peer Up's
        /// type-0 info TLV).
        name: Option<String>,
        /// Multiprotocol families both OPENs in the Peer Up advertised
        /// (empty for a legacy v4-only monitored session).
        families: bgp_types::FamilySet,
        /// Families with ADD-PATH negotiated on the monitored session;
        /// this peer's Route Monitoring NLRI carries path identifiers.
        add_paths: bgp_types::FamilySet,
    },
    /// A monitored peer went down and was removed from the demux table.
    PeerDown {
        /// The vantage point that disappeared.
        vp: VpId,
        /// The peer's demux key.
        key: PeerKey,
        /// RFC 7854 reason code (1–5).
        reason: u8,
    },
    /// A monitored peer's UPDATE, attributed to its vantage point.
    Update {
        /// The originating vantage point.
        vp: VpId,
        /// The decoded UPDATE.
        update: UpdateMessage,
        /// Reception time in ms: the per-peer header timestamp when the
        /// router supplied one, else the local receive time.
        ts_ms: u64,
    },
    /// A Stats Report for a registered peer.
    Stats {
        /// The peer the counters concern.
        vp: VpId,
        /// The counters.
        stats: Vec<StatCounter>,
    },
    /// The session ended.
    Closed(BmpCloseReason),
}

/// Per-session message counters, mirrored into the shared
/// [`crate::listener::BmpStats`] ledger by the session runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BmpLedger {
    /// Frames decoded (all types).
    pub messages: u64,
    /// Route Monitoring frames decoded.
    pub route_monitoring: u64,
    /// Peer Up frames accepted into the demux table.
    pub peer_ups: u64,
    /// Peer Down frames that tore down a registered peer.
    pub peer_downs: u64,
    /// Stats Report frames for registered peers.
    pub stats_reports: u64,
    /// Route Monitoring / Stats / Peer Down frames for peers with no live
    /// Peer Up (dropped, never guessed).
    pub unknown_peer: u64,
    /// Peer Up frames for an already-registered key (kept the existing
    /// mapping).
    pub duplicate_peer_ups: u64,
    /// Peer Up frames rejected by the ASN allowlist.
    pub denied_peers: u64,
}

/// Per-session configuration.
#[derive(Clone, Debug, Default)]
pub struct BmpSessionConfig {
    /// Close the session when no bytes arrive for this many ms (0
    /// disables — BMP has no keepalive of its own).
    pub idle_timeout_ms: u64,
    /// Peer allowlist and per-address overrides.
    pub policy: PeerPolicy,
}

/// The sans-I/O BMP session machine. See the module docs for the state
/// graph and demux semantics.
pub struct BmpFsm {
    cfg: BmpSessionConfig,
    state: BmpState,
    buf: BytesMut,
    events: VecDeque<BmpEvent>,
    demux: HashMap<PeerKey, VpId>,
    /// Per-peer UPDATE decode context, negotiated by the OPEN pair the
    /// Peer Up carried (RFC 7911 path ids are per-monitored-session
    /// state). Peers absent here decode classic.
    ctxs: HashMap<PeerKey, bgp_wire::DecodeCtx>,
    /// Next router discriminator per ASN, advanced on every allocation so
    /// a re-registered peer gets a fresh VP identity.
    next_router: HashMap<u32, u16>,
    ledger: BmpLedger,
    last_rx_ms: u64,
}

impl BmpFsm {
    /// A fresh session in `AwaitInitiation`, with the idle timer anchored
    /// at `now_ms`.
    pub fn new(cfg: BmpSessionConfig, now_ms: u64) -> BmpFsm {
        BmpFsm {
            cfg,
            state: BmpState::AwaitInitiation,
            buf: BytesMut::new(),
            events: VecDeque::new(),
            demux: HashMap::new(),
            ctxs: HashMap::new(),
            next_router: HashMap::new(),
            ledger: BmpLedger::default(),
            last_rx_ms: now_ms,
        }
    }

    /// Current state.
    pub fn state(&self) -> BmpState {
        self.state
    }

    /// Whether the session is over.
    pub fn is_closed(&self) -> bool {
        self.state == BmpState::Closed
    }

    /// The session's message counters.
    pub fn ledger(&self) -> BmpLedger {
        self.ledger
    }

    /// Number of currently registered monitored peers.
    pub fn peer_count(&self) -> usize {
        self.demux.len()
    }

    /// The vantage point registered for `key`, if any.
    pub fn vp_for(&self, key: &PeerKey) -> Option<VpId> {
        self.demux.get(key).copied()
    }

    /// Registered (key, vp) pairs, sorted by key for deterministic output.
    pub fn peers(&self) -> Vec<(PeerKey, VpId)> {
        let mut v: Vec<_> = self.demux.iter().map(|(k, vp)| (*k, *vp)).collect();
        v.sort();
        v
    }

    /// Next event, if any.
    pub fn poll_event(&mut self) -> Option<BmpEvent> {
        self.events.pop_front()
    }

    /// When the idle timer fires next, if one is armed.
    pub fn next_deadline_ms(&self) -> Option<u64> {
        (self.cfg.idle_timeout_ms > 0 && !self.is_closed())
            .then(|| self.last_rx_ms + self.cfg.idle_timeout_ms)
    }

    /// Feeds received bytes and decodes as many complete frames as they
    /// finish.
    pub fn handle_bytes(&mut self, data: &[u8], now_ms: u64) {
        if self.is_closed() {
            return;
        }
        self.last_rx_ms = now_ms;
        self.buf.extend_from_slice(data);
        loop {
            let ctxs = &self.ctxs;
            let decoded = BmpMessage::decode_with(&mut self.buf, |hdr| {
                ctxs.get(&PeerKey::of(hdr)).copied().unwrap_or_default()
            });
            match decoded {
                Ok(Some(msg)) => {
                    self.handle_message(msg, now_ms);
                    if self.is_closed() {
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    self.close(BmpCloseReason::DecodeError(e));
                    return;
                }
            }
        }
    }

    /// Signals EOF from the transport.
    pub fn handle_eof(&mut self, _now_ms: u64) {
        if self.is_closed() {
            return;
        }
        let reason = if self.buf.is_empty() {
            BmpCloseReason::PeerClosed
        } else {
            BmpCloseReason::PeerClosedMidMessage
        };
        self.close(reason);
    }

    /// Advances the idle timer.
    pub fn tick(&mut self, now_ms: u64) {
        if self.is_closed() || self.cfg.idle_timeout_ms == 0 {
            return;
        }
        if now_ms.saturating_sub(self.last_rx_ms) >= self.cfg.idle_timeout_ms {
            self.close(BmpCloseReason::IdleTimeout);
        }
    }

    fn close(&mut self, reason: BmpCloseReason) {
        self.state = BmpState::Closed;
        self.events.push_back(BmpEvent::Closed(reason));
    }

    fn handle_message(&mut self, msg: BmpMessage, now_ms: u64) {
        self.ledger.messages += 1;
        // Initiation-first: RFC 7854 §3.3 makes Initiation the mandatory
        // opener; a router that monitors before introducing itself is
        // broken (or not a router), so the session dies loudly.
        if self.state == BmpState::AwaitInitiation {
            match &msg {
                BmpMessage::Initiation { .. } => {}
                BmpMessage::Termination { .. } => {
                    self.close(BmpCloseReason::Terminated);
                    return;
                }
                _ => {
                    self.close(BmpCloseReason::ProtocolError(
                        "monitoring message before Initiation",
                    ));
                    return;
                }
            }
        }
        match msg {
            BmpMessage::Initiation { info } => {
                self.state = BmpState::Active;
                self.events.push_back(BmpEvent::SessionStarted {
                    sys_name: tlv_text(&info, info_type::SYS_NAME).map(str::to_owned),
                    sys_descr: tlv_text(&info, info_type::SYS_DESCR).map(str::to_owned),
                });
            }
            BmpMessage::Termination { .. } => {
                self.close(BmpCloseReason::Terminated);
            }
            BmpMessage::PeerUp(up) => {
                let key = PeerKey::of(&up.peer);
                if self.demux.contains_key(&key) {
                    self.ledger.duplicate_peer_ups += 1;
                    return;
                }
                let over = self
                    .cfg
                    .policy
                    .override_for(&up.peer.addr_string())
                    .cloned();
                let asn = over.as_ref().and_then(|o| o.asn).unwrap_or(up.peer.asn);
                if !self.cfg.policy.allows(asn) {
                    self.ledger.denied_peers += 1;
                    return;
                }
                let router = match over.as_ref().and_then(|o| o.router) {
                    Some(r) => r,
                    None => {
                        let next = self.next_router.entry(asn).or_insert(0);
                        let r = *next;
                        *next += 1;
                        r
                    }
                };
                let vp = VpId::new(Asn(asn), router);
                self.demux.insert(key, vp);
                // the monitored session's capabilities are whatever both
                // OPENs agreed on — that fixes how this peer's Route
                // Monitoring NLRI decodes from now on
                let families = sets_of(&up.sent_open).intersect(sets_of(&up.recv_open));
                let add_paths = addpaths_of(&up.sent_open)
                    .intersect(addpaths_of(&up.recv_open))
                    .intersect(families);
                if !add_paths.is_empty() {
                    self.ctxs
                        .insert(key, bgp_wire::DecodeCtx::from_families(add_paths.iter()));
                }
                self.ledger.peer_ups += 1;
                let name = over
                    .and_then(|o| o.name)
                    .or_else(|| tlv_text(&up.info, info_type::STRING).map(str::to_owned));
                self.events.push_back(BmpEvent::PeerUp {
                    vp,
                    key,
                    name,
                    families,
                    add_paths,
                });
            }
            BmpMessage::PeerDown { peer, reason } => {
                let key = PeerKey::of(&peer);
                self.ctxs.remove(&key);
                match self.demux.remove(&key) {
                    Some(vp) => {
                        self.ledger.peer_downs += 1;
                        self.events.push_back(BmpEvent::PeerDown {
                            vp,
                            key,
                            reason: reason.code(),
                        });
                    }
                    None => self.ledger.unknown_peer += 1,
                }
            }
            BmpMessage::RouteMonitoring { peer, update } => {
                let key = PeerKey::of(&peer);
                match self.demux.get(&key) {
                    Some(&vp) => {
                        self.ledger.route_monitoring += 1;
                        let hdr_ts = peer.ts_ms();
                        self.events.push_back(BmpEvent::Update {
                            vp,
                            update,
                            ts_ms: if hdr_ts > 0 { hdr_ts } else { now_ms },
                        });
                    }
                    None => self.ledger.unknown_peer += 1,
                }
            }
            BmpMessage::StatsReport { peer, stats } => {
                let key = PeerKey::of(&peer);
                match self.demux.get(&key) {
                    Some(&vp) => {
                        self.ledger.stats_reports += 1;
                        self.events.push_back(BmpEvent::Stats { vp, stats });
                    }
                    None => self.ledger.unknown_peer += 1,
                }
            }
        }
    }
}

/// Multiprotocol families an OPEN advertised.
fn sets_of(open: &OpenMessage) -> FamilySet {
    open.mp_families.iter().copied().collect()
}

/// Families an OPEN offered ADD-PATH for.
fn addpaths_of(open: &OpenMessage) -> FamilySet {
    open.add_paths.iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BmpMessage, InfoTlv, PeerDownReason, PeerHeader, PeerUpMessage};
    use crate::config::PeerOverride;
    use bgp_types::Prefix;
    use bgp_wire::OpenMessage;
    use std::net::Ipv4Addr;

    fn peer_up(asn: u32, addr: Ipv4Addr) -> BmpMessage {
        let peer = PeerHeader::v4(asn, addr, 0, 0);
        let mut local = [0u8; 16];
        local[12..].copy_from_slice(&[10, 255, 0, 1]);
        BmpMessage::PeerUp(PeerUpMessage {
            peer,
            local_address: local,
            local_port: 179,
            remote_port: 40000,
            sent_open: OpenMessage::new(Asn(65535), 90, Ipv4Addr::new(10, 255, 0, 1)),
            recv_open: OpenMessage::new(Asn(asn), 90, addr),
            info: vec![],
        })
    }

    fn route(asn: u32, addr: Ipv4Addr, prefix: u32, ts_ms: u64) -> BmpMessage {
        BmpMessage::RouteMonitoring {
            peer: PeerHeader::v4(asn, addr, 0, ts_ms),
            update: UpdateMessage::announce(
                Prefix::synthetic(prefix),
                [Asn(asn), Asn(2)].into_iter().collect(),
                Ipv4Addr::new(10, 0, 0, 9),
                vec![],
            ),
        }
    }

    fn initiation() -> BmpMessage {
        BmpMessage::Initiation {
            info: vec![InfoTlv::string(info_type::SYS_NAME, "r1")],
        }
    }

    fn pump(fsm: &mut BmpFsm, msg: &BmpMessage, now: u64) {
        fsm.handle_bytes(&msg.encode_to_vec().unwrap(), now);
    }

    fn drain(fsm: &mut BmpFsm) -> Vec<BmpEvent> {
        std::iter::from_fn(|| fsm.poll_event()).collect()
    }

    #[test]
    fn add_path_peer_decodes_route_monitoring_with_negotiated_ctx() {
        use bgp_types::AddressFamily;
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        // a Peer Up whose OPEN pair negotiated dual-stack + v6 ADD-PATH
        let peer = PeerHeader::v4(65010, addr, 0, 0);
        let mut local = [0u8; 16];
        local[12..].copy_from_slice(&[10, 255, 0, 1]);
        let caps = |asn: u32, router: Ipv4Addr| {
            OpenMessage::new(Asn(asn), 90, router)
                .with_families(AddressFamily::ALL)
                .with_add_paths([AddressFamily::Ipv6Unicast])
        };
        let up = BmpMessage::PeerUp(PeerUpMessage {
            peer,
            local_address: local,
            local_port: 179,
            remote_port: 40000,
            sent_open: caps(65535, Ipv4Addr::new(10, 255, 0, 1)),
            recv_open: caps(65010, addr),
            info: vec![],
        });
        // a v6 ADD-PATH route from that peer
        let mut u = UpdateMessage::announce_v6(
            "2001:db8::/32".parse().unwrap(),
            [Asn(65010), Asn(2)].into_iter().collect(),
            std::net::Ipv6Addr::new(0x2001, 0xdb8, 0xffff, 0, 0, 0, 0, 9),
            vec![],
        );
        for n in &mut u.announced {
            n.path_id = Some(11);
        }
        let rm = BmpMessage::RouteMonitoring {
            peer: PeerHeader::v4(65010, addr, 0, 5),
            update: u.clone(),
        };

        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        pump(&mut fsm, &initiation(), 0);
        pump(&mut fsm, &up, 1);
        pump(&mut fsm, &rm, 2);
        assert!(!fsm.is_closed());
        let evs = drain(&mut fsm);
        assert!(evs.iter().any(|e| matches!(
            e,
            BmpEvent::PeerUp { families, add_paths, .. }
                if *families == FamilySet::ALL
                    && *add_paths == FamilySet::only(AddressFamily::Ipv6Unicast)
        )));
        assert!(evs
            .iter()
            .any(|e| matches!(e, BmpEvent::Update { update, .. } if *update == u)));
    }

    #[test]
    fn initiation_first_is_enforced() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        pump(&mut fsm, &peer_up(65010, Ipv4Addr::new(10, 0, 0, 1)), 0);
        assert!(fsm.is_closed());
        assert!(matches!(
            drain(&mut fsm).last(),
            Some(BmpEvent::Closed(BmpCloseReason::ProtocolError(_)))
        ));
    }

    #[test]
    fn demux_maps_peers_to_distinct_vps() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        pump(&mut fsm, &initiation(), 0);
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(10, 0, 0, 2);
        pump(&mut fsm, &peer_up(65010, a), 1);
        pump(&mut fsm, &peer_up(65010, b), 2); // same AS, second router
        pump(&mut fsm, &peer_up(65020, a), 3); // same addr, different AS
        pump(&mut fsm, &route(65010, a, 1, 100), 4);
        pump(&mut fsm, &route(65010, b, 2, 200), 5);
        pump(&mut fsm, &route(65020, a, 3, 300), 6);
        let events = drain(&mut fsm);
        let vps: Vec<VpId> = events
            .iter()
            .filter_map(|e| match e {
                BmpEvent::Update { vp, .. } => Some(*vp),
                _ => None,
            })
            .collect();
        assert_eq!(
            vps,
            vec![
                VpId::new(Asn(65010), 0),
                VpId::new(Asn(65010), 1),
                VpId::new(Asn(65020), 0),
            ]
        );
        assert_eq!(fsm.peer_count(), 3);
        assert_eq!(fsm.ledger().route_monitoring, 3);
    }

    #[test]
    fn update_before_peer_up_is_dropped_and_counted() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        pump(&mut fsm, &initiation(), 0);
        pump(&mut fsm, &route(65010, Ipv4Addr::new(10, 0, 0, 1), 1, 0), 1);
        assert!(!fsm.is_closed(), "unknown peer is a drop, not a close");
        assert_eq!(fsm.ledger().unknown_peer, 1);
        assert!(drain(&mut fsm)
            .iter()
            .all(|e| !matches!(e, BmpEvent::Update { .. })));
    }

    #[test]
    fn peer_down_tears_down_and_reregistration_gets_fresh_vp() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        pump(&mut fsm, &initiation(), 0);
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        pump(&mut fsm, &peer_up(65010, addr), 1);
        pump(
            &mut fsm,
            &BmpMessage::PeerDown {
                peer: PeerHeader::v4(65010, addr, 0, 0),
                reason: PeerDownReason::RemoteNoData,
            },
            2,
        );
        // post-teardown updates are unknown-peer drops
        pump(&mut fsm, &route(65010, addr, 1, 0), 3);
        assert_eq!(fsm.ledger().unknown_peer, 1);
        assert_eq!(fsm.peer_count(), 0);
        // a fresh Peer Up re-registers with the *next* discriminator
        pump(&mut fsm, &peer_up(65010, addr), 4);
        assert_eq!(
            fsm.vp_for(&PeerKey::of(&PeerHeader::v4(65010, addr, 0, 0))),
            Some(VpId::new(Asn(65010), 1))
        );
        let events = drain(&mut fsm);
        assert!(events
            .iter()
            .any(|e| matches!(e, BmpEvent::PeerDown { reason: 4, .. })));
    }

    #[test]
    fn duplicate_peer_up_keeps_existing_mapping() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        pump(&mut fsm, &initiation(), 0);
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        pump(&mut fsm, &peer_up(65010, addr), 1);
        pump(&mut fsm, &peer_up(65010, addr), 2);
        assert_eq!(fsm.ledger().duplicate_peer_ups, 1);
        assert_eq!(fsm.peer_count(), 1);
    }

    #[test]
    fn allowlist_denies_unlisted_asns() {
        let policy = PeerPolicy {
            allow: Some([65010u32].into_iter().collect()),
            ..PeerPolicy::default()
        };
        let mut fsm = BmpFsm::new(
            BmpSessionConfig {
                idle_timeout_ms: 0,
                policy,
            },
            0,
        );
        pump(&mut fsm, &initiation(), 0);
        pump(&mut fsm, &peer_up(65010, Ipv4Addr::new(10, 0, 0, 1)), 1);
        pump(&mut fsm, &peer_up(65099, Ipv4Addr::new(10, 0, 0, 2)), 2);
        pump(&mut fsm, &route(65099, Ipv4Addr::new(10, 0, 0, 2), 1, 0), 3);
        assert_eq!(fsm.ledger().denied_peers, 1);
        assert_eq!(fsm.ledger().unknown_peer, 1, "denied peer stays unknown");
        assert_eq!(fsm.peer_count(), 1);
    }

    #[test]
    fn overrides_pin_asn_router_and_name() {
        let mut policy = PeerPolicy::default();
        policy.overrides.insert(
            "10.0.0.1".to_string(),
            PeerOverride {
                name: Some("fra1-r7".to_string()),
                asn: Some(64512),
                router: Some(7),
            },
        );
        let mut fsm = BmpFsm::new(
            BmpSessionConfig {
                idle_timeout_ms: 0,
                policy,
            },
            0,
        );
        pump(&mut fsm, &initiation(), 0);
        pump(&mut fsm, &peer_up(65010, Ipv4Addr::new(10, 0, 0, 1)), 1);
        let events = drain(&mut fsm);
        assert!(events.iter().any(|e| matches!(
            e,
            BmpEvent::PeerUp { vp, name: Some(n), .. }
                if *vp == VpId::new(Asn(64512), 7) && n == "fra1-r7"
        )));
    }

    #[test]
    fn update_timestamps_prefer_peer_header_time() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        pump(&mut fsm, &initiation(), 0);
        let addr = Ipv4Addr::new(10, 0, 0, 1);
        pump(&mut fsm, &peer_up(65010, addr), 1);
        pump(&mut fsm, &route(65010, addr, 1, 5_000), 9_000);
        pump(&mut fsm, &route(65010, addr, 2, 0), 9_500); // no router ts
        let ts: Vec<u64> = drain(&mut fsm)
            .iter()
            .filter_map(|e| match e {
                BmpEvent::Update { ts_ms, .. } => Some(*ts_ms),
                _ => None,
            })
            .collect();
        assert_eq!(ts, vec![5_000, 9_500]);
    }

    #[test]
    fn termination_closes_cleanly() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        pump(&mut fsm, &initiation(), 0);
        pump(&mut fsm, &BmpMessage::Termination { info: vec![] }, 1);
        assert!(fsm.is_closed());
        assert!(drain(&mut fsm)
            .iter()
            .any(|e| matches!(e, BmpEvent::Closed(BmpCloseReason::Terminated))));
        // further bytes are ignored
        pump(&mut fsm, &initiation(), 2);
        assert!(drain(&mut fsm).is_empty());
    }

    #[test]
    fn eof_mid_frame_is_distinguished() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        let bytes = initiation().encode_to_vec().unwrap();
        fsm.handle_bytes(&bytes[..3], 0);
        fsm.handle_eof(1);
        assert!(matches!(
            drain(&mut fsm).last(),
            Some(BmpEvent::Closed(BmpCloseReason::PeerClosedMidMessage))
        ));
    }

    #[test]
    fn idle_timeout_fires_and_rearms_on_traffic() {
        let mut fsm = BmpFsm::new(
            BmpSessionConfig {
                idle_timeout_ms: 1_000,
                ..BmpSessionConfig::default()
            },
            0,
        );
        pump(&mut fsm, &initiation(), 0);
        assert_eq!(fsm.next_deadline_ms(), Some(1_000));
        fsm.tick(999);
        assert!(!fsm.is_closed());
        pump(&mut fsm, &BmpMessage::Termination { info: vec![] }, 999);
        // timer is moot once closed
        let mut idle = BmpFsm::new(
            BmpSessionConfig {
                idle_timeout_ms: 1_000,
                ..BmpSessionConfig::default()
            },
            0,
        );
        idle.tick(1_000);
        assert!(idle.is_closed());
        assert!(matches!(
            drain(&mut idle).last(),
            Some(BmpEvent::Closed(BmpCloseReason::IdleTimeout))
        ));
    }

    #[test]
    fn garbage_bytes_close_with_decode_error() {
        let mut fsm = BmpFsm::new(BmpSessionConfig::default(), 0);
        fsm.handle_bytes(b"GET / HTTP/1.1\r\n", 0);
        assert!(fsm.is_closed());
        assert!(matches!(
            drain(&mut fsm).last(),
            Some(BmpEvent::Closed(BmpCloseReason::DecodeError(_)))
        ));
    }
}
