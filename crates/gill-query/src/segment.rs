//! Sealed on-disk segments.
//!
//! When a shard window ages out of the hot store, its per-lane records are
//! *sealed* into an append-only segment file. A segment is self-contained:
//! it carries its own interned prefix/path/community tables (local ids,
//! remapped from the in-memory arenas at seal time), the store's VP
//! registration order, and per-lane record groups. Records do **not** store
//! the derived `Lw`/`Cw` sets — re-ingesting a lane in order re-derives them
//! deterministically, which keeps a record at 21 bytes on disk.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8B  b"GSEG0002" (v1 files carry b"GSEG0001")
//! seq      8B  segment sequence number
//! vps      4B count, then {asn u32, router u16} each
//! prefixes 4B count, then {v6 u8, len u8, bits 16B BE} each
//! paths    4B count, then {hops u32, asn u32 ...} each
//! commsets 4B count, then {n u32, community u32 ...} each
//! lanes    4B count, then {vp_idx u32, start u64, recs u32,
//!              {time_ms u64, prefix u32, path u32, comms u32, kind u8,
//!               [path_id u32]} ...}
//! crc32    4B  CRC-32/IEEE over every preceding byte
//! ```
//!
//! The v2 kind byte doubles as the ADD-PATH flag: 0/1 are classic
//! announce/withdraw records (byte-identical to v1), 2/3 are
//! announce/withdraw carrying a trailing 4-byte RFC 7911 path identifier.
//! v1 files (which predate ADD-PATH and never carry path ids) still load.
//!
//! Any corruption — bad magic, truncation, out-of-range table index, CRC
//! mismatch — surfaces as `io::ErrorKind::InvalidData` at load time rather
//! than as silently wrong routes.

use crate::arena::Interner;
use bgp_types::{
    AsPath, Asn, BgpUpdate, CommSetId, Community, PathId, Prefix, PrefixId, Timestamp, UpdateKind,
    VpId,
};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const MAGIC_V1: &[u8; 8] = b"GSEG0001";
const MAGIC_V2: &[u8; 8] = b"GSEG0002";

/// One sealed update record (all attribute fields are segment-local ids).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SegmentRec {
    /// Raw reception time in milliseconds.
    pub time_ms: u64,
    /// Index into [`Segment::prefixes`].
    pub prefix: u32,
    /// Index into [`Segment::paths`] (empty path for withdrawals).
    pub path: u32,
    /// Index into [`Segment::comm_sets`].
    pub comms: u32,
    /// Announce vs withdraw.
    pub kind: UpdateKind,
    /// ADD-PATH path identifier (RFC 7911), when the route was observed
    /// on an ADD-PATH session. Only representable in v2 segments.
    pub path_id: Option<u32>,
}

/// The sealed records of one VP lane.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SegmentLane {
    /// Index into [`Segment::vp_order`].
    pub vp: u32,
    /// Lane-local index of the first record in this segment (for load-time
    /// continuity checks across consecutive segments).
    pub start: u64,
    /// Records in lane ingest order.
    pub recs: Vec<SegmentRec>,
}

/// A self-contained sealed segment.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Segment {
    /// Monotone sequence number (also encoded in the file name).
    pub seq: u64,
    /// The store's VP registration order at seal time (every known VP, even
    /// ones with no records here — reload must reproduce registration order).
    pub vp_order: Vec<VpId>,
    /// Local prefix table.
    pub prefixes: Vec<Prefix>,
    /// Local AS-path table.
    pub paths: Vec<AsPath>,
    /// Local community-set table (each set sorted).
    pub comm_sets: Vec<Vec<Community>>,
    /// Per-lane record groups.
    pub lanes: Vec<SegmentLane>,
}

/// Incrementally builds a [`Segment`], deduplicating attribute values into
/// the segment-local tables by hashing them. The store seals by arena id
/// instead; this by-value builder is the reference its bytes are tested
/// against.
pub struct SegmentBuilder {
    seg: Segment,
    prefix_ids: HashMap<Prefix, u32>,
    path_ids: HashMap<AsPath, u32>,
    comm_ids: HashMap<Vec<Community>, u32>,
}

impl SegmentBuilder {
    /// Starts a segment with the given sequence number and VP order.
    pub fn new(seq: u64, vp_order: Vec<VpId>) -> Self {
        SegmentBuilder {
            seg: Segment {
                seq,
                vp_order,
                ..Segment::default()
            },
            prefix_ids: HashMap::new(),
            path_ids: HashMap::new(),
            comm_ids: HashMap::new(),
        }
    }

    /// Opens a record group for the lane of `vp_order[vp_idx]`, whose first
    /// record has lane-local index `start`. Returns the lane handle.
    pub fn add_lane(&mut self, vp_idx: u32, start: u64) -> usize {
        self.seg.add_lane(vp_idx, start)
    }

    /// Appends one record to an open lane.
    #[allow(clippy::too_many_arguments)]
    pub fn push_rec(
        &mut self,
        lane: usize,
        time_ms: u64,
        prefix: Prefix,
        path: &AsPath,
        comms: &[Community],
        kind: UpdateKind,
        path_id: Option<u32>,
    ) {
        let prefix = intern(&mut self.seg.prefixes, &mut self.prefix_ids, &prefix);
        let path = intern(&mut self.seg.paths, &mut self.path_ids, path);
        let comms = intern(&mut self.seg.comm_sets, &mut self.comm_ids, comms);
        self.seg.lanes[lane].recs.push(SegmentRec {
            time_ms,
            prefix,
            path,
            comms,
            kind,
            path_id,
        });
    }

    /// Total records pushed so far.
    pub fn rec_count(&self) -> usize {
        self.seg.rec_count()
    }

    /// Finishes the segment.
    pub fn finish(self) -> Segment {
        self.seg
    }
}

/// Marks an arena id with no segment-local id yet.
const UNSEEN: u32 = u32::MAX;

/// Builds a [`Segment`] from records already interned in the store's
/// arenas. Each arena holds one id per distinct value, so a dense
/// arena-id → local-id table dedups exactly like [`SegmentBuilder`]'s
/// value hashing and hands out local ids in the same first-seen order:
/// both write the same bytes. Each value is copied once, on first sight.
pub(crate) struct ArenaSegmentBuilder<'a> {
    interner: &'a Interner,
    seg: Segment,
    prefix_ids: Vec<u32>,
    path_ids: Vec<u32>,
    comm_ids: Vec<u32>,
}

impl<'a> ArenaSegmentBuilder<'a> {
    /// Starts a segment over `interner` with the given sequence number and
    /// VP order.
    pub(crate) fn new(seq: u64, vp_order: Vec<VpId>, interner: &'a Interner) -> Self {
        ArenaSegmentBuilder {
            interner,
            seg: Segment {
                seq,
                vp_order,
                ..Segment::default()
            },
            prefix_ids: Vec::new(),
            path_ids: Vec::new(),
            comm_ids: Vec::new(),
        }
    }

    /// As [`SegmentBuilder::add_lane`].
    pub(crate) fn add_lane(&mut self, vp_idx: u32, start: u64) -> usize {
        self.seg.add_lane(vp_idx, start)
    }

    /// Appends one record given by arena ids to an open lane.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push(
        &mut self,
        lane: usize,
        time_ms: u64,
        prefix: PrefixId,
        path: PathId,
        comms: CommSetId,
        kind: UpdateKind,
        path_id: Option<u32>,
    ) {
        let arenas = self.interner;
        let seg = &mut self.seg;
        let prefix = local_id(&mut self.prefix_ids, &mut seg.prefixes, prefix.0, || {
            arenas.prefixes.get(prefix)
        });
        let path = local_id(&mut self.path_ids, &mut seg.paths, path.0, || {
            arenas.paths.get(path).clone()
        });
        let comms = local_id(&mut self.comm_ids, &mut seg.comm_sets, comms.0, || {
            arenas.comm_sets.get(comms.0).to_vec()
        });
        seg.lanes[lane].recs.push(SegmentRec {
            time_ms,
            prefix,
            path,
            comms,
            kind,
            path_id,
        });
    }

    /// Total records pushed so far.
    pub(crate) fn rec_count(&self) -> usize {
        self.seg.rec_count()
    }

    /// Finishes the segment.
    pub(crate) fn finish(self) -> Segment {
        self.seg
    }
}

/// The local id of arena id `id`; on first sight appends `value()` to
/// `table` and assigns the next local id.
fn local_id<T>(map: &mut Vec<u32>, table: &mut Vec<T>, id: u32, value: impl FnOnce() -> T) -> u32 {
    let slot = id as usize;
    if slot >= map.len() {
        map.resize(slot + 1, UNSEEN);
    }
    if map[slot] == UNSEEN {
        map[slot] = table.len() as u32;
        table.push(value());
    }
    map[slot]
}

fn intern<T, Q>(table: &mut Vec<T>, ids: &mut HashMap<T, u32>, value: &Q) -> u32
where
    T: Clone + std::hash::Hash + Eq + std::borrow::Borrow<Q>,
    Q: std::hash::Hash + Eq + ToOwned<Owned = T> + ?Sized,
{
    if let Some(&id) = ids.get(value) {
        return id;
    }
    let id = table.len() as u32;
    table.push(value.to_owned());
    ids.insert(value.to_owned(), id);
    id
}

impl Segment {
    fn add_lane(&mut self, vp_idx: u32, start: u64) -> usize {
        self.lanes.push(SegmentLane {
            vp: vp_idx,
            start,
            recs: Vec::new(),
        });
        self.lanes.len() - 1
    }

    fn rec_count(&self) -> usize {
        self.lanes.iter().map(|l| l.recs.len()).sum()
    }

    /// Serializes the segment (with trailing CRC) into `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V2);
        buf.extend_from_slice(&self.seq.to_le_bytes());

        put_len(&mut buf, self.vp_order.len())?;
        for vp in &self.vp_order {
            buf.extend_from_slice(&vp.asn.0.to_le_bytes());
            buf.extend_from_slice(&vp.router.to_le_bytes());
        }

        put_len(&mut buf, self.prefixes.len())?;
        for p in &self.prefixes {
            buf.push(p.is_ipv6() as u8);
            buf.push(p.len());
            buf.extend_from_slice(&p.raw_bits().to_be_bytes());
        }

        put_len(&mut buf, self.paths.len())?;
        for path in &self.paths {
            put_len(&mut buf, path.hop_count())?;
            for hop in path.hops() {
                buf.extend_from_slice(&hop.0.to_le_bytes());
            }
        }

        put_len(&mut buf, self.comm_sets.len())?;
        for set in &self.comm_sets {
            put_len(&mut buf, set.len())?;
            for c in set {
                buf.extend_from_slice(&c.raw().to_le_bytes());
            }
        }

        put_len(&mut buf, self.lanes.len())?;
        for lane in &self.lanes {
            buf.extend_from_slice(&lane.vp.to_le_bytes());
            buf.extend_from_slice(&lane.start.to_le_bytes());
            put_len(&mut buf, lane.recs.len())?;
            for r in &lane.recs {
                buf.extend_from_slice(&r.time_ms.to_le_bytes());
                buf.extend_from_slice(&r.prefix.to_le_bytes());
                buf.extend_from_slice(&r.path.to_le_bytes());
                buf.extend_from_slice(&r.comms.to_le_bytes());
                let kind_bit = match r.kind {
                    UpdateKind::Announce => 0,
                    UpdateKind::Withdraw => 1,
                };
                match r.path_id {
                    None => buf.push(kind_bit),
                    Some(id) => {
                        buf.push(kind_bit | 2);
                        buf.extend_from_slice(&id.to_le_bytes());
                    }
                }
            }
        }

        let crc = crc32(&buf);
        w.write_all(&buf)?;
        w.write_all(&crc.to_le_bytes())
    }

    /// Reads and validates a segment from `r`.
    pub fn read_from(r: &mut impl Read) -> io::Result<Segment> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        if data.len() < MAGIC_V2.len() + 8 + 4 {
            return Err(bad("segment file truncated"));
        }
        let (body, tail) = data.split_at(data.len() - 4);
        let stored = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
        if crc32(body) != stored {
            return Err(bad("segment CRC mismatch"));
        }

        let mut c = Cursor { buf: body, pos: 0 };
        let magic = c.bytes(8)?;
        let v2 = match magic {
            m if m == MAGIC_V2 => true,
            m if m == MAGIC_V1 => false,
            _ => return Err(bad("bad segment magic")),
        };
        let seq = c.u64()?;

        let n = c.len()?;
        let mut vp_order = Vec::with_capacity(n);
        for _ in 0..n {
            let asn = Asn(c.u32()?);
            let router = c.u16()?;
            vp_order.push(VpId::new(asn, router));
        }

        let n = c.len()?;
        let mut prefixes = Vec::with_capacity(n);
        for _ in 0..n {
            let v6 = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(bad("bad prefix family byte")),
            };
            let len = c.u8()?;
            let bits = u128::from_be_bytes(c.bytes(16)?.try_into().expect("16-byte prefix"));
            prefixes.push(if v6 {
                if len > 128 {
                    return Err(bad("bad IPv6 prefix length"));
                }
                Prefix::v6(Ipv6Addr::from(bits), len)
            } else {
                if len > 32 || bits > u32::MAX as u128 {
                    return Err(bad("bad IPv4 prefix"));
                }
                Prefix::v4(Ipv4Addr::from(bits as u32), len)
            });
        }

        let n = c.len()?;
        let mut paths = Vec::with_capacity(n);
        for _ in 0..n {
            let hops = c.len()?;
            let mut v = Vec::with_capacity(hops);
            for _ in 0..hops {
                v.push(Asn(c.u32()?));
            }
            paths.push(AsPath::new(v));
        }

        let n = c.len()?;
        let mut comm_sets = Vec::with_capacity(n);
        for _ in 0..n {
            let m = c.len()?;
            let mut v = Vec::with_capacity(m);
            for _ in 0..m {
                v.push(Community(c.u32()?));
            }
            comm_sets.push(v);
        }

        let n = c.len()?;
        let mut lanes = Vec::with_capacity(n);
        for _ in 0..n {
            let vp = c.u32()?;
            if vp as usize >= vp_order.len() {
                return Err(bad("lane VP index out of range"));
            }
            let start = c.u64()?;
            let m = c.len()?;
            let mut recs = Vec::with_capacity(m);
            for _ in 0..m {
                let time_ms = c.u64()?;
                let prefix = c.u32()?;
                let path = c.u32()?;
                let comms = c.u32()?;
                if prefix as usize >= prefixes.len()
                    || path as usize >= paths.len()
                    || comms as usize >= comm_sets.len()
                {
                    return Err(bad("record table index out of range"));
                }
                let kind_byte = c.u8()?;
                let kind = match kind_byte & 1 {
                    0 => UpdateKind::Announce,
                    _ => UpdateKind::Withdraw,
                };
                let path_id = match kind_byte {
                    0 | 1 => None,
                    // the path-id flag only exists in the v2 format
                    2 | 3 if v2 => Some(c.u32()?),
                    _ => return Err(bad("bad record kind byte")),
                };
                recs.push(SegmentRec {
                    time_ms,
                    prefix,
                    path,
                    comms,
                    kind,
                    path_id,
                });
            }
            lanes.push(SegmentLane { vp, start, recs });
        }

        if c.pos != c.buf.len() {
            return Err(bad("trailing bytes after segment body"));
        }
        Ok(Segment {
            seq,
            vp_order,
            prefixes,
            paths,
            comm_sets,
            lanes,
        })
    }

    /// Reconstructs the sealed updates, lane by lane in lane order.
    ///
    /// `Lw`/`Cw` are left empty — re-ingesting through the store re-derives
    /// them exactly as the original ingest did.
    pub fn updates(&self) -> Vec<BgpUpdate> {
        let mut out = Vec::with_capacity(self.lanes.iter().map(|l| l.recs.len()).sum());
        for lane in &self.lanes {
            let vp = self.vp_order[lane.vp as usize];
            for r in &lane.recs {
                out.push(BgpUpdate {
                    vp,
                    time: Timestamp::from_millis(r.time_ms),
                    prefix: self.prefixes[r.prefix as usize],
                    path_id: r.path_id,
                    kind: r.kind,
                    path: self.paths[r.path as usize].clone(),
                    communities: self.comm_sets[r.comms as usize].iter().copied().collect(),
                    withdrawn_links: Default::default(),
                    withdrawn_communities: Default::default(),
                });
            }
        }
        out
    }
}

fn put_len(buf: &mut Vec<u8>, n: usize) -> io::Result<()> {
    let n: u32 = n
        .try_into()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "segment table too large"))?;
    buf.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("segment file truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn len(&mut self) -> io::Result<usize> {
        Ok(self.u32()? as usize)
    }
}

/// CRC-32/IEEE (the zlib polynomial), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// File name for segment `seq`: `seg-000042.gseg`.
pub fn segment_file_name(seq: u64) -> String {
    format!("seg-{seq:06}.gseg")
}

/// Lists `*.gseg` files under `dir` as `(seq, path)`, sorted by sequence
/// number. Unparseable names are ignored.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".gseg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, path));
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Segment {
        let vps = vec![VpId::from_asn(Asn(65_000)), VpId::new(Asn(65_001), 2)];
        let mut b = SegmentBuilder::new(7, vps);
        let lane0 = b.add_lane(0, 0);
        let lane1 = b.add_lane(1, 40);
        let p1: Prefix = "10.0.0.0/8".parse().unwrap();
        let p2: Prefix = "2001:db8::/32".parse().unwrap();
        let path = AsPath::from_u32s([65_000, 20, 30]);
        let comms = vec![Community::new(65_000, 100), Community::new(65_000, 200)];
        b.push_rec(lane0, 1_000, p1, &path, &comms, UpdateKind::Announce, None);
        b.push_rec(lane0, 2_000, p2, &path, &[], UpdateKind::Announce, Some(7));
        // same attrs again: must dedup into the same local ids
        b.push_rec(lane0, 3_000, p1, &path, &comms, UpdateKind::Announce, None);
        b.push_rec(
            lane1,
            2_500,
            p1,
            &AsPath::empty(),
            &[],
            UpdateKind::Withdraw,
            None,
        );
        assert_eq!(b.rec_count(), 4);
        b.finish()
    }

    #[test]
    fn round_trip_is_identity() {
        let seg = sample();
        // builder dedup: 2 prefixes, 2 paths (incl. empty), 2 comm sets
        assert_eq!(seg.prefixes.len(), 2);
        assert_eq!(seg.paths.len(), 2);
        assert_eq!(seg.comm_sets.len(), 2);
        let mut buf = Vec::new();
        seg.write_to(&mut buf).unwrap();
        let back = Segment::read_from(&mut &buf[..]).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn updates_reconstruct_exactly() {
        let seg = sample();
        let ups = seg.updates();
        assert_eq!(ups.len(), 4);
        assert_eq!(ups[0].vp, VpId::from_asn(Asn(65_000)));
        assert_eq!(ups[0].time.as_millis(), 1_000);
        assert_eq!(ups[0].path, AsPath::from_u32s([65_000, 20, 30]));
        assert_eq!(ups[0].communities.len(), 2);
        assert_eq!(ups[3].kind, UpdateKind::Withdraw);
        assert!(ups[3].path.is_empty());
        assert_eq!(ups[0].prefix, "10.0.0.0/8".parse().unwrap());
        assert!(ups[1].prefix.is_ipv6());
        assert_eq!(ups[0].path_id, None);
        assert_eq!(ups[1].path_id, Some(7));
    }

    #[test]
    fn v1_segments_still_load() {
        // hand-build a v1 file: same layout, old magic, kind bytes 0/1
        // only, no trailing path ids
        let seg = sample();
        let mut buf = Vec::new();
        seg.write_to(&mut buf).unwrap();
        // rebuild the body v1-style
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC_V1);
        let body = &buf[8..buf.len() - 4];
        let mut pos = 0usize;
        // everything up to the lanes table is format-identical; re-walk
        // the records to drop the path-id bytes and clear the flag bit
        // seq
        v1.extend_from_slice(&body[pos..pos + 8]);
        pos += 8;
        // vps
        let n = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        v1.extend_from_slice(&body[pos..pos + 4 + n * 6]);
        pos += 4 + n * 6;
        // prefixes
        let n = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        v1.extend_from_slice(&body[pos..pos + 4 + n * 18]);
        pos += 4 + n * 18;
        // paths
        let n = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        v1.extend_from_slice(&body[pos..pos + 4]);
        pos += 4;
        for _ in 0..n {
            let hops = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
            v1.extend_from_slice(&body[pos..pos + 4 + hops * 4]);
            pos += 4 + hops * 4;
        }
        // comm sets
        let n = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        v1.extend_from_slice(&body[pos..pos + 4]);
        pos += 4;
        for _ in 0..n {
            let m = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
            v1.extend_from_slice(&body[pos..pos + 4 + m * 4]);
            pos += 4 + m * 4;
        }
        // lanes: strip the v2 path-id extension
        let n = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
        v1.extend_from_slice(&body[pos..pos + 4]);
        pos += 4;
        for _ in 0..n {
            v1.extend_from_slice(&body[pos..pos + 12]);
            pos += 12;
            let m = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
            v1.extend_from_slice(&body[pos..pos + 4]);
            pos += 4;
            for _ in 0..m {
                v1.extend_from_slice(&body[pos..pos + 20]);
                pos += 20;
                let kind = body[pos];
                v1.push(kind & 1);
                pos += 1;
                if kind & 2 != 0 {
                    pos += 4; // drop the path id
                }
            }
        }
        assert_eq!(pos, body.len());
        let crc = crc32(&v1);
        v1.extend_from_slice(&crc.to_le_bytes());
        let back = Segment::read_from(&mut &v1[..]).unwrap();
        assert_eq!(back.seq, seg.seq);
        assert_eq!(back.prefixes, seg.prefixes);
        assert!(back
            .lanes
            .iter()
            .flat_map(|l| &l.recs)
            .all(|r| r.path_id.is_none()));
    }

    #[test]
    fn v1_files_reject_path_id_kind_bytes() {
        // a v1-magic file using kind byte 2 must be rejected, not
        // silently misread
        let seg = sample();
        let mut buf = Vec::new();
        seg.write_to(&mut buf).unwrap();
        let mut body = buf[..buf.len() - 4].to_vec();
        body[..8].copy_from_slice(MAGIC_V1);
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let err = Segment::read_from(&mut &body[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corruption_is_detected() {
        let seg = sample();
        let mut buf = Vec::new();
        seg.write_to(&mut buf).unwrap();
        // flip one byte in the middle of the body
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = Segment::read_from(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_is_detected() {
        let seg = sample();
        let mut buf = Vec::new();
        seg.write_to(&mut buf).unwrap();
        for cut in [0, 3, buf.len() / 2, buf.len() - 1] {
            let err = Segment::read_from(&mut &buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn file_names_sort_by_seq() {
        assert_eq!(segment_file_name(0), "seg-000000.gseg");
        assert_eq!(segment_file_name(42), "seg-000042.gseg");
        assert!(segment_file_name(9) < segment_file_name(10));
    }
}
