//! Per-shard write-ahead log: record framing, the batched-fsync
//! writer, and the torn-tail-tolerant scanner.
//!
//! Every record in the WAL (and, reusing the same framing, in the
//! segment and manifest files) is one *frame*:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! CRC32 (IEEE, the zlib polynomial) over the payload makes torn and
//! bit-flipped tails detectable: a scanner reads frames until the
//! bytes run out mid-frame or a checksum fails, then stops — the valid
//! prefix is exactly the records that were wholly persisted. Nothing
//! ever panics on hostile bytes.
//!
//! WAL payloads (first byte is the record kind):
//!
//! * `0x01` **Header** — format version, shard generation, and
//!   `base_blocks`: how many leading segment blocks recovery installs
//!   before replaying (a compaction checkpoint persists the whole
//!   sealed state and starts its WAL with this header).
//! * `0x02` **KeyDef** — interns a [`SeriesKey`] (four varint-length
//!   strings) under a small per-WAL integer id, so the steady-state
//!   point record carries ~2 bytes of key instead of ~40 of strings.
//! * `0x03` **Point** — key id, timestamp varint, raw `f64` bits.
//! * `0x04` **Seal** — "segment block `ordinal` is durable; its points
//!   are the current replay head of its series." Appended only *after*
//!   the segment append + fsync, so a marker proves its block.
//!
//! Durability contract of [`WalWriter`]: `append_point` stages one
//! frame and fsyncs every `sync_every` records (so at most
//! `sync_every` trailing points are at risk); a short write is
//! repaired by truncating back to the frame boundary and re-appending
//! once, which keeps the file a clean frame sequence; fsync failures
//! leave the durable watermark where it was and are surfaced to the
//! caller and counted.
//!
//! This module is on the `cargo xtask lint` deny list: no panicking
//! constructs, no unchecked indexing.

use crate::block::{get_varint, put_varint};
use crate::series::SeriesKey;
use crate::vfs::{DiskError, DurFile};
use std::collections::HashMap;

/// Frame header size: u32 length + u32 CRC.
pub(crate) const FRAME_HEADER: usize = 8;

/// Hard cap on one frame's payload (a segment block record tops out
/// well under this); anything larger during a scan is treated as a
/// corrupt length word, not an allocation request.
pub(crate) const MAX_PAYLOAD: usize = 1 << 24;

/// One CRC32 (IEEE) table entry: eight shift-xor rounds over `i`
/// (only the low byte matters). `const` so the compiler can fold it;
/// written entry-at-a-time so the hot path carries no indexing.
const fn crc_entry(i: u32) -> u32 {
    let mut c = i & 0xFF;
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        k += 1;
    }
    c
}

/// CRC32 (IEEE) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = crc_entry(c ^ u32::from(b)) ^ (c >> 8);
    }
    !c
}

/// Append one frame (header + payload) to `out`.
pub(crate) fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why a [`FrameScan`] stopped before the end of its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScanStop {
    /// All input consumed; every byte belonged to a valid frame.
    Clean,
    /// The trailing bytes are shorter than one whole frame.
    TornTail,
    /// A frame's checksum (or length word) failed — bit rot or a torn
    /// write that happened to leave enough bytes.
    BadFrame,
}

/// Iterator over the valid frame payloads of a byte buffer. Stops at
/// the first torn or corrupt frame; [`FrameScan::valid_len`] then
/// tells the writer where the clean prefix ends.
pub(crate) struct FrameScan<'a> {
    bytes: &'a [u8],
    pos: usize,
    stop: ScanStop,
    done: bool,
}

impl<'a> FrameScan<'a> {
    /// Scan `bytes` from the start.
    pub(crate) fn new(bytes: &'a [u8]) -> FrameScan<'a> {
        FrameScan {
            bytes,
            pos: 0,
            stop: ScanStop::Clean,
            done: false,
        }
    }

    /// Next valid payload, or `None` at end / first bad frame.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn next(&mut self) -> Option<&'a [u8]> {
        if self.done {
            return None;
        }
        let remaining = self.bytes.len() - self.pos;
        if remaining == 0 {
            self.done = true;
            return None;
        }
        if remaining < FRAME_HEADER {
            self.done = true;
            self.stop = ScanStop::TornTail;
            return None;
        }
        let len_b = self.bytes.get(self.pos..self.pos + 4)?;
        let crc_b = self.bytes.get(self.pos + 4..self.pos + 8)?;
        let len = u32::from_le_bytes(len_b.try_into().ok()?) as usize;
        let want = u32::from_le_bytes(crc_b.try_into().ok()?);
        if len > MAX_PAYLOAD {
            self.done = true;
            self.stop = ScanStop::BadFrame;
            return None;
        }
        let start = self.pos + FRAME_HEADER;
        let Some(payload) = self.bytes.get(start..start + len) else {
            self.done = true;
            self.stop = ScanStop::TornTail;
            return None;
        };
        if crc32(payload) != want {
            self.done = true;
            self.stop = ScanStop::BadFrame;
            return None;
        }
        self.pos = start + len;
        Some(payload)
    }

    /// Bytes covered by valid frames so far (the clean prefix).
    pub(crate) fn valid_len(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes past the clean prefix (torn or corrupt). Test-facing:
    /// production callers account torn bytes against their own applied
    /// boundary (which can sit before the last structurally valid
    /// frame).
    #[cfg(test)]
    pub(crate) fn torn_bytes(&self) -> u64 {
        (self.bytes.len() - self.pos) as u64
    }

    /// Why the scan stopped.
    #[cfg(test)]
    pub(crate) fn stop(&self) -> ScanStop {
        self.stop
    }
}

// ---------------------------------------------------------------------
// WAL record payloads
// ---------------------------------------------------------------------

const KIND_HEADER: u8 = 0x01;
const KIND_KEYDEF: u8 = 0x02;
const KIND_POINT: u8 = 0x03;
const KIND_SEAL: u8 = 0x04;

/// WAL format version (bumped on incompatible payload changes).
const WAL_VERSION: u8 = 1;

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum WalEntry {
    /// Generation header with the compaction checkpoint block count.
    Header {
        /// Shard generation this WAL belongs to.
        gen: u64,
        /// Leading segment blocks to install before replay.
        base_blocks: u64,
    },
    /// Key interning definition.
    KeyDef {
        /// Per-WAL integer id.
        id: u64,
        /// The interned series key.
        key: SeriesKey,
    },
    /// One ingested point.
    Point {
        /// Id from a preceding [`WalEntry::KeyDef`].
        key_id: u64,
        /// Unix seconds.
        t: u64,
        /// Value bits.
        v: f64,
    },
    /// Segment block `ordinal` is durable.
    Seal {
        /// Block ordinal within this generation's segment file.
        ordinal: u64,
    },
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = get_varint(bytes, pos)? as usize;
    let s = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    std::str::from_utf8(s).ok()
}

/// Encode the header payload.
pub(crate) fn encode_header(out: &mut Vec<u8>, gen: u64, base_blocks: u64) {
    out.push(KIND_HEADER);
    out.push(WAL_VERSION);
    put_varint(out, gen);
    put_varint(out, base_blocks);
}

/// Decode one WAL payload. `None` on malformed bytes (caller counts it
/// as corruption and stops the scan).
pub(crate) fn decode_entry(payload: &[u8]) -> Option<WalEntry> {
    let (&kind, rest) = payload.split_first()?;
    let mut pos = 0usize;
    match kind {
        KIND_HEADER => {
            let (&version, rest) = rest.split_first()?;
            if version != WAL_VERSION {
                return None;
            }
            let gen = get_varint(rest, &mut pos)?;
            let base_blocks = get_varint(rest, &mut pos)?;
            Some(WalEntry::Header { gen, base_blocks })
        }
        KIND_KEYDEF => {
            let id = get_varint(rest, &mut pos)?;
            let host = get_str(rest, &mut pos)?;
            let dev_type = get_str(rest, &mut pos)?;
            let device = get_str(rest, &mut pos)?;
            let event = get_str(rest, &mut pos)?;
            Some(WalEntry::KeyDef {
                id,
                key: SeriesKey::new(host, dev_type, device, event),
            })
        }
        KIND_POINT => {
            let key_id = get_varint(rest, &mut pos)?;
            let t = get_varint(rest, &mut pos)?;
            let bits = rest.get(pos..pos + 8)?;
            Some(WalEntry::Point {
                key_id,
                t,
                v: f64::from_bits(u64::from_le_bytes(bits.try_into().ok()?)),
            })
        }
        KIND_SEAL => {
            let ordinal = get_varint(rest, &mut pos)?;
            Some(WalEntry::Seal { ordinal })
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append-side of one shard's WAL (see module docs for the format and
/// durability contract).
pub(crate) struct WalWriter {
    file: Box<dyn DurFile>,
    /// Frame staging buffer, reused across appends.
    frame: Vec<u8>,
    /// Payload staging buffer, reused across appends.
    payload: Vec<u8>,
    key_ids: HashMap<SeriesKey, u64>,
    next_key_id: u64,
    /// Point records appended to the file (whether or not synced).
    pub(crate) appended_points: u64,
    /// Point records covered by the last successful sync.
    pub(crate) synced_points: u64,
    /// Point records whose append failed (at-risk, in memory only).
    pub(crate) failed_points: u64,
    /// Records staged since the last sync attempt.
    pending: u64,
    sync_every: u64,
    /// fsync attempts that failed.
    pub(crate) sync_failures: u64,
}

impl WalWriter {
    /// Wrap an already-positioned file (recovery path). `key_ids` and
    /// `appended_points` describe the surviving prefix so sequencing
    /// continues where the log left off; the on-disk prefix counts as
    /// synced (it survived, by definition).
    // alloc: cold-fn (writer construction; the frame/payload buffers are reused per append)
    pub(crate) fn open(
        file: Box<dyn DurFile>,
        key_ids: HashMap<SeriesKey, u64>,
        appended_points: u64,
        sync_every: u64,
    ) -> WalWriter {
        let next_key_id = key_ids.values().copied().max().map(|m| m + 1).unwrap_or(0);
        WalWriter {
            file,
            frame: Vec::new(),
            payload: Vec::new(),
            key_ids,
            next_key_id,
            appended_points,
            synced_points: appended_points,
            failed_points: 0,
            pending: 0,
            sync_every: sync_every.max(1),
            sync_failures: 0,
        }
    }

    /// Start a fresh WAL file: header frame, then fsync (a generation
    /// must be durable before the manifest can commit to it).
    // alloc: cold-fn (generation creation: header write + fsync, once per generation)
    pub(crate) fn create(
        mut file: Box<dyn DurFile>,
        gen: u64,
        base_blocks: u64,
        sync_every: u64,
    ) -> Result<WalWriter, DiskError> {
        let mut payload = Vec::new();
        encode_header(&mut payload, gen, base_blocks);
        let mut frame = Vec::new();
        put_frame(&mut frame, &payload);
        append_repairing(&mut *file, &frame)?;
        file.sync()?;
        Ok(WalWriter {
            file,
            frame,
            payload,
            key_ids: HashMap::new(),
            next_key_id: 0,
            appended_points: 0,
            synced_points: 0,
            failed_points: 0,
            pending: 0,
            sync_every: sync_every.max(1),
            sync_failures: 0,
        })
    }

    /// Current file length.
    pub(crate) fn bytes(&self) -> u64 {
        self.file.len()
    }

    /// Points appended but not yet covered by a successful sync.
    #[cfg(test)]
    pub(crate) fn unsynced_points(&self) -> u64 {
        self.appended_points - self.synced_points
    }

    /// The current key-id map (compaction seeds the next generation's
    /// writer from the store instead, so this is test-only).
    #[cfg(test)]
    pub(crate) fn n_keys(&self) -> usize {
        self.key_ids.len()
    }

    /// Append one point record (plus a key definition on first sight
    /// of the key), fsyncing when the batch fills. On failure the
    /// point is *not* durable; the caller counts it at-risk.
    pub(crate) fn append_point(
        &mut self,
        key: &SeriesKey,
        t: u64,
        v: f64,
    ) -> Result<(), DiskError> {
        let key_id = match self.key_ids.get(key) {
            Some(&id) => id,
            None => {
                let id = self.next_key_id;
                self.payload.clear();
                self.payload.push(KIND_KEYDEF);
                put_varint(&mut self.payload, id);
                put_str(&mut self.payload, key.host.as_str());
                put_str(&mut self.payload, key.dev_type.as_str());
                put_str(&mut self.payload, key.device.as_str());
                put_str(&mut self.payload, key.event.as_str());
                self.frame.clear();
                put_frame(&mut self.frame, &self.payload);
                append_repairing(&mut *self.file, &self.frame)?;
                // alloc: cold (first sight of a series key; every later point reuses the id)
                self.key_ids.insert(key.clone(), id);
                self.next_key_id = id + 1;
                id
            }
        };
        self.payload.clear();
        self.payload.push(KIND_POINT);
        put_varint(&mut self.payload, key_id);
        put_varint(&mut self.payload, t);
        self.payload.extend_from_slice(&v.to_bits().to_le_bytes());
        self.frame.clear();
        put_frame(&mut self.frame, &self.payload);
        match append_repairing(&mut *self.file, &self.frame) {
            Ok(()) => {
                self.appended_points += 1;
                self.pending += 1;
                if self.pending >= self.sync_every {
                    self.sync()?;
                }
                Ok(())
            }
            Err(e) => {
                self.failed_points += 1;
                Err(e)
            }
        }
    }

    /// Append a seal marker (the caller has already fsynced the
    /// segment block it names). Rides the next batched sync.
    pub(crate) fn append_seal(&mut self, ordinal: u64) -> Result<(), DiskError> {
        self.payload.clear();
        self.payload.push(KIND_SEAL);
        put_varint(&mut self.payload, ordinal);
        self.frame.clear();
        put_frame(&mut self.frame, &self.payload);
        append_repairing(&mut *self.file, &self.frame)
    }

    /// fsync now. On success the durable watermark advances to cover
    /// every appended point; on failure it stays put and the failure
    /// is counted.
    pub(crate) fn sync(&mut self) -> Result<(), DiskError> {
        match self.file.sync() {
            Ok(()) => {
                self.synced_points = self.appended_points;
                self.pending = 0;
                Ok(())
            }
            Err(e) => {
                self.sync_failures += 1;
                Err(e)
            }
        }
    }
}

/// Append `frame`, repairing one short write by truncating back to the
/// pre-append boundary and retrying once — so the file only ever grows
/// by whole frames (modulo a kill, whose torn tail recovery skips).
pub(crate) fn append_repairing(file: &mut dyn DurFile, frame: &[u8]) -> Result<(), DiskError> {
    let boundary = file.len();
    match file.append(frame) {
        Ok(()) => Ok(()),
        Err(DiskError::ShortWrite { .. }) => {
            // crash-order: repair (short-write repair: rewind to the last full-frame boundary before retrying)
            file.truncate(boundary)?;
            file.append(frame)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{MemVfs, Vfs};
    use proptest::prelude::*;
    use tacc_simnode::faults::DiskFaultPlan;

    fn key(i: u64) -> SeriesKey {
        SeriesKey::new(&format!("c{i:03}"), "mdc", "scratch", "reqs")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn frames_round_trip_and_detect_tears() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"one");
        put_frame(&mut buf, b"two!");
        put_frame(&mut buf, b"");
        let mut scan = FrameScan::new(&buf);
        assert_eq!(scan.next(), Some(&b"one"[..]));
        assert_eq!(scan.next(), Some(&b"two!"[..]));
        assert_eq!(scan.next(), Some(&b""[..]));
        assert_eq!(scan.next(), None);
        assert_eq!(scan.stop(), ScanStop::Clean);
        assert_eq!(scan.valid_len(), buf.len() as u64);

        // Torn mid-payload: the last whole frame still reads.
        let cut = buf.len() - 2;
        let mut scan = FrameScan::new(&buf[..cut]);
        assert_eq!(scan.next(), Some(&b"one"[..]));
        assert_eq!(scan.next(), Some(&b"two!"[..]));
        assert_eq!(scan.next(), None);
        assert_eq!(scan.stop(), ScanStop::TornTail);
        assert_eq!(scan.torn_bytes(), (cut as u64) - scan.valid_len());

        // Bit flip in a payload: scan stops at the bad frame.
        let mut bad = buf.clone();
        bad[FRAME_HEADER + 1] ^= 0x40;
        let mut scan = FrameScan::new(&bad);
        assert_eq!(scan.next(), None);
        assert_eq!(scan.stop(), ScanStop::BadFrame);
        assert_eq!(scan.valid_len(), 0);
    }

    #[test]
    fn entries_encode_and_decode() {
        let mut p = Vec::new();
        encode_header(&mut p, 7, 42);
        assert_eq!(
            decode_entry(&p),
            Some(WalEntry::Header {
                gen: 7,
                base_blocks: 42
            })
        );
        assert_eq!(decode_entry(&[]), None);
        assert_eq!(decode_entry(&[0x77, 1, 2]), None, "unknown kind");
        assert_eq!(decode_entry(&[KIND_POINT]), None, "truncated point");
    }

    #[test]
    fn writer_interns_keys_and_scanner_replays() {
        let vfs = MemVfs::new();
        let file = vfs.open_append("w", 0).unwrap();
        let mut w = WalWriter::create(file, 3, 0, 4).unwrap();
        for i in 0..10u64 {
            w.append_point(&key(i % 2), 100 + i, i as f64).unwrap();
        }
        w.append_seal(0).unwrap();
        w.sync().unwrap();
        assert_eq!(w.n_keys(), 2, "two distinct keys interned once each");
        assert_eq!(w.appended_points, 10);
        assert_eq!(w.unsynced_points(), 0);

        let bytes = vfs.read("w").unwrap().unwrap();
        let mut scan = FrameScan::new(&bytes);
        let mut entries = Vec::new();
        while let Some(p) = scan.next() {
            entries.push(decode_entry(p).expect("all payloads decode"));
        }
        assert_eq!(scan.stop(), ScanStop::Clean);
        assert_eq!(
            entries.first(),
            Some(&WalEntry::Header {
                gen: 3,
                base_blocks: 0
            })
        );
        let points = entries
            .iter()
            .filter(|e| matches!(e, WalEntry::Point { .. }))
            .count();
        let keydefs = entries
            .iter()
            .filter(|e| matches!(e, WalEntry::KeyDef { .. }))
            .count();
        let seals = entries
            .iter()
            .filter(|e| matches!(e, WalEntry::Seal { .. }))
            .count();
        assert_eq!((points, keydefs, seals), (10, 2, 1));
    }

    #[test]
    fn batched_sync_advances_watermark_in_steps() {
        let vfs = MemVfs::new();
        let file = vfs.open_append("w", 0).unwrap();
        let mut w = WalWriter::create(file, 0, 0, 4).unwrap();
        for i in 0..6u64 {
            w.append_point(&key(0), i, 0.0).unwrap();
        }
        // 4 synced by the batch, 2 pending.
        assert_eq!(w.synced_points, 4);
        assert_eq!(w.unsynced_points(), 2);
        w.sync().unwrap();
        assert_eq!(w.unsynced_points(), 0);
    }

    #[test]
    fn short_write_is_repaired_in_place() {
        // Ordinal 2 short-writes (0 is the header, 1 the keydef).
        let plan = DiskFaultPlan {
            short_write_at: vec![2],
            ..DiskFaultPlan::default()
        };
        let vfs = MemVfs::with_faults(plan);
        let file = vfs.open_append("w", 0).unwrap();
        let mut w = WalWriter::create(file, 0, 0, 64).unwrap();
        for i in 0..3u64 {
            w.append_point(&key(0), i, 1.0).unwrap();
        }
        w.sync().unwrap();
        let bytes = vfs.read("w").unwrap().unwrap();
        let mut scan = FrameScan::new(&bytes);
        let mut points = 0;
        while let Some(p) = scan.next() {
            if matches!(decode_entry(p), Some(WalEntry::Point { .. })) {
                points += 1;
            }
        }
        assert_eq!(
            scan.stop(),
            ScanStop::Clean,
            "repair left whole frames only"
        );
        assert_eq!(points, 3);
    }

    #[test]
    fn sync_failure_is_counted_and_watermark_holds() {
        let plan = DiskFaultPlan {
            sync_fail_at: vec![1], // 0 is the header sync
            ..DiskFaultPlan::default()
        };
        let vfs = MemVfs::with_faults(plan);
        let file = vfs.open_append("w", 0).unwrap();
        let mut w = WalWriter::create(file, 0, 0, 64).unwrap();
        w.append_point(&key(0), 1, 1.0).unwrap();
        assert!(w.sync().is_err());
        assert_eq!(w.sync_failures, 1);
        assert_eq!(w.unsynced_points(), 1);
        w.sync().unwrap();
        assert_eq!(w.unsynced_points(), 0);
    }

    proptest! {
        /// Frame streams survive arbitrary truncation: the scanner
        /// yields exactly the records that fit wholly inside the cut,
        /// in order, and never panics.
        #[test]
        fn truncated_streams_yield_exact_prefixes(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40), 0..20),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut buf = Vec::new();
            let mut ends = Vec::new();
            for p in &payloads {
                put_frame(&mut buf, p);
                ends.push(buf.len());
            }
            let cut = (buf.len() as f64 * cut_frac) as usize;
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            let mut scan = FrameScan::new(&buf[..cut]);
            let mut got = Vec::new();
            while let Some(p) = scan.next() {
                got.push(p.to_vec());
            }
            prop_assert_eq!(got.len(), whole);
            for (g, w) in got.iter().zip(payloads.iter()) {
                prop_assert_eq!(g, w);
            }
            if whole < payloads.len() && cut > ends.get(whole.wrapping_sub(1)).copied().unwrap_or(0) {
                prop_assert_eq!(scan.stop(), ScanStop::TornTail);
            }
        }

        /// A single flipped bit anywhere in the stream never panics
        /// the scanner and never corrupts a record silently: every
        /// yielded record is bit-identical to one of the originals at
        /// its position (the flip either lands in a record that then
        /// fails its CRC, stopping the scan, or in a length/crc word,
        /// also stopping the scan).
        #[test]
        fn bit_flips_never_yield_corrupt_records(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..30), 1..12),
            flip_byte in any::<u64>(),
            flip_bit in 0u8..8,
        ) {
            let mut buf = Vec::new();
            for p in &payloads {
                put_frame(&mut buf, p);
            }
            let at = (flip_byte % buf.len() as u64) as usize;
            buf[at] ^= 1 << flip_bit;
            let mut scan = FrameScan::new(&buf);
            let mut i = 0usize;
            while let Some(p) = scan.next() {
                // CRC32 catches every single-bit error, so any record
                // that still scans must be unmodified — i.e. the flip
                // is at or after this record's end.
                prop_assert!(i < payloads.len());
                prop_assert_eq!(p, &payloads[i][..]);
                i += 1;
            }
        }

        /// WAL entries round-trip through encode/decode for arbitrary
        /// field values, including non-finite floats.
        #[test]
        fn point_entries_round_trip(
            kid in any::<u64>(), t in any::<u64>(), bits in any::<u64>()
        ) {
            let mut p = Vec::new();
            p.push(KIND_POINT);
            put_varint(&mut p, kid);
            put_varint(&mut p, t);
            p.extend_from_slice(&bits.to_le_bytes());
            match decode_entry(&p) {
                Some(WalEntry::Point { key_id, t: dt, v }) => {
                    prop_assert_eq!(key_id, kid);
                    prop_assert_eq!(dt, t);
                    prop_assert_eq!(v.to_bits(), bits);
                }
                other => prop_assert!(false, "bad decode: {:?}", other),
            }
        }
    }
}
