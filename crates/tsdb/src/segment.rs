//! Append-only per-shard segment files holding sealed columnar
//! blocks.
//!
//! A segment is a sequence of WAL-style frames (see [`crate::wal`]),
//! each carrying one sealed block:
//!
//! ```text
//! [0x11][host][dev_type][device][event]      4 × (varint len + bytes)
//!       [count varint][min_t varint][max_t varint]
//!       [ts_len varint][ts bytes][vs bytes]  vs = rest of payload
//! ```
//!
//! The `ts`/`vs` byte runs are the block's encoded columns *verbatim*
//! (delta-of-delta varint timestamps; byte-aligned XOR values with
//! their zero-pad tail), so a scan hands [`BlockCursor`] the mapped
//! file bytes directly — decoding a persisted block allocates nothing
//! and takes the same code path as an in-memory one.
//!
//! Blocks are addressed by *ordinal* (position in the file). The WAL's
//! Seal records name ordinals; recovery installs a block only when its
//! marker survived, and a marker is only ever written after this
//! file's fsync — so a surviving marker proves its block (see
//! [`crate::recover`]).
//!
//! This module is on the `cargo xtask lint` deny list: no panicking
//! constructs, no unchecked indexing.

use crate::block::{get_varint, put_varint, BlockCursor, SealedBlock, XOR_PAD};
use crate::series::SeriesKey;
use crate::vfs::{DiskError, DurFile};
#[cfg(test)]
use crate::wal::ScanStop;
use crate::wal::{append_repairing, put_frame, FrameScan};

const KIND_BLOCK: u8 = 0x11;

/// Append-side of one shard's segment file.
pub(crate) struct SegmentWriter {
    file: Box<dyn DurFile>,
    /// Frame staging buffer, reused across appends.
    frame: Vec<u8>,
    /// Payload staging buffer, reused across appends.
    payload: Vec<u8>,
    /// Blocks in the file (== the next block's ordinal).
    pub(crate) blocks: u64,
}

impl SegmentWriter {
    /// Wrap an already-positioned file that holds `blocks` valid
    /// block records (recovery path; `blocks == 0` for a fresh file).
    // alloc: cold-fn (writer construction; the frame/payload buffers are reused per block)
    pub(crate) fn open(file: Box<dyn DurFile>, blocks: u64) -> SegmentWriter {
        SegmentWriter {
            file,
            frame: Vec::new(),
            payload: Vec::new(),
            blocks,
        }
    }

    /// Current file length.
    pub(crate) fn bytes(&self) -> u64 {
        self.file.len()
    }

    /// Append one sealed block; returns its ordinal. The caller must
    /// [`SegmentWriter::sync`] before writing the WAL seal marker that
    /// names the ordinal.
    pub(crate) fn append_block(
        &mut self,
        key: &SeriesKey,
        block: &SealedBlock,
    ) -> Result<u64, DiskError> {
        self.payload.clear();
        self.payload.push(KIND_BLOCK);
        for s in [
            key.host.as_str(),
            key.dev_type.as_str(),
            key.device.as_str(),
            key.event.as_str(),
        ] {
            put_varint(&mut self.payload, s.len() as u64);
            self.payload.extend_from_slice(s.as_bytes());
        }
        put_varint(&mut self.payload, block.len() as u64);
        put_varint(&mut self.payload, block.min_t());
        put_varint(&mut self.payload, block.max_t());
        let ts = block.ts_col();
        let vs = block.vs_col();
        put_varint(&mut self.payload, ts.len() as u64);
        self.payload.extend_from_slice(ts);
        self.payload.extend_from_slice(vs);
        self.frame.clear();
        put_frame(&mut self.frame, &self.payload);
        append_repairing(&mut *self.file, &self.frame)?;
        let ordinal = self.blocks;
        self.blocks += 1;
        Ok(ordinal)
    }

    /// fsync the segment file.
    pub(crate) fn sync(&mut self) -> Result<(), DiskError> {
        self.file.sync()
    }
}

/// One block record borrowed out of a segment scan. The column slices
/// point into the scanned buffer — cursoring over them is zero-copy.
#[derive(Clone, Debug)]
pub(crate) struct BlockRec<'a> {
    /// Position of this block in the segment file.
    pub(crate) ordinal: u64,
    /// Series the block belongs to.
    pub(crate) key: SeriesKey,
    /// Point count.
    pub(crate) count: usize,
    /// First timestamp.
    pub(crate) min_t: u64,
    /// Last timestamp.
    pub(crate) max_t: u64,
    /// Encoded timestamp column.
    pub(crate) ts: &'a [u8],
    /// Encoded value column, including its [`XOR_PAD`] tail.
    pub(crate) vs: &'a [u8],
}

impl<'a> BlockRec<'a> {
    /// Zero-copy cursor straight over the segment bytes.
    pub(crate) fn cursor(&self) -> BlockCursor<'a> {
        BlockCursor::over_columns(self.ts, self.vs, self.count)
    }

    /// Materialise an owned [`SealedBlock`] (recovery installs these
    /// into the in-memory store).
    pub(crate) fn to_block(&self) -> SealedBlock {
        SealedBlock::from_parts(self.count, self.min_t, self.max_t, self.ts, self.vs)
    }
}

/// Iterator over the valid block records of a segment buffer. Stops at
/// the first torn or corrupt frame, like the WAL scanner.
pub(crate) struct SegmentScan<'a> {
    frames: FrameScan<'a>,
    total_len: u64,
    /// Byte boundary after the last record that fully decoded — the
    /// reopened writer truncates to here, so a frame whose payload
    /// failed to decode gets overwritten just like a torn one.
    good_len: u64,
    ordinal: u64,
    /// Records whose frame was intact but whose payload didn't decode
    /// (counted, then the scan stops — prefix semantics).
    pub(crate) corrupt_records: u64,
}

impl<'a> SegmentScan<'a> {
    /// Scan `bytes` from the start.
    pub(crate) fn new(bytes: &'a [u8]) -> SegmentScan<'a> {
        SegmentScan {
            frames: FrameScan::new(bytes),
            total_len: bytes.len() as u64,
            good_len: 0,
            ordinal: 0,
            corrupt_records: 0,
        }
    }

    /// Next valid block record.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn next(&mut self) -> Option<BlockRec<'a>> {
        if self.corrupt_records > 0 {
            return None;
        }
        let payload = self.frames.next()?;
        match decode_block(payload) {
            Some((key, count, min_t, max_t, ts, vs)) => {
                let ordinal = self.ordinal;
                self.ordinal += 1;
                self.good_len = self.frames.valid_len();
                Some(BlockRec {
                    ordinal,
                    key,
                    count,
                    min_t,
                    max_t,
                    ts,
                    vs,
                })
            }
            None => {
                self.corrupt_records += 1;
                None
            }
        }
    }

    /// Bytes covered by fully decoded records (where the writer
    /// reopens; everything past it is truncated away).
    pub(crate) fn valid_len(&self) -> u64 {
        self.good_len
    }

    /// Bytes past the last fully decoded record.
    pub(crate) fn torn_bytes(&self) -> u64 {
        self.total_len - self.good_len
    }

    /// Why the underlying frame scan stopped.
    #[cfg(test)]
    pub(crate) fn stop(&self) -> ScanStop {
        self.frames.stop()
    }

    /// Valid block records seen so far.
    pub(crate) fn blocks(&self) -> u64 {
        self.ordinal
    }
}

/// Decoded block record: key, point count, time bounds, and the raw
/// timestamp / value columns borrowed from the payload.
type DecodedBlock<'a> = (SeriesKey, usize, u64, u64, &'a [u8], &'a [u8]);

fn decode_block(payload: &[u8]) -> Option<DecodedBlock<'_>> {
    let (&kind, rest) = payload.split_first()?;
    if kind != KIND_BLOCK {
        return None;
    }
    let mut pos = 0usize;
    let mut strs = [""; 4];
    for slot in strs.iter_mut() {
        let len = get_varint(rest, &mut pos)? as usize;
        let bytes = rest.get(pos..pos.checked_add(len)?)?;
        pos += len;
        *slot = std::str::from_utf8(bytes).ok()?;
    }
    let count = get_varint(rest, &mut pos)? as usize;
    let min_t = get_varint(rest, &mut pos)?;
    let max_t = get_varint(rest, &mut pos)?;
    let ts_len = get_varint(rest, &mut pos)? as usize;
    let ts = rest.get(pos..pos.checked_add(ts_len)?)?;
    pos += ts_len;
    let vs = rest.get(pos..)?;
    // Sanity floor: the decoder's unaligned load window requires the
    // value column to carry its pad; a block with points must have a
    // non-trivial timestamp column.
    if vs.len() < XOR_PAD || (count > 0 && ts.is_empty()) {
        return None;
    }
    let [host, dev_type, device, event] = strs;
    let key = SeriesKey::new(host, dev_type, device, event);
    Some((key, count, min_t, max_t, ts, vs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{MemVfs, Vfs};
    use proptest::prelude::*;

    fn key(i: usize) -> SeriesKey {
        SeriesKey::new(&format!("c{i:03}"), "ib", "mlx4_0", "rx_bytes")
    }

    fn sample_block(n: usize, t0: u64) -> SealedBlock {
        let ts: Vec<u64> = (0..n as u64).map(|i| t0 + i * 10).collect();
        let vs: Vec<f64> = (0..n).map(|i| (i as f64) * 1.5 - 3.0).collect();
        SealedBlock::encode(&ts, &vs)
    }

    #[test]
    fn blocks_round_trip_bit_identical() {
        let vfs = MemVfs::new();
        let mut w = SegmentWriter::open(vfs.open_append("s", 0).unwrap(), 0);
        let blocks: Vec<SealedBlock> = (0..3).map(|i| sample_block(64 + i, 1000)).collect();
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(w.append_block(&key(i), b).unwrap(), i as u64);
        }
        w.sync().unwrap();

        let bytes = vfs.read("s").unwrap().unwrap();
        let mut scan = SegmentScan::new(&bytes);
        let mut seen = 0usize;
        while let Some(rec) = scan.next() {
            let orig = &blocks[rec.ordinal as usize];
            assert_eq!(rec.key, key(rec.ordinal as usize));
            assert_eq!(rec.count, orig.len());
            assert_eq!((rec.min_t, rec.max_t), (orig.min_t(), orig.max_t()));
            assert_eq!(rec.ts, orig.ts_col(), "timestamp column bit-identical");
            assert_eq!(rec.vs, orig.vs_col(), "value column bit-identical");
            let back = rec.to_block();
            let mut a = (Vec::new(), Vec::new());
            let mut b = (Vec::new(), Vec::new());
            orig.decode_into(&mut a.0, &mut a.1);
            back.decode_into(&mut b.0, &mut b.1);
            assert_eq!(a, b);
            seen += 1;
        }
        assert_eq!(seen, 3);
        assert_eq!(scan.stop(), ScanStop::Clean);
        assert_eq!(scan.valid_len(), bytes.len() as u64);
    }

    #[test]
    fn zero_copy_cursor_reads_segment_bytes() {
        let vfs = MemVfs::new();
        let mut w = SegmentWriter::open(vfs.open_append("s", 0).unwrap(), 0);
        let block = sample_block(512, 5_000);
        w.append_block(&key(0), &block).unwrap();
        let bytes = vfs.read("s").unwrap().unwrap();
        let mut scan = SegmentScan::new(&bytes);
        let rec = scan.next().unwrap();
        let mut cur = rec.cursor();
        let mut got = Vec::new();
        while let Some(p) = cur.next_point() {
            got.push(p);
        }
        let mut want = Vec::new();
        let mut c = block.cursor();
        while let Some(p) = c.next_point() {
            want.push(p);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn torn_tail_preserves_whole_blocks() {
        let vfs = MemVfs::new();
        let mut w = SegmentWriter::open(vfs.open_append("s", 0).unwrap(), 0);
        for i in 0..2 {
            w.append_block(&key(i), &sample_block(32, 100)).unwrap();
        }
        let bytes = vfs.read("s").unwrap().unwrap();
        let cut = bytes.len() - 7;
        let mut scan = SegmentScan::new(&bytes[..cut]);
        assert!(scan.next().is_some());
        assert!(scan.next().is_none());
        assert_eq!(scan.blocks(), 1);
        assert_eq!(scan.stop(), ScanStop::TornTail);
        assert!(scan.torn_bytes() > 0);
    }

    proptest! {
        /// Segment persistence is lossless for arbitrary point data:
        /// the scanned record's columns are bit-identical to the
        /// in-memory block's, and both cursor to the same points.
        #[test]
        fn persisted_blocks_decode_bit_identical(
            raw in proptest::collection::vec((0u64..1_000_000, -1e12f64..1e12), 1..200)
        ) {
            let mut ts: Vec<u64> = raw.iter().map(|&(t, _)| t).collect();
            ts.sort_unstable();
            let vs: Vec<f64> = raw.iter().map(|&(_, v)| v).collect();
            let block = SealedBlock::encode(&ts, &vs);

            let vfs = MemVfs::new();
            let mut w = SegmentWriter::open(vfs.open_append("s", 0).unwrap(), 0);
            w.append_block(&key(0), &block).unwrap();
            let bytes = vfs.read("s").unwrap().unwrap();
            let mut scan = SegmentScan::new(&bytes);
            let rec = scan.next().expect("one block");
            prop_assert_eq!(rec.ts, block.ts_col());
            prop_assert_eq!(rec.vs, block.vs_col());
            let mut cur = rec.cursor();
            let mut got = Vec::new();
            while let Some(p) = cur.next_point() {
                got.push(p);
            }
            let mut want_c = block.cursor();
            let mut want = Vec::new();
            while let Some(p) = want_c.next_point() {
                want.push(p);
            }
            prop_assert_eq!(got, want);
        }
    }
}
