//! Columnar block encoding for one time series.
//!
//! A series is stored as a run of immutable [`SealedBlock`]s plus a
//! small append-only head ([`SeriesBlocks`]). Each sealed block holds
//! up to [`SEAL_THRESHOLD`] points in two byte columns:
//!
//! * **Timestamp column** — first timestamp as a LEB128 varint, then
//!   the first delta as a varint, then delta-of-delta residuals as
//!   zigzag varints. Monitoring samples arrive on a fixed cadence, so
//!   the residual is almost always `0` and costs one byte per point.
//! * **Value column** — first value's IEEE-754 bits, then `bits XOR
//!   previous-bits`, each as a control byte (leading/trailing zero
//!   *byte* counts, Gorilla-style but byte-aligned) followed by the
//!   meaningful middle bytes. A repeated value costs one byte; a
//!   varying `f64` costs one byte more than its span of non-zero
//!   bytes. Byte alignment is deliberate: decode is one control byte
//!   and one unaligned load, not a bit-at-a-time (or varint
//!   byte-at-a-time) loop, which is what makes block scans competitive
//!   with raw-vector scans. The round-trip is bit-exact for every
//!   `f64` including NaN payloads.
//!
//! All arithmetic is wrapping, which makes the encoding a bijection on
//! `u64`: `delta.wrapping_sub(prev)` zigzagged and later
//! `prev.wrapping_add(residual)` invert each other for *every* input,
//! so correctness never depends on timestamps being "reasonable".
//!
//! Inserts land in the head, which is kept sorted (out-of-order
//! arrivals use a binary-search insert, matching the point-vec store
//! this module replaced: a new point sorts *after* existing points
//! with an equal timestamp). When the head reaches the seal threshold
//! it is compressed into a sealed block. A point older than the sealed
//! range — rare: only replay after a very late redelivery — is merged
//! by decoding the one overlapping block, inserting, and re-encoding
//! it; no other block is touched.
//!
//! Sealing also derives the block's **hourly rollup**: for every
//! absolute hour `t / ROLLUP_SECS` the block touches, the partial
//! `(sum, n)` of its points in time order, stored behind the columns in
//! the same buffer. Folds that need only sums and counts over whole
//! hours ([`SeriesBlocks::for_each_partial_in`]) read those cells
//! instead of decoding. The rollup is a pure function of the points —
//! rebuilt by one decode when a persisted block is reinstalled, never
//! written to disk — and a block that outgrew the seal threshold, is
//! unsorted, or is mostly empty hours simply has none and is decoded.
//!
//! Queries never materialize an intermediate `Vec<DataPoint>`:
//! [`SeriesBlocks::for_each_in`] streams decoded points to a closure,
//! and [`SeriesBlocks::for_each_partial_in`] is the same walk for folds
//! that can take whole hours from the rollup cells.
//!
//! This module is on the `cargo xtask lint` deny list: no panicking
//! constructs, no unchecked indexing.

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global sealed-block id source. Ids are only ever compared
/// for equality (the shard decoded-block caches key on them), so a
/// relaxed counter is enough; `0` is reserved for never-encoded
/// (default-constructed) blocks, which caches skip.
static NEXT_BLOCK_ID: AtomicU64 = AtomicU64::new(1);

/// Number of points the mutable head accumulates before it is
/// compressed into a sealed block.
///
/// At the paper's 10-minute cadence this is ~3.5 days of one series
/// per block; small enough that the decode-merge-reencode path for a
/// late out-of-order point stays cheap, large enough that the varint
/// columns amortize their two-word header.
pub const SEAL_THRESHOLD: usize = 512;

/// Width of one rollup cell: a sealed block carries, per absolute hour
/// `t / ROLLUP_SECS` it touches, the partial `(sum, n)` of its points.
pub const ROLLUP_SECS: u64 = 3600;

/// Stored size of one rollup cell: the `f64` sum then the `u16` count,
/// both little-endian.
const CELL_BYTES: usize = 10;

/// A block so sparse that its cells would outnumber its points by more
/// than this gets no rollup (decoding it is cheaper than walking its
/// empty hours).
const ROLLUP_MAX_CELLS_PER_POINT: u64 = 4;

/// Append a LEB128 varint. (Shared with the WAL/segment record codecs.)
pub(crate) fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Read a LEB128 varint at `*pos`, advancing it. `None` on truncation.
pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    // Fast path: the steady-state timestamp byte (zero delta-of-delta
    // residual) is a single sub-0x80 byte.
    let &b0 = bytes.get(*pos)?;
    if b0 < 0x80 {
        *pos += 1;
        return Some(u64::from(b0));
    }
    let mut x: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(x);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Encoded length of a value word in the byte-aligned XOR scheme:
/// one control byte plus the meaningful middle bytes. (Encoding now
/// writes through reusable scratch, so sizing is only asserted in
/// tests.)
#[cfg(test)]
fn xor_len(x: u64) -> usize {
    if x == 0 {
        return 1;
    }
    let lead = (x.leading_zeros() / 8) as usize;
    let trail = (x.trailing_zeros() / 8) as usize;
    1 + 8 - lead - trail
}

/// Append a value word: control byte `(leading-zero-bytes << 4) |
/// trailing-zero-bytes`, then the middle bytes little-endian. Zero is
/// the single byte `0x80` (8 leading zero bytes, nothing else).
fn put_xor(out: &mut Vec<u8>, x: u64) {
    if x == 0 {
        out.push(0x80);
        return;
    }
    let lead = (x.leading_zeros() / 8) as usize;
    let trail = (x.trailing_zeros() / 8) as usize;
    let mid = 8 - lead - trail;
    out.push(((lead as u8) << 4) | trail as u8);
    let le = (x >> (8 * trail)).to_le_bytes();
    out.extend_from_slice(le.get(..mid).unwrap_or(&[]));
}

/// Number of zero bytes appended after the last value word, so
/// [`get_xor`] can always load a full eight-byte window instead of a
/// byte-at-a-time loop. (`XOR_PAD` >= 8: a zero word consumes only its
/// control byte, leaving the window one byte short of `mid`'s maximum.)
pub(crate) const XOR_PAD: usize = 8;

/// Read a value word at `*pos`, advancing it. The column must carry
/// [`XOR_PAD`] trailing zero bytes (encode always pads): the decoder
/// loads a full eight-byte window unconditionally and masks it down to
/// the meaningful bytes, so decode is one load, one mask, one shift —
/// no per-byte loop. `None` on truncation or a corrupt control byte.
fn get_xor(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let &c = bytes.get(*pos)?;
    let chunk = bytes.get(*pos + 1..*pos + 9)?;
    let le: [u8; 8] = chunk.try_into().ok()?;
    let lead = usize::from(c >> 4);
    let trail = usize::from(c & 0x0F);
    let mid = 8usize.checked_sub(lead + trail)?;
    *pos += 1 + mid;
    let w = u64::from_le_bytes(le);
    let w = if mid == 8 {
        w
    } else {
        w & ((1u64 << (8 * mid)) - 1)
    };
    // checked_shl guards the corrupt-control case (trail == 8 with
    // mid == 0); the payload is zero there anyway.
    Some(w.checked_shl(8 * trail as u32).unwrap_or(0))
}

/// Zigzag-fold a signed residual into an unsigned varint payload.
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Unfold [`zigzag`].
fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Reusable seal-time encode buffers. The encoder streams both columns
/// into these (amortized: they grow once and are reused for every
/// subsequent seal), then copies them into one exact-size allocation
/// per block — so steady-state sealing costs a single allocation.
#[derive(Clone, Debug, Default)]
pub struct SealScratch {
    /// Timestamp column staging buffer.
    ts: Vec<u8>,
    /// Value column staging buffer.
    vs: Vec<u8>,
}

/// An immutable compressed run of points, sorted by timestamp.
#[derive(Clone, Debug, Default)]
pub struct SealedBlock {
    /// Number of points in the block.
    count: usize,
    /// Timestamp of the first point.
    min_t: u64,
    /// Timestamp of the last point.
    max_t: u64,
    /// Byte offset where the value column starts inside `cols`.
    ts_len: usize,
    /// Byte offset where the value column ends and the rollup cells
    /// start inside `cols` (`== cols.len()` for a block without one).
    roll_off: usize,
    /// Both columns in one exact-size buffer: the delta-of-delta
    /// zigzag-varint timestamp column, then the XOR-previous
    /// byte-aligned value column (with its [`XOR_PAD`] tail) — and
    /// after them the hourly rollup, dense from hour `min_t /
    /// ROLLUP_SECS`, [`CELL_BYTES`] per cell. The rollup is derived
    /// from the points at seal and again at [`SealedBlock::from_parts`];
    /// it is never persisted.
    cols: Vec<u8>,
    /// Process-unique id (see [`NEXT_BLOCK_ID`]); `0` only on
    /// default-constructed, never-encoded blocks.
    id: u64,
}

impl SealedBlock {
    /// Compress parallel timestamp/value columns (timestamps must be
    /// sorted; the encoder trusts but never *requires* this — decoding
    /// reproduces the input order bit-exactly either way). Allocates a
    /// throwaway [`SealScratch`]; hot paths that seal repeatedly should
    /// call [`SealedBlock::encode_with_scratch`] instead.
    pub fn encode(ts: &[u64], vs: &[f64]) -> SealedBlock {
        let mut scratch = SealScratch::default();
        Self::encode_with_scratch(ts, vs, &mut scratch)
    }

    /// Like [`SealedBlock::encode`], but staging both columns through
    /// the caller's reusable scratch so the only allocation left in a
    /// steady-state seal is the block's own exact-size column buffer.
    fn encode_with_scratch(ts: &[u64], vs: &[f64], scratch: &mut SealScratch) -> SealedBlock {
        let count = ts.len().min(vs.len());
        scratch.ts.clear();
        scratch.vs.clear();
        let mut prev_t = 0u64;
        let mut prev_delta = 0u64;
        let mut prev_bits = 0u64;
        for (i, (&t, &v)) in ts.iter().zip(vs.iter()).enumerate() {
            let (tw, vw) = Self::column_words(i, t, v, prev_t, prev_delta, prev_bits);
            put_varint(&mut scratch.ts, tw);
            put_xor(&mut scratch.vs, vw);
            prev_delta = t.wrapping_sub(prev_t);
            prev_t = t;
            prev_bits = v.to_bits();
        }
        let ts_len = scratch.ts.len();
        let roll_off = ts_len + scratch.vs.len() + XOR_PAD;
        let points_t = ts.get(..count).unwrap_or(ts);
        let cells = rollup_cells(points_t);
        // alloc: cold (seal builds the block's owned storage, once per ~block of points)
        let mut cols = Vec::with_capacity(roll_off + cells * CELL_BYTES);
        cols.extend_from_slice(&scratch.ts);
        cols.extend_from_slice(&scratch.vs);
        // Padding window for the decoder's unconditional 8-byte loads.
        cols.extend_from_slice(&[0u8; XOR_PAD]);
        if cells > 0 {
            push_rollup(&mut cols, points_t, vs);
        }
        SealedBlock {
            count,
            min_t: ts.first().copied().unwrap_or(0),
            max_t: ts.last().copied().unwrap_or(0),
            ts_len,
            roll_off,
            cols,
            id: NEXT_BLOCK_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The timestamp column bytes (shared with the segment codec).
    pub(crate) fn ts_col(&self) -> &[u8] {
        self.cols.get(..self.ts_len).unwrap_or(&[])
    }

    /// The value column bytes, including the pad tail but not the
    /// rollup behind it (shared with the segment codec).
    pub(crate) fn vs_col(&self) -> &[u8] {
        self.cols.get(self.ts_len..self.roll_off).unwrap_or(&[])
    }

    /// The rollup cells, [`CELL_BYTES`] each, dense from hour `min_t /
    /// ROLLUP_SECS`; empty for a block without a rollup.
    fn cells(&self) -> &[u8] {
        self.cols.get(self.roll_off..).unwrap_or(&[])
    }

    /// Reassemble a block from persisted parts: the metadata words and
    /// the two column byte runs (`vs` must include its [`XOR_PAD`]
    /// tail, exactly as [`SealedBlock::ts_col`]/[`SealedBlock::vs_col`]
    /// expose them). One exact-size allocation; the block gets a fresh
    /// process-unique id, so decoded-block caches never confuse it
    /// with a pre-crash incarnation. The rollup is not among the
    /// persisted parts: one decode through stack columns rebuilds
    /// exactly the cells the block was sealed with.
    pub(crate) fn from_parts(
        count: usize,
        min_t: u64,
        max_t: u64,
        ts: &[u8],
        vs: &[u8],
    ) -> SealedBlock {
        let mut ts_buf = [0u64; SEAL_THRESHOLD];
        let mut vs_buf = [0f64; SEAL_THRESHOLD];
        let mut decoded = 0usize;
        let slots = ts_buf.iter_mut().zip(vs_buf.iter_mut());
        for ((slot_t, slot_v), (t, v)) in slots.zip(BlockCursor::over_columns(ts, vs, count)) {
            (*slot_t, *slot_v) = (t, v);
            decoded += 1;
        }
        let dec_t = ts_buf.get(..decoded).unwrap_or(&[]);
        let dec_v = vs_buf.get(..decoded).unwrap_or(&[]);
        // Cells are indexed from `min_t`'s hour: a block that outgrew
        // the stack columns, or whose metadata disagrees with them,
        // forfeits the rollup.
        let whole =
            decoded == count && dec_t.first() == Some(&min_t) && dec_t.last() == Some(&max_t);
        let cells = if whole { rollup_cells(dec_t) } else { 0 };
        let roll_off = ts.len() + vs.len();
        // alloc: cold (block reconstruction from replayed columns, recovery-time only)
        let mut cols = Vec::with_capacity(roll_off + cells * CELL_BYTES);
        cols.extend_from_slice(ts);
        cols.extend_from_slice(vs);
        if cells > 0 {
            push_rollup(&mut cols, dec_t, dec_v);
        }
        SealedBlock {
            count,
            min_t,
            max_t,
            ts_len: ts.len(),
            roll_off,
            cols,
            id: NEXT_BLOCK_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Process-unique identity of this encoded block, used as the
    /// decoded-block cache key. Re-encoding (the out-of-order merge
    /// path) produces a *new* id, so caches never serve stale bytes.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The column payloads of point `i`: raw timestamp / first delta /
    /// zigzagged delta-of-delta residual (varint-encoded), and raw
    /// bits / XOR-previous bits (byte-aligned XOR encoding). Shared by
    /// the sizing and writing passes of [`SealedBlock::encode`].
    #[inline]
    fn column_words(
        i: usize,
        t: u64,
        v: f64,
        prev_t: u64,
        prev_delta: u64,
        prev_bits: u64,
    ) -> (u64, u64) {
        match i {
            0 => (t, v.to_bits()),
            1 => (t.wrapping_sub(prev_t), v.to_bits() ^ prev_bits),
            _ => {
                let delta = t.wrapping_sub(prev_t);
                (
                    zigzag(delta.wrapping_sub(prev_delta) as i64),
                    v.to_bits() ^ prev_bits,
                )
            }
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the block holds no points.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Timestamp of the first point (0 for an empty block).
    pub fn min_t(&self) -> u64 {
        self.min_t
    }

    /// Timestamp of the last point (0 for an empty block).
    pub fn max_t(&self) -> u64 {
        self.max_t
    }

    /// Encoded size in bytes of both columns — what the segment writer
    /// persists. The rollup is extra: see [`SealedBlock::rollup_bytes`].
    pub fn encoded_bytes(&self) -> usize {
        self.roll_off
    }

    /// Bytes of the hourly rollup riding behind the columns (0 for a
    /// block without one).
    pub fn rollup_bytes(&self) -> usize {
        self.cells().len()
    }

    /// The hour range `[h0, h1)` of this block's cells that a fold of
    /// `[t0, t1)` takes in place of its points, or `None` when the
    /// block has to be decoded: it has no rollup, or an edge of the
    /// window cuts through an hour the block may hold points in (`t0`
    /// must be hour-aligned; `t1` too, unless the block ends before it).
    fn cell_range(&self, t0: u64, t1: u64) -> Option<(u64, u64)> {
        if self.rollup_bytes() == 0 || !t0.is_multiple_of(ROLLUP_SECS) {
            return None;
        }
        if t1.is_multiple_of(ROLLUP_SECS) {
            Some((t0 / ROLLUP_SECS, t1 / ROLLUP_SECS))
        } else if self.max_t < t1 {
            Some((t0 / ROLLUP_SECS, u64::MAX))
        } else {
            None
        }
    }

    /// The block's hour cells with `h0 <= hour < h1`, as one run;
    /// cells outside the range are skipped by index, not read.
    fn hours_in(&self, h0: u64, h1: u64) -> HourCells<'_> {
        let first = self.min_t / ROLLUP_SECS;
        let skip = usize::try_from(h0.saturating_sub(first)).unwrap_or(usize::MAX);
        let end = usize::try_from(h1.saturating_sub(first)).unwrap_or(usize::MAX);
        let (cells, _) = self.cells().as_chunks::<CELL_BYTES>();
        HourCells {
            first_hour: first.saturating_add(skip as u64),
            cells: cells.get(skip..end.min(cells.len())).unwrap_or(&[]),
        }
    }

    /// A streaming decoder positioned at the first point.
    pub fn cursor(&self) -> BlockCursor<'_> {
        BlockCursor {
            ts: self.ts_col(),
            vs: self.vs_col(),
            ts_pos: 0,
            vs_pos: 0,
            emitted: 0,
            count: self.count,
            prev_t: 0,
            prev_delta: 0,
            prev_bits: 0,
        }
    }

    /// Decode every point into the given columns (append).
    pub fn decode_into(&self, ts: &mut Vec<u64>, vs: &mut Vec<f64>) {
        ts.reserve(self.count);
        vs.reserve(self.count);
        let mut cur = self.cursor();
        while let Some((t, v)) = cur.next_point() {
            ts.push(t);
            vs.push(v);
        }
    }

    /// Decode into caller-provided columns (each at least `len()`
    /// long); returns the number of points written. Decodes each
    /// column in its own tight loop — the batch path scans use so the
    /// varint state machine never interleaves with caller work.
    fn decode_to_slices(&self, ts: &mut [u64], vs: &mut [f64]) -> usize {
        let n = self.count.min(ts.len()).min(vs.len());
        let ts_col = self.ts_col();
        let vs_col = self.vs_col();
        // Timestamp column: the first two points carry the raw start
        // and first delta; handling them before the loop keeps the
        // steady-state body branch-free (one varint, two adds, one
        // store per point).
        let mut pos = 0usize;
        let mut prev_t = 0u64;
        let mut prev_delta = 0u64;
        let mut decoded = 0usize;
        for (i, slot) in ts.iter_mut().take(n).enumerate().take(2) {
            let Some(w) = get_varint(ts_col, &mut pos) else {
                return decoded;
            };
            if i == 1 {
                prev_delta = w;
                prev_t = prev_t.wrapping_add(w);
            } else {
                prev_t = w;
            }
            *slot = prev_t;
            decoded = i + 1;
        }
        for slot in ts.iter_mut().take(n).skip(2) {
            let Some(w) = get_varint(ts_col, &mut pos) else {
                return decoded;
            };
            prev_delta = prev_delta.wrapping_add(unzigzag(w) as u64);
            prev_t = prev_t.wrapping_add(prev_delta);
            *slot = prev_t;
            decoded += 1;
        }
        // Value column, same shape: seed the XOR chain, then a
        // branch-free body (one load, one xor, one store per point).
        pos = 0;
        let mut prev_bits = 0u64;
        decoded = 0;
        if let Some(slot) = vs.first_mut().filter(|_| n > 0) {
            let Some(x) = get_xor(vs_col, &mut pos) else {
                return 0;
            };
            prev_bits = x;
            *slot = f64::from_bits(x);
            decoded = 1;
        }
        for slot in vs.iter_mut().take(n).skip(1) {
            let Some(x) = get_xor(vs_col, &mut pos) else {
                return decoded;
            };
            prev_bits ^= x;
            *slot = f64::from_bits(prev_bits);
            decoded += 1;
        }
        n
    }
}

/// Cells an hourly rollup of a block with these timestamps takes — 0
/// when the block gets none: empty, grown past [`SEAL_THRESHOLD`] (a
/// cell counts in a `u16` and rebuilds through stack columns), not
/// sorted, or sparser than [`ROLLUP_MAX_CELLS_PER_POINT`].
fn rollup_cells(ts: &[u64]) -> usize {
    let (Some(&first), Some(&last)) = (ts.first(), ts.last()) else {
        return 0;
    };
    if ts.len() > SEAL_THRESHOLD || !ts.is_sorted() {
        return 0;
    }
    let cells = last / ROLLUP_SECS - first / ROLLUP_SECS + 1;
    if cells > ROLLUP_MAX_CELLS_PER_POINT * ts.len() as u64 {
        return 0;
    }
    cells as usize
}

/// Append one rollup cell.
fn push_cell(cols: &mut Vec<u8>, sum: f64, n: u16) {
    cols.extend_from_slice(&sum.to_le_bytes());
    cols.extend_from_slice(&n.to_le_bytes());
}

/// Append the hourly rollup of a block's points — [`rollup_cells`]`(ts)`
/// cells, which the caller has reserved: each hour's values summed in
/// time order from `0.0`, hours the block skips stored as `(0.0, 0)`.
fn push_rollup(cols: &mut Vec<u8>, ts: &[u64], vs: &[f64]) {
    let mut points = ts.iter().zip(vs);
    let Some((&t, &v)) = points.next() else {
        return;
    };
    let mut hour = t / ROLLUP_SECS;
    let (mut sum, mut n) = (0.0 + v, 1u16);
    for (&t, &v) in points {
        let h = t / ROLLUP_SECS;
        if h != hour {
            push_cell(cols, sum, n);
            for _ in hour + 1..h {
                push_cell(cols, 0.0, 0);
            }
            (hour, sum, n) = (h, 0.0, 0);
        }
        sum += v;
        n += 1;
    }
    push_cell(cols, sum, n);
}

/// One step of [`SeriesBlocks::for_each_partial_in`]: a point, or a
/// whole run of hours a sealed block serves from its rollup.
#[derive(Clone, Copy, Debug)]
pub enum Partial<'a> {
    /// One point `(t, v)`.
    Point(u64, f64),
    /// One sealed block's rollup cells for consecutive hours, clipped
    /// to the window.
    Hours(HourCells<'a>),
}

/// A run of rollup cells: `(sum, n)` for each hour in turn from
/// [`HourCells::first_hour`] on, `(0.0, 0)` for an hour the block holds
/// no point in.
#[derive(Clone, Copy, Debug)]
pub struct HourCells<'a> {
    /// Absolute hour (`t / ROLLUP_SECS`) of the first cell.
    pub first_hour: u64,
    cells: &'a [[u8; CELL_BYTES]],
}

impl<'a> HourCells<'a> {
    /// The cells' `(sum, n)`, one per hour.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u32)> + 'a {
        self.cells
            .iter()
            .map(|&[s0, s1, s2, s3, s4, s5, s6, s7, n0, n1]| {
                (
                    f64::from_le_bytes([s0, s1, s2, s3, s4, s5, s6, s7]),
                    u32::from(u16::from_le_bytes([n0, n1])),
                )
            })
    }
}

/// Stack columns one block decodes into.
fn zeroed_columns() -> ([u64; SEAL_THRESHOLD], [f64; SEAL_THRESHOLD]) {
    ([0; SEAL_THRESHOLD], [0.0; SEAL_THRESHOLD])
}

/// Streaming decoder over one [`SealedBlock`].
///
/// Borrows the block's columns; decoding state is a few machine words,
/// so skipping to a range start is a cheap decode-and-discard.
#[derive(Clone, Debug)]
pub struct BlockCursor<'a> {
    ts: &'a [u8],
    vs: &'a [u8],
    ts_pos: usize,
    vs_pos: usize,
    emitted: usize,
    count: usize,
    prev_t: u64,
    prev_delta: u64,
    prev_bits: u64,
}

impl<'a> BlockCursor<'a> {
    /// A cursor directly over borrowed column bytes — the zero-copy
    /// entry point the segment scanner uses to stream a persisted
    /// block without first materializing a [`SealedBlock`]. `vs` must
    /// carry its [`XOR_PAD`] tail (persisted columns always do).
    pub fn over_columns(ts: &'a [u8], vs: &'a [u8], count: usize) -> BlockCursor<'a> {
        BlockCursor {
            ts,
            vs,
            ts_pos: 0,
            vs_pos: 0,
            emitted: 0,
            count,
            prev_t: 0,
            prev_delta: 0,
            prev_bits: 0,
        }
    }
}

impl BlockCursor<'_> {
    /// Decode the next point, or `None` at end of block. (A corrupt —
    /// truncated — column also ends iteration; sealed columns are only
    /// ever produced by [`SealedBlock::encode`], so in practice this
    /// path is unreachable.)
    pub fn next_point(&mut self) -> Option<(u64, f64)> {
        if self.emitted >= self.count {
            return None;
        }
        let t = match self.emitted {
            0 => get_varint(self.ts, &mut self.ts_pos)?,
            1 => {
                self.prev_delta = get_varint(self.ts, &mut self.ts_pos)?;
                self.prev_t.wrapping_add(self.prev_delta)
            }
            _ => {
                let dod = unzigzag(get_varint(self.ts, &mut self.ts_pos)?);
                self.prev_delta = self.prev_delta.wrapping_add(dod as u64);
                self.prev_t.wrapping_add(self.prev_delta)
            }
        };
        let xored = get_xor(self.vs, &mut self.vs_pos)?;
        let bits = if self.emitted == 0 {
            xored
        } else {
            self.prev_bits ^ xored
        };
        self.prev_t = t;
        self.prev_bits = bits;
        self.emitted += 1;
        Some((t, f64::from_bits(bits)))
    }
}

impl Iterator for BlockCursor<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        self.next_point()
    }
}

/// One series' storage: sealed blocks plus the sorted mutable head.
///
/// Invariant: sealed blocks are ordered (`block[i].max_t <=
/// block[i+1].min_t` — equal only when duplicate timestamps straddle a
/// seal boundary) and every head timestamp is `>=` the last sealed
/// block's `max_t`.
#[derive(Clone, Debug, Default)]
pub struct SeriesBlocks {
    sealed: Vec<SealedBlock>,
    sealed_points: usize,
    head_t: Vec<u64>,
    head_v: Vec<f64>,
}

impl SeriesBlocks {
    /// New empty series.
    pub fn new() -> SeriesBlocks {
        SeriesBlocks::default()
    }

    /// Total points across sealed blocks and the head.
    pub fn len(&self) -> usize {
        self.sealed_points + self.head_t.len()
    }

    /// True when the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed blocks.
    pub fn n_sealed(&self) -> usize {
        self.sealed.len()
    }

    /// Points living in sealed blocks (the rest are in the head).
    pub fn sealed_len(&self) -> usize {
        self.sealed_points
    }

    /// Bytes the sealed blocks hold — both columns and the rollup
    /// behind them (head excluded).
    pub fn sealed_bytes(&self) -> usize {
        self.sealed
            .iter()
            .map(|b| b.encoded_bytes() + b.rollup_bytes())
            .sum()
    }

    /// Timestamp of the earliest stored point, from block metadata —
    /// no decoding.
    pub fn min_t(&self) -> Option<u64> {
        self.sealed
            .first()
            .map(SealedBlock::min_t)
            .or_else(|| self.head_t.first().copied())
    }

    /// Timestamp of the latest stored point, from block metadata — no
    /// decoding.
    pub fn max_t(&self) -> Option<u64> {
        self.head_t
            .last()
            .copied()
            .or_else(|| self.sealed.last().map(SealedBlock::max_t))
    }

    /// Timestamp after which the head begins: points `>=` this belong
    /// in the head, older ones inside a sealed block.
    fn sealed_max(&self) -> Option<u64> {
        self.sealed.last().map(SealedBlock::max_t)
    }

    /// Insert one point, preserving timestamp order. A duplicate
    /// timestamp sorts after the existing equal points, matching the
    /// point-vec store's `partition_point(|p| p.t <= t)` semantics.
    /// Allocates a throwaway [`SealScratch`] on the (1-in-512) push
    /// that seals; bulk ingest paths should thread a reusable scratch
    /// through [`SeriesBlocks::push_with_scratch`] instead.
    pub fn push(&mut self, t: u64, v: f64) {
        let mut scratch = SealScratch::default();
        self.push_with_scratch(t, v, &mut scratch);
    }

    /// Like [`SeriesBlocks::push`], but sealing (when the head fills)
    /// encodes through the caller's reusable scratch, so steady-state
    /// ingest performs one allocation per sealed block and none per
    /// point. Returns `true` when this push sealed the head into a new
    /// block (the durability layer persists exactly those pushes).
    pub fn push_with_scratch(&mut self, t: u64, v: f64, scratch: &mut SealScratch) -> bool {
        self.insert_point(t, v);
        if self.head_t.len() >= SEAL_THRESHOLD {
            self.seal_head(scratch);
            return true;
        }
        false
    }

    /// Insert without ever sealing — the WAL-replay path, where seals
    /// are dictated by the log's seal markers rather than the head
    /// length (a replayed head may legitimately exceed the threshold
    /// when the crash ate a seal marker; the next live push seals it).
    pub(crate) fn push_unsealed(&mut self, t: u64, v: f64) {
        self.insert_point(t, v);
    }

    /// The shared insert body: merge into the sealed range for a late
    /// point, sorted head insert otherwise.
    fn insert_point(&mut self, t: u64, v: f64) {
        match self.sealed_max() {
            Some(smax) if t < smax => self.merge_into_sealed(t, v),
            _ => {
                // First point of a (re)filled head: size both columns
                // for a full block up front, so the head never
                // reallocates on its way to the seal threshold.
                if self.head_t.capacity() == 0 {
                    self.head_t.reserve_exact(SEAL_THRESHOLD);
                    self.head_v.reserve_exact(SEAL_THRESHOLD);
                }
                match self.head_t.last() {
                    Some(&last) if last > t => {
                        let idx = self.head_t.partition_point(|&ht| ht <= t);
                        self.head_t.insert(idx, t);
                        self.head_v.insert(idx, v);
                    }
                    _ => {
                        self.head_t.push(t);
                        self.head_v.push(v);
                    }
                }
            }
        }
    }

    /// Append an already-sealed block (recovery installing a persisted
    /// block) and drop the replayed head points it covers. Returns the
    /// number of head points consumed.
    pub(crate) fn install_sealed(&mut self, block: SealedBlock) -> usize {
        let consumed = self.head_t.len();
        self.head_t.clear();
        self.head_v.clear();
        self.sealed_points += block.len();
        self.sealed.push(block);
        consumed
    }

    /// Compress the head into a sealed block and clear it.
    fn seal_head(&mut self, scratch: &mut SealScratch) {
        if self.head_t.is_empty() {
            return;
        }
        let block = SealedBlock::encode_with_scratch(&self.head_t, &self.head_v, scratch);
        self.sealed_points += block.len();
        self.sealed.push(block);
        self.head_t.clear();
        self.head_v.clear();
    }

    /// The sealed blocks, oldest first (shared with the shard layer's
    /// decoded-block cache).
    pub fn sealed(&self) -> &[SealedBlock] {
        &self.sealed
    }

    /// The mutable head's parallel timestamp/value columns.
    pub fn head_cols(&self) -> (&[u64], &[f64]) {
        (&self.head_t, &self.head_v)
    }

    /// Out-of-order insert into the sealed range: decode the one
    /// overlapping block, insert, re-encode. Bounded by the seal
    /// threshold, and only late redeliveries ever take this path.
    fn merge_into_sealed(&mut self, t: u64, v: f64) {
        // Last block whose min_t <= t; points between two blocks'
        // ranges append to the earlier one. `idx` is in-bounds: this
        // path only runs when t < sealed max, so at least one block
        // exists, and saturating_sub pins the "before every block"
        // case to block 0.
        let idx = self
            .sealed
            .partition_point(|b| b.min_t() <= t)
            .saturating_sub(1);
        // alloc: cold (out-of-order merge path, rare by construction; in-order appends never decode)
        let mut ts: Vec<u64> = Vec::new();
        // alloc: cold (out-of-order merge path, see above)
        let mut vs: Vec<f64> = Vec::new();
        if let Some(block) = self.sealed.get(idx) {
            block.decode_into(&mut ts, &mut vs);
        }
        let at = ts.partition_point(|&bt| bt <= t);
        ts.insert(at, t);
        vs.insert(at, v);
        let reencoded = SealedBlock::encode(&ts, &vs);
        if let Some(slot) = self.sealed.get_mut(idx) {
            *slot = reencoded;
            self.sealed_points += 1;
        }
    }

    /// Stream every point with `t0 <= t < t1` to `f`, in timestamp
    /// order, without materializing an intermediate vector.
    pub fn for_each_in(&self, t0: u64, t1: u64, mut f: impl FnMut(u64, f64)) {
        self.for_each_partial_in(t0, t1, false, |p| {
            if let Partial::Point(t, v) = p {
                f(t, v);
            }
        });
    }

    /// [`SeriesBlocks::for_each_in`] for folds that only need sums and
    /// counts per whole hour: with `hourly` set, a sealed block that
    /// carries a rollup and holds no hour the window's edges cut
    /// through (`t0` hour-aligned; `t1` too, unless the block ends
    /// before it) is handed over as one [`Partial::Hours`] run of its
    /// cells in the window — nothing decoded — and every other block
    /// and the head still stream one [`Partial::Point`] per point. Time
    /// order holds across both kinds.
    pub fn for_each_partial_in(
        &self,
        t0: u64,
        t1: u64,
        hourly: bool,
        mut f: impl FnMut(Partial<'_>),
    ) {
        if t1 <= t0 {
            return;
        }
        // Batch buffers: a whole block decodes into these stack
        // columns, then the in-range subslice streams to `f`. They are
        // zeroed on the first block that needs them, not per call.
        let mut bufs = None;
        for block in &self.sealed {
            if block.max_t() < t0 {
                continue;
            }
            if block.min_t() >= t1 {
                break;
            }
            if let Some((h0, h1)) = block.cell_range(t0, t1).filter(|_| hourly) {
                f(Partial::Hours(block.hours_in(h0, h1)));
            } else if block.len() <= SEAL_THRESHOLD {
                let (ts_buf, vs_buf) = bufs.get_or_insert_with(zeroed_columns);
                let n = block.decode_to_slices(ts_buf, vs_buf);
                let dec_t = ts_buf.get(..n).unwrap_or(&[]);
                let dec_v = vs_buf.get(..n).unwrap_or(&[]);
                let lo = dec_t.partition_point(|&t| t < t0);
                let hi = dec_t.partition_point(|&t| t < t1);
                let m = hi.saturating_sub(lo);
                for (&t, &v) in dec_t.iter().skip(lo).zip(dec_v.iter().skip(lo)).take(m) {
                    f(Partial::Point(t, v));
                }
            } else {
                // Out-of-order merges can grow a block past the seal
                // threshold; stream those through the cursor instead.
                let mut cur = block.cursor();
                while let Some((t, v)) = cur.next_point() {
                    if t >= t1 {
                        break;
                    }
                    if t >= t0 {
                        f(Partial::Point(t, v));
                    }
                }
            }
        }
        let lo = self.head_t.partition_point(|&t| t < t0);
        let hi = self.head_t.partition_point(|&t| t < t1);
        let n = hi.saturating_sub(lo);
        for (&t, &v) in self
            .head_t
            .iter()
            .skip(lo)
            .zip(self.head_v.iter().skip(lo))
            .take(n)
        {
            f(Partial::Point(t, v));
        }
    }

    /// Stream every stored point to `f`, in timestamp order.
    pub fn for_each(&self, mut f: impl FnMut(u64, f64)) {
        for block in &self.sealed {
            let mut cur = block.cursor();
            while let Some((t, v)) = cur.next_point() {
                f(t, v);
            }
        }
        for (&t, &v) in self.head_t.iter().zip(self.head_v.iter()) {
            f(t, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference model: the point-vec store this module replaced.
    fn reference_insert(pts: &mut Vec<(u64, f64)>, t: u64, v: f64) {
        match pts.last() {
            Some(last) if last.0 > t => {
                let idx = pts.partition_point(|p| p.0 <= t);
                pts.insert(idx, (t, v));
            }
            _ => pts.push((t, v)),
        }
    }

    fn collect_all(s: &SeriesBlocks) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        s.for_each(|t, v| out.push((t, v)));
        out
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let samples = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &x in &samples {
            buf.clear();
            put_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(x));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for x in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }

    #[test]
    fn xor_words_round_trip() {
        let samples = [
            0u64,
            1,
            0xFF,
            0x100,
            0xAB00,
            0xAB_0000_0000,    // leading and trailing zero bytes
            42.0f64.to_bits(), // real f64 bit pattern
            f64::NAN.to_bits(),
            u64::MAX,
            1 << 63,
        ];
        let mut buf = Vec::new();
        for &x in &samples {
            buf.clear();
            put_xor(&mut buf, x);
            assert_eq!(buf.len(), xor_len(x), "sizing must match for {x:#x}");
            let word_len = buf.len();
            buf.extend_from_slice(&[0u8; XOR_PAD]); // decoder's load window
            let mut pos = 0;
            assert_eq!(get_xor(&buf, &mut pos), Some(x));
            assert_eq!(pos, word_len);
        }
        // Repeated-value steady state is one byte.
        let mut buf = Vec::new();
        put_xor(&mut buf, 0);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn encode_decode_identity() {
        let ts: Vec<u64> = (0..100).map(|i| 600 * i).collect();
        let vs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 1e6).collect();
        let block = SealedBlock::encode(&ts, &vs);
        assert_eq!(block.len(), 100);
        assert_eq!(block.min_t(), 0);
        assert_eq!(block.max_t(), 600 * 99);
        let (mut dt, mut dv) = (Vec::new(), Vec::new());
        block.decode_into(&mut dt, &mut dv);
        assert_eq!(dt, ts);
        assert_eq!(dv, vs);
    }

    #[test]
    fn fixed_cadence_is_about_a_byte_per_timestamp() {
        // 10-minute cadence, constant value: the steady-state cost is
        // one byte per point in each column.
        let ts: Vec<u64> = (0..512).map(|i| 1_450_000_000 + 600 * i).collect();
        let vs = vec![42.0f64; 512];
        let block = SealedBlock::encode(&ts, &vs);
        assert!(
            block.encoded_bytes() < 512 + 512 + 32,
            "encoded {} bytes",
            block.encoded_bytes()
        );
    }

    /// The non-empty cells of `block` within hours `[h0, h1)`, as
    /// `(hour * ROLLUP_SECS, sum, n)`.
    fn cells_in(block: &SealedBlock, h0: u64, h1: u64) -> Vec<(u64, f64, u32)> {
        let run = block.hours_in(h0, h1);
        (run.first_hour..)
            .zip(run.iter())
            .filter(|(_, (_, n))| *n > 0)
            .map(|(h, (sum, n))| (h * ROLLUP_SECS, sum, n))
            .collect()
    }

    #[test]
    fn rollup_rides_behind_the_columns() {
        // A full block at the paper's cadence touches 86 hours.
        let ts: Vec<u64> = (0..512).map(|i| 1_450_000_000 + 600 * i).collect();
        let vs: Vec<f64> = (0..512).map(|i| (i % 97) as f64).collect();
        let block = SealedBlock::encode(&ts, &vs);
        assert_eq!(block.rollup_bytes(), 86 * CELL_BYTES);
        assert!(block.rollup_bytes() <= 900);
        // The persisted parts are the two columns and nothing else.
        assert_eq!(
            block.ts_col().len() + block.vs_col().len(),
            block.encoded_bytes()
        );
        assert!(block.vs_col().ends_with(&[0u8; XOR_PAD]));
        let cells = cells_in(&block, 0, u64::MAX);
        assert_eq!(cells.len(), 86);
        assert_eq!(cells.iter().map(|c| c.2).sum::<u32>(), 512);
        // 1_450_000_000 is 2800 s past the hour: two samples land in
        // the first cell.
        assert_eq!(cells[0], (1_449_997_200, 0.0 + 1.0, 2));
        // Cells outside the asked hours are skipped by index.
        let h0 = 1_450_000_000 / ROLLUP_SECS + 10;
        let some: Vec<u64> = cells_in(&block, h0, h0 + 3)
            .iter()
            .map(|c| c.0 / ROLLUP_SECS)
            .collect();
        assert_eq!(some, vec![h0, h0 + 1, h0 + 2]);
    }

    #[test]
    fn blocks_that_cannot_be_served_by_hours_get_no_rollup() {
        let vs = vec![1.0f64; SEAL_THRESHOLD + 1];
        let oversize: Vec<u64> = (0..=SEAL_THRESHOLD as u64).map(|i| i * 600).collect();
        assert_eq!(SealedBlock::encode(&oversize, &vs).rollup_bytes(), 0);
        let unsorted = [7200u64, 3600, 10_800];
        assert_eq!(SealedBlock::encode(&unsorted, &vs).rollup_bytes(), 0);
        // Two points nine hours apart: ten cells for two points.
        let sparse = [0u64, 9 * ROLLUP_SECS];
        assert_eq!(SealedBlock::encode(&sparse, &vs).rollup_bytes(), 0);
        let dense_enough = [0u64, 7 * ROLLUP_SECS];
        assert_eq!(
            SealedBlock::encode(&dense_enough, &vs).rollup_bytes(),
            8 * CELL_BYTES
        );
        assert_eq!(SealedBlock::encode(&[], &[]).rollup_bytes(), 0);
        assert_eq!(SealedBlock::default().rollup_bytes(), 0);
    }

    #[test]
    fn seal_threshold_rolls_blocks() {
        let mut s = SeriesBlocks::new();
        for i in 0..(SEAL_THRESHOLD as u64 * 2 + 10) {
            s.push(i * 600, i as f64);
        }
        assert_eq!(s.n_sealed(), 2);
        assert_eq!(s.len(), SEAL_THRESHOLD * 2 + 10);
        let all = collect_all(&s);
        assert_eq!(all.len(), s.len());
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn out_of_order_merges_into_sealed_block() {
        let mut s = SeriesBlocks::new();
        for i in 0..(SEAL_THRESHOLD as u64 + 4) {
            s.push(i * 10, i as f64);
        }
        assert_eq!(s.n_sealed(), 1);
        s.push(55, -1.0); // strictly inside the sealed range
        let all = collect_all(&s);
        assert_eq!(all.len(), SEAL_THRESHOLD + 5);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(all.contains(&(55, -1.0)));
    }

    #[test]
    fn range_respects_half_open_bounds() {
        let mut s = SeriesBlocks::new();
        for t in [100u64, 200, 300, 400] {
            s.push(t, t as f64);
        }
        let mut got = Vec::new();
        s.for_each_in(200, 400, |t, _| got.push(t));
        assert_eq!(got, vec![200, 300]);
    }

    #[test]
    fn empty_and_inverted_ranges_yield_nothing() {
        let mut s = SeriesBlocks::new();
        s.push(10, 1.0);
        let mut n = 0;
        s.for_each_in(5, 5, |_, _| n += 1);
        s.for_each_in(20, 10, |_, _| n += 1);
        assert_eq!(n, 0);
    }

    proptest! {
        /// Round-trip: arbitrary insert sequences (out-of-order and
        /// duplicate timestamps included) produce exactly the point
        /// sequence the point-vec reference produces.
        #[test]
        fn insert_sequences_match_point_vec_reference(
            pts in proptest::collection::vec((0u64..5000, -1e12f64..1e12), 0..900)
        ) {
            let mut s = SeriesBlocks::new();
            let mut reference: Vec<(u64, f64)> = Vec::new();
            for &(t, v) in &pts {
                s.push(t, v);
                reference_insert(&mut reference, t, v);
            }
            prop_assert_eq!(s.len(), reference.len());
            prop_assert_eq!(collect_all(&s), reference.clone());

            // Sub-range queries agree with the reference slice.
            for (t0, t1) in [(0u64, 5000u64), (100, 3000), (2500, 2500), (4000, 100)] {
                let want: Vec<(u64, f64)> = reference
                    .iter()
                    .filter(|p| p.0 >= t0 && p.0 < t1)
                    .copied()
                    .collect();
                let mut got = Vec::new();
                s.for_each_in(t0, t1, |t, v| got.push((t, v)));
                prop_assert_eq!(&got, &want);
            }
        }

        /// The rollup is a pure function of the points: a block
        /// reassembled from its persisted parts carries byte for byte
        /// the cells it was sealed with, and each cell is its hour's
        /// values summed in time order.
        #[test]
        fn rollup_is_rebuilt_identically_from_parts(
            steps in proptest::collection::vec(0u64..5000, 1..600),
            vs in proptest::collection::vec(-1e9f64..1e9, 600)
        ) {
            let mut t = 1_450_000_000u64;
            let ts: Vec<u64> = steps.iter().map(|s| { t += s; t }).collect();
            let vs = &vs[..ts.len()];
            let block = SealedBlock::encode(&ts, vs);
            let rebuilt = SealedBlock::from_parts(
                block.len(), block.min_t(), block.max_t(), block.ts_col(), block.vs_col());
            prop_assert_eq!(rebuilt.cells(), block.cells());
            prop_assert_eq!(rebuilt.ts_col(), block.ts_col());
            prop_assert_eq!(rebuilt.vs_col(), block.vs_col());
            prop_assert_eq!(block.rollup_bytes() > 0, ts.len() <= SEAL_THRESHOLD);

            let mut want: Vec<(u64, u64, u32)> = Vec::new();
            for (&t, &v) in ts.iter().zip(vs) {
                let hour = t / ROLLUP_SECS * ROLLUP_SECS;
                match want.last_mut() {
                    Some(c) if c.0 == hour => {
                        c.1 = (f64::from_bits(c.1) + v).to_bits();
                        c.2 += 1;
                    }
                    _ => want.push((hour, (0.0 + v).to_bits(), 1)),
                }
            }
            let got: Vec<(u64, u64, u32)> = cells_in(&rebuilt, 0, u64::MAX)
                .into_iter()
                .map(|(t, sum, n)| (t, sum.to_bits(), n))
                .collect();
            if block.rollup_bytes() > 0 {
                prop_assert_eq!(got, want);
            } else {
                prop_assert!(got.is_empty());
            }
        }

        /// Block encode/decode is the identity on sorted columns,
        /// bit-exact for values.
        #[test]
        fn encode_decode_round_trips(
            mut ts in proptest::collection::vec(any::<u64>(), 0..600),
            vs in proptest::collection::vec(proptest::num::f64::ANY, 0..600)
        ) {
            ts.sort_unstable();
            let n = ts.len().min(vs.len());
            ts.truncate(n);
            let vs = &vs[..n];
            let block = SealedBlock::encode(&ts, vs);
            let (mut dt, mut dv) = (Vec::new(), Vec::new());
            block.decode_into(&mut dt, &mut dv);
            prop_assert_eq!(dt, ts);
            // Compare bit patterns so NaN payloads count as equal.
            let got: Vec<u64> = dv.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = vs.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
    }
}
