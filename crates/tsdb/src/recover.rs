//! Crash recovery: shard manifests, generation file naming, the
//! per-shard recovery scan, and the conservation-accounted
//! [`RecoveryReport`].
//!
//! # Per-shard files
//!
//! ```text
//! shard<i>.manifest     append-only generation commits (frames)
//! shard<i>.seg.<g>      sealed blocks of generation g  (segment.rs)
//! shard<i>.wal.<g>      write-ahead log of generation g (wal.rs)
//! ```
//!
//! The manifest is the commit point: a generation exists once its Gen
//! frame is durable, and the *last valid* Gen frame wins. Compaction
//! builds the next generation's files completely (segment with every
//! sealed block, WAL with a `base_blocks` header plus every head
//! point), fsyncs them, then appends the Gen frame — a crash anywhere
//! before that commit leaves the previous generation intact on disk.
//!
//! # Recovery algorithm (per shard)
//!
//! 1. Read the manifest; the last valid Gen frame names generation
//!    `g` (no manifest → fresh shard: create gen-0 files and commit).
//! 2. Scan `seg.<g>` into candidate blocks, stopping at the first
//!    torn or corrupt frame.
//! 3. Replay `wal.<g>` in record order: the Header installs the first
//!    `base_blocks` candidates (the compaction checkpoint); each Point
//!    appends to its series head *without* sealing; each Seal marker
//!    installs candidate block `ordinal` and consumes the replay head
//!    it duplicates. Markers are written only after the segment fsync,
//!    so a surviving marker proves its block; candidate blocks with no
//!    surviving marker (orphans) are dropped — the WAL was fsynced
//!    *before* the block was appended, so every orphaned point was
//!    just replayed into the head. Nothing is lost and nothing is
//!    double-counted.
//! 4. Reopen all three files truncated to their valid prefixes, so
//!    the writers resume on clean frame boundaries.
//!
//! The [`RecoveryReport`] carries delivery_report-style conservation
//! counters; [`RecoveryReport::balances`] checks the two identities
//! the chaos tests assert after every simulated crash.
//!
//! This module is on the `cargo xtask lint` deny list: no panicking
//! constructs, no unchecked indexing.

// alloc: cold-module (recovery and compaction run at startup or off the sample path, never per point)

use crate::block::SealedBlock;
use crate::segment::{SegmentScan, SegmentWriter};
use crate::series::SeriesKey;
use crate::shard::{SeriesMap, ShardData};
use crate::vfs::{DiskError, DurFile, Vfs};
use crate::wal::{append_repairing, decode_entry, put_frame, FrameScan, WalEntry, WalWriter};
use std::collections::HashMap;
use std::fmt;

/// Tuning knobs for the durable store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurOptions {
    /// fsync the WAL every this many point records (1 = every point).
    /// At most this many trailing points are lost by a crash.
    pub sync_every: u64,
    /// Compact a shard when its WAL grows past this many bytes
    /// (0 disables automatic compaction).
    pub compact_wal_bytes: u64,
}

impl Default for DurOptions {
    fn default() -> DurOptions {
        DurOptions {
            sync_every: 128,
            compact_wal_bytes: 4 << 20,
        }
    }
}

/// Conservation accounting for one recovery pass (summed across
/// shards), in the same spirit as the spool's delivery_report: every
/// record and every point is either applied or accounted for in a
/// named loss bucket — never silently dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards recovered.
    pub shards: u64,
    /// Shards with no on-disk state (created fresh).
    pub fresh_shards: u64,
    /// Valid block records scanned out of segment files.
    pub seg_blocks_scanned: u64,
    /// Blocks installed into the store (base + marker-proven).
    pub blocks_installed: u64,
    /// Scanned blocks with no surviving seal marker, dropped (their
    /// points were replayed from the WAL — see module docs).
    pub blocks_orphaned: u64,
    /// Segment bytes past the last fully decoded record (truncated).
    pub seg_torn_bytes: u64,
    /// Segment frames that passed CRC but failed payload decode.
    pub seg_corrupt_records: u64,
    /// Valid WAL records decoded (all kinds).
    pub wal_records: u64,
    /// Header + key-definition records.
    pub aux_records: u64,
    /// Point records appended to series heads.
    pub points_replayed: u64,
    /// Seal markers that installed their block.
    pub seals_applied: u64,
    /// Seal markers whose block ordinal was not in the scanned
    /// segment prefix (possible only under corruption).
    pub seals_missing: u64,
    /// Compaction-checkpoint blocks the header promised but the
    /// segment scan did not yield (possible only under corruption).
    pub base_blocks_missing: u64,
    /// Decoded records that could not be applied (unknown key id,
    /// duplicate seal marker, repeated header).
    pub record_anomalies: u64,
    /// WAL bytes past the last applied record (truncated).
    pub wal_torn_bytes: u64,
    /// WAL frames that passed CRC but failed payload decode.
    pub wal_corrupt_records: u64,
    /// Points inside installed blocks.
    pub block_points_installed: u64,
    /// Replayed head points consumed by seal-marker installs (these
    /// are the same points as the block's contents).
    pub points_consumed: u64,
    /// Marker installs where the replay head length differed from the
    /// block's count (possible only under corruption).
    pub head_mismatches: u64,
    /// Points present in the store after recovery.
    pub points_recovered: u64,
}

impl RecoveryReport {
    /// Fold another shard's report into this one.
    pub fn merge(&mut self, o: &RecoveryReport) {
        self.shards += o.shards;
        self.fresh_shards += o.fresh_shards;
        self.seg_blocks_scanned += o.seg_blocks_scanned;
        self.blocks_installed += o.blocks_installed;
        self.blocks_orphaned += o.blocks_orphaned;
        self.seg_torn_bytes += o.seg_torn_bytes;
        self.seg_corrupt_records += o.seg_corrupt_records;
        self.wal_records += o.wal_records;
        self.aux_records += o.aux_records;
        self.points_replayed += o.points_replayed;
        self.seals_applied += o.seals_applied;
        self.seals_missing += o.seals_missing;
        self.base_blocks_missing += o.base_blocks_missing;
        self.record_anomalies += o.record_anomalies;
        self.wal_torn_bytes += o.wal_torn_bytes;
        self.wal_corrupt_records += o.wal_corrupt_records;
        self.block_points_installed += o.block_points_installed;
        self.points_consumed += o.points_consumed;
        self.head_mismatches += o.head_mismatches;
        self.points_recovered += o.points_recovered;
    }

    /// The two conservation identities. (1) Every decoded WAL record
    /// is exactly one of: auxiliary, replayed point, applied seal,
    /// missing-block seal, or anomaly. (2) Every recovered point came
    /// from an installed block or a replayed record, minus the replay
    /// points consumed by marker installs (those are the block's own
    /// points, counted once).
    pub fn balances(&self) -> bool {
        self.wal_records
            == self.aux_records
                + self.points_replayed
                + self.seals_applied
                + self.seals_missing
                + self.record_anomalies
            && self.points_recovered
                == self.block_points_installed + self.points_replayed - self.points_consumed
    }

    /// True when recovery saw no torn bytes, corruption, orphans, or
    /// anomalies — i.e. a clean shutdown image.
    pub fn is_clean(&self) -> bool {
        self.seg_torn_bytes == 0
            && self.seg_corrupt_records == 0
            && self.wal_torn_bytes == 0
            && self.wal_corrupt_records == 0
            && self.blocks_orphaned == 0
            && self.seals_missing == 0
            && self.base_blocks_missing == 0
            && self.record_anomalies == 0
            && self.head_mismatches == 0
    }
}

/// Integrity summary of the store's on-disk segment files (see
/// [`crate::TsDb::verify_segments`]): every block record is re-read
/// through the zero-copy cursor and its decoded point count checked
/// against the record header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentCheck {
    /// Valid block records scanned.
    pub blocks: u64,
    /// Points decoded across all blocks.
    pub points: u64,
    /// Bytes past the last fully decoded record (0 on a healthy
    /// store: segments only gain whole, synced frames).
    pub torn_bytes: u64,
    /// Frames that passed CRC but failed payload decode.
    pub corrupt_records: u64,
    /// Blocks whose cursor decoded a different number of points than
    /// the record header claimed (0 unless bytes rotted undetectably,
    /// which CRC32 makes vanishingly unlikely).
    pub count_mismatches: u64,
}

impl SegmentCheck {
    /// Fold another shard's check into this one.
    pub fn merge(&mut self, o: &SegmentCheck) {
        self.blocks += o.blocks;
        self.points += o.points;
        self.torn_bytes += o.torn_bytes;
        self.corrupt_records += o.corrupt_records;
        self.count_mismatches += o.count_mismatches;
    }

    /// True when every byte of every segment decoded cleanly.
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0 && self.corrupt_records == 0 && self.count_mismatches == 0
    }
}

/// Scan one shard's segment bytes through the zero-copy cursor path.
pub(crate) fn check_segment_bytes(bytes: &[u8]) -> SegmentCheck {
    let mut out = SegmentCheck::default();
    let mut scan = SegmentScan::new(bytes);
    while let Some(rec) = scan.next() {
        out.blocks = out.blocks.max(rec.ordinal + 1);
        let mut cur = rec.cursor();
        let mut n = 0u64;
        while cur.next_point().is_some() {
            n += 1;
        }
        out.points += n;
        if n != rec.count as u64 {
            out.count_mismatches += 1;
        }
    }
    out.torn_bytes = scan.torn_bytes();
    out.corrupt_records = scan.corrupt_records;
    out
}

/// Per-shard durability writers, carried inside `ShardData` so an
/// insert makes each WAL append together with its in-memory apply.
pub(crate) struct ShardDur {
    /// Write-ahead log of the current generation.
    pub(crate) wal: WalWriter,
    /// Segment file of the current generation.
    pub(crate) seg: SegmentWriter,
    /// The shard manifest, kept open for compaction commits.
    pub(crate) manifest: Box<dyn DurFile>,
    /// Current generation number.
    pub(crate) gen: u64,
    /// Durability faults absorbed on the ingest path (the in-memory
    /// store stays available; these points are at risk until the next
    /// successful sync or compaction).
    pub(crate) io_errors: u64,
    /// Sealed blocks persisted with a durable marker sequence.
    pub(crate) seals_persisted: u64,
    /// Completed compactions.
    pub(crate) compactions: u64,
}

impl ShardDur {
    /// Persist one freshly sealed block. The order is the durability
    /// core (see module docs): WAL fsync *first* (so a block that
    /// loses its marker in a crash is recoverable from the log and can
    /// be dropped as an orphan), then segment append + fsync, then the
    /// seal marker — which rides the next batched WAL sync, because a
    /// lost marker costs nothing.
    pub(crate) fn persist_seal(
        &mut self,
        key: &SeriesKey,
        block: &SealedBlock,
    ) -> Result<(), DiskError> {
        self.wal.sync()?;
        let ordinal = self.seg.append_block(key, block)?;
        self.seg.sync()?;
        self.wal.append_seal(ordinal)?;
        self.seals_persisted += 1;
        Ok(())
    }
}

impl fmt::Debug for ShardDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardDur")
            .field("gen", &self.gen)
            .field("io_errors", &self.io_errors)
            .field("seals_persisted", &self.seals_persisted)
            .field("compactions", &self.compactions)
            .finish_non_exhaustive()
    }
}

/// File-name scheme for one shard's durable state.
pub(crate) mod names {
    /// Manifest file for shard `i`.
    pub(crate) fn manifest(i: usize) -> String {
        format!("shard{i}.manifest")
    }

    /// WAL file for shard `i`, generation `g`.
    pub(crate) fn wal(i: usize, g: u64) -> String {
        format!("shard{i}.wal.{g}")
    }

    /// Segment file for shard `i`, generation `g`.
    pub(crate) fn seg(i: usize, g: u64) -> String {
        format!("shard{i}.seg.{g}")
    }

    /// Prefix owning every file of shard `i` (trailing dot keeps
    /// `shard1.` from matching `shard10.*`).
    pub(crate) fn prefix(i: usize) -> String {
        format!("shard{i}.")
    }
}

/// Manifest Gen record kind byte.
const KIND_GEN: u8 = 0x21;
/// Store-meta record kind byte (shard count).
const KIND_META: u8 = 0x31;

/// Store-wide metadata file name.
pub(crate) const META_NAME: &str = "store.meta";

/// Read the store's persisted shard count, or persist `requested` on
/// first open. Shard routing partitions the key space by shard count,
/// so a durable store must always reopen with the count it was created
/// with — the meta file makes that automatic instead of a footgun.
pub(crate) fn read_or_init_shards(vfs: &dyn Vfs, requested: usize) -> Result<usize, DiskError> {
    if let Some(bytes) = vfs.read(META_NAME)? {
        let mut scan = FrameScan::new(&bytes);
        while let Some(payload) = scan.next() {
            if let Some((&KIND_META, rest)) = payload.split_first() {
                let mut pos = 0usize;
                if let Some(n) = crate::block::get_varint(rest, &mut pos) {
                    return Ok(usize::try_from(n).unwrap_or(1).max(1));
                }
            }
        }
        // Unreadable meta: fall through and rewrite it.
    }
    let n = requested.max(1);
    let mut payload = Vec::with_capacity(11);
    payload.push(KIND_META);
    crate::block::put_varint(&mut payload, n as u64);
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_frame(&mut frame, &payload);
    let mut file = vfs.open_append(META_NAME, 0)?;
    append_repairing(&mut *file, &frame)?;
    file.sync()?;
    Ok(n)
}

/// Append a Gen commit frame to the manifest and fsync it. This is
/// the linearisation point of a compaction.
pub(crate) fn commit_gen(manifest: &mut dyn DurFile, gen: u64) -> Result<(), DiskError> {
    let mut payload = Vec::with_capacity(11);
    payload.push(KIND_GEN);
    crate::block::put_varint(&mut payload, gen);
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_frame(&mut frame, &payload);
    append_repairing(manifest, &frame)?;
    manifest.sync()
}

/// Last valid Gen record in manifest bytes, plus the byte length of
/// the valid frame prefix (where the manifest writer reopens).
fn last_gen(bytes: &[u8]) -> (Option<u64>, u64) {
    let mut scan = FrameScan::new(bytes);
    let mut gen = None;
    let mut good = 0u64;
    while let Some(payload) = scan.next() {
        if let Some((&KIND_GEN, rest)) = payload.split_first() {
            let mut pos = 0usize;
            if let Some(g) = crate::block::get_varint(rest, &mut pos) {
                gen = Some(g);
                good = scan.valid_len();
                continue;
            }
        }
        // Unknown or malformed record: stop at the boundary before it.
        break;
    }
    (gen, good)
}

/// Create a brand-new generation-0 shard on `vfs` (no prior state).
fn fresh_shard(
    vfs: &dyn Vfs,
    idx: usize,
    opts: DurOptions,
    report: &mut RecoveryReport,
) -> Result<(ShardData, ShardDur), DiskError> {
    report.fresh_shards += 1;
    let seg = SegmentWriter::open(vfs.open_append(&names::seg(idx, 0), 0)?, 0);
    let wal = WalWriter::create(
        vfs.open_append(&names::wal(idx, 0), 0)?,
        0,
        0,
        opts.sync_every,
    )?;
    let mut manifest = vfs.open_append(&names::manifest(idx), 0)?;
    commit_gen(&mut *manifest, 0)?;
    Ok((
        ShardData::default(),
        ShardDur {
            wal,
            seg,
            manifest,
            gen: 0,
            io_errors: 0,
            seals_persisted: 0,
            compactions: 0,
        },
    ))
}

/// Recover one shard from `vfs` (see module docs for the algorithm).
pub(crate) fn recover_shard(
    vfs: &dyn Vfs,
    idx: usize,
    opts: DurOptions,
    report: &mut RecoveryReport,
) -> Result<(ShardData, ShardDur), DiskError> {
    report.shards += 1;
    let manifest_name = names::manifest(idx);
    let manifest_bytes = vfs.read(&manifest_name)?;
    let (gen, manifest_valid) = match &manifest_bytes {
        Some(bytes) => last_gen(bytes),
        None => (None, 0),
    };
    let Some(gen) = gen else {
        return fresh_shard(vfs, idx, opts, report);
    };

    // ---- 1. Scan the segment into candidate blocks. -----------------
    let seg_bytes = vfs.read(&names::seg(idx, gen))?.unwrap_or_default();
    let mut candidates: Vec<Option<(SeriesKey, SealedBlock)>> = Vec::new();
    let (seg_valid, seg_blocks) = {
        let mut scan = SegmentScan::new(&seg_bytes);
        while let Some(rec) = scan.next() {
            let block = rec.to_block();
            candidates.push(Some((rec.key, block)));
        }
        report.seg_blocks_scanned += scan.blocks();
        report.seg_corrupt_records += scan.corrupt_records;
        report.seg_torn_bytes += scan.torn_bytes();
        (scan.valid_len(), scan.blocks())
    };

    // ---- 2. Replay the WAL. -----------------------------------------
    let wal_bytes = vfs.read(&names::wal(idx, gen))?.unwrap_or_default();
    let mut data = ShardData::default();
    let mut key_map: HashMap<u64, SeriesKey> = HashMap::new();
    let mut base_installed = false;
    let mut wal_valid = 0u64;
    let mut points_in_wal = 0u64;
    {
        let mut frames = FrameScan::new(&wal_bytes);
        loop {
            let Some(payload) = frames.next() else {
                report.wal_torn_bytes += wal_bytes.len() as u64 - wal_valid;
                break;
            };
            let Some(entry) = decode_entry(payload) else {
                // CRC-valid frame with an undecodable payload: stop at
                // the boundary before it, like a torn tail.
                report.wal_corrupt_records += 1;
                report.wal_torn_bytes += wal_bytes.len() as u64 - wal_valid;
                break;
            };
            report.wal_records += 1;
            match entry {
                WalEntry::Header { base_blocks, .. } => {
                    if base_installed {
                        report.record_anomalies += 1;
                    } else {
                        base_installed = true;
                        report.aux_records += 1;
                        let n = usize::try_from(base_blocks).unwrap_or(usize::MAX);
                        for slot in candidates.iter_mut().take(n) {
                            if let Some((key, block)) = slot.take() {
                                install_block(&mut data, key, block, false, report);
                            }
                        }
                        if n > candidates.len() {
                            report.base_blocks_missing += (n - candidates.len()) as u64;
                        }
                    }
                }
                WalEntry::KeyDef { id, key } => {
                    report.aux_records += 1;
                    key_map.insert(id, key);
                }
                WalEntry::Point { key_id, t, v } => match key_map.get(&key_id) {
                    Some(key) => match data.series.get_or_insert(key) {
                        Some(series) => {
                            series.push_unsealed(t, v);
                            report.points_replayed += 1;
                            points_in_wal += 1;
                        }
                        None => report.record_anomalies += 1,
                    },
                    None => report.record_anomalies += 1,
                },
                WalEntry::Seal { ordinal } => {
                    let idx = usize::try_from(ordinal).unwrap_or(usize::MAX);
                    match candidates.get_mut(idx) {
                        Some(slot) => match slot.take() {
                            Some((key, block)) => {
                                report.seals_applied += 1;
                                install_block(&mut data, key, block, true, report);
                            }
                            // Already installed: duplicate marker.
                            None => report.record_anomalies += 1,
                        },
                        None => report.seals_missing += 1,
                    }
                }
            }
            wal_valid = frames.valid_len();
        }
    }

    // ---- 3. Orphans: blocks with no surviving marker are dropped. ---
    for slot in &candidates {
        if slot.is_some() {
            report.blocks_orphaned += 1;
        }
    }
    drop(candidates);

    report.points_recovered += data.series.values().map(|s| s.len() as u64).sum::<u64>();

    // ---- 4. Reopen writers on the valid prefixes. -------------------
    let seg_file = vfs.open_append(&names::seg(idx, gen), seg_valid)?;
    let wal_file = vfs.open_append(&names::wal(idx, gen), wal_valid)?;
    let manifest = vfs.open_append(&manifest_name, manifest_valid)?;
    let inverse: HashMap<SeriesKey, u64> = key_map.into_iter().map(|(id, k)| (k, id)).collect();
    let dur = ShardDur {
        wal: WalWriter::open(wal_file, inverse, points_in_wal, opts.sync_every),
        seg: SegmentWriter::open(seg_file, seg_blocks),
        manifest,
        gen,
        io_errors: 0,
        seals_persisted: 0,
        compactions: 0,
    };

    // ---- 5. Remove files from other generations. --------------------
    let keep = [names::seg(idx, gen), names::wal(idx, gen), manifest_name];
    let prefix = names::prefix(idx);
    for name in vfs.list()? {
        if name.starts_with(&prefix) && !keep.contains(&name) {
            vfs.remove(&name)?;
        }
    }

    Ok((data, dur))
}

/// Compact one shard to its next generation: write a fresh segment
/// holding every sealed block, a fresh WAL holding a
/// `base_blocks` header plus every head point, fsync both, then commit
/// the generation in the manifest (the linearisation point) and swap
/// the live writers. A crash at *any* step before the commit leaves
/// the previous generation's files intact and authoritative; stale
/// next-gen partials are truncated on the retry and swept at the next
/// recovery. After the commit, the old generation's files are dead
/// and removed best-effort.
///
/// The caller has the shard borrowed mutably, so `series` is the
/// shard's whole state and no append comes between the copy and the
/// swap.
// crash-order: new-generation (builds invisible next-gen files; the manifest Gen frame is the commit)
pub(crate) fn compact_shard(
    vfs: &dyn Vfs,
    idx: usize,
    opts: DurOptions,
    series: &SeriesMap,
    dur: &mut ShardDur,
) -> Result<(), DiskError> {
    let next = dur.gen + 1;
    let mut seg = SegmentWriter::open(vfs.open_append(&names::seg(idx, next), 0)?, 0);
    let mut blocks = 0u64;
    for (key, sb) in series {
        for block in sb.sealed() {
            seg.append_block(key, block)?;
            blocks += 1;
        }
    }
    seg.sync()?;
    let mut wal = WalWriter::create(
        vfs.open_append(&names::wal(idx, next), 0)?,
        next,
        blocks,
        opts.sync_every,
    )?;
    for (key, sb) in series {
        let (head_t, head_v) = sb.head_cols();
        for (&t, &v) in head_t.iter().zip(head_v) {
            wal.append_point(key, t, v)?;
        }
    }
    wal.sync()?;
    commit_gen(&mut *dur.manifest, next)?;
    let old_seg = names::seg(idx, dur.gen);
    let old_wal = names::wal(idx, dur.gen);
    dur.gen = next;
    dur.wal = wal;
    dur.seg = seg;
    dur.compactions += 1;
    // Dead files; recovery also sweeps them, so failures here are not
    // durability-relevant.
    let _ = vfs.remove(&old_seg);
    let _ = vfs.remove(&old_wal);
    Ok(())
}

/// Install one recovered block into a series: the replay head it
/// duplicates (if any) is consumed, and the counters keep the point
/// conservation identity exact. A marker install (`from_marker`)
/// lands mid-replay with the block's own points sitting in the head,
/// so it must consume exactly `count`; a compaction base block lands
/// before any points were replayed, so it must consume nothing.
fn install_block(
    data: &mut ShardData,
    key: SeriesKey,
    block: SealedBlock,
    from_marker: bool,
    report: &mut RecoveryReport,
) {
    let count = block.len() as u64;
    let Some(series) = data.series.get_or_insert(&key) else {
        report.record_anomalies += 1;
        return;
    };
    let consumed = series.install_sealed(block) as u64;
    let expected = if from_marker { count } else { 0 };
    if consumed != expected {
        report.head_mismatches += 1;
    }
    report.blocks_installed += 1;
    report.block_points_installed += count;
    report.points_consumed += consumed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn manifest_last_valid_gen_wins_and_tolerates_torn_tail() {
        let vfs = MemVfs::new();
        let mut m = vfs.open_append("m", 0).unwrap();
        commit_gen(&mut *m, 0).unwrap();
        commit_gen(&mut *m, 1).unwrap();
        commit_gen(&mut *m, 2).unwrap();
        let bytes = vfs.read("m").unwrap().unwrap();
        let (gen, valid) = last_gen(&bytes);
        assert_eq!(gen, Some(2));
        assert_eq!(valid, bytes.len() as u64);

        // Torn final commit: the previous generation wins.
        let (gen, valid) = last_gen(&bytes[..bytes.len() - 3]);
        assert_eq!(gen, Some(1));
        assert!(valid < bytes.len() as u64);

        // Garbage manifest: no generation at all.
        assert_eq!(last_gen(&[0xFF; 16]).0, None);
        assert_eq!(last_gen(&[]).0, None);
    }

    #[test]
    fn fresh_shard_is_empty_clean_and_committed() {
        let vfs = MemVfs::new();
        let mut report = RecoveryReport::default();
        let (data, dur) = recover_shard(&vfs, 3, DurOptions::default(), &mut report).unwrap();
        assert_eq!(data.series.len(), 0);
        assert_eq!(dur.gen, 0);
        assert_eq!(report.fresh_shards, 1);
        assert!(report.balances());
        assert!(report.is_clean());
        // A second recovery of the same vfs is no longer fresh.
        drop(dur);
        let mut report2 = RecoveryReport::default();
        let (data2, dur2) = recover_shard(&vfs, 3, DurOptions::default(), &mut report2).unwrap();
        assert_eq!(report2.fresh_shards, 0);
        assert_eq!(dur2.gen, 0);
        assert_eq!(data2.series.len(), 0);
        assert!(report2.balances());
    }

    #[test]
    fn report_merge_and_balance_identities() {
        let mut a = RecoveryReport {
            wal_records: 10,
            aux_records: 2,
            points_replayed: 6,
            seals_applied: 1,
            seals_missing: 1,
            block_points_installed: 512,
            points_consumed: 512,
            points_recovered: 6,
            ..RecoveryReport::default()
        };
        assert!(a.balances());
        let b = a;
        a.merge(&b);
        assert!(a.balances());
        assert_eq!(a.wal_records, 20);
        a.points_recovered += 1;
        assert!(!a.balances());
    }
}
