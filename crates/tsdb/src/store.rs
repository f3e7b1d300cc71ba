//! The time-series store: insertion, range reads, aggregation,
//! downsampling.
//!
//! Series are stored columnar: each [`SeriesKey`] maps to sealed
//! compressed blocks plus a mutable head ([`crate::block`]). Each
//! query has one read path, and none materializes an intermediate
//! `Vec<DataPoint>`: [`TsDb::range_for_each`] streams one series'
//! points to a closure (the portal's detail page reads through it),
//! and [`TsDb::aggregate`] — with [`TsDb::aligned`] on top — folds
//! every matching series straight into its buckets.
//!
//! The store is sharded ([`crate::shard`]): keys route by tag hash to
//! [`crate::shard::DEFAULT_SHARDS`] shards, each holding its slice of
//! the series with its own durable files, decoded-block cache and seal
//! scratch. The store has one owner, and the compiler holds it to
//! that: its shards sit in `RefCell`s, so a `TsDb` is not `Sync` and
//! cannot be shared across threads. `aggregate` folds the shards one
//! after another into one dense bucket buffer; hour-aligned `Sum`/`Avg`
//! windows fold sealed blocks from their seal-time hourly rollups
//! ([`crate::block`]) instead of decoding them. Counts, `Max` and `Min`
//! are identical for any shard count; `Sum`/`Avg` may differ by
//! float-addition order across shard layouts, never by contents.

use crate::block::{Partial, SeriesBlocks, ROLLUP_SECS};
use crate::recover::{self, compact_shard, DurOptions, RecoveryReport};
use crate::series::{SeriesKey, TagFilter};
use crate::shard::{shard_of, Shard, ShardData, DEFAULT_SHARDS};
use crate::vfs::{DiskError, Vfs};
use std::collections::BTreeMap;
use std::sync::Arc;
use tacc_simnode::mem::{CacheCounters, MemoryBudget};

/// One timestamped value (seconds since the Unix epoch).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPoint {
    /// Unix seconds.
    pub t: u64,
    /// Value.
    pub v: f64,
}

/// How to combine values from different series that land in the same
/// downsample bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregation {
    /// Sum across series (e.g. cluster-wide metadata request rate).
    Sum,
    /// Mean across contributing points.
    Avg,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
}

/// Per-bucket fold state: (sum, count, max, min).
type Acc = (f64, usize, f64, f64);

const ACC_ZERO: Acc = (0.0, 0, f64::NEG_INFINITY, f64::INFINITY);

/// Durability context shared by all shards of a durable store.
struct DurCtx {
    vfs: Arc<dyn Vfs>,
    opts: DurOptions,
}

/// Aggregate durability counters for a durable store, summed across
/// shards (see [`TsDb::durability_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Point records appended to shard WALs.
    pub points_appended: u64,
    /// Point records covered by a successful fsync.
    pub points_synced: u64,
    /// Point records whose WAL append failed (in memory only).
    pub points_failed: u64,
    /// WAL fsync attempts that failed.
    pub sync_failures: u64,
    /// Durability faults absorbed on the ingest path.
    pub io_errors: u64,
    /// Sealed blocks persisted with a durable marker sequence.
    pub seals_persisted: u64,
    /// Completed shard compactions.
    pub compactions: u64,
    /// Total WAL bytes across shards.
    pub wal_bytes: u64,
    /// Total segment bytes across shards.
    pub segment_bytes: u64,
    /// Highest shard generation.
    pub max_gen: u64,
}

#[cfg(test)]
impl DurabilityStats {
    /// Points at risk: appended-but-unsynced plus failed appends.
    fn points_at_risk(&self) -> u64 {
        (self.points_appended - self.points_synced) + self.points_failed
    }
}

/// Tagged time-series database, sharded by key hash, with one owner.
pub struct TsDb {
    shards: Box<[Shard]>,
    /// Present when the store is durable ([`TsDb::recover`]).
    dur: Option<DurCtx>,
}

impl Default for TsDb {
    fn default() -> TsDb {
        TsDb::new()
    }
}

impl TsDb {
    /// New empty database with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> TsDb {
        TsDb::with_shards(DEFAULT_SHARDS)
    }

    /// New empty database with `n` shards (`0` is treated as `1`).
    pub fn with_shards(n: usize) -> TsDb {
        TsDb {
            shards: (0..n.max(1)).map(|_| Shard::default()).collect(),
            dur: None,
        }
    }

    /// Open a durable store on `vfs`, recovering whatever state is on
    /// disk (an empty directory yields an empty store, so this is also
    /// the way to *create* a durable store). Returns the store plus
    /// the [`RecoveryReport`] conservation accounting for the pass.
    ///
    /// `shards` applies only on first creation; reopening always uses
    /// the persisted shard count (routing partitions the key space by
    /// shard count, so it must not drift between runs).
    ///
    /// Crash safety: after a kill at any byte offset, recovery loses
    /// at most the points past the last successful WAL fsync (bounded
    /// by [`DurOptions::sync_every`] per shard) — torn trailing
    /// records are skipped and truncated, never panicked on.
    pub fn recover(
        vfs: Arc<dyn Vfs>,
        shards: usize,
        opts: DurOptions,
    ) -> Result<(TsDb, RecoveryReport), DiskError> {
        let n = recover::read_or_init_shards(&*vfs, shards)?;
        let mut report = RecoveryReport::default();
        let mut built = Vec::with_capacity(n);
        for i in 0..n {
            let (mut data, dur) = recover::recover_shard(&*vfs, i, opts, &mut report)?;
            data.dur = Some(dur);
            built.push(Shard::with_data(data));
        }
        Ok((
            TsDb {
                shards: built.into_boxed_slice(),
                dur: Some(DurCtx { vfs, opts }),
            },
            report,
        ))
    }

    /// Whether this store persists writes ([`TsDb::recover`]).
    pub fn is_durable(&self) -> bool {
        self.dur.is_some()
    }

    /// Number of shards the key space is split into.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: &SeriesKey) -> &Shard {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Insert one point. Out-of-order inserts are tolerated (kept
    /// sorted; a late point older than the sealed range merges into
    /// the one block it overlaps). Only the owning shard is touched.
    /// On a durable store a disk fault is absorbed (availability over
    /// durability — the in-memory store still applies the point); use
    /// [`TsDb::try_insert`] to observe it.
    pub fn insert(&self, key: SeriesKey, t: u64, v: f64) {
        let _ = self.try_insert(key, t, v);
    }

    /// Insert one point, surfacing durability faults. The point is
    /// applied in memory *regardless* of the result; `Err` means its
    /// WAL record (or a seal persistence step) failed and the point is
    /// at risk until the next successful sync or compaction — the
    /// at-risk count is visible via [`TsDb::durability_stats`]. On an
    /// in-memory store this never fails.
    ///
    /// Durable-write protocol (per point, within the owning shard):
    /// WAL append first, then the in-memory apply; if the apply sealed
    /// a block, the seal is persisted with the WAL-sync → segment
    /// append → segment-sync → marker sequence (see
    /// [`crate::recover`]); finally, if the WAL outgrew
    /// [`DurOptions::compact_wal_bytes`], the shard compacts in place.
    pub fn try_insert(&self, key: SeriesKey, t: u64, v: f64) -> Result<(), DiskError> {
        let idx = shard_of(&key, self.shards.len());
        let Some(shard) = self.shards.get(idx) else {
            return Ok(());
        };
        shard.note_ingest_time(t);
        let mut data = shard.data.borrow_mut();
        let ShardData {
            series,
            seal_scratch,
            dur,
        } = &mut *data;
        let mut disk: Result<(), DiskError> = Ok(());
        if let Some(d) = dur.as_mut() {
            if let Err(e) = d.wal.append_point(&key, t, v) {
                d.io_errors += 1;
                disk = Err(e);
            }
        }
        let Some(blocks) = series.get_or_insert(&key) else {
            return disk;
        };
        if blocks.push_with_scratch(t, v, seal_scratch) {
            if let Some(d) = dur.as_mut() {
                if let Some(block) = blocks.sealed().last() {
                    if let Err(e) = d.persist_seal(&key, block) {
                        d.io_errors += 1;
                        if disk.is_ok() {
                            disk = Err(e);
                        }
                    }
                }
            }
        }
        if disk.is_ok() {
            if let (Some(ctx), Some(d)) = (self.dur.as_ref(), dur.as_mut()) {
                if ctx.opts.compact_wal_bytes > 0 && d.wal.bytes() >= ctx.opts.compact_wal_bytes {
                    if let Err(e) = compact_shard(&*ctx.vfs, idx, ctx.opts, series, d) {
                        d.io_errors += 1;
                        disk = Err(e);
                    }
                }
            }
        }
        disk
    }

    /// fsync every shard's WAL, making all appended points durable.
    /// Returns the first failure (remaining shards are still synced).
    pub fn flush(&self) -> Result<(), DiskError> {
        let mut out = Ok(());
        for shard in self.shards.iter() {
            if let Some(d) = shard.data.borrow_mut().dur.as_mut() {
                if let Err(e) = d.wal.sync() {
                    if out.is_ok() {
                        out = Err(e);
                    }
                }
            }
        }
        out
    }

    /// Compact every shard now (see [`crate::recover`] module docs):
    /// each shard's sealed state is rewritten into a fresh generation
    /// and its WAL restarts from the heads. No-op on in-memory stores.
    pub fn compact(&self) -> Result<(), DiskError> {
        let Some(ctx) = self.dur.as_ref() else {
            return Ok(());
        };
        let mut out = Ok(());
        for (idx, shard) in self.shards.iter().enumerate() {
            let mut data = shard.data.borrow_mut();
            let ShardData { series, dur, .. } = &mut *data;
            if let Some(d) = dur.as_mut() {
                if let Err(e) = compact_shard(&*ctx.vfs, idx, ctx.opts, series, d) {
                    d.io_errors += 1;
                    if out.is_ok() {
                        out = Err(e);
                    }
                }
            }
        }
        out
    }

    /// Re-read every shard's current segment file through the
    /// zero-copy cursor path and verify each block decodes to its
    /// recorded point count — the read-your-writes integrity check the
    /// CI recovery smoke runs. Returns the all-zeros check on
    /// in-memory stores.
    pub fn verify_segments(&self) -> Result<recover::SegmentCheck, DiskError> {
        let Some(ctx) = self.dur.as_ref() else {
            return Ok(recover::SegmentCheck::default());
        };
        let mut out = recover::SegmentCheck::default();
        for (idx, shard) in self.shards.iter().enumerate() {
            let data = shard.data.borrow();
            let Some(d) = data.dur.as_ref() else {
                continue;
            };
            let name = recover::names::seg(idx, d.gen);
            let bytes = ctx.vfs.read(&name)?.unwrap_or_default();
            out.merge(&recover::check_segment_bytes(&bytes));
        }
        Ok(out)
    }

    /// Aggregate durability counters, or `None` for in-memory stores.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.dur.as_ref()?;
        let mut s = DurabilityStats::default();
        for shard in self.shards.iter() {
            let data = shard.data.borrow();
            if let Some(d) = data.dur.as_ref() {
                s.points_appended += d.wal.appended_points;
                s.points_synced += d.wal.synced_points;
                s.points_failed += d.wal.failed_points;
                s.sync_failures += d.wal.sync_failures;
                s.io_errors += d.io_errors;
                s.seals_persisted += d.seals_persisted;
                s.compactions += d.compactions;
                s.wal_bytes += d.wal.bytes();
                s.segment_bytes += d.seg.bytes();
                s.max_gen = s.max_gen.max(d.gen);
            }
        }
        Some(s)
    }

    /// Attach a memory budget to every shard's decoded-block cache.
    /// Cache insertions are charged against the budget: at the soft
    /// threshold each cache sheds cold entries back toward the limit,
    /// and the hard threshold is never exceeded (oversized blocks are
    /// rejected rather than cached). One budget may be shared with
    /// other subsystems (e.g. the portal query cache) so they compete
    /// for the same envelope.
    pub fn set_cache_budget(&self, budget: Arc<MemoryBudget>) {
        for shard in self.shards.iter() {
            shard.set_cache_budget(Arc::clone(&budget));
        }
    }

    /// Decoded-block cache counters summed across shards
    /// (hits/misses/evictions — the same reconciliation identity as
    /// [`tacc_simnode::mem::CacheCounters`] documents holds for the
    /// aggregate, since it holds per shard).
    pub fn cache_stats(&self) -> CacheCounters {
        let mut out = CacheCounters::default();
        for shard in self.shards.iter() {
            out.merge(&shard.cache_counters());
        }
        out
    }

    /// Budget-tracked bytes currently held by decoded-block caches,
    /// summed across shards.
    pub fn cache_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_bytes()).sum()
    }

    /// Number of series stored.
    pub fn n_series(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.data.borrow().series.len())
            .sum()
    }

    /// Total points stored.
    pub fn n_points(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.data
                    .borrow()
                    .series
                    .values()
                    .map(SeriesBlocks::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Bytes held by the stored columns: encoded sealed blocks plus the
    /// raw mutable heads. Compare against `16 * n_points()` (the
    /// point-vec representation) for the compression ratio.
    pub fn storage_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.data
                    .borrow()
                    .series
                    .values()
                    .map(|sb| sb.sealed_bytes() + (sb.len() - sb.sealed_len()) * 16)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Total sealed blocks across all series.
    pub fn n_sealed_blocks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.data
                    .borrow()
                    .series
                    .values()
                    .map(SeriesBlocks::n_sealed)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Keys matching a filter, in key order.
    pub fn keys(&self, filter: &TagFilter) -> Vec<SeriesKey> {
        let mut out: Vec<SeriesKey> = Vec::new();
        for shard in self.shards.iter() {
            let data = shard.data.borrow();
            out.extend(
                data.series
                    .iter()
                    .map(|(k, _)| k)
                    .filter(|k| filter.matches(k))
                    .cloned(),
            );
        }
        // Each shard walks its series in key order, but shards
        // interleave the global order; restore it so callers see one
        // sorted list.
        out.sort();
        out
    }

    /// Stream the points of one series within `[t0, t1)` to `f`, in
    /// timestamp order, serving sealed blocks from the owning shard's
    /// decoded-block cache — repeated reads over the same block decode
    /// it once. Returns the number of points visited. `f` may read the
    /// store again; inserting from inside it panics.
    pub fn range_for_each(
        &self,
        key: &SeriesKey,
        t0: u64,
        t1: u64,
        mut f: impl FnMut(u64, f64),
    ) -> usize {
        self.shard(key).range_for_each(key, t0, t1, &mut f)
    }

    /// Aggregate all series matching `filter` over `[t0, t1)`, bucketed
    /// into `bucket_secs`-wide windows aligned to `t0`. Buckets with no
    /// data are omitted. This is OpenTSDB's "aggregate along any subset
    /// of tags": the tags left `None` in the filter are the ones summed
    /// over.
    ///
    /// `Sum` and `Avg` over hour-aligned windows (`t0` and
    /// `bucket_secs` multiples of [`ROLLUP_SECS`]) fold sealed blocks
    /// from their seal-time hourly rollups instead of decoding them:
    /// per series and block, each hour's points are summed first and
    /// the partial is added to its bucket. That equals the per-point
    /// sum exactly on integer-valued data and to the last ulps
    /// otherwise; counts — and so which buckets exist — never differ.
    pub fn aggregate(
        &self,
        filter: &TagFilter,
        agg: Aggregation,
        t0: u64,
        t1: u64,
        bucket_secs: u64,
    ) -> Vec<DataPoint> {
        assert!(bucket_secs > 0, "bucket width must be positive");
        let finish = |sum: f64, n: usize, max: f64, min: f64| match agg {
            Aggregation::Sum => sum,
            Aggregation::Avg => sum / n as f64,
            Aggregation::Max => max,
            Aggregation::Min => min,
        };
        if t1 <= t0 {
            return Vec::new();
        }
        // Every hour cell of a rollup lies in exactly one bucket, and
        // only sums and counts are asked for.
        let hourly = matches!(agg, Aggregation::Sum | Aggregation::Avg)
            && t0.is_multiple_of(ROLLUP_SECS)
            && bucket_secs.is_multiple_of(ROLLUP_SECS);
        // Clamp the requested window to the data actually present
        // (block metadata only — nothing is decoded), so open-ended
        // queries still take the dense-bucket path below.
        let mut data_min = u64::MAX;
        let mut data_max = 0u64;
        let mut any = false;
        for shard in self.shards.iter() {
            let data = shard.data.borrow();
            for (key, series) in &data.series {
                if !filter.matches(key) {
                    continue;
                }
                if let (Some(lo), Some(hi)) = (series.min_t(), series.max_t()) {
                    any = true;
                    data_min = data_min.min(lo);
                    data_max = data_max.max(hi);
                }
            }
        }
        let eff_lo = data_min.max(t0);
        let eff_hi = data_max.min(t1 - 1); // inclusive upper bound
        if !any || eff_hi < eff_lo {
            return Vec::new();
        }
        let lo_b = (eff_lo - t0) / bucket_secs;
        let hi_b = (eff_hi - t0) / bucket_secs;
        let span = hi_b - lo_b + 1;
        // A flat bucket array beats a tree for every realistic window
        // (a month of 1 h buckets is 720 entries); degenerate sparse
        // spans fall back to the tree.
        const DENSE_MAX: u64 = 1 << 16;
        if span <= DENSE_MAX {
            let window = Window {
                t0,
                t1,
                bucket_secs,
                lo_b,
                hourly,
            };
            // Fold every shard into one dense buffer (a single
            // allocation per query).
            let mut dense = vec![ACC_ZERO; span as usize];
            for shard in self.shards.iter() {
                let data = shard.data.borrow();
                fold_dense(&data, filter, &window, &mut dense);
            }
            return dense
                .into_iter()
                .enumerate()
                .filter(|&(_, (_, n, _, _))| n > 0)
                .map(|(i, (sum, n, max, min))| DataPoint {
                    t: t0 + (lo_b + i as u64) * bucket_secs,
                    v: finish(sum, n, max, min),
                })
                .collect();
        }
        // bucket index → (sum, count, max, min)
        let mut buckets: BTreeMap<u64, Acc> = BTreeMap::new();
        for shard in self.shards.iter() {
            let data = shard.data.borrow();
            for (key, series) in &data.series {
                if !filter.matches(key) {
                    continue;
                }
                series.for_each_in(t0, t1, |t, v| {
                    let b = (t - t0) / bucket_secs;
                    let e = buckets.entry(b).or_insert(ACC_ZERO);
                    e.0 += v;
                    e.1 += 1;
                    e.2 = e.2.max(v);
                    e.3 = e.3.min(v);
                });
            }
        }
        buckets
            .into_iter()
            .map(|(b, (sum, n, max, min))| DataPoint {
                t: t0 + b * bucket_secs,
                v: finish(sum, n, max, min),
            })
            .collect()
    }

    /// Align two aggregated series on their common buckets and return the
    /// paired values — the input to a §VI-A interference correlation.
    pub fn aligned(
        &self,
        a: (&TagFilter, Aggregation),
        b: (&TagFilter, Aggregation),
        t0: u64,
        t1: u64,
        bucket_secs: u64,
    ) -> Vec<(f64, f64)> {
        let sa = self.aggregate(a.0, a.1, t0, t1, bucket_secs);
        let sb = self.aggregate(b.0, b.1, t0, t1, bucket_secs);
        // Both are sorted by bucket time: a merge-join pairs them.
        let mut out = Vec::with_capacity(sa.len().min(sb.len()));
        let mut sb = sb.iter().peekable();
        for pa in &sa {
            while sb.next_if(|pb| pb.t < pa.t).is_some() {}
            if let Some(pb) = sb.next_if(|pb| pb.t == pa.t) {
                out.push((pa.v, pb.v));
            }
        }
        out
    }
}

/// The bucketing of one `aggregate` call, as [`fold_dense`] needs it.
struct Window {
    t0: u64,
    t1: u64,
    bucket_secs: u64,
    /// Bucket index (from `t0`) of `dense[0]`.
    lo_b: u64,
    /// Serve sealed blocks from their hourly rollups where they cover
    /// the window (the query is `Sum`/`Avg` and hour-aligned).
    hourly: bool,
}

/// Fold one shard's matching series into dense buckets (indices
/// relative to `lo_b`): per point, or — for an hourly window — per
/// rollup cell where a sealed block has one covering it, sums and
/// counts only (nothing hourly reads the extrema). Additions run in
/// series → block → hour (or point) order.
///
/// No division per cell or point: a run of cells starts from its first
/// hour's bucket and moves to the next bucket every `bucket_secs /
/// ROLLUP_SECS` cells, and a point reuses the bucket `[lo, hi)` of the
/// point before it unless it falls outside (a series' points rise in
/// time, so that is once per bucket).
fn fold_dense(data: &ShardData, filter: &TagFilter, w: &Window, dense: &mut [Acc]) {
    let hours_per_bucket = (w.bucket_secs / ROLLUP_SECS).max(1);
    for (key, series) in &data.series {
        if !filter.matches(key) {
            continue;
        }
        let (mut lo, mut hi, mut b) = (u64::MAX, 0u64, 0usize);
        series.for_each_partial_in(w.t0, w.t1, w.hourly, |p| match p {
            Partial::Point(t, v) => {
                if !(lo..hi).contains(&t) {
                    let k = (t - w.t0) / w.bucket_secs;
                    lo = w.t0 + k * w.bucket_secs;
                    hi = lo.saturating_add(w.bucket_secs);
                    b = k.saturating_sub(w.lo_b) as usize;
                }
                if let Some(e) = dense.get_mut(b) {
                    e.0 += v;
                    e.1 += 1;
                    e.2 = e.2.max(v);
                    e.3 = e.3.min(v);
                }
            }
            Partial::Hours(run) => {
                let from_t0 = run.first_hour - w.t0 / ROLLUP_SECS;
                let mut b = (from_t0 / hours_per_bucket).saturating_sub(w.lo_b) as usize;
                let mut left = hours_per_bucket - from_t0 % hours_per_bucket;
                for (sum, n) in run.iter() {
                    if n > 0 {
                        if let Some(e) = dense.get_mut(b) {
                            e.0 += sum;
                            e.1 += n as usize;
                        }
                    }
                    left -= 1;
                    if left == 0 {
                        b += 1;
                        left = hours_per_bucket;
                    }
                }
            }
        });
    }
}

/// The points of one series within `[t0, t1)`, copied out through
/// [`TsDb::range_for_each`] — the tests' reference view of a series.
#[cfg(test)]
fn range(db: &TsDb, key: &SeriesKey, t0: u64, t1: u64) -> Vec<DataPoint> {
    let mut out = Vec::new();
    db.range_for_each(key, t0, t1, |t, v| out.push(DataPoint { t, v }));
    out
}

#[cfg(test)]
mod durable_tests {
    use super::*;
    use crate::block::SEAL_THRESHOLD;
    use crate::vfs::MemVfs;
    use tacc_simnode::faults::DiskFaultPlan;

    fn key(host: &str, event: &str) -> SeriesKey {
        SeriesKey::new(host, "mdc", "scratch", event)
    }

    fn opts(sync_every: u64, compact_wal_bytes: u64) -> DurOptions {
        DurOptions {
            sync_every,
            compact_wal_bytes,
        }
    }

    /// The workload every durable test ingests: `per_series`
    /// increasing-timestamp points on each of six series spread over
    /// the shards. Returns how many points were applied in memory
    /// before the first disk fault surfaced (all of them when the
    /// disk is healthy).
    fn ingest(db: &TsDb, per_series: usize) -> usize {
        let keys: Vec<SeriesKey> = (0..6)
            .map(|i| {
                key(
                    &format!("c{i:02}"),
                    if i % 2 == 0 { "reqs" } else { "wait" },
                )
            })
            .collect();
        let mut applied = 0;
        'outer: for p in 0..per_series {
            for (ki, k) in keys.iter().enumerate() {
                let t = (p as u64) * 10 + 1;
                let v = (p * 31 + ki) as f64;
                let r = db.try_insert(k.clone(), t, v);
                applied += 1;
                if r.is_err() {
                    break 'outer;
                }
            }
        }
        applied
    }

    /// Every series' recovered points must be an exact prefix of the
    /// sequence inserted for it (increasing timestamps ⇒ range order
    /// is insertion order). Returns the total recovered point count.
    fn assert_series_are_prefixes(recovered: &TsDb, reference: &TsDb) -> usize {
        let mut total = 0;
        for k in reference.keys(&TagFilter::any()) {
            let want = range(reference, &k, 0, u64::MAX);
            let got = range(recovered, &k, 0, u64::MAX);
            assert!(
                got.len() <= want.len(),
                "{k}: recovered {} > inserted {}",
                got.len(),
                want.len()
            );
            assert_eq!(
                got,
                want[..got.len()],
                "{k}: recovered points must be an exact insertion prefix"
            );
            total += got.len();
        }
        assert_eq!(total, recovered.n_points());
        total
    }

    #[test]
    fn durable_store_reopens_identical_after_clean_shutdown() {
        let vfs = Arc::new(MemVfs::new());
        let (db, report) = TsDb::recover(vfs.clone(), 4, opts(32, 0)).unwrap();
        assert_eq!(report.fresh_shards, 4);
        assert!(db.is_durable());
        let reference = TsDb::with_shards(4);
        ingest(&db, 900);
        ingest(&reference, 900);
        db.flush().unwrap();
        assert_eq!(db.durability_stats().unwrap().points_at_risk(), 0);
        drop(db);

        let (back, report) = TsDb::recover(vfs, 4, opts(32, 0)).unwrap();
        assert!(report.balances(), "{report:?}");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(back.n_points(), reference.n_points());
        assert_eq!(back.n_series(), reference.n_series());
        let n = assert_series_are_prefixes(&back, &reference);
        assert_eq!(n, reference.n_points());
        // Sealed blocks were installed from the segment, not re-sealed.
        assert!(report.blocks_installed > 0);
        assert!(back.verify_segments().unwrap().is_clean());
    }

    #[test]
    fn kill_at_any_offset_loses_at_most_the_unsynced_tail() {
        const SHARDS: usize = 4;
        const SYNC_EVERY: u64 = 32;
        // Measure the healthy run's total disk traffic once, then
        // sweep kill offsets across it — including offsets that land
        // mid-frame, mid-seal, and mid-compaction.
        let healthy = Arc::new(MemVfs::new());
        let (db, _) = TsDb::recover(healthy.clone(), SHARDS, opts(SYNC_EVERY, 12_000)).unwrap();
        let inserted = ingest(&db, 800);
        let total_bytes = healthy.total_bytes().max(1);
        assert!(
            db.durability_stats().unwrap().compactions > 0,
            "workload must exercise compaction for the sweep to cover it"
        );
        let reference = TsDb::with_shards(SHARDS);
        assert_eq!(ingest(&reference, 800), inserted);

        let mut offsets: Vec<u64> = (0..48).map(|i| i * total_bytes / 48).collect();
        offsets.extend([1, 7, total_bytes - 1, total_bytes / 2 + 13]);
        for kill_at in offsets {
            let vfs = Arc::new(MemVfs::with_faults(DiskFaultPlan::kill_at(kill_at)));
            // Tiny offsets kill the disk while the store is still
            // being created; that too is a crash point recovery must
            // survive, so tolerate the open error and take the image.
            let stats = match TsDb::recover(vfs.clone(), SHARDS, opts(SYNC_EVERY, 12_000)) {
                Ok((db, _)) => {
                    ingest(&db, 800);
                    db.durability_stats().unwrap()
                }
                Err(_) => DurabilityStats::default(),
            };

            // Kill model: everything persisted before the kill offset
            // survives, including the torn straddling append.
            let img = Arc::new(vfs.crash_image());
            let (back, report) = TsDb::recover(img, SHARDS, opts(SYNC_EVERY, 12_000)).unwrap();
            assert!(report.balances(), "kill@{kill_at}: {report:?}");
            let recovered = assert_series_are_prefixes(&back, &reference);
            assert!(
                recovered as u64 >= stats.points_synced,
                "kill@{kill_at}: recovered {recovered} < synced {}",
                stats.points_synced
            );

            // Power-loss model: only the synced prefix (plus a torn
            // sliver) survives. Same invariants, plus the explicit
            // sync_every loss bound.
            let img = Arc::new(vfs.crash_image_dropping_unsynced((kill_at % 23) as usize));
            let (back, report) = TsDb::recover(img, SHARDS, opts(SYNC_EVERY, 12_000)).unwrap();
            assert!(report.balances(), "power-loss@{kill_at}: {report:?}");
            let recovered = assert_series_are_prefixes(&back, &reference);
            assert!(
                recovered as u64 >= stats.points_synced,
                "power-loss@{kill_at}: recovered {recovered} < synced {}",
                stats.points_synced
            );
            let lost = stats.points_appended.saturating_sub(recovered as u64);
            assert!(
                lost <= (SHARDS as u64) * SYNC_EVERY + SHARDS as u64,
                "power-loss@{kill_at}: lost {lost} exceeds the sync_every bound"
            );
        }
    }

    #[test]
    fn compaction_preserves_contents_and_bounds_the_wal() {
        let vfs = Arc::new(MemVfs::new());
        // Tiny compaction threshold: the WAL compacts many times.
        let (db, _) = TsDb::recover(vfs.clone(), 2, opts(16, 8_000)).unwrap();
        let reference = TsDb::with_shards(2);
        ingest(&db, 700);
        ingest(&reference, 700);
        let stats = db.durability_stats().unwrap();
        assert!(stats.compactions >= 2, "{stats:?}");
        assert!(stats.max_gen >= 1);
        assert_eq!(
            assert_series_are_prefixes(&db, &reference),
            reference.n_points()
        );
        db.flush().unwrap();
        drop(db);
        let (back, report) = TsDb::recover(vfs.clone(), 2, opts(16, 8_000)).unwrap();
        assert!(report.balances() && report.is_clean(), "{report:?}");
        assert_eq!(
            assert_series_are_prefixes(&back, &reference),
            reference.n_points()
        );
        // Old-generation files were swept: only the current gen plus
        // manifests and the store meta remain on disk.
        let files = vfs.list().unwrap();
        assert_eq!(files.len(), 2 * 3 + 1, "{files:?}");
    }

    #[test]
    fn orphaned_segment_block_is_dropped_without_losing_points() {
        // One series, exactly one sealed block, and a WAL whose seal
        // marker never gets synced: power loss leaves the block
        // orphaned in the segment. Recovery must drop it and rebuild
        // the same points from the replayed log.
        let vfs = Arc::new(MemVfs::new());
        let (db, _) = TsDb::recover(vfs.clone(), 1, opts(1 << 20, 0)).unwrap();
        let k = key("c00", "reqs");
        for i in 0..SEAL_THRESHOLD as u64 {
            db.try_insert(k.clone(), i * 10, i as f64).unwrap();
        }
        let stats = db.durability_stats().unwrap();
        assert_eq!(stats.seals_persisted, 1);
        // persist_seal synced the WAL through the 512 points; only the
        // marker is unsynced.
        assert_eq!(stats.points_synced, SEAL_THRESHOLD as u64);
        drop(db);

        let img = Arc::new(vfs.crash_image_dropping_unsynced(0));
        let (back, report) = TsDb::recover(img, 1, opts(1 << 20, 0)).unwrap();
        assert_eq!(report.blocks_orphaned, 1, "{report:?}");
        assert_eq!(report.seals_applied, 0);
        assert_eq!(report.points_replayed, SEAL_THRESHOLD as u64);
        assert!(report.balances(), "{report:?}");
        assert_eq!(back.n_points(), SEAL_THRESHOLD);
        let pts = range(&back, &k, 0, u64::MAX);
        assert_eq!(pts.len(), SEAL_THRESHOLD);
        assert_eq!(pts[SEAL_THRESHOLD - 1].v, (SEAL_THRESHOLD - 1) as f64);
    }

    #[test]
    fn meta_pins_the_shard_count_across_reopens() {
        let vfs = Arc::new(MemVfs::new());
        let (db, _) = TsDb::recover(vfs.clone(), 4, DurOptions::default()).unwrap();
        assert_eq!(db.n_shards(), 4);
        ingest(&db, 50);
        db.flush().unwrap();
        drop(db);
        // Asking for 8 shards on reopen must not re-partition the key
        // space: the persisted count wins.
        let (back, report) = TsDb::recover(vfs, 8, DurOptions::default()).unwrap();
        assert_eq!(back.n_shards(), 4);
        assert!(report.balances());
        assert_eq!(back.n_points(), 300);
    }

    #[test]
    fn verify_segments_detects_a_flipped_bit() {
        let vfs = Arc::new(MemVfs::new());
        let (db, _) = TsDb::recover(vfs.clone(), 1, opts(64, 0)).unwrap();
        for i in 0..(SEAL_THRESHOLD as u64 * 2) {
            db.insert(key("c00", "reqs"), i * 10, i as f64);
        }
        db.flush().unwrap();
        let clean = db.verify_segments().unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.blocks, 2);
        assert_eq!(clean.points, 2 * SEAL_THRESHOLD as u64);
        // Flip one stored bit in the middle of the segment file.
        let seg_name = vfs
            .list()
            .unwrap()
            .into_iter()
            .find(|n| n.contains(".seg."))
            .unwrap();
        assert!(vfs.flip_bit(&seg_name, 40, 3));
        let dirty = db.verify_segments().unwrap();
        assert!(!dirty.is_clean());
        assert!(dirty.blocks < 2 || dirty.torn_bytes > 0);
    }

    #[test]
    fn sync_failures_are_absorbed_and_surfaced() {
        // Every later fsync fails; appends keep succeeding. The store
        // stays available, inserts report the fault, and the at-risk
        // counter grows instead of anything panicking.
        let plan = DiskFaultPlan {
            sync_fail_at: (8..4096).collect(),
            ..DiskFaultPlan::default()
        };
        let vfs = Arc::new(MemVfs::with_faults(plan));
        let (db, _) = TsDb::recover(vfs, 1, opts(4, 0)).unwrap();
        let k = key("c00", "reqs");
        let mut failures = 0;
        for i in 0..64u64 {
            if db.try_insert(k.clone(), i, i as f64).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "batched syncs must start failing");
        assert_eq!(db.n_points(), 64, "memory apply never stops");
        let stats = db.durability_stats().unwrap();
        assert!(stats.sync_failures > 0);
        assert!(stats.points_at_risk() > 0);
        assert!(db.flush().is_err());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::SEAL_THRESHOLD;
    use proptest::prelude::*;

    fn key(host: &str, event: &str) -> SeriesKey {
        SeriesKey::new(host, "mdc", "scratch", event)
    }

    #[test]
    fn insert_and_range() {
        let db = TsDb::new();
        for t in [100u64, 200, 300, 400] {
            db.insert(key("c1", "reqs"), t, t as f64);
        }
        let pts = range(&db, &key("c1", "reqs"), 150, 350);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].t, 200);
        assert_eq!(db.n_series(), 1);
        assert_eq!(db.n_points(), 4);
    }

    #[test]
    fn out_of_order_insert_keeps_sorted() {
        let db = TsDb::new();
        db.insert(key("c1", "reqs"), 300, 3.0);
        db.insert(key("c1", "reqs"), 100, 1.0);
        db.insert(key("c1", "reqs"), 200, 2.0);
        let pts = range(&db, &key("c1", "reqs"), 0, 1000);
        let ts: Vec<u64> = pts.iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![100, 200, 300]);
    }

    #[test]
    fn aggregate_sums_across_hosts() {
        // "aggregated along any subset of these tags": leave host
        // unspecified to sum the per-host series.
        let db = TsDb::new();
        for host in ["c1", "c2", "c3"] {
            db.insert(key(host, "reqs"), 100, 10.0);
            db.insert(key(host, "reqs"), 700, 20.0);
        }
        db.insert(key("c1", "wait"), 100, 999.0); // different event: excluded
        let f = TagFilter::any().dev_type("mdc").event("reqs");
        let series = db.aggregate(&f, Aggregation::Sum, 0, 1000, 600);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0], DataPoint { t: 0, v: 30.0 });
        assert_eq!(series[1], DataPoint { t: 600, v: 60.0 });
    }

    #[test]
    fn aggregate_avg_max_min() {
        let db = TsDb::new();
        db.insert(key("c1", "reqs"), 10, 1.0);
        db.insert(key("c2", "reqs"), 20, 3.0);
        let f = TagFilter::any().event("reqs");
        assert_eq!(db.aggregate(&f, Aggregation::Avg, 0, 100, 100)[0].v, 2.0);
        assert_eq!(db.aggregate(&f, Aggregation::Max, 0, 100, 100)[0].v, 3.0);
        assert_eq!(db.aggregate(&f, Aggregation::Min, 0, 100, 100)[0].v, 1.0);
    }

    #[test]
    fn empty_buckets_are_omitted() {
        let db = TsDb::new();
        db.insert(key("c1", "reqs"), 0, 1.0);
        db.insert(key("c1", "reqs"), 1200, 1.0);
        let f = TagFilter::any();
        let s = db.aggregate(&f, Aggregation::Sum, 0, 1800, 600);
        let ts: Vec<u64> = s.iter().map(|p| p.t).collect();
        assert_eq!(ts, vec![0, 1200]);
    }

    #[test]
    fn aligned_pairs_common_buckets_only() {
        let db = TsDb::new();
        db.insert(key("c1", "reqs"), 0, 5.0);
        db.insert(key("c1", "reqs"), 600, 7.0);
        db.insert(key("c1", "wait"), 600, 70.0);
        db.insert(key("c1", "wait"), 1200, 80.0);
        let fa = TagFilter::any().event("reqs");
        let fb = TagFilter::any().event("wait");
        let pairs = db.aligned(
            (&fa, Aggregation::Sum),
            (&fb, Aggregation::Sum),
            0,
            1800,
            600,
        );
        assert_eq!(pairs, vec![(7.0, 70.0)]);
    }

    #[test]
    fn range_for_each_streams_in_order() {
        let db = TsDb::new();
        // Enough points to roll at least one sealed block.
        for i in 0..1500u64 {
            db.insert(key("c1", "reqs"), i * 10, i as f64);
        }
        assert!(db.n_sealed_blocks() >= 1);
        let mut got = Vec::new();
        let n = db.range_for_each(&key("c1", "reqs"), 100, 300, |t, v| got.push((t, v)));
        assert_eq!(n, got.len());
        let want: Vec<(u64, f64)> = (10..30u64).map(|i| (i * 10, i as f64)).collect();
        assert_eq!(got, want);
        assert_eq!(
            db.range_for_each(&key("c9", "reqs"), 0, 100, |_, _| {}),
            0,
            "missing series visits nothing"
        );
    }

    #[test]
    fn reads_inside_a_range_closure_match_reads_outside_it() {
        // One shard, so both series share a series map and a block
        // cache; `db` starts with a cold cache, so the reads inside the
        // closure decode and cache blocks while the outer read streams.
        let mk = || {
            let db = TsDb::with_shards(1);
            for i in 0..(SEAL_THRESHOLD as u64 * 2 + 10) {
                db.insert(key("c1", "reqs"), i * 60, i as f64);
                db.insert(key("c2", "reqs"), i * 60, (i % 7) as f64);
            }
            db
        };
        let (reference, db) = (mk(), mk());
        let (a, b) = (key("c1", "reqs"), key("c2", "reqs"));
        let f = TagFilter::any().event("reqs");
        let want_a = range(&reference, &a, 0, u64::MAX);
        let want_b = range(&reference, &b, 0, u64::MAX);
        let want_agg = reference.aggregate(&f, Aggregation::Sum, 0, u64::MAX, 3600);
        let mut got_a = Vec::new();
        db.range_for_each(&a, 0, u64::MAX, |t, v| {
            got_a.push(DataPoint { t, v });
            if got_a.len() % 97 == 1 {
                assert_eq!(range(&db, &b, 0, u64::MAX), want_b);
                assert_eq!(db.n_points(), reference.n_points());
                assert_eq!(
                    db.aggregate(&f, Aggregation::Sum, 0, u64::MAX, 3600),
                    want_agg
                );
            }
        });
        assert_eq!(got_a, want_a);
        assert!(
            db.cache_stats().misses > 0,
            "the closure's reads decoded blocks"
        );
    }

    #[test]
    fn shard_counts_do_not_change_query_results() {
        // The same inserts against 1..=8 shards answer every query the
        // same way (Sum within one bucket is order-sensitive only in
        // float rounding; these values are exact in f64).
        let mk = |shards: usize| {
            let db = TsDb::with_shards(shards);
            for h in 0..16 {
                for i in 0..600u64 {
                    db.insert(key(&format!("c{h:02}"), "reqs"), i * 10, (i % 7) as f64);
                }
            }
            db
        };
        let reference = mk(1);
        let f = TagFilter::any().event("reqs");
        let ref_keys = reference.keys(&TagFilter::any());
        let ref_agg = reference.aggregate(&f, Aggregation::Max, 0, 6000, 600);
        for shards in [2usize, 4, 8] {
            let db = mk(shards);
            assert_eq!(db.n_shards(), shards);
            assert_eq!(db.n_series(), reference.n_series());
            assert_eq!(db.n_points(), reference.n_points());
            assert_eq!(db.keys(&TagFilter::any()), ref_keys, "{shards} shards");
            assert_eq!(
                db.aggregate(&f, Aggregation::Max, 0, 6000, 600),
                ref_agg,
                "{shards} shards"
            );
            let k = key("c03", "reqs");
            assert_eq!(range(&db, &k, 100, 2000), range(&reference, &k, 100, 2000));
        }
    }

    #[test]
    fn storage_bytes_count_the_rollups() {
        let db = TsDb::with_shards(1);
        let k = key("c1", "reqs");
        for i in 0..SEAL_THRESHOLD as u64 {
            db.insert(k.clone(), i * 600, 42.0);
        }
        assert_eq!(db.n_sealed_blocks(), 1);
        let data = db.shards[0].data.borrow();
        let block = &data.series.get(&k).expect("stored").sealed()[0];
        assert!(block.rollup_bytes() > 0);
        assert_eq!(
            db.storage_bytes(),
            block.encoded_bytes() + block.rollup_bytes()
        );
    }

    proptest! {
        /// Sum aggregation is linear: the sum over all hosts equals the
        /// sum of per-host aggregates, bucket by bucket.
        #[test]
        fn sum_aggregation_is_linear(
            pts in proptest::collection::vec((0u64..3, 0u64..3600, -1e6f64..1e6), 1..80)
        ) {
            let db = TsDb::new();
            for (h, t, v) in &pts {
                db.insert(key(&format!("c{h}"), "reqs"), *t, *v);
            }
            let all = db.aggregate(&TagFilter::any(), Aggregation::Sum, 0, 3600, 600);
            let mut per_host: BTreeMap<u64, f64> = BTreeMap::new();
            for h in 0..3u64 {
                let f = TagFilter::any().host(&format!("c{h}"));
                for p in db.aggregate(&f, Aggregation::Sum, 0, 3600, 600) {
                    *per_host.entry(p.t).or_default() += p.v;
                }
            }
            prop_assert_eq!(all.len(), per_host.len());
            for p in all {
                let want = per_host[&p.t];
                prop_assert!((p.v - want).abs() <= 1e-9 * (1.0 + want.abs()));
            }
        }

        /// Sharded stores answer exactly like a single-shard reference
        /// for arbitrary interleaved ingest: `range_for_each` (and the
        /// cached read path under it) is bit-identical; `aggregate`
        /// counts/extrema are identical and sums agree to rounding.
        #[test]
        fn sharded_queries_match_single_shard_reference(
            pts in proptest::collection::vec(
                (0u64..4, 0u64..4000, -1e9f64..1e9), 1..700),
            shards in 2usize..=8
        ) {
            let reference = TsDb::with_shards(1);
            let db = TsDb::with_shards(shards);
            for (h, t, v) in &pts {
                let k = key(&format!("w{h}"), "reqs");
                reference.insert(k.clone(), *t, *v);
                db.insert(k, *t, *v);
            }
            prop_assert_eq!(db.n_points(), reference.n_points());
            prop_assert_eq!(db.keys(&TagFilter::any()),
                            reference.keys(&TagFilter::any()));
            // Per-series reads are bit-identical (same per-series
            // storage, only the owning shard differs) — read twice so
            // the second pass exercises the decoded-block cache.
            for h in 0..4u64 {
                let k = key(&format!("w{h}"), "reqs");
                let want = range(&reference, &k, 500, 3500);
                prop_assert_eq!(&range(&db, &k, 500, 3500), &want);
                prop_assert_eq!(&range(&db, &k, 500, 3500), &want);
            }
            // Aggregates: counts and extrema exact, sums to rounding.
            let f = TagFilter::any().event("reqs");
            for agg in [Aggregation::Max, Aggregation::Min] {
                prop_assert_eq!(
                    db.aggregate(&f, agg, 0, 4000, 600),
                    reference.aggregate(&f, agg, 0, 4000, 600)
                );
            }
            let a = db.aggregate(&f, Aggregation::Sum, 0, 4000, 600);
            let b = reference.aggregate(&f, Aggregation::Sum, 0, 4000, 600);
            prop_assert_eq!(a.len(), b.len());
            for (pa, pb) in a.iter().zip(b.iter()) {
                prop_assert_eq!(pa.t, pb.t);
                prop_assert!((pa.v - pb.v).abs() <= 1e-9 * (1.0 + pb.v.abs()));
            }
        }
    }
}
