//! Differential acceptance test of the seal-time hourly rollups.
//!
//! `TsDb::aggregate` serves `Sum`/`Avg` over hour-aligned windows from
//! the `(sum, n)` cells a block was sealed with instead of decoding its
//! points. Two test-local oracles hold it to what it replaced:
//!
//! * the **per-point oracle** — the parent commit's `aggregate` and
//!   `fold_dense`, verbatim but for reading their points through
//!   `TsDb::range_for_each`: one add per point, in shard → series → time
//!   order;
//! * the **cell oracle** — the same bucketing, but a sealed block the
//!   window may take by whole hours is first reduced to per-hour
//!   partials of its *decoded* points. It states the eligibility rules
//!   independently of `block.rs` and reads block boundaries from a
//!   model kept beside the store (the same pushes into test-owned
//!   [`SeriesBlocks`]).
//!
//! Promised, per query: bucket timestamps (so emptiness) equal the
//! per-point oracle's always; values bit-identical to it for all four
//! aggregations on integer-valued data and for `Max`/`Min`/ineligible
//! queries on any data; eligible `Sum`/`Avg` on arbitrary `f64`
//! bit-identical to the cell oracle and within 1e-12 relative of the
//! per-point one. The same on a store `TsDb::recover` rebuilt from a
//! power-loss image, whose rollups were re-derived by decoding.
//!
//! The vendored proptest runs 64 cases per property; each case draws
//! [`STORES_PER_CASE`] stores, 256 per property.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tacc_tsdb::block::ROLLUP_SECS;
use tacc_tsdb::{
    shard_of, Aggregation, DataPoint, DurOptions, MemVfs, SeriesBlocks, SeriesKey, TagFilter, TsDb,
    Vfs, SEAL_THRESHOLD,
};

const STORES_PER_CASE: u64 = 4;
const QUERIES_PER_STORE: usize = 10;
const BASE_T: u64 = 1_443_657_600;

// ---------------------------------------------------------------------
// The per-point oracle: the parent's read path
// ---------------------------------------------------------------------

/// Per-bucket fold state: (sum, count, max, min).
type Acc = (f64, usize, f64, f64);

const ACC_ZERO: Acc = (0.0, 0, f64::NEG_INFINITY, f64::INFINITY);

/// One series as the parent's fold saw it: points in time order.
struct Points(Vec<DataPoint>);

impl Points {
    fn for_each_in(&self, t0: u64, t1: u64, mut f: impl FnMut(u64, f64)) {
        for p in self.0.iter().filter(|p| p.t >= t0 && p.t < t1) {
            f(p.t, p.v);
        }
    }
}

/// One shard's slice of the key space, in key order.
struct ShardData {
    series: BTreeMap<SeriesKey, Points>,
}

/// The store's contents laid out as its shards hold them.
fn snapshot(db: &TsDb) -> Vec<ShardData> {
    let mut shards: Vec<ShardData> = (0..db.n_shards())
        .map(|_| ShardData {
            series: BTreeMap::new(),
        })
        .collect();
    for key in db.keys(&TagFilter::any()) {
        let mut points = Points(Vec::new());
        db.range_for_each(&key, 0, u64::MAX, |t, v| points.0.push(DataPoint { t, v }));
        shards[shard_of(&key, db.n_shards())]
            .series
            .insert(key, points);
    }
    shards
}

/// The parent's `fold_dense`, body verbatim.
fn fold_dense(
    data: &ShardData,
    filter: &TagFilter,
    t0: u64,
    t1: u64,
    bucket_secs: u64,
    lo_b: u64,
    dense: &mut [Acc],
) {
    for (key, series) in &data.series {
        if !filter.matches(key) {
            continue;
        }
        series.for_each_in(t0, t1, |t, v| {
            let b = ((t - t0) / bucket_secs).saturating_sub(lo_b) as usize;
            if let Some(e) = dense.get_mut(b) {
                e.0 += v;
                e.1 += 1;
                e.2 = e.2.max(v);
                e.3 = e.3.min(v);
            }
        });
    }
}

/// The parent's `aggregate` (sequential arm), with the dense fold of
/// shard `i` handed in: `fold(i, lo_b, dense)`.
fn oracle_aggregate(
    shards: &[ShardData],
    filter: &TagFilter,
    agg: Aggregation,
    t0: u64,
    t1: u64,
    bucket_secs: u64,
    fold: impl Fn(usize, u64, &mut [Acc]),
) -> Vec<DataPoint> {
    let finish = |sum: f64, n: usize, max: f64, min: f64| match agg {
        Aggregation::Sum => sum,
        Aggregation::Avg => sum / n as f64,
        Aggregation::Max => max,
        Aggregation::Min => min,
    };
    if t1 <= t0 {
        return Vec::new();
    }
    let mut data_min = u64::MAX;
    let mut data_max = 0u64;
    let mut any = false;
    for data in shards {
        for (key, series) in &data.series {
            if !filter.matches(key) {
                continue;
            }
            if let (Some(lo), Some(hi)) = (series.0.first(), series.0.last()) {
                any = true;
                data_min = data_min.min(lo.t);
                data_max = data_max.max(hi.t);
            }
        }
    }
    let eff_lo = data_min.max(t0);
    let eff_hi = data_max.min(t1 - 1);
    if !any || eff_hi < eff_lo {
        return Vec::new();
    }
    let lo_b = (eff_lo - t0) / bucket_secs;
    let hi_b = (eff_hi - t0) / bucket_secs;
    let span = hi_b - lo_b + 1;
    const DENSE_MAX: u64 = 1 << 16;
    if span <= DENSE_MAX {
        let mut dense = vec![ACC_ZERO; span as usize];
        for i in 0..shards.len() {
            fold(i, lo_b, &mut dense);
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
    let mut buckets: BTreeMap<u64, Acc> = BTreeMap::new();
    for data in shards {
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

// ---------------------------------------------------------------------
// The cell oracle: per-(series, block, hour) partials of decoded points
// ---------------------------------------------------------------------

/// Block boundaries of every series, mirrored push for push.
type Model = BTreeMap<SeriesKey, SeriesBlocks>;

/// The query may take blocks by whole hours: it reads sums and counts
/// only, and every hour lies in exactly one bucket.
fn eligible(agg: Aggregation, t0: u64, bucket_secs: u64) -> bool {
    matches!(agg, Aggregation::Sum | Aggregation::Avg)
        && t0.is_multiple_of(ROLLUP_SECS)
        && bucket_secs.is_multiple_of(ROLLUP_SECS)
}

/// Hour cells a block with these (sorted) timestamps is sealed with, or
/// `None`: none when it outgrew the seal threshold or is so sparse that
/// cells would outnumber points 4:1.
fn cells_of(ts: &[u64]) -> Option<u64> {
    let cells = ts.last()? / ROLLUP_SECS - ts.first()? / ROLLUP_SECS + 1;
    (ts.len() <= SEAL_THRESHOLD && cells <= 4 * ts.len() as u64).then_some(cells)
}

/// The fold of an eligible query over shard `shard` of the model.
#[allow(clippy::too_many_arguments)]
fn fold_cells(
    model: &Model,
    shard: usize,
    n_shards: usize,
    filter: &TagFilter,
    t0: u64,
    t1: u64,
    bucket_secs: u64,
    lo_b: u64,
    dense: &mut [Acc],
) {
    for (key, series) in model {
        if shard_of(key, n_shards) != shard || !filter.matches(key) {
            continue;
        }
        let mut add = |t: u64, sum: f64, n: usize| {
            let b = ((t - t0) / bucket_secs).saturating_sub(lo_b) as usize;
            if let Some(e) = dense.get_mut(b) {
                e.0 += sum;
                e.1 += n;
            }
        };
        for block in series.sealed() {
            if block.max_t() < t0 {
                continue;
            }
            if block.min_t() >= t1 {
                break;
            }
            let (mut ts, mut vs) = (Vec::new(), Vec::new());
            block.decode_into(&mut ts, &mut vs);
            let cells = cells_of(&ts);
            assert_eq!(
                block.rollup_bytes() as u64,
                cells.unwrap_or(0) * 10,
                "a cell is 10 bytes; oversize and sparse blocks carry none"
            );
            if cells.is_some() && (t1.is_multiple_of(ROLLUP_SECS) || block.max_t() < t1) {
                let mut i = 0;
                while i < ts.len() {
                    let hour = ts[i] / ROLLUP_SECS;
                    let (mut sum, mut n) = (0.0, 0);
                    while i < ts.len() && ts[i] / ROLLUP_SECS == hour {
                        sum += vs[i];
                        n += 1;
                        i += 1;
                    }
                    if hour * ROLLUP_SECS >= t0 && hour * ROLLUP_SECS < t1 {
                        add(hour * ROLLUP_SECS, sum, n);
                    }
                }
            } else {
                for (&t, &v) in ts.iter().zip(&vs).filter(|(&t, _)| t >= t0 && t < t1) {
                    add(t, v, 1);
                }
            }
        }
        let (head_t, head_v) = series.head_cols();
        for (&t, &v) in head_t
            .iter()
            .zip(head_v)
            .filter(|(&t, _)| t >= t0 && t < t1)
        {
            add(t, v, 1);
        }
    }
}

// ---------------------------------------------------------------------
// Random stores and queries
// ---------------------------------------------------------------------

/// SplitMix64: the whole case is a function of one drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// Integer-valued (exact under any addition order), or a finite
    /// non-negative `f64` of mixed magnitude (so "relative" is
    /// well-conditioned).
    fn value(&mut self, integer: bool) -> f64 {
        if integer {
            self.below(200_000) as f64 - 100_000.0
        } else {
            let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            unit * 10f64.powi(self.below(13) as i32 - 3)
        }
    }
}

fn key(host: u64) -> SeriesKey {
    let event = if host % 3 == 2 { "wait" } else { "reqs" };
    SeriesKey::new(&format!("r{host:02}"), "mdc", "scratch", event)
}

/// The insert sequence of one store: 1–6 hosts round-robin, each on its
/// own irregular cadence with duplicate timestamps, multi-hour gaps and
/// the rare gap of months (a block too sparse for a rollup), then late
/// points that land inside sealed blocks (`merge_into_sealed`, growing
/// them past the seal threshold).
fn draw_inserts(rng: &mut Rng, integer: bool) -> Vec<(SeriesKey, u64, f64)> {
    let hosts = 1 + rng.below(6);
    let mut per_host: Vec<Vec<(u64, f64)>> = Vec::new();
    for _ in 0..hosts {
        let step = rng.pick(&[1u64, 37, 600, 600, 600, 601, 1800, 3600, 5400]);
        let n = 150 + rng.below(1450);
        let mut t = BASE_T + rng.below(2 * ROLLUP_SECS);
        let mut pts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            pts.push((t, rng.value(integer)));
            if rng.one_in(40) {
                // duplicate timestamp
            } else if rng.one_in(150) {
                t += ROLLUP_SECS * (2 + rng.below(40));
            } else if rng.one_in(1500) {
                t += 100 * 86_400;
            } else {
                t += step + rng.below(step / 4 + 1);
            }
        }
        per_host.push(pts);
    }
    let longest = per_host.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        for (h, pts) in per_host.iter().enumerate() {
            if let Some(&(t, v)) = pts.get(i) {
                out.push((key(h as u64), t, v));
            }
        }
    }
    for (h, pts) in per_host.iter().enumerate() {
        for _ in 0..rng.below(8) {
            let (t, _) = rng.pick(pts);
            out.push((key(h as u64), t + rng.below(50), rng.value(integer)));
        }
    }
    out
}

/// `(t0, t1, bucket_secs, agg)`: half hour-aligned with whole-hour
/// buckets (`t1` aligned or not, inside the data or past it), half not.
fn draw_query(rng: &mut Rng, lo: u64, hi: u64) -> (u64, u64, u64, Aggregation) {
    let agg = rng.pick(&[
        Aggregation::Sum,
        Aggregation::Sum,
        Aggregation::Avg,
        Aggregation::Max,
        Aggregation::Min,
    ]);
    let span = hi - lo + 1;
    let aligned_t0 =
        (lo / ROLLUP_SECS + rng.below(span / ROLLUP_SECS / 2 + 2)).saturating_sub(2) * ROLLUP_SECS;
    let (t0, bucket_secs) = if rng.one_in(2) {
        (aligned_t0, rng.pick(&[3600u64, 3600, 7200, 10_800, 86_400]))
    } else if rng.one_in(2) {
        let t0 = lo.saturating_sub(rng.below(5000)) + rng.below(span / 2 + 1);
        (
            t0 + u64::from(t0.is_multiple_of(ROLLUP_SECS)),
            rng.pick(&[3600u64, 7200, 600, 60, 1000, 3601]),
        )
    } else {
        // The last entry takes long windows down the sparse-bucket path.
        (aligned_t0, rng.pick(&[60u64, 600, 1800, 3601, 5400, 1]))
    };
    let t1 = match rng.below(8) {
        0 => u64::MAX,
        1 => t0.saturating_sub(rng.below(2)),
        2..=4 => t0 + ROLLUP_SECS * (1 + rng.below(span / ROLLUP_SECS + 3)),
        _ => t0 + 1 + rng.below(hi.saturating_sub(t0) + 2 * ROLLUP_SECS),
    };
    (t0, t1, bucket_secs, agg)
}

/// A store and what the oracles know about it.
struct Fixture {
    db: TsDb,
    model: Model,
    lo: u64,
    hi: u64,
}

fn fill(db: TsDb, inserts: &[(SeriesKey, u64, f64)]) -> Fixture {
    let mut model = Model::new();
    let (mut lo, mut hi) = (u64::MAX, 0);
    for (k, t, v) in inserts {
        db.insert(k.clone(), *t, *v);
        model.entry(k.clone()).or_default().push(*t, *v);
        lo = lo.min(*t);
        hi = hi.max(*t);
    }
    Fixture { db, model, lo, hi }
}

fn bits(series: &[DataPoint]) -> Vec<(u64, u64)> {
    series.iter().map(|p| (p.t, p.v.to_bits())).collect()
}

/// Hold one query's answer to the oracles. `model` is `None` for a
/// store whose block boundaries the test does not know (a recovered
/// one): the cell oracle is skipped there.
fn check_query(
    db: &TsDb,
    shards: &[ShardData],
    model: Option<&Model>,
    integer: bool,
    (t0, t1, bucket_secs, agg): (u64, u64, u64, Aggregation),
) -> Result<(), String> {
    let filter = TagFilter::any().event("reqs");
    let what = format!("{agg:?} [{t0}, {t1}) / {bucket_secs}");
    let got = db.aggregate(&filter, agg, t0, t1, bucket_secs);
    let per_point = oracle_aggregate(shards, &filter, agg, t0, t1, bucket_secs, |i, lo_b, d| {
        fold_dense(&shards[i], &filter, t0, t1, bucket_secs, lo_b, d)
    });
    let times = |s: &[DataPoint]| s.iter().map(|p| p.t).collect::<Vec<_>>();
    prop_assert_eq!(times(&got), times(&per_point), "{}: buckets", what);
    if integer || !eligible(agg, t0, bucket_secs) {
        prop_assert_eq!(bits(&got), bits(&per_point), "{}: per-point bits", what);
        return Ok(());
    }
    for (g, w) in got.iter().zip(&per_point) {
        prop_assert!(
            (g.v - w.v).abs() <= 1e-12 * w.v.abs(),
            "{what}: {} vs per-point {} at {}",
            g.v,
            w.v,
            g.t
        );
    }
    if let Some(model) = model {
        let n = db.n_shards();
        let by_cells = oracle_aggregate(shards, &filter, agg, t0, t1, bucket_secs, |i, lo_b, d| {
            fold_cells(model, i, n, &filter, t0, t1, bucket_secs, lo_b, d)
        });
        prop_assert_eq!(bits(&got), bits(&by_cells), "{}: cell-oracle bits", what);
    }
    Ok(())
}

/// Random queries against a live store with a known model.
fn check_live(fx: &Fixture, rng: &mut Rng, integer: bool) -> Result<(), String> {
    let shards = snapshot(&fx.db);
    for _ in 0..QUERIES_PER_STORE {
        let q = draw_query(rng, fx.lo, fx.hi);
        check_query(&fx.db, &shards, Some(&fx.model), integer, q)?;
    }
    Ok(())
}

fn live_store(seed: u64, integer: bool) -> Result<(), String> {
    for sub in 0..STORES_PER_CASE {
        let mut rng = Rng(seed ^ sub.wrapping_mul(0xA24B_AED4_963E_E407));
        let inserts = draw_inserts(&mut rng, integer);
        let shards = rng.pick(&[1usize, 1, 2, 3, 8]);
        let fx = fill(TsDb::with_shards(shards), &inserts);
        check_live(&fx, &mut rng, integer)?;
    }
    Ok(())
}

proptest! {
    /// Integer-valued data (what the collectors and the harness
    /// insert): every aggregation, eligible or not, is bit-identical
    /// to the per-point fold it replaced.
    #[test]
    fn integer_data_is_bit_identical_to_the_per_point_fold(seed in any::<u64>()) {
        live_store(seed, true)?;
    }

    /// Arbitrary finite `f64`: `Max`/`Min` and ineligible queries still
    /// bit-identical to the per-point fold; eligible `Sum`/`Avg`
    /// bit-identical to per-(series, block, hour) partials of decoded
    /// points and within 1e-12 relative of the per-point fold.
    #[test]
    fn float_data_matches_decoded_cell_partials(seed in any::<u64>()) {
        live_store(seed, false)?;
    }

    /// A store rebuilt by `TsDb::recover` from a power-loss image —
    /// every installed block's rollup re-derived by one decode —
    /// answers by the same rules; and where recovery kept every point
    /// and every seal, bit-identically to the store that sealed live.
    #[test]
    fn recovered_stores_answer_like_live_ones(seed in any::<u64>()) {
        for sub in 0..STORES_PER_CASE {
            let mut rng = Rng(seed ^ sub.wrapping_mul(0xA24B_AED4_963E_E407));
            let integer = rng.one_in(2);
            let inserts = draw_inserts(&mut rng, integer);
            let hosts = inserts.iter().map(|(k, ..)| k).collect::<BTreeSet<_>>().len() as u64;
            let shards = rng.pick(&[1usize, 2, 4]);
            let opts = DurOptions {
                sync_every: 1 + rng.below(64),
                // Just above what the unsealed heads re-log (≈ 23 B a
                // point) when a compaction restarts the WAL.
                compact_wal_bytes: rng.pick(&[0, 12_000 * hosts]),
            };
            let vfs = Arc::new(MemVfs::new());
            let (db, _) = TsDb::recover(vfs.clone(), shards, opts).expect("fresh store");
            let fx = fill(db, &inserts);
            if rng.one_in(2) {
                fx.db.flush().expect("healthy disk");
            }
            check_live(&fx, &mut rng, integer)?;

            let image = vfs.crash_image_dropping_unsynced(rng.below(29) as usize);
            let (back, report) = TsDb::recover(Arc::new(image), shards, opts).expect("recovers");
            prop_assert!(report.balances(), "{report:?}");
            let same_blocks = back.n_points() == fx.db.n_points()
                && back.n_sealed_blocks() == fx.db.n_sealed_blocks();
            let back_shards = snapshot(&back);
            for _ in 0..QUERIES_PER_STORE {
                let q = draw_query(&mut rng, fx.lo, fx.hi);
                check_query(&back, &back_shards, None, integer, q)?;
                if same_blocks {
                    let filter = TagFilter::any().event("reqs");
                    prop_assert_eq!(
                        bits(&back.aggregate(&filter, q.3, q.0, q.1, q.2)),
                        bits(&fx.db.aggregate(&filter, q.3, q.0, q.1, q.2)),
                        "recovered rollups == live rollups, {:?}", q
                    );
                }
            }
        }
    }
}

/// The shapes the random stores are meant to reach, built on purpose so
/// no run of the properties can pass without them: blocks with rollups,
/// a block a late point grew past the seal threshold (none), a block
/// spanning months (none), and windows ending inside a sealed block.
#[test]
fn edge_shapes_are_exercised() {
    let k = key(0);
    let mut inserts: Vec<(SeriesKey, u64, f64)> = Vec::new();
    let n = SEAL_THRESHOLD as u64;
    // Blocks 0 and 1: the paper's cadence, off the hour by 7 minutes.
    for i in 0..2 * n {
        inserts.push((k.clone(), BASE_T + 420 + i * 600, 0.1 + i as f64 / 3.0));
    }
    // Block 2: a 100-day hole in the middle.
    let t2 = BASE_T + 420 + 2 * n * 600;
    for i in 0..n {
        let hole = if i >= n / 2 { 100 * 86_400 } else { 0 };
        inserts.push((k.clone(), t2 + i * 600 + hole, 0.7 * i as f64));
    }
    // A second host, so buckets add across series.
    for i in 0..n + 9 {
        inserts.push((key(1), BASE_T + i * 601, 1e-3 * i as f64));
    }
    // A late point into block 0 of the first host: 513 points.
    inserts.push((k.clone(), BASE_T + 420 + 3000, 5.5));
    let fx = fill(TsDb::with_shards(2), &inserts);
    let rollups: Vec<(usize, usize)> = fx.model[&k]
        .sealed()
        .iter()
        .map(|b| (b.len(), b.rollup_bytes()))
        .collect();
    assert_eq!(rollups.len(), 3);
    assert_eq!(rollups[0], (SEAL_THRESHOLD + 1, 0), "oversize");
    assert!(rollups[1].1 > 0 && rollups[1].1 <= 900, "{rollups:?}");
    assert_eq!(rollups[2], (SEAL_THRESHOLD, 0), "sparse");

    let shards = snapshot(&fx.db);
    let block1 = BASE_T + 420 + (n + n / 2) * 600; // mid block 1
    let h = ROLLUP_SECS;
    for agg in [Aggregation::Sum, Aggregation::Avg, Aggregation::Max] {
        for (t0, t1, bucket_secs) in [
            (BASE_T, u64::MAX, h),
            (BASE_T, block1, h),             // unaligned t1 inside a sealed block
            (BASE_T, block1 / h * h, 2 * h), // aligned t1 inside a sealed block
            (BASE_T + 5 * h, block1, 24 * h), // t0 past the first cells
            (block1 / h * h, block1 + 90 * h, h), // t0 inside a sealed block
            (BASE_T + 420, u64::MAX, h),     // unaligned t0
            (BASE_T, u64::MAX, 600),         // sub-hour buckets
        ] {
            check_query(
                &fx.db,
                &shards,
                Some(&fx.model),
                false,
                (t0, t1, bucket_secs, agg),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// FNV-1a over every file of a store's directory, names included.
fn directory_digest(vfs: &MemVfs) -> (usize, u64) {
    let mut names = vfs.list().expect("list");
    names.sort();
    let (mut len, mut h) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for name in names {
        let bytes = vfs.read(&name).expect("read").unwrap_or_default();
        len += bytes.len();
        eat(name.as_bytes());
        eat(&bytes);
    }
    (len, h)
}

/// The rollup is derived, never persisted: a durable store's files —
/// segment frames, WAL, manifests — are byte for byte what the parent
/// commit wrote for the same inserts (digest taken there with this
/// same function).
#[test]
fn persisted_bytes_are_the_parents() {
    let vfs = Arc::new(MemVfs::new());
    let opts = DurOptions {
        sync_every: 32,
        compact_wal_bytes: 0,
    };
    let (db, _) = TsDb::recover(vfs.clone(), 2, opts).expect("fresh store");
    for i in 0..(2 * SEAL_THRESHOLD as u64 + 40) {
        for h in 0..3 {
            db.insert(key(h), BASE_T + i * 600, ((i * 7 + h) % 1000) as f64);
        }
    }
    db.flush().expect("healthy disk");
    assert_eq!(db.n_sealed_blocks(), 6);
    assert_eq!(directory_digest(&vfs), PARENT_DIRECTORY_DIGEST);
}

/// `(total bytes, FNV-1a)` of [`persisted_bytes_are_the_parents`]'s
/// directory at the parent commit (PR 20).
const PARENT_DIRECTORY_DIGEST: (usize, u64) = (84_550, 4_654_480_569_434_300_970);
