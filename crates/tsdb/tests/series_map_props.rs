//! Differential test of the shard series container.
//!
//! Each shard finds a series by hashing its key's interned ids and walks
//! its series in key-text order. The oracle is the container that
//! preceded it, kept here: one `BTreeMap<SeriesKey, Vec<(u64, f64)>>`
//! holding every series' points in time order. A `BTreeMap` keyed by
//! `SeriesKey` iterates in key-text order, because `Sym`'s `Ord` compares
//! the resolved strings.
//!
//! Every case interns fresh tag strings in a shuffled order, so interned
//! ids disagree with text order and a walk that followed ids (or hash
//! order, or first sight) would list keys or add floats in another
//! order. Points arrive interleaved across series, some late: late
//! points land out of order in a head, or merge into a block already
//! sealed.
//!
//! Promised, against the oracle: the exact sequence of `keys(filter)`
//! for several filters, `n_series` and `n_points`, every series'
//! `range_for_each`, and `aggregate` `Sum`/`Max`/`Min` bit for bit (its
//! per-point fold adds shard by shard, each shard's series in key
//! order), at 1 and 8 shards. The same for a durable 8-shard store on a
//! `MemVfs` after `compact()` and `TsDb::recover`.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tacc_simnode::intern::Sym;
use tacc_tsdb::{
    shard_of, Aggregation, DurOptions, MemVfs, SeriesKey, TagFilter, TsDb, SEAL_THRESHOLD,
};

/// An hour boundary: windows start off it, so `aggregate` folds point by
/// point rather than from the hourly rollups.
const BASE_T: u64 = 1_443_657_600;
const STEP: u64 = 600;

/// The container the shards replaced: every series in key order, its
/// points in time order.
type Oracle = BTreeMap<SeriesKey, Vec<(u64, f64)>>;

/// Distinct namespaces, so every case interns strings no earlier case
/// (or test) has seen.
static NAMESPACE: AtomicU64 = AtomicU64::new(0);

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

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A finite value with a fractional part, so a sum's bits depend on
    /// the order of its terms.
    fn value(&mut self) -> f64 {
        let unit = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        (unit - 0.5) * 10f64.powi(self.below(7) as i32)
    }
}

/// `n` distinct tag values of one kind: short random letter strings
/// under the case's namespace, so their text order is unrelated to the
/// order they are drawn in.
fn names(rng: &mut Rng, ns: u64, kind: char, n: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    while out.len() < n {
        let len = 1 + rng.below(3);
        let word: String = (0..len)
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect();
        let name = format!("{kind}{ns}-{word}");
        if !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// One drawn store: the inserts in arrival order, the oracle they build,
/// and tag values to filter on.
struct Case {
    inserts: Vec<(SeriesKey, u64, f64)>,
    oracle: Oracle,
    hosts: Vec<String>,
    dev_types: Vec<String>,
    events: Vec<String>,
}

fn draw_case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let ns = NAMESPACE.fetch_add(1, Ordering::Relaxed);
    let mut tags = |kind: char, min: u64, spread: u64| {
        let n = (min + rng.below(spread)) as usize;
        names(&mut rng, ns, kind, n)
    };
    let hosts = tags('h', 2, 7);
    let dev_types = tags('t', 1, 3);
    let devices = tags('d', 1, 2);
    let events = tags('e', 1, 3);

    // Intern every tag in a shuffled order: ids follow this order, text
    // order does not.
    let mut all: Vec<&String> = hosts
        .iter()
        .chain(&dev_types)
        .chain(&devices)
        .chain(&events)
        .collect();
    rng.shuffle(&mut all);
    for s in all {
        Sym::new(s);
    }

    // A random subset of the tag product, each series with a run of
    // points at the daemon cadence: most a few, some enough to seal.
    let mut series: Vec<(SeriesKey, Vec<(u64, f64)>)> = Vec::new();
    for h in &hosts {
        for t in &dev_types {
            for d in &devices {
                for e in &events {
                    if rng.one_in(3) {
                        continue;
                    }
                    let n = if rng.one_in(4) {
                        SEAL_THRESHOLD as u64 + rng.below(2 * SEAL_THRESHOLD as u64)
                    } else {
                        1 + rng.below(40)
                    };
                    let start = BASE_T + rng.below(48) * STEP;
                    let points = (0..n).map(|i| (start + i * STEP, rng.value())).collect();
                    series.push((SeriesKey::new(h, t, d, e), points));
                }
            }
        }
    }

    // Arrival order per series: in time order, except that about one
    // point in twelve is held back and delivered after the rest.
    let mut queues: Vec<(SeriesKey, Vec<(u64, f64)>)> = series
        .iter()
        .map(|(key, points)| {
            let (mut on_time, mut late) = (Vec::new(), Vec::new());
            for &p in points {
                if rng.one_in(12) {
                    late.push(p);
                } else {
                    on_time.push(p);
                }
            }
            rng.shuffle(&mut late);
            on_time.extend(late);
            on_time.reverse();
            (key.clone(), on_time)
        })
        .collect();

    // Interleave the series at random, each keeping its own order.
    let mut inserts = Vec::new();
    while !queues.is_empty() {
        let i = rng.below(queues.len() as u64) as usize;
        match queues[i].1.pop() {
            Some((t, v)) => inserts.push((queues[i].0.clone(), t, v)),
            None => {
                queues.swap_remove(i);
            }
        }
    }

    let oracle: Oracle = series.into_iter().collect();
    Case {
        inserts,
        oracle,
        hosts,
        dev_types,
        events,
    }
}

fn filters(case: &Case, rng: &mut Rng) -> Vec<TagFilter> {
    let mut pick = |xs: &[String]| xs[rng.below(xs.len() as u64) as usize].clone();
    vec![
        TagFilter::any(),
        TagFilter::any().host(&pick(&case.hosts)),
        TagFilter::any().event(&pick(&case.events)),
        TagFilter::any()
            .dev_type(&pick(&case.dev_types))
            .event(&pick(&case.events)),
        TagFilter::any()
            .host(&pick(&case.hosts))
            .dev_type(&pick(&case.dev_types)),
    ]
}

/// The parent's dense per-point fold over the oracle: shard by shard,
/// each shard's series in key order, each series in time order.
fn oracle_aggregate(
    oracle: &Oracle,
    shards: usize,
    filter: &TagFilter,
    agg: Aggregation,
    t0: u64,
    t1: u64,
    bucket_secs: u64,
) -> Vec<(u64, u64)> {
    let mut buckets: BTreeMap<u64, (f64, usize, f64, f64)> = BTreeMap::new();
    for shard in 0..shards {
        for (key, points) in oracle {
            if shard_of(key, shards) != shard || !filter.matches(key) {
                continue;
            }
            for &(t, v) in points.iter().filter(|&&(t, _)| t >= t0 && t < t1) {
                let e = buckets.entry((t - t0) / bucket_secs).or_insert((
                    0.0,
                    0,
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                ));
                e.0 += v;
                e.1 += 1;
                e.2 = e.2.max(v);
                e.3 = e.3.min(v);
            }
        }
    }
    buckets
        .into_iter()
        .map(|(b, (sum, _, max, min))| {
            let v = match agg {
                Aggregation::Sum => sum,
                Aggregation::Max => max,
                Aggregation::Min => min,
                Aggregation::Avg => unreachable!("not asked"),
            };
            (t0 + b * bucket_secs, v.to_bits())
        })
        .collect()
}

fn bits(points: impl IntoIterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
    points.into_iter().map(|(t, v)| (t, v.to_bits())).collect()
}

/// Everything `db` answers, checked against the oracle.
fn check(db: &TsDb, case: &Case, rng: &mut Rng, what: &str) -> Result<(), String> {
    let oracle = &case.oracle;
    prop_assert_eq!(db.n_series(), oracle.len(), "{} n_series", what);
    let points: usize = oracle.values().map(Vec::len).sum();
    prop_assert_eq!(db.n_points(), points, "{} n_points", what);

    for filter in filters(case, rng) {
        let want: Vec<&SeriesKey> = oracle.keys().filter(|k| filter.matches(k)).collect();
        let got = db.keys(&filter);
        prop_assert_eq!(
            got.iter().collect::<Vec<_>>(),
            want,
            "{} keys({:?})",
            what,
            filter
        );

        // Off the hour, so the fold is per point; wide enough to span
        // every stored point.
        let t0 = BASE_T - STEP / 2 + rng.below(4) * STEP;
        let t1 = BASE_T + 4 * SEAL_THRESHOLD as u64 * STEP;
        let bucket_secs = [STEP, 1800, 5400][rng.below(3) as usize];
        for agg in [Aggregation::Sum, Aggregation::Max, Aggregation::Min] {
            let got = bits(
                db.aggregate(&filter, agg, t0, t1, bucket_secs)
                    .into_iter()
                    .map(|p| (p.t, p.v)),
            );
            let want = oracle_aggregate(oracle, db.n_shards(), &filter, agg, t0, t1, bucket_secs);
            prop_assert_eq!(
                got,
                want,
                "{} aggregate {:?} {:?} [{}, {}) / {}",
                what,
                agg,
                filter,
                t0,
                t1,
                bucket_secs
            );
        }
    }

    for (key, points) in oracle {
        let mut got = Vec::new();
        let n = db.range_for_each(key, 0, u64::MAX, |t, v| got.push((t, v)));
        prop_assert_eq!(n, points.len(), "{} range_for_each count {}", what, key);
        prop_assert_eq!(bits(got), bits(points.iter().copied()), "{} {}", what, key);

        let t0 = BASE_T + rng.below(600) * STEP;
        let t1 = t0 + rng.below(600) * STEP;
        let mut got = Vec::new();
        db.range_for_each(key, t0, t1, |t, v| got.push((t, v)));
        let want = points.iter().copied().filter(|&(t, _)| t >= t0 && t < t1);
        prop_assert_eq!(bits(got), bits(want), "{} {} [{}, {})", what, key, t0, t1);
    }
    Ok(())
}

fn fill(db: &TsDb, case: &Case) {
    for (key, t, v) in &case.inserts {
        db.insert(key.clone(), *t, *v);
    }
}

proptest! {
    /// In-memory stores at 1 and 8 shards answer exactly as the ordered
    /// map they replaced.
    #[test]
    fn hashed_lookups_and_ordered_walks_match_the_ordered_map(seed in any::<u64>()) {
        let case = draw_case(seed);
        let mut rng = Rng(seed ^ 0x5EED);
        for shards in [1usize, 8] {
            let db = TsDb::with_shards(shards);
            fill(&db, &case);
            check(&db, &case, &mut rng, &format!("{shards} shards"))?;
        }
    }

    /// A durable store compacted and rebuilt by `TsDb::recover` answers
    /// the same: compaction writes each shard's series in key order, and
    /// recovery finds them again by their ids.
    #[test]
    fn a_compacted_and_recovered_store_matches_the_ordered_map(seed in any::<u64>()) {
        let case = draw_case(seed);
        let mut rng = Rng(seed ^ 0xD15C);
        let vfs = Arc::new(MemVfs::new());
        let (db, _) = TsDb::recover(vfs.clone(), 8, DurOptions::default()).expect("fresh store");
        fill(&db, &case);
        check(&db, &case, &mut rng, "durable")?;
        db.compact().expect("healthy disk");
        drop(db);
        let (back, report) =
            TsDb::recover(Arc::new(vfs.crash_image()), 8, DurOptions::default()).expect("recovers");
        prop_assert!(report.balances(), "{:?}", report);
        check(&back, &case, &mut rng, "recovered")?;
    }
}
