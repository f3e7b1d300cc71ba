//! Store sharding: hash routing, per-shard state, and the per-shard
//! decoded-block cache.
//!
//! The store is split into [`DEFAULT_SHARDS`] shards, each owning a
//! disjoint slice of the key space together with that slice's durable
//! files (one WAL, segment and manifest per shard) and its own
//! decoded-block cache, so a query fans out as one partition scan per
//! shard. The store has one owner and no locks: a shard's state sits
//! in `RefCell`s that each call borrows only for as long as it runs.
//! Routing is [`shard_of`]: an FNV-1a hash over the four
//! tags' string hashes of the [`SeriesKey`], so every key maps to
//! exactly one shard and the shards partition the key space (the
//! `cargo xtask lint` conformance check verifies this over every
//! `MetricId` series key).
//!
//! Each shard keeps its series in a `SeriesMap`, one container with
//! two access paths. Point lookups — every insert, a range read, WAL
//! replay — hash the key's four interned ids. Walks — key listings,
//! aggregates, compaction — visit series in key-text order, the order
//! the store reports keys and folds aggregates in. Text is compared only
//! once per series, when it is first seen: `Sym`'s `Ord` resolves both
//! strings under the interner's read lock, so an ordered tree keyed by
//! `SeriesKey` would pay some twenty such comparisons on every insert.
//!
//! Each shard also carries:
//!
//! * a [`SealScratch`] reused by every seal in the shard, so
//!   steady-state ingest performs one allocation per sealed block, and
//! * a cache of decoded sealed blocks keyed by the block's
//!   process-unique id, governed by the shared TTL+LRU policy
//!   ([`tacc_simnode::mem::TtlLru`]): least-recently-used eviction at
//!   capacity, expiry on the store's ingest clock (sample timestamps —
//!   deterministic simulated seconds, no wall-clock reads), and
//!   optional byte accounting against a shared [`MemoryBudget`] so a
//!   fleet-scale soak keeps every shard's decoded columns under one
//!   fixed budget. Sealed blocks are immutable and re-encoding (the
//!   out-of-order merge path) assigns a *fresh* id, so a cached decode
//!   can never go stale — stale ids simply stop being looked up and
//!   age out. Windowed reads ([`Shard::range_for_each`]) decode a
//!   block once and then serve every later read over the same block
//!   from the cached columns with two binary searches, which is what
//!   repairs the `detail_week_reads` regression: repeated small reads
//!   no longer re-decode 512 points to stream 100.
//!
//! This module is on the `cargo xtask lint` deny list: no panicking
//! constructs, no unchecked indexing.

use crate::block::{SealScratch, SealedBlock, SeriesBlocks, SEAL_THRESHOLD};
use crate::series::SeriesKey;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use tacc_simnode::mem::{CacheCounters, MemoryBudget, TtlLru, TtlLruConfig};

/// Default shard count for [`crate::TsDb::new`]. Eight matches the
/// paper-era node widths and keeps per-shard series maps small; any
/// count ≥ 1 is valid via [`crate::TsDb::with_shards`].
pub const DEFAULT_SHARDS: usize = 8;

/// Decoded sealed blocks cached per shard. At 512 points a block, 64
/// entries cap a shard's cache at ~512 KiB of decoded columns.
const CACHE_BLOCKS: usize = 64;

/// Default TTL for cached decoded blocks, in ingest-clock seconds
/// (sample timestamps). A block untouched for a simulated day is
/// dropped even below capacity, so an idle store's cache drains to
/// zero tracked bytes instead of pinning its budget forever.
const CACHE_TTL_SECS: u64 = 86_400;

/// Route a series key to a shard: FNV-1a folded over the four tags'
/// *string* hashes (precomputed at intern time — one interner
/// read-lock acquisition, no text re-hashing). Depending on the text
/// rather than intern ids makes routing stable **across process
/// restarts**, which the durable store relies on: a series recovered
/// from shard-slot `i`'s files must route back to shard `i` in the new
/// process. Total (every key maps in-range for any `n_shards` ≥ 1) and
/// spreading (distinct hosts and events land on distinct shards).
pub fn shard_of(key: &SeriesKey, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let h = tacc_simnode::intern::SymbolTable::global().route4(
        key.host,
        key.dev_type,
        key.device,
        key.event,
    );
    ((h ^ (h >> 32)) % n_shards as u64) as usize
}

/// One decoded sealed block: parallel timestamp/value columns.
#[derive(Debug, Default)]
pub(crate) struct DecodedBlock {
    /// Decoded timestamps, sorted.
    pub(crate) ts: Vec<u64>,
    /// Decoded values, parallel to `ts`.
    pub(crate) vs: Vec<f64>,
}

impl DecodedBlock {
    /// Tracked size of the decoded columns in bytes (what the cache
    /// grants against the shared budget).
    fn cost(&self) -> u64 {
        let pts = self.ts.len().saturating_add(self.vs.len()) as u64;
        pts.saturating_mul(8)
            .saturating_add(std::mem::size_of::<DecodedBlock>() as u64)
    }
}

/// A shard's series: found by key in one hash probe, walked in
/// key-text order.
///
/// `slots` holds the series in first-sight order and never reorders.
/// `index` maps a key to its slot; `SeriesKey`'s `Hash` and `Eq` read
/// only the four interned ids, so a lookup touches no text and no
/// lock. `order` lists the slots sorted by key text, kept sorted by one
/// binary-search insert per new series — the only place keys are
/// compared by text. Nothing iterates `index`, so its hash order never
/// leaks into a result.
#[derive(Debug, Default)]
pub(crate) struct SeriesMap {
    slots: Vec<(SeriesKey, SeriesBlocks)>,
    index: HashMap<SeriesKey, u32>,
    order: Vec<u32>,
}

impl SeriesMap {
    /// Number of series.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The series stored under `key`.
    pub(crate) fn get(&self, key: &SeriesKey) -> Option<&SeriesBlocks> {
        let &slot = self.index.get(key)?;
        self.slots.get(slot as usize).map(|(_, s)| s)
    }

    /// The series stored under `key`, created empty on first sight.
    /// `None` only once a shard holds `u32::MAX` series.
    pub(crate) fn get_or_insert(&mut self, key: &SeriesKey) -> Option<&mut SeriesBlocks> {
        let slot = match self.index.get(key) {
            Some(&slot) => slot,
            None => self.insert_new(key)?,
        };
        self.slots.get_mut(slot as usize).map(|(_, s)| s)
    }

    /// Add an empty series under `key`, which is not yet present, and
    /// return its slot.
    // alloc: cold-fn (first sight of a series: its slot, index entry and order position)
    fn insert_new(&mut self, key: &SeriesKey) -> Option<u32> {
        let slot = u32::try_from(self.slots.len()).ok()?;
        let slots = &self.slots;
        let pos = self
            .order
            .partition_point(|&i| slots.get(i as usize).is_some_and(|(k, _)| k < key));
        self.order.insert(pos, slot);
        self.index.insert(key.clone(), slot);
        self.slots.push((key.clone(), SeriesBlocks::default()));
        Some(slot)
    }

    /// Every series, in key-text order.
    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            order: self.order.iter(),
            slots: &self.slots,
        }
    }

    /// Every series' blocks, in key-text order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &SeriesBlocks> {
        self.iter().map(|(_, s)| s)
    }
}

impl<'a> IntoIterator for &'a SeriesMap {
    type Item = (&'a SeriesKey, &'a SeriesBlocks);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// [`SeriesMap::iter`]: the series in key-text order.
pub(crate) struct Iter<'a> {
    order: std::slice::Iter<'a, u32>,
    slots: &'a [(SeriesKey, SeriesBlocks)],
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a SeriesKey, &'a SeriesBlocks);

    fn next(&mut self) -> Option<Self::Item> {
        let &slot = self.order.next()?;
        self.slots.get(slot as usize).map(|(k, s)| (k, s))
    }
}

/// Per-shard series storage (a [`SeriesMap`]) plus the shard's
/// reusable seal scratch.
#[derive(Debug, Default)]
pub(crate) struct ShardData {
    /// The shard's slice of the key space: hashed point lookups,
    /// key-text-ordered walks.
    pub(crate) series: SeriesMap,
    /// Seal-time encode buffers shared by every series in the shard
    /// (a seal runs inside one insert, so at most one uses them).
    pub(crate) seal_scratch: SealScratch,
    /// Durability writers (WAL + segment + manifest) when the store
    /// was opened with [`crate::TsDb::recover`]; `None` for a purely
    /// in-memory store. An insert borrows them together with the
    /// series, so each WAL append is made with its in-memory apply.
    pub(crate) dur: Option<crate::recover::ShardDur>,
}

/// One store shard: its series map and its decoded-block cache, each
/// in its own `RefCell` so a read can fill the cache while it holds
/// the series. A cache borrow lasts one lookup. A read streaming to a
/// caller's closure holds the series borrowed shared, so the closure
/// may read the store again, while an insert from inside it would
/// panic on the borrow. The cache's TTL clock is a plain `Cell` fed by
/// ingest timestamps, so an insert never touches the cache.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) data: RefCell<ShardData>,
    cache: RefCell<TtlLru<u64, Rc<DecodedBlock>>>,
    /// High-water ingest timestamp (seconds) — the cache's TTL clock.
    cache_now: Cell<u64>,
}

impl Default for Shard {
    fn default() -> Shard {
        Shard::with_data(ShardData::default())
    }
}

impl Shard {
    /// Build a shard around recovered per-shard state.
    pub(crate) fn with_data(data: ShardData) -> Shard {
        Shard {
            data: RefCell::new(data),
            cache: RefCell::new(TtlLru::new(TtlLruConfig {
                capacity: CACHE_BLOCKS,
                ttl: CACHE_TTL_SECS,
            })),
            cache_now: Cell::new(0),
        }
    }

    /// Advance the cache's TTL clock to the ingest timestamp `t`
    /// (monotonic). The clock is applied lazily on the next cache
    /// access.
    pub(crate) fn note_ingest_time(&self, t: u64) {
        self.cache_now.set(self.cache_now.get().max(t));
    }

    /// Attach a shared memory budget to the decoded-block cache.
    pub(crate) fn set_cache_budget(&self, budget: Arc<MemoryBudget>) {
        self.cache.borrow_mut().set_budget(budget);
    }

    /// The cache's traffic/eviction counters.
    pub(crate) fn cache_counters(&self) -> CacheCounters {
        self.cache.borrow().counters()
    }

    /// Tracked bytes of live decoded blocks in this shard's cache.
    pub(crate) fn cache_bytes(&self) -> u64 {
        self.cache.borrow().bytes()
    }

    /// Decoded columns for `block`, from cache or by decoding now.
    fn cached(&self, block: &SealedBlock) -> Rc<DecodedBlock> {
        let id = block.id();
        let mut cache = self.cache.borrow_mut();
        // Id 0 marks a never-encoded (default-constructed) block; it
        // is not unique, so it is decoded fresh and never cached.
        if id != 0 {
            cache.advance(self.cache_now.get());
            if let Some(dec) = cache.get(&id) {
                return Rc::clone(dec);
            }
        }
        let mut dec = DecodedBlock::default();
        block.decode_into(&mut dec.ts, &mut dec.vs);
        let cost = dec.cost();
        let dec = Rc::new(dec); // alloc: cold (cache-miss decode; hits are the steady state)
        if id != 0 {
            cache.insert(id, Rc::clone(&dec), cost);
        }
        dec
    }

    /// Stream the points of one series within `[t0, t1)` to `f`, in
    /// timestamp order, serving sealed blocks from the decoded-block
    /// cache. Returns the number of points visited. Semantically
    /// identical to [`SeriesBlocks::for_each_in`]; the only difference
    /// is where decoded columns live. Generic over the visitor so the
    /// per-point call inlines — a `dyn` callback here costs an
    /// indirect call per point, which is most of a detail read.
    pub(crate) fn range_for_each<F: FnMut(u64, f64)>(
        &self,
        key: &SeriesKey,
        t0: u64,
        t1: u64,
        f: &mut F,
    ) -> usize {
        let data = self.data.borrow();
        let Some(series) = data.series.get(key) else {
            return 0;
        };
        if t1 <= t0 {
            return 0;
        }
        let mut n = 0usize;
        for block in series.sealed() {
            if block.max_t() < t0 {
                continue;
            }
            if block.min_t() >= t1 {
                break;
            }
            if block.len() <= SEAL_THRESHOLD {
                let dec = self.cached(block);
                let lo = dec.ts.partition_point(|&t| t < t0);
                let hi = dec.ts.partition_point(|&t| t < t1);
                if let (Some(ts), Some(vs)) = (dec.ts.get(lo..hi), dec.vs.get(lo..hi)) {
                    n += ts.len();
                    for (&t, &v) in ts.iter().zip(vs) {
                        f(t, v);
                    }
                }
            } else {
                // Out-of-order merges can grow a block past the seal
                // threshold; stream those through the cursor instead
                // of holding oversize columns in the cache.
                let mut cur = block.cursor();
                while let Some((t, v)) = cur.next_point() {
                    if t >= t1 {
                        break;
                    }
                    if t >= t0 {
                        n += 1;
                        f(t, v);
                    }
                }
            }
        }
        let (head_t, head_v) = series.head_cols();
        let lo = head_t.partition_point(|&t| t < t0);
        let hi = head_t.partition_point(|&t| t < t1);
        if let (Some(ts), Some(vs)) = (head_t.get(lo..hi), head_v.get(lo..hi)) {
            n += ts.len();
            for (&t, &v) in ts.iter().zip(vs) {
                f(t, v);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(host: &str, event: &str) -> SeriesKey {
        SeriesKey::new(host, "mdc", "scratch", event)
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for n in 1..=8 {
            for h in 0..64 {
                let k = key(&format!("c{h:03}"), "reqs");
                let s = shard_of(&k, n);
                assert!(s < n);
                assert_eq!(s, shard_of(&k, n), "routing must be deterministic");
            }
        }
    }

    #[test]
    fn routing_spreads_across_shards() {
        for n in [2usize, 4, 8] {
            let mut hit = vec![false; n];
            for h in 0..256 {
                let k = key(&format!("host{h:04}"), "reqs");
                hit[shard_of(&k, n)] = true;
            }
            assert!(
                hit.iter().all(|&h| h),
                "256 hosts must cover all {n} shards"
            );
        }
    }

    fn fill_series(shard: &Shard, points: u64) {
        let mut data = shard.data.borrow_mut();
        let ShardData {
            series,
            seal_scratch,
            ..
        } = &mut *data;
        let s = series
            .get_or_insert(&key("c1", "reqs"))
            .expect("fresh shard");
        for i in 0..points {
            s.push_with_scratch(i * 600, i as f64, seal_scratch);
        }
    }

    fn collect(shard: &Shard, t0: u64, t1: u64) -> Vec<(u64, f64)> {
        let mut got = Vec::new();
        let n = shard.range_for_each(&key("c1", "reqs"), t0, t1, &mut |t, v| {
            got.push((t, v));
        });
        assert_eq!(n, got.len());
        got
    }

    #[test]
    fn cache_serves_identical_points_and_counts_hits() {
        let shard = Shard::default();
        fill_series(&shard, SEAL_THRESHOLD as u64 * 2 + 10);
        let cold = collect(&shard, 1000, 200_000);
        let misses = shard.cache_counters().misses;
        assert!(misses > 0, "cold read decodes sealed blocks");
        let warm = collect(&shard, 1000, 200_000);
        assert_eq!(cold, warm, "cached reads must match the cold decode");
        assert!(!cold.is_empty());
        let c = shard.cache_counters();
        assert_eq!(c.misses, misses, "warm read adds no misses");
        assert!(c.hits >= misses, "warm read hits every cached block");
        assert!(shard.cache_bytes() > 0);
    }

    #[test]
    fn cache_ttl_expires_on_ingest_clock() {
        let shard = Shard::default();
        fill_series(&shard, SEAL_THRESHOLD as u64 + 10);
        let _ = collect(&shard, 0, 400_000);
        assert!(shard.cache_bytes() > 0);
        // Ingest time marches past the TTL: the next read finds every
        // cached block expired and re-decodes.
        shard.note_ingest_time(CACHE_TTL_SECS + 1);
        let again = collect(&shard, 0, 400_000);
        assert!(!again.is_empty());
        assert!(shard.cache_counters().expired > 0);
    }

    #[test]
    fn cache_budget_keeps_tracked_bytes_under_hard() {
        let budget = Arc::new(MemoryBudget::new(8_192, 16_384));
        let shard = Shard::default();
        shard.set_cache_budget(Arc::clone(&budget));
        fill_series(&shard, SEAL_THRESHOLD as u64 * 6);
        let got = collect(&shard, 0, u64::MAX);
        assert!(!got.is_empty());
        assert!(budget.peak() <= budget.hard_limit());
        assert_eq!(shard.cache_bytes(), budget.used());
        let c = shard.cache_counters();
        assert!(
            c.evicted_pressure > 0 || c.rejected > 0,
            "six sealed blocks cannot all fit a 16 KiB hard budget"
        );
    }
}
