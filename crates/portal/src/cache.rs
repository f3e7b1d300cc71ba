//! Watermark-keyed portal query cache.
//!
//! The portal's three expensive artefacts — the matched-row set of a
//! search, the four Fig. 4 panels, and the rendered job-detail page —
//! are pure functions of `(query, database contents)`. The database
//! only changes when a finished job is ingested, and
//! `MonitoringSystem` counts those ingests as a monotonic **ingest
//! watermark**. So the cache holds artefacts of one watermark only: the
//! first call at a new watermark clears it (counted as `invalidated`),
//! and every entry left is byte-identical to a recomputation. No
//! invalidation scan, no dirty bits.
//!
//! Everything else is [`TtlLru`], the one cache policy the tsdb's
//! decoded-block caches also run: an LRU cap, a TTL on a caller-supplied
//! logical clock (`now_secs` — the simulation clock in this codebase, so
//! eviction is deterministic and testable; no wall-clock reads), and an
//! optional shared [`MemoryBudget`]. Values are stored behind [`Arc`]s: a
//! warm hit is a refcount bump, no row rescan, no re-render, no
//! allocation.
//!
//! `search` and `fig4` take a `pool` argument that they ignore: every
//! scan runs inline on the caller. The argument stays only because the
//! system benchmark calls these two methods with it (always `None`).
//!
//! This module is on the panic-lint deny tier and the hot-path
//! alloc-lint scope (`cargo xtask lint`): the hit path is panic-free
//! and allocation-free; the miss paths are annotated cold.

use crate::fused;
use crate::hist::{Fig4Panels, Histogram};
use crate::search::{JobList, SearchSpec};
use std::sync::Arc;
use tacc_jobdb::table::{Table, TableError};
use tacc_simnode::intern::{fnv1a_bytes, FNV_BASIS};
use tacc_simnode::mem::{CacheCounters, MemoryBudget, TtlLru, TtlLruConfig};
use tacc_simnode::pool::WorkerPool;
use tacc_tsdb::TsDb;

/// Which portal artefact a cache entry holds — part of the key, so a
/// search and its Fig. 4 panels (same spec fingerprint) never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Matched row indices of a [`SearchSpec`].
    Search,
    /// The four Fig. 4 histogram panels of a [`SearchSpec`].
    Fig4,
    /// A rendered job-detail page.
    Detail,
}

/// Cache key: artefact kind plus the query's FNV-1a fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Key {
    kind: Kind,
    fp: u64,
}

/// A cached artefact, stored and returned behind an [`Arc`] so hits
/// (and clones) cost a refcount bump rather than a copy.
#[derive(Clone, Debug)]
enum CachedValue {
    /// Matched row indices into the jobs table.
    Rows(Arc<Vec<u32>>),
    /// The four Fig. 4 panels.
    Panels(Arc<Fig4Panels>),
    /// A rendered detail page.
    Detail(Arc<str>),
}

impl CachedValue {
    /// Approximate resident bytes of the artefact plus its bookkeeping,
    /// charged against the cache's [`MemoryBudget`] when one is
    /// attached. The bookkeeping is a value handle and four stamps (the
    /// 56 bytes an entry has always been charged on 64-bit targets), so
    /// a given budget evicts the same entries it always has.
    fn cost(&self) -> u64 {
        fn hist(h: &Histogram) -> u64 {
            (std::mem::size_of::<Histogram>()
                + h.title.len()
                + h.edges.len() * std::mem::size_of::<f64>()
                + h.counts.len() * std::mem::size_of::<usize>()) as u64
        }
        let payload = match self {
            CachedValue::Rows(v) => (v.len() * std::mem::size_of::<u32>()) as u64,
            CachedValue::Panels(p) => {
                hist(&p.runtime) + hist(&p.nodes) + hist(&p.queue_wait) + hist(&p.metadata_reqs)
            }
            CachedValue::Detail(d) => d.len() as u64,
        };
        let overhead = std::mem::size_of::<CachedValue>() + 4 * std::mem::size_of::<u64>();
        payload + overhead as u64
    }
}

/// Cache sizing and freshness knobs.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Maximum live entries; the least-recently-used entry is evicted
    /// beyond this. Clamped to at least 1.
    pub capacity: usize,
    /// Maximum age (in `now_secs` units) before an entry is re-derived
    /// even at an unchanged watermark.
    pub ttl_secs: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            capacity: 64,
            ttl_secs: 300,
        }
    }
}

/// Hit/miss counters, exposed for tests and the portal status line: a
/// view over the [`CacheCounters`] of the underlying [`TtlLru`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a live entry.
    pub hits: u64,
    /// Lookups that had to recompute.
    pub misses: u64,
    /// Entries dropped to enforce `capacity`.
    pub evicted: u64,
    /// Entries dropped because the ingest watermark advanced.
    pub invalidated: u64,
    /// Entries dropped because they outlived `ttl_secs`.
    pub expired: u64,
    /// Entries dropped to satisfy an attached [`MemoryBudget`] (evicted
    /// to fit a new entry under the hard limit, or shed while over the
    /// soft threshold).
    pub pressure_evicted: u64,
    /// New entries too large to cache even after evicting everything
    /// else (the artefact was still computed and returned — just not
    /// retained).
    pub rejected: u64,
}

/// The watermark-keyed query cache fronting [`SearchSpec::run`],
/// [`JobList::fig4`](crate::search::JobList::fig4), and
/// [`render_job_detail`](crate::detail::render_job_detail).
#[derive(Debug)]
pub struct QueryCache {
    /// Entries of `watermark` only. The watermark clear is its only
    /// caller-side removal, so `removed` counts invalidations.
    lru: TtlLru<Key, CachedValue>,
    /// The ingest watermark the live entries were computed at.
    watermark: u64,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::new(CacheConfig::default())
    }
}

impl QueryCache {
    /// An empty cache with the given config.
    pub fn new(cfg: CacheConfig) -> QueryCache {
        QueryCache {
            lru: TtlLru::new(TtlLruConfig {
                capacity: cfg.capacity,
                ttl: cfg.ttl_secs,
            }),
            watermark: 0,
        }
    }

    /// Attach a memory budget. Every stored artefact is charged its
    /// approximate resident bytes; at the soft threshold the cache
    /// sheds cold entries, and the hard threshold is never exceeded —
    /// an artefact that cannot fit is computed but not retained. The
    /// budget may be shared with other caches (e.g. the tsdb
    /// decoded-block caches) so they compete for one envelope.
    pub fn set_budget(&mut self, budget: Arc<MemoryBudget>) {
        self.lru.set_budget(budget);
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        let c = self.lru.counters();
        CacheStats {
            hits: c.hits,
            misses: c.misses,
            evicted: c.evicted_lru,
            invalidated: c.removed,
            expired: c.expired,
            pressure_evicted: c.evicted_pressure,
            rejected: c.rejected,
        }
    }

    /// The underlying policy's counters, whose fates reconcile exactly:
    /// `inserted == len + evicted_lru + expired + evicted_pressure +
    /// replaced + removed` (`removed` being the watermark clears).
    pub fn counters(&self) -> CacheCounters {
        self.lru.counters()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Bring the cache to `watermark` and `now_secs`: a new watermark
    /// drops every entry, then entries past the TTL expire.
    fn sync(&mut self, watermark: u64, now_secs: u64) {
        if watermark != self.watermark {
            self.lru.clear();
            self.watermark = watermark;
        }
        self.lru.advance(now_secs);
    }

    /// A second handle to the live entry under `key` (refcount bump only).
    fn hit(&mut self, key: Key) -> Option<CachedValue> {
        self.lru.get(&key).cloned()
    }

    fn keep(&mut self, key: Key, value: CachedValue) {
        let cost = value.cost();
        self.lru.insert(key, value, cost);
    }

    /// The matched row indices for `spec`: served from cache when live,
    /// otherwise computed via [`SearchSpec::matched_indices`] and
    /// stored. The caller has synced the watermark.
    fn search_indices(
        &mut self,
        spec: &SearchSpec,
        table: &Table,
    ) -> Result<Arc<Vec<u32>>, TableError> {
        let key = Key {
            kind: Kind::Search,
            fp: spec.fingerprint(),
        };
        if let Some(CachedValue::Rows(idxs)) = self.hit(key) {
            return Ok(idxs);
        }
        // alloc: cold (cache miss: one index vec per distinct query per watermark)
        let idxs = Arc::new(spec.matched_indices(table)?);
        self.keep(key, CachedValue::Rows(Arc::clone(&idxs)));
        Ok(idxs)
    }

    /// Run `spec` through the cache: a warm hit rebuilds the
    /// [`JobList`] from stored row indices without rescanning or
    /// re-filtering the table; a miss scans and stores the indices.
    /// `_pool` is ignored (see the module doc).
    pub fn search<'t>(
        &mut self,
        spec: &SearchSpec,
        table: &'t Table,
        _pool: Option<&WorkerPool>,
        watermark: u64,
        now_secs: u64,
    ) -> Result<JobList<'t>, TableError> {
        self.sync(watermark, now_secs);
        let idxs = self.search_indices(spec, table)?;
        Ok(JobList::from_indices(table, idxs))
    }

    /// The Fig. 4 panels for `spec` through the cache. A warm hit is a
    /// refcount bump; a miss runs the fused scan over the spec's row
    /// indices (cached ones if live) and stores the panels. `_pool` is
    /// ignored (see the module doc).
    pub fn fig4(
        &mut self,
        spec: &SearchSpec,
        table: &Table,
        _pool: Option<&WorkerPool>,
        watermark: u64,
        now_secs: u64,
    ) -> Result<Arc<Fig4Panels>, TableError> {
        self.sync(watermark, now_secs);
        let key = Key {
            kind: Kind::Fig4,
            fp: spec.fingerprint(),
        };
        if let Some(CachedValue::Panels(p)) = self.hit(key) {
            return Ok(p);
        }
        let idxs = self.search_indices(spec, table)?;
        let fused = fused::scan(table, &idxs, &fused::panel_cfgs(table));
        // alloc: cold (cache miss: one panel set per distinct query per watermark)
        let panels = Arc::new(Fig4Panels::from_fused(&fused));
        self.keep(key, CachedValue::Panels(Arc::clone(&panels)));
        Ok(panels)
    }

    /// The rendered detail page for `jobid` through the cache. A warm
    /// hit returns the stored page without touching the tsdb.
    pub fn job_detail(
        &mut self,
        db: &TsDb,
        jobid: &str,
        watermark: u64,
        now_secs: u64,
    ) -> Arc<str> {
        self.sync(watermark, now_secs);
        let key = Key {
            kind: Kind::Detail,
            fp: fnv1a_bytes(FNV_BASIS, jobid.as_bytes()),
        };
        if let Some(CachedValue::Detail(page)) = self.hit(key) {
            return page;
        }
        let page: Arc<str> = Arc::from(crate::detail::render_job_detail(db, jobid));
        self.keep(key, CachedValue::Detail(Arc::clone(&page)));
        page
    }
}

/// Incremental FNV-1a 64-bit hasher over [`fnv1a_bytes`] —
/// deterministic across runs (unlike `DefaultHasher`'s randomized
/// keys), which is what makes spec fingerprints stable cache keys.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_BASIS)
    }

    pub(crate) fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_bytes(self.0, bytes);
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_charge_keeps_its_overhead() {
        // Frozen from the engine this cache replaced: a row set of n
        // indices was charged 4n bytes plus a 56-byte entry.
        let rows = CachedValue::Rows(Arc::new(vec![7; 10]));
        assert_eq!(rows.cost(), 40 + 56);
        let page = CachedValue::Detail(Arc::from("abc"));
        assert_eq!(page.cost(), 3 + 56);
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        let fnv1a = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_ne!(fnv1a(b""), fnv1a(b"\0"));
        // The FNV-1a 64 reference value for "a".
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut a = Fnv::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish(), "write_u64 is little-endian bytes");
    }
}
