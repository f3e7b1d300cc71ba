//! Differential test of the portal query cache. `QueryCache` is a
//! `TtlLru` plus a watermark; [`OldCache`] below is the engine it
//! replaced — its own entry map, lazy per-entry watermark and TTL checks
//! on lookup, LRU min-scan and budget ledger — kept here as the oracle.
//! Both are driven through the same random search / Fig. 4 / job-detail
//! sequences over a small jobs table and tsdb:
//!
//! * every artefact either cache returns equals the other's and a fresh
//!   recomputation;
//! * constant watermark, TTL never reached, a tight capacity and budget
//!   (the `portal_read` regime): every `CacheStats` field and the budget
//!   ledger are equal;
//! * no budget, capacity above the distinct keys, watermark advances and
//!   TTL expiry (the `system_live` regime): hits, misses, evictions and
//!   rejections are equal. The split of the drops between `invalidated`
//!   and `expired` is not: the new cache drops a stale or expired entry
//!   when the watermark or clock moves, the old one only when the entry
//!   was next looked up. What the old one still holds beyond the new
//!   one's live set is exactly the difference;
//! * anything else: artefacts equal, and the new cache's fates
//!   reconcile, `inserted == live + evicted_lru + expired +
//!   evicted_pressure + replaced + removed`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use tacc_jobdb::table::{Row, Table};
use tacc_jobdb::{TableSchema, Value, ValueType};
use tacc_portal::cache::{CacheConfig, CacheStats, QueryCache};
use tacc_portal::detail::render_job_detail;
use tacc_portal::{Fig4Panels, Histogram, SearchSpec};
use tacc_simnode::mem::{MemoryBudget, Pressure};
use tacc_tsdb::{SeriesKey, TsDb};

// --------------------------------------------------------------- oracle

/// The replaced engine's artefact handle.
#[derive(Debug)]
enum OldValue {
    Rows(Arc<Vec<u32>>),
    Panels(Arc<Fig4Panels>),
    Detail(Arc<str>),
}

impl OldValue {
    fn snapshot(&self) -> OldValue {
        match self {
            OldValue::Rows(v) => OldValue::Rows(Arc::clone(v)),
            OldValue::Panels(p) => OldValue::Panels(Arc::clone(p)),
            OldValue::Detail(d) => OldValue::Detail(Arc::clone(d)),
        }
    }

    fn cost(&self) -> u64 {
        fn hist(h: &Histogram) -> u64 {
            (std::mem::size_of::<Histogram>()
                + h.title.len()
                + h.edges.len() * std::mem::size_of::<f64>()
                + h.counts.len() * std::mem::size_of::<usize>()) as u64
        }
        let payload = match self {
            OldValue::Rows(v) => (v.len() * std::mem::size_of::<u32>()) as u64,
            OldValue::Panels(p) => {
                hist(&p.runtime) + hist(&p.nodes) + hist(&p.queue_wait) + hist(&p.metadata_reqs)
            }
            OldValue::Detail(d) => d.len() as u64,
        };
        payload + std::mem::size_of::<Entry>() as u64
    }
}

#[derive(Debug)]
struct Entry {
    watermark: u64,
    stored_at: u64,
    last_used: u64,
    cost: u64,
    value: OldValue,
}

/// Artefact kind (0 search, 1 Fig. 4, 2 detail) and fingerprint.
type Key = (u8, u64);

/// The query cache as it stood before it was rebuilt on `TtlLru`.
struct OldCache {
    capacity: usize,
    ttl_secs: u64,
    entries: HashMap<Key, Entry>,
    tick: u64,
    stats: CacheStats,
    bytes: u64,
    budget: Option<Arc<MemoryBudget>>,
}

impl OldCache {
    fn new(cfg: CacheConfig) -> OldCache {
        OldCache {
            capacity: cfg.capacity.max(1),
            ttl_secs: cfg.ttl_secs,
            entries: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            bytes: 0,
            budget: None,
        }
    }

    fn set_budget(&mut self, budget: Arc<MemoryBudget>) {
        if budget.try_grant(self.bytes).is_err() {
            self.stats.pressure_evicted += self.entries.len() as u64;
            self.entries.clear();
            self.bytes = 0;
        }
        self.budget = Some(budget);
    }

    fn remove_entry(&mut self, key: &Key) -> bool {
        match self.entries.remove(key) {
            Some(e) => {
                self.bytes = self.bytes.saturating_sub(e.cost);
                if let Some(b) = &self.budget {
                    b.release(e.cost);
                }
                true
            }
            None => false,
        }
    }

    fn evict_lru(&mut self) -> bool {
        let oldest = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k);
        match oldest {
            Some(k) => self.remove_entry(&k),
            None => false,
        }
    }

    fn lookup(&mut self, key: Key, watermark: u64, now_secs: u64) -> Option<OldValue> {
        self.tick += 1;
        let tick = self.tick;
        let ttl = self.ttl_secs;
        let stale = match self.entries.get_mut(&key) {
            None => {
                self.stats.misses += 1;
                return None;
            }
            Some(e) if e.watermark != watermark => true,
            Some(e) if now_secs.saturating_sub(e.stored_at) > ttl => false,
            Some(e) => {
                e.last_used = tick;
                self.stats.hits += 1;
                return Some(e.value.snapshot());
            }
        };
        self.remove_entry(&key);
        if stale {
            self.stats.invalidated += 1;
        } else {
            self.stats.expired += 1;
        }
        self.stats.misses += 1;
        None
    }

    fn store(&mut self, key: Key, watermark: u64, now_secs: u64, value: OldValue) {
        let cost = value.cost();
        if self.entries.contains_key(&key) {
            self.remove_entry(&key);
        } else if self.entries.len() >= self.capacity && self.evict_lru() {
            self.stats.evicted += 1;
        }
        if let Some(b) = self.budget.as_ref().map(Arc::clone) {
            while b.try_grant(cost).is_err() {
                if self.evict_lru() {
                    self.stats.pressure_evicted += 1;
                } else {
                    self.stats.rejected += 1;
                    return;
                }
            }
        }
        self.bytes += cost;
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                watermark,
                stored_at: now_secs,
                last_used: self.tick,
                cost,
                value,
            },
        );
        if let Some(b) = self.budget.as_ref().map(Arc::clone) {
            while b.pressure() >= Pressure::Soft && self.entries.len() > 1 {
                if self.evict_lru() {
                    self.stats.pressure_evicted += 1;
                } else {
                    break;
                }
            }
        }
    }

    fn search(&mut self, spec: &SearchSpec, t: &Table, wm: u64, now: u64) -> Arc<Vec<u32>> {
        let key = (0, spec.fingerprint());
        if let Some(OldValue::Rows(idxs)) = self.lookup(key, wm, now) {
            return idxs;
        }
        let idxs = Arc::new(spec.matched_indices(t, None).expect("valid spec"));
        self.store(key, wm, now, OldValue::Rows(Arc::clone(&idxs)));
        idxs
    }

    fn fig4(&mut self, spec: &SearchSpec, t: &Table, wm: u64, now: u64) -> Arc<Fig4Panels> {
        let key = (1, spec.fingerprint());
        if let Some(OldValue::Panels(p)) = self.lookup(key, wm, now) {
            return p;
        }
        // The old miss path scanned the (possibly cached) indices; the
        // lookup is what counts, the panels are the spec's either way.
        self.search(spec, t, wm, now);
        let panels = Arc::new(spec.run(t).expect("valid spec").fig4());
        self.store(key, wm, now, OldValue::Panels(Arc::clone(&panels)));
        panels
    }

    fn job_detail(&mut self, db: &TsDb, jobid: &str, wm: u64, now: u64) -> Arc<str> {
        let key = (
            2,
            jobid
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(257) ^ b as u64),
        );
        if let Some(OldValue::Detail(page)) = self.lookup(key, wm, now) {
            return page;
        }
        let page: Arc<str> = Arc::from(render_job_detail(db, jobid));
        self.store(key, wm, now, OldValue::Detail(Arc::clone(&page)));
        page
    }
}

// ------------------------------------------------------------- fixture

const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];
const DETAIL_JOBS: [&str; 5] = ["1", "2", "3", "4", "5"];

fn empty_table() -> Table {
    Table::new(TableSchema::new(&[
        ("jobid", ValueType::Int),
        ("user", ValueType::Str),
        ("run_time", ValueType::Float),
        ("nodes", ValueType::Float),
        ("queue_wait", ValueType::Float),
        ("MetaDataRate", ValueType::Float),
    ]))
}

/// Append one job row, as an ingest does.
fn ingest(t: &mut Table, rng: &mut StdRng) {
    let jobid = t.rows().len() as i64 + 1;
    t.insert(vec![
        Value::Int(jobid),
        Value::Str(USERS[rng.gen_range(0..USERS.len())].to_string()),
        Value::Float(rng.gen_range(60.0..86_400.0)),
        Value::Float(rng.gen_range(1..64) as f64),
        Value::Float(rng.gen_range(0.0..7200.0)),
        Value::Float(rng.gen_range(0.0..1e5)),
    ])
    .expect("schema-shaped row");
}

/// Add one Fig. 5 panel point to one stored job, so its page changes.
fn store_panel_point(db: &TsDb, rng: &mut StdRng, t: u64) {
    let jobid = DETAIL_JOBS[rng.gen_range(0..DETAIL_JOBS.len())];
    let host = format!("c401-{:04}", rng.gen_range(0..3));
    for ev in ["gflops", "mbw_gbs", "cpu_user"] {
        db.insert(
            SeriesKey::new(&host, "panel", jobid, ev),
            t,
            rng.gen_range(0.0..100.0),
        );
    }
}

fn specs() -> Vec<SearchSpec> {
    let mut out = vec![SearchSpec::default()];
    for u in USERS {
        out.push(SearchSpec {
            user: Some(u.to_string()),
            ..SearchSpec::default()
        });
    }
    for threshold in [1e3, 2e4, 5e4] {
        out.push(SearchSpec::default().field("MetaDataRate__gte", threshold));
    }
    out.push(
        SearchSpec {
            user: Some("bob".to_string()),
            min_runtime_secs: Some(3600),
            ..SearchSpec::default()
        }
        .field("nodes__gte", 8.0),
    );
    out
}

// ------------------------------------------------------------- runs

/// How a run moves the watermark and the clock, and sizes the caches.
struct Regime {
    cfg: CacheConfig,
    /// `(soft, hard)` of the two caches' budgets (one each).
    budget: Option<(u64, u64)>,
    /// One op in this many ingests a job and advances the watermark.
    ingest_one_in: Option<u32>,
    /// Clock step per op, drawn from `0..=max_dt`.
    max_dt: u64,
}

/// What the run left behind.
struct Outcome {
    old_stats: CacheStats,
    new_stats: CacheStats,
    old_len: usize,
    cache: QueryCache,
    budgets: Option<(Arc<MemoryBudget>, Arc<MemoryBudget>)>,
}

/// Operations per run.
const OPS: usize = 300;

fn drive(seed: u64, regime: &Regime) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = empty_table();
    for _ in 0..rng.gen_range(5..30) {
        ingest(&mut table, &mut rng);
    }
    let db = TsDb::new();
    for i in 0..8 {
        store_panel_point(&db, &mut rng, i * 600);
    }
    let specs = specs();
    let mut old = OldCache::new(regime.cfg);
    let mut new = QueryCache::new(regime.cfg);
    let budgets = regime.budget.map(|(soft, hard)| {
        let (a, b) = (
            Arc::new(MemoryBudget::new(soft, hard)),
            Arc::new(MemoryBudget::new(soft, hard)),
        );
        old.set_budget(Arc::clone(&a));
        new.set_budget(Arc::clone(&b));
        (a, b)
    });
    let (mut watermark, mut now) = (1u64, 1_443_657_600u64);
    for op in 0..OPS {
        now += rng.gen_range(0..=regime.max_dt);
        if regime
            .ingest_one_in
            .is_some_and(|n| rng.gen_range(0..n) == 0)
        {
            ingest(&mut table, &mut rng);
            store_panel_point(&db, &mut rng, now);
            watermark += 1;
            continue;
        }
        match rng.gen_range(0..10) {
            0..=4 => {
                let spec = &specs[rng.gen_range(0..specs.len())];
                let want = spec.run(&table).expect("valid spec");
                let got = new
                    .search(spec, &table, None, watermark, now)
                    .expect("valid spec");
                let oracle = old.search(spec, &table, watermark, now);
                let oracle: Vec<&Row> = oracle.iter().map(|&i| &table.rows()[i as usize]).collect();
                assert_eq!(got.rows(), &oracle[..], "op {op}: search {spec:?}");
                assert_eq!(got.rows(), want.rows(), "op {op}: search {spec:?} is stale");
            }
            5..=8 => {
                let spec = &specs[rng.gen_range(0..specs.len())];
                let want = spec.run(&table).expect("valid spec").fig4();
                let got = new
                    .fig4(spec, &table, None, watermark, now)
                    .expect("valid spec");
                let oracle = old.fig4(spec, &table, watermark, now);
                assert_eq!(*got, *oracle, "op {op}: fig4 {spec:?}");
                assert_eq!(*got, want, "op {op}: fig4 {spec:?} is stale");
            }
            _ => {
                let jobid = DETAIL_JOBS[rng.gen_range(0..DETAIL_JOBS.len())];
                let got = new.job_detail(&db, jobid, watermark, now);
                let oracle = old.job_detail(&db, jobid, watermark, now);
                assert_eq!(got, oracle, "op {op}: detail {jobid}");
                assert_eq!(
                    &*got,
                    render_job_detail(&db, jobid),
                    "op {op}: detail {jobid} is stale"
                );
            }
        }
    }
    Outcome {
        old_stats: old.stats,
        new_stats: new.stats(),
        old_len: old.entries.len(),
        cache: new,
        budgets,
    }
}

/// `inserted == live + every drop fate` on the new cache.
fn assert_fates_reconcile(out: &Outcome) {
    let c = out.cache.counters();
    assert_eq!(
        c.inserted,
        out.cache.len() as u64
            + c.evicted_lru
            + c.expired
            + c.evicted_pressure
            + c.replaced
            + c.removed,
        "{c:?}"
    );
}

/// Distinct keys a run can touch: two artefacts per spec plus the
/// detail pages.
fn distinct_keys() -> usize {
    2 * specs().len() + DETAIL_JOBS.len()
}

proptest! {
    /// `portal_read`: one watermark, a clock that never reaches the TTL,
    /// fewer slots than keys and a budget that sheds.
    #[test]
    fn stats_match_the_old_engine_at_a_constant_watermark(
        seed in any::<u64>(),
        capacity in 2usize..16,
        soft_kib in 0u64..24,
    ) {
        let regime = Regime {
            cfg: CacheConfig { capacity, ttl_secs: u64::MAX / 4 },
            budget: Some((soft_kib << 10, (soft_kib + 1) << 10)),
            ingest_one_in: None,
            max_dt: 1,
        };
        let out = drive(seed, &regime);
        prop_assert_eq!(out.new_stats, out.old_stats);
        let (a, b) = out.budgets.as_ref().expect("budgeted");
        prop_assert_eq!((a.used(), a.peak()), (b.used(), b.peak()));
        prop_assert_eq!(out.cache.len(), out.old_len);
        assert_fates_reconcile(&out);
    }

    /// `system_live`: no budget, room for every key, ingests that
    /// advance the watermark and a clock that expires entries.
    #[test]
    fn hits_match_the_old_engine_across_watermarks_and_expiry(
        seed in any::<u64>(),
        ttl_secs in 20u64..200,
        ingest_one_in in 2u32..12,
    ) {
        let regime = Regime {
            cfg: CacheConfig { capacity: distinct_keys() + 3, ttl_secs },
            budget: None,
            ingest_one_in: Some(ingest_one_in),
            max_dt: 15,
        };
        let out = drive(seed, &regime);
        let (new, old) = (out.new_stats, out.old_stats);
        prop_assert_eq!(
            (new.hits, new.misses, new.evicted, new.pressure_evicted, new.rejected),
            (old.hits, old.misses, old.evicted, old.pressure_evicted, old.rejected)
        );
        prop_assert!(new.invalidated > 0, "the run must cross watermarks");
        prop_assert!(out.cache.len() <= out.old_len);
        prop_assert_eq!(
            new.invalidated + new.expired,
            old.invalidated + old.expired + (out.old_len - out.cache.len()) as u64,
            "old {:?}, new {:?}", old, new
        );
        assert_fates_reconcile(&out);
    }

    /// Everything at once: tight capacity, a budget, ingests and expiry.
    #[test]
    fn artefacts_match_and_fates_reconcile_anywhere(
        seed in any::<u64>(),
        capacity in 1usize..12,
        ttl_secs in 5u64..100,
        soft_kib in 0u64..6,
    ) {
        let regime = Regime {
            cfg: CacheConfig { capacity, ttl_secs },
            budget: Some((soft_kib << 10, (soft_kib + 1) << 10)),
            ingest_one_in: Some(6),
            max_dt: 10,
        };
        let out = drive(seed, &regime);
        assert_fates_reconcile(&out);
        let (_, b) = out.budgets.as_ref().expect("budgeted");
        prop_assert!(b.peak() <= b.hard_limit());
    }
}

/// The first call at a new watermark drops every entry of the old one,
/// and counts each.
#[test]
fn a_new_watermark_clears_the_cache() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = empty_table();
    for _ in 0..10 {
        ingest(&mut table, &mut rng);
    }
    let mut cache = QueryCache::default();
    let specs = specs();
    for spec in &specs[..3] {
        cache.fig4(spec, &table, None, 1, 0).expect("valid spec");
    }
    assert_eq!(cache.len(), 6, "a Fig. 4 miss also keeps the search");
    ingest(&mut table, &mut rng);
    let all = cache
        .search(&specs[0], &table, None, 2, 0)
        .expect("valid spec");
    assert_eq!(all.len(), 11, "the new row is seen");
    assert_eq!(cache.len(), 1);
    let s = cache.stats();
    assert_eq!((s.invalidated, s.hits, s.misses), (6, 0, 7));
}
