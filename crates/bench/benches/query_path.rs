//! Query-path bench: the read side's hot loops — the fused portal
//! query engine, its watermark cache, and the tsdb's month aggregate.
//!
//! These are the stages that carry `portal_read`'s wall in the system
//! benchmark (`tsdb.aggregate`, `portal.search`, `portal.fig4`, each
//! about 30 % in `benchmark/REFERENCE.md`'s stage table); in-fleet
//! speeds are read there, this file is the isolated view. A case's arms
//! are timed interleaved in one iteration loop, minimum over iterations
//! (preemption only ever inflates a sample), under a counting global
//! allocator.
//!
//! * `fused_search_fig4` — search plus all four Fig. 4 panels through
//!   the fused engine. The pipeline it replaced — filter scan, re-sort,
//!   four `column()` → `Histogram::build` passes — is the frozen
//!   [`BASELINE_SEARCH_FIG4`] constant, not code.
//! * `fused_scan` — the scan stage alone.
//! * `query_cache` — cold miss vs warm hit through the watermark-keyed
//!   [`QueryCache`].
//! * `tsdb_aggregate_month` — `TsDb::aggregate` of one event over a
//!   month of 8 hosts × 8 Table-I series into 1 h buckets: an
//!   hour-aligned `Sum`, so sealed blocks fold from their seal-time
//!   rollups, one shard after another. The per-point decode fold it
//!   replaced is the frozen [`AGGREGATE_MONTH_BEFORE`] constant.
//!
//! Results go to `BENCH_query_path.json` at the workspace root. Its
//! `acceptance` block reports, not enforces: the allocation-free scan,
//! warm hit and one-allocation aggregate are asserted in
//! `tests/alloc_invariants.rs` where tier-1 runs them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tacc_jobdb::Database;
use tacc_metrics::flags::FlagRules;
use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
use tacc_metrics::table1::{JobMetrics, MetricId};
use tacc_portal::cache::QueryCache;
use tacc_portal::fused;
use tacc_portal::search::SearchSpec;
use tacc_scheduler::job::{Job, JobStatus, QueueName};
use tacc_simnode::apps::AppModel;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::{SimDuration, SimTime};
use tacc_tsdb::{Aggregation, SeriesKey, TagFilter, TsDb};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper counting allocation events (allocs and
/// growing reallocs).
struct CountingAlloc;

// SAFETY: delegates every operation unchanged to the system allocator;
// the counter is a relaxed atomic with no effect on allocation results.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One timed run of `f`: wall nanoseconds and allocation count.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, f64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    black_box(f());
    let ns = t0.elapsed().as_nanos() as f64;
    (ns, (ALLOCS.load(Ordering::Relaxed) - a0) as f64)
}

/// Min-of-iterations accumulator: preemption only inflates a sample,
/// so the minimum is the noise-robust estimator; allocation counts are
/// deterministic and the last (warm) sample wins.
struct MinStat {
    ns: f64,
    allocs: f64,
}

impl MinStat {
    fn new() -> Self {
        Self {
            ns: f64::INFINITY,
            allocs: 0.0,
        }
    }

    fn push(&mut self, sample: (f64, f64)) {
        self.ns = self.ns.min(sample.0);
        self.allocs = sample.1;
    }

    fn get(&self) -> (f64, f64) {
        (self.ns, self.allocs)
    }
}

/// The pre-fused pipeline on the 5 000-job fixture — (ns, allocations)
/// of `run` + four column materializations + four three-pass histogram
/// builds, and the ns of that which was merge/histogram remainder after
/// the filter scan — frozen from the `BENCH_query_path.json` committed
/// at PR 18, the last run that still timed `JobList::fig4_baseline`
/// (now a test-local oracle in `portal/tests/fused_props.rs`).
const BASELINE_SEARCH_FIG4: (f64, f64) = (188_223.0, 81.0);
const BASELINE_MERGE_NS: f64 = 86_906.0;

/// `tsdb_aggregate_month` — (ns, allocations) of the per-point fold
/// that decoded every matching block — frozen from the
/// `BENCH_query_path.json` committed at PR 20, the last run before
/// sealed blocks carried hourly rollups.
const AGGREGATE_MONTH_BEFORE: (f64, f64) = (296_624.0, 1.0);

/// The month fixture of the aggregate case: `MONTH_HOSTS` hosts × eight
/// Table-I-shaped series at the paper's 10-minute cadence.
const MONTH_EVENTS: [&str; 8] = [
    "gflops",
    "mem_bw",
    "mem_used",
    "lustre_bw",
    "lustre_iops",
    "md_reqs",
    "ib_bw",
    "cpu_user",
];
const MONTH_SECS: u64 = 30 * 86_400;
const MONTH_HOSTS: usize = 8;

fn month_db() -> TsDb {
    const CADENCE: u64 = 600;
    let db = TsDb::new();
    for h in 0..MONTH_HOSTS {
        let hostname = format!("c401-{h:04}");
        for (e, ev) in MONTH_EVENTS.iter().enumerate() {
            let key = SeriesKey::new(&hostname, "job", "table1", ev);
            for i in 0..(MONTH_SECS / CADENCE) {
                let t = i * CADENCE;
                let v = (h + 1) as f64 * 100.0
                    + (e + 1) as f64 * ((t % 86_400) as f64 / 8640.0)
                    + (i % 7) as f64 * 0.25;
                db.insert(key.clone(), t, v);
            }
        }
    }
    db
}

/// The portal fixture: `n` ingested jobs, a third of them `wrf.exe`.
fn jobs_fixture(n: usize) -> Database {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut db = Database::new();
    let rules = FlagRules::default();
    for id in 0..n as u64 {
        let mut rng = StdRng::seed_from_u64(id);
        let app = AppModel::wrf().instantiate(&mut rng, 2, 16, &NodeTopology::stampede());
        let start = 1000 + id * 97;
        let runtime = 300 + (id % 40) * 600;
        let job = Job {
            id,
            user: format!("u{}", id % 23),
            uid: 5000,
            account: "TG".into(),
            job_name: "j".into(),
            exec: if id % 3 == 0 { "wrf.exe" } else { "namd2" }.into(),
            queue: QueueName::Normal,
            n_nodes: 2,
            wayness: 16,
            submit: SimTime::from_secs(start.saturating_sub(300)),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start) + SimDuration::from_secs(runtime),
            status: JobStatus::Completed,
            nodes: vec![0, 1],
            idle_nodes: 0,
            app,
        };
        let mut m = JobMetrics::new();
        m.set(MetricId::MetaDataRate, (id % 1000) as f64 * 600.0);
        m.set(MetricId::CpuUsage, 0.5 + (id % 50) as f64 * 0.01);
        ingest_job(&mut db, &job, &m, &rules, 34.0);
    }
    db
}

fn main() {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\n=== query-path (fused portal engine, watermark cache, tsdb aggregate), host_cores = {host_cores} ==="
    );

    let jobs_db = jobs_fixture(5000);
    let table = jobs_db.table(JOBS_TABLE).expect("jobs table");
    println!("  portal fixture: {} job rows", table.rows().len());
    let spec = SearchSpec {
        exec: Some("wrf.exe".into()),
        min_runtime_secs: Some(600),
        ..SearchSpec::default()
    }
    .field("MetaDataRate__gte", 10_000.0);
    let cfgs = fused::panel_cfgs(table);

    const ITERS: u64 = 80;
    let mut fused_seq = MinStat::new();
    let mut scan_only = MinStat::new();
    let mut cache_cold = MinStat::new();
    let mut cache_warm_fig4 = MinStat::new();
    let mut cache_warm_search = MinStat::new();
    let mut agg_seq = MinStat::new();

    // Long-lived state the warm arms reuse across iterations.
    let scan_idxs = spec.matched_indices(table).expect("columns exist");
    let watermark = 1u64;
    let now = 0u64;
    let mut warm_cache = QueryCache::default();
    warm_cache
        .fig4(&spec, table, None, watermark, now)
        .expect("columns exist");
    warm_cache
        .search(&spec, table, None, watermark, now)
        .expect("columns exist");

    for _ in 0..ITERS {
        // The query through the fused engine.
        fused_seq.push(timed(|| {
            let list = spec.run(table).expect("columns exist");
            let panels = list.fig4();
            (list.len(), panels.runtime.total())
        }));

        // Scan stage alone.
        scan_only.push(timed(|| fused::scan(table, &scan_idxs, &cfgs).counts[0][0]));

        // Cache: a cold miss pays the full query; a warm hit at the
        // same watermark is a refcount bump.
        cache_cold.push(timed(|| {
            let mut c = QueryCache::default();
            c.fig4(&spec, table, None, watermark, now)
                .expect("columns exist")
                .runtime
                .total()
        }));
        cache_warm_fig4.push(timed(|| {
            warm_cache
                .fig4(&spec, table, None, watermark, now)
                .expect("columns exist")
                .runtime
                .total()
        }));
        cache_warm_search.push(timed(|| {
            warm_cache
                .search(&spec, table, None, watermark, now)
                .expect("columns exist")
                .len()
        }));
    }

    // One event of every host over the whole month, 1 h buckets. Its
    // own loop: decoding a month of blocks would evict the jobs table
    // from under the portal arms.
    let month = month_db();
    let md_reqs = TagFilter::any().event("md_reqs");
    println!(
        "  tsdb fixture: {} series, {} points",
        month.n_series(),
        month.n_points()
    );
    for _ in 0..ITERS {
        agg_seq.push(timed(|| {
            month
                .aggregate(&md_reqs, Aggregation::Sum, 0, MONTH_SECS, 3600)
                .len()
        }));
    }

    let agg_speedup = AGGREGATE_MONTH_BEFORE.0 / agg_seq.ns;
    let scan_allocs = scan_only.get().1;
    let scan_ok = scan_allocs == 0.0;
    let warm_fig4_allocs = cache_warm_fig4.get().1;
    let warm_ok = warm_fig4_allocs == 0.0;

    let report = |name: &str, stat: &MinStat| {
        let (ns, a) = stat.get();
        println!("  {name:<28} {ns:>12.0} ns/op {a:>9.1} allocs/op");
    };
    println!(
        "  {:<28} {:>12.0} ns/op {:>9.1} allocs/op (frozen, PR 18)",
        "pre-fused search+fig4", BASELINE_SEARCH_FIG4.0, BASELINE_SEARCH_FIG4.1
    );
    report("fused search+fig4", &fused_seq);
    report("fused scan", &scan_only);
    report("cache cold fig4", &cache_cold);
    report("cache warm fig4 hit", &cache_warm_fig4);
    report("cache warm search hit", &cache_warm_search);
    println!(
        "  {:<28} {:>12.0} ns/op {:>9.1} allocs/op (frozen, PR 20)",
        "per-point aggregate month", AGGREGATE_MONTH_BEFORE.0, AGGREGATE_MONTH_BEFORE.1
    );
    report("tsdb aggregate month", &agg_seq);
    println!(
        "  reported: scan allocs {scan_allocs:.0} == 0: {scan_ok}; warm-hit allocs {warm_fig4_allocs:.0} == 0: {warm_ok}; \
         aggregate {agg_speedup:.1}x under the frozen per-point fold"
    );

    let arm = |stat: &MinStat| {
        let (ns, a) = stat.get();
        format!("{{\"ns_per_op\": {ns:.1}, \"allocs_per_op\": {a:.2}}}")
    };
    let mut json = String::from("{\n  \"bench\": \"query_path\",\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(
        "  \"methodology\": \"A case's arms interleaved in one iteration loop, min over iterations, \
         counting global allocator. \
         baseline_search_fig4 (PR 18) and tsdb_aggregate_month.before (PR 20) are frozen history, \
         not measured.\",\n",
    );
    json.push_str(&format!(
        "  \"baseline_search_fig4\": {{\"frozen_at\": \"PR 18\", \"sequential\": \
         {{\"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}}}, \"merge_ns\": {BASELINE_MERGE_NS:.1}}},\n",
        BASELINE_SEARCH_FIG4.0, BASELINE_SEARCH_FIG4.1
    ));
    json.push_str(&format!(
        "  \"fused_search_fig4\": {{\"sequential\": {}}},\n",
        arm(&fused_seq)
    ));
    json.push_str(&format!("  \"fused_scan\": {},\n", arm(&scan_only)));
    json.push_str(&format!(
        "  \"query_cache\": {{\"cold_fig4\": {}, \"warm_fig4_hit\": {}, \"warm_search_hit\": {}}},\n",
        arm(&cache_cold),
        arm(&cache_warm_fig4),
        arm(&cache_warm_search)
    ));
    json.push_str(&format!(
        "  \"tsdb_aggregate_month\": {{\"series\": {}, \"points\": {}, \
         \"before\": {{\"frozen_at\": \"PR 20\", \"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}}}, \
         \"sequential\": {}, \"speedup\": {agg_speedup:.2}}},\n",
        month.n_series(),
        month.n_points(),
        AGGREGATE_MONTH_BEFORE.0,
        AGGREGATE_MONTH_BEFORE.1,
        arm(&agg_seq)
    ));
    json.push_str(&format!(
        "  \"acceptance\": {{\n    \
         \"fused_scan_allocs_per_op\": {scan_allocs:.0}, \"scan_allocs_ok\": {scan_ok},\n    \
         \"cache_warm_fig4_allocs_per_op\": {warm_fig4_allocs:.0}, \"warm_hit_allocs_ok\": {warm_ok}\n  }}\n}}\n"
    ));

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_query_path.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("  wrote {}", out.display()),
        Err(e) => println!("  could not write {}: {e}", out.display()),
    }
}
