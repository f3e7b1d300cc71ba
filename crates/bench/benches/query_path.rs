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
//!   the fused single-pass engine with a warm [`FusedScratch`], and the
//!   real threaded wall of `matched_indices` + the fused scan on a pool
//!   at W ∈ {1, 2} (the reference host has two vCPUs; the spawn gate
//!   keeps a 5 000-row table inline at both). The pipeline it replaced
//!   — filter scan, re-sort, four `column()` → `Histogram::build`
//!   passes — is the frozen [`BASELINE_SEARCH_FIG4`] constant, not code.
//! * `fused_scan` — the scan stage alone with a warm scratch.
//! * `query_cache` — cold miss vs warm hit through the watermark-keyed
//!   [`QueryCache`].
//! * `tsdb_aggregate_month` — `TsDb::aggregate` of one event over a
//!   month of 8 hosts × 8 Table-I series into 1 h buckets, wall at
//!   W ∈ {1, 2}: an hour-aligned `Sum`, so sealed blocks fold from
//!   their seal-time rollups, and small enough that the spawn gate
//!   keeps it inline at both. The per-point decode fold it replaced is
//!   the frozen [`AGGREGATE_MONTH_BEFORE`] constant.
//!
//! Results go to `BENCH_query_path.json` at the workspace root. Its
//! `acceptance` block reports, not enforces: the allocation-free warm
//! scan, warm hit and one-allocation aggregate are asserted in
//! `tests/alloc_invariants.rs` where tier-1 runs them, and "W = 2 is
//! not slower than W = 1" is a wall-clock observation
//! (`wall_no_regression`, both threaded cases), not an invariant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tacc_jobdb::Database;
use tacc_metrics::flags::FlagRules;
use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
use tacc_metrics::table1::{JobMetrics, MetricId};
use tacc_portal::cache::QueryCache;
use tacc_portal::fused::{self, FusedScratch, PanelCfg, PANELS};
use tacc_portal::hist::{Fig4Panels, FIG4_PANELS};
use tacc_portal::search::SearchSpec;
use tacc_scheduler::job::{Job, JobStatus, QueueName};
use tacc_simnode::apps::AppModel;
use tacc_simnode::pool::WorkerPool;
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

/// Worker counts of the threaded arms: the reference host's two vCPUs.
const WORKERS: [usize; 2] = [1, 2];

/// The pre-fused pipeline on the 5 000-job fixture — (ns, allocations)
/// of `run` + four column materializations + four three-pass histogram
/// builds, and the ns of that which was merge/histogram remainder after
/// the filter scan — frozen from the `BENCH_query_path.json` committed
/// at PR 18, the last run that still timed `JobList::fig4_baseline`
/// (now a test-local oracle in `portal/tests/fused_props.rs`).
const BASELINE_SEARCH_FIG4: (f64, f64) = (188_223.0, 81.0);
const BASELINE_MERGE_NS: f64 = 86_906.0;

/// `tsdb_aggregate_month` at one worker — (ns, allocations) of the
/// per-point fold that decoded every matching block — frozen from the
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

/// [`FIG4_PANELS`] resolved against the table schema — what the fused
/// scan bins against.
fn panel_cfgs(table: &tacc_jobdb::table::Table) -> [PanelCfg; PANELS] {
    let mut cfgs = [PanelCfg {
        col: None,
        divisor: 1.0,
        log: false,
    }; PANELS];
    for (cfg, (_title, col, divisor, log)) in cfgs.iter_mut().zip(FIG4_PANELS.iter()) {
        *cfg = PanelCfg {
            col: table.schema().index_of(col),
            divisor: *divisor,
            log: *log,
        };
    }
    cfgs
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
    let cfgs = panel_cfgs(table);
    let pools: Vec<Arc<WorkerPool>> = WORKERS
        .iter()
        .map(|&w| Arc::new(WorkerPool::new(w)))
        .collect();

    const ITERS: u64 = 80;
    let mut fused_seq = MinStat::new();
    let mut fused_wall: Vec<MinStat> = WORKERS.iter().map(|_| MinStat::new()).collect();
    let mut scan_only = MinStat::new();
    let mut cache_cold = MinStat::new();
    let mut cache_warm_fig4 = MinStat::new();
    let mut cache_warm_search = MinStat::new();
    let mut agg_wall: Vec<MinStat> = WORKERS.iter().map(|_| MinStat::new()).collect();

    // Long-lived state the warm arms reuse across iterations.
    let mut seq_scratch = FusedScratch::default();
    let scan_list = spec.run(table).expect("columns exist");
    let mut scan_scratch = FusedScratch::default();
    // Prime the scan scratch so the alloc arm measures steady state.
    black_box(fused::scan(
        scan_list.rows(),
        &cfgs,
        None,
        &mut scan_scratch,
    ));
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
        // The query through the fused single-pass engine with a warm
        // scratch.
        fused_seq.push(timed(|| {
            let list = spec.run(table).expect("columns exist");
            let panels = list.fig4_scratch(None, &mut seq_scratch);
            (list.len(), panels.runtime.total())
        }));
        // The real threaded path. The spawn gate keeps a 5 000-row
        // table inline at every worker count; this arm shows it stays
        // flat.
        for (stat, pool) in fused_wall.iter_mut().zip(&pools) {
            stat.push(timed(|| {
                let idxs = spec
                    .matched_indices(table, Some(pool))
                    .expect("columns exist");
                let rows: Vec<_> = idxs.iter().map(|&i| &table.rows()[i as usize]).collect();
                let fused = fused::scan(&rows, &cfgs, Some(pool), &mut FusedScratch::default());
                (rows.len(), Fig4Panels::from_fused(&fused).runtime.total())
            }));
        }

        // Scan stage alone, warm scratch.
        scan_only.push(timed(|| {
            fused::scan(scan_list.rows(), &cfgs, None, &mut scan_scratch).counts[0][0]
        }));

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

    // One event of every host over the whole month, 1 h buckets: a
    // 1-worker pool folds inline, two workers fan the series out. Its
    // own loop: decoding a month of blocks would evict the jobs table
    // from under the portal arms.
    let mut month = month_db();
    let md_reqs = TagFilter::any().event("md_reqs");
    println!(
        "  tsdb fixture: {} series, {} points",
        month.n_series(),
        month.n_points()
    );
    for _ in 0..ITERS {
        for (stat, pool) in agg_wall.iter_mut().zip(&pools) {
            month.set_pool(Arc::clone(pool));
            stat.push(timed(|| {
                month
                    .aggregate(&md_reqs, Aggregation::Sum, 0, MONTH_SECS, 3600)
                    .len()
            }));
        }
    }

    /// Slowest arm over the one-worker arm.
    fn worst_over_1w(wall: &[MinStat]) -> f64 {
        let worst = wall.iter().map(|s| s.ns).fold(f64::NEG_INFINITY, f64::max);
        worst / wall.first().map_or(f64::NAN, |s| s.ns)
    }
    let fused_ratio = worst_over_1w(&fused_wall);
    let agg_ratio = worst_over_1w(&agg_wall);
    // 15% headroom over the 1-worker wall: "adding a worker does not
    // regress", not "threads are free".
    let wall_ok = fused_ratio <= 1.15;
    let agg_wall_ok = agg_ratio <= 1.15;
    let agg_speedup = AGGREGATE_MONTH_BEFORE.0 / agg_wall.first().map_or(f64::NAN, |s| s.ns);
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
    for (stat, w) in fused_wall.iter().zip(WORKERS) {
        report(&format!("  pooled search+fig4 {w}w wall"), stat);
    }
    report("fused scan (warm scratch)", &scan_only);
    report("cache cold fig4", &cache_cold);
    report("cache warm fig4 hit", &cache_warm_fig4);
    report("cache warm search hit", &cache_warm_search);
    println!(
        "  {:<28} {:>12.0} ns/op {:>9.1} allocs/op (frozen, PR 20)",
        "per-point aggregate month", AGGREGATE_MONTH_BEFORE.0, AGGREGATE_MONTH_BEFORE.1
    );
    for (stat, w) in agg_wall.iter().zip(WORKERS) {
        report(&format!("tsdb aggregate month {w}w wall"), stat);
    }
    println!(
        "  reported: scan allocs {scan_allocs:.0} == 0: {scan_ok}; warm-hit allocs {warm_fig4_allocs:.0} == 0: {warm_ok}; \
         fused wall worst/1w {fused_ratio:.2}: {wall_ok}; aggregate wall worst/1w {agg_ratio:.2}: {agg_wall_ok}, \
         {agg_speedup:.1}x under the frozen per-point fold"
    );

    let arm = |stat: &MinStat| {
        let (ns, a) = stat.get();
        format!("{{\"ns_per_op\": {ns:.1}, \"allocs_per_op\": {a:.2}}}")
    };
    let wall_json = |wall: &[MinStat]| {
        wall.iter()
            .zip(WORKERS)
            .map(|(stat, w)| format!("\"{w}\": {}", arm(stat)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut json = String::from("{\n  \"bench\": \"query_path\",\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(
        "  \"methodology\": \"A case's arms interleaved in one iteration loop, min over iterations, \
         counting global allocator. wall is the real threaded path at W workers on this host; \
         baseline_search_fig4 (PR 18) and tsdb_aggregate_month.before (PR 20) are frozen history, \
         not measured.\",\n",
    );
    json.push_str(&format!(
        "  \"baseline_search_fig4\": {{\"frozen_at\": \"PR 18\", \"sequential\": \
         {{\"ns_per_op\": {:.1}, \"allocs_per_op\": {:.2}}}, \"merge_ns\": {BASELINE_MERGE_NS:.1}}},\n",
        BASELINE_SEARCH_FIG4.0, BASELINE_SEARCH_FIG4.1
    ));
    json.push_str(&format!(
        "  \"fused_search_fig4\": {{\n    \"sequential\": {},\n    \"wall\": {{{}}}\n  }},\n",
        arm(&fused_seq),
        wall_json(&fused_wall)
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
         \"wall\": {{{}}}, \"speedup_1w\": {agg_speedup:.2}, \"wall_worst_over_1w\": {agg_ratio:.3}}},\n",
        month.n_series(),
        month.n_points(),
        AGGREGATE_MONTH_BEFORE.0,
        AGGREGATE_MONTH_BEFORE.1,
        wall_json(&agg_wall)
    ));
    json.push_str(&format!(
        "  \"acceptance\": {{\n    \
         \"fused_scan_allocs_per_op\": {scan_allocs:.0}, \"scan_allocs_ok\": {scan_ok},\n    \
         \"cache_warm_fig4_allocs_per_op\": {warm_fig4_allocs:.0}, \"warm_hit_allocs_ok\": {warm_ok},\n    \
         \"wall_worst_over_1w\": {fused_ratio:.3}, \"wall_no_regression\": {wall_ok},\n    \
         \"aggregate_wall_worst_over_1w\": {agg_ratio:.3}, \"aggregate_wall_no_regression\": {agg_wall_ok}\n  }}\n}}\n"
    ));

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_query_path.json");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("  wrote {}", out.display()),
        Err(e) => println!("  could not write {}: {e}", out.display()),
    }
}
