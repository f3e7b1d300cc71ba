//! Hot loops of the stages the system benchmark's stage table indicts:
//! every row that is at least 20 % of some workload's traced wall
//! (`benchmark/REFERENCE.md`) has its cases here, and no other stage
//! does. In-fleet speeds are the benchmark's per-layer metrics; this
//! file isolates the loop, under a counting global allocator (a bench
//! target is its own crate, so the library's `forbid(unsafe_code)` does
//! not reach it).
//!
//! * `collect.daemon_tick` (`fleet_clean`): `collect` is
//!   `Sampler::sample_into` on the benchmark's fleet shape — 64 Stampede
//!   nodes of 16 processes, each with its own sampler and `Sample`,
//!   visited round-robin so that no node's state stays in cache between
//!   visits — `collect_ps` its process-table share and `collect_render`
//!   the `render_sample_into` that follows it; `daemon_collection` is a
//!   whole `TaccStatsd` collection into a transport that keeps nothing.
//! * `collect.consumer_poll` (`fleet_clean`): `consume` is
//!   `codec::decode_into` against a warm schema cache into reused
//!   storage, then the sample's wire bytes sliced for the archive.
//! * `portal.fig4` and `portal.search` (`portal_read`):
//!   `fused_search_fig4` is a search plus all four Fig. 4 panels;
//!   `query_cache.*` cold misses and warm hits through `QueryCache`,
//!   `cold_fig4_wide` a miss whose spec matches nearly every job.
//! * `tsdb.aggregate` (`portal_read`): `tsdb_aggregate_month`, the 64
//!   host series of one kind among the ~5,800 of the `tsdb_insert`
//!   store, over its four weeks into 1 h buckets.
//! * `tsdb.insert` (`portal_read`): `tsdb_insert`, the live trickle's
//!   ticks — an hour of points on each of 384 host series — into the
//!   workload's store of about 5,800 series, per point; its batches
//!   span a whole seal cycle, so seals are in the figure.
//!
//! Three hard bars: `sample_into` at most 26 µs and 0 allocations, a
//! `TaccStatsd` collection at most 2 allocations (the shared `Bytes`
//! handed to the transport: its buffer and its reference count), and a
//! warm `decode_into` 0. The other allocation bars of these paths are
//! tier-1 tests (`tests/alloc_invariants.rs`).
//!
//! A "before" column is a constant frozen from the record that last
//! timed the replaced code, beside the commit that froze it; no replaced
//! code is kept to be timed. Writes `BENCH_hot_paths.json` at the
//! package root.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tacc_collect::codec;
use tacc_collect::collectors::{PsCollector, Scratch};
use tacc_collect::daemon::{Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::Sampler;
use tacc_collect::record::Sample;
use tacc_jobdb::Database;
use tacc_metrics::flags::FlagRules;
use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
use tacc_metrics::table1::{JobMetrics, MetricId};
use tacc_portal::cache::QueryCache;
use tacc_portal::search::SearchSpec;
use tacc_scheduler::job::{Job, JobStatus, QueueName};
use tacc_simnode::apps::AppModel;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::workload::{LustreDemand, NodeDemand};
use tacc_simnode::{SimDuration, SimNode, SimTime};
use tacc_tsdb::{Aggregation, SeriesKey, TagFilter, TsDb};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocation events (allocs and
/// growing reallocs — the events buffer reuse is meant to eliminate).
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

/// (ns, allocations) per op.
type Cost = (f64, f64);

/// A frozen "before" column: the commit that froze it, and its cost.
type Frozen = (&'static str, Cost);

/// `sample_into`, its `PsCollector` share and the `render_sample_into`
/// of the 5.3 KB it renders to, on the fleet fixture at the commit
/// before the node-side text path went byte-level.
const COLLECT_BEFORE: Frozen = ("de09b7a", (38_500.0, 0.0));
const COLLECT_PS_BEFORE: Frozen = ("de09b7a", (20_300.0, 0.0));
const COLLECT_RENDER_BEFORE: Frozen = ("de09b7a", (10_200.0, 0.0));
/// The consumer's share of one message before `codec::decode_into`:
/// `parse_bytes` (24.0 µs, 27 allocations) plus `render_sample_into`
/// (5.3 µs, 0).
const CONSUME_BEFORE: Frozen = ("2443759", (29_300.0, 27.0));
/// Search + Fig. 4 through the pre-fused pipeline — filter scan,
/// re-sort, four `column()` → `Histogram::build` passes — on the
/// 5,000-job fixture.
const SEARCH_FIG4_BEFORE: Frozen = ("eac929f", (188_223.0, 81.0));
/// The month aggregate and the cold Fig. 4 misses with a division per
/// rollup cell, a branch per filter match and a `log10` per log-panel
/// value: this file built against that commit, the fastest of five runs
/// alternated with the replacing code's on one host.
const AGGREGATE_MONTH_BEFORE: Frozen = ("f48946b", (238_013.0, 1.0));
const COLD_FIG4_BEFORE: Frozen = ("f48946b", (95_061.0, 24.0));
const COLD_FIG4_WIDE_BEFORE: Frozen = ("f48946b", (254_538.0, 21.0));

/// `tsdb_insert` when each shard found its series down a `BTreeMap`
/// ordered by key text, on the same fixture.
const INSERT_BEFORE: Frozen = ("7b7854b", (522.2, 0.0));

/// Hard bar on `collect`, hot.
const COLLECT_BAR_NS: f64 = 26_000.0;

/// Fastest batch's ns per op over `batches` batches of `iters` calls,
/// after five warm-up calls — preemption only ever inflates a batch, so
/// the fastest is what a bar on time can hold on a shared host — and
/// allocations per op over every batch.
fn measure<R>(batches: u64, iters: u64, mut f: impl FnMut() -> R) -> Cost {
    for _ in 0..5 {
        black_box(f());
    }
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    (best, allocs as f64 / (batches * iters) as f64)
}

/// Batches of a case whose op takes microseconds, and their length.
const BATCHES: u64 = 20;
const ITERS: u64 = 500;
/// Single-call batches of the portal and tsdb cases, whose cold arms
/// take about a tenth of a millisecond.
const QUERY_BATCHES: u64 = 80;

/// One Stampede node running a WRF-like process, sampled four times
/// 600 s apart: the node and its sampler for `daemon_collection`, and
/// the first sample as the daemon renders it for `consume`.
fn node_fixture() -> (SimNode, Sampler, Vec<u8>) {
    let mut node = SimNode::new("c401-0001", NodeTopology::stampede());
    node.spawn_process("wrf.exe", 5000, 16, u64::MAX);
    let demand = NodeDemand {
        active_cores: 16,
        cpu_user_frac: 0.8,
        flops_per_sec: 1e10,
        mem_bw_bytes_per_sec: 1e9,
        mem_used_bytes: 8 << 30,
        ..NodeDemand::default()
    };
    let cfg = discover(&NodeFs::new(&node), BuildOptions::default()).expect("discovery");
    let mut sampler = Sampler::new("c401-0001", &cfg);
    let mut payload = Vec::new();
    for k in 1..=4u64 {
        node.advance(SimDuration::from_secs(600), &demand);
        let fs = NodeFs::new(&node);
        let sample = sampler.sample(&fs, SimTime::from_secs(600 * k), &["3001".to_string()], &[]);
        if k == 1 {
            codec::render_message_into(sampler.header(), &sample, None, &mut payload);
        }
    }
    (node, sampler, payload)
}

/// Nodes of the `collect*` cases.
const FLEET_NODES: usize = 64;

/// The system benchmark's `fleet_clean` shape: Stampede nodes running
/// one single-threaded process per core, mid-job (every counter of
/// every device non-zero).
fn fleet_fixture() -> Vec<(SimNode, Sampler, Sample)> {
    let demand = NodeDemand {
        active_cores: 16,
        cpu_user_frac: 0.83,
        cpu_sys_frac: 0.04,
        cpu_iowait_frac: 0.01,
        flops_per_sec: 4.7e10,
        vector_frac: 0.6,
        mem_bw_bytes_per_sec: 2.3e10,
        mem_used_bytes: 9 << 30,
        ib_bytes_per_sec: 1.3e8,
        gige_bytes_per_sec: 2.9e4,
        mic_user_frac: 0.2,
        lustre: vec![
            LustreDemand {
                mdc_reqs_per_sec: 50.0,
                mdc_wait_us: 210.0,
                osc_reqs_per_sec: 20.0,
                osc_wait_us: 1100.0,
                opens_per_sec: 2.0,
                getattr_per_sec: 11.0,
                read_bytes_per_sec: 3.1e6,
                write_bytes_per_sec: 7.3e6,
            };
            2
        ],
        ..NodeDemand::default()
    };
    (0..FLEET_NODES)
        .map(|i| {
            let host = format!("c401-{:04}", i + 1);
            let mut node = SimNode::new(host.as_str(), NodeTopology::stampede());
            for _ in 0..16 {
                node.spawn_process("wrf.exe", 5000 + (i / 8) as u32, 1, u64::MAX);
            }
            node.advance(SimDuration::from_secs(86_400 + 600 * i as u64), &demand);
            let cfg = discover(&NodeFs::new(&node), BuildOptions::default()).expect("discovery");
            let sampler = Sampler::new(&host, &cfg);
            (node, sampler, Sample::default())
        })
        .collect()
}

/// A transport that accepts every message and keeps none.
struct Discard;

impl Publisher for Discard {
    fn publish(&mut self, _queue: &str, _key: &str, _seq: u64, _payload: Bytes) -> bool {
        true
    }
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

/// Hosts of the `portal_read` store, and the four weeks at 600 s each
/// host series is back-filled with.
const PORTAL_HOSTS: usize = 64;
const BACKFILL_POINTS: u64 = 4 * 7 * 144;
const BACKFILL_SECS: u64 = BACKFILL_POINTS * 600;

/// Timestamps one trickle tick appends to every host series (an hour),
/// and the ticks of one `tsdb_insert` batch: 86 ticks take a head from
/// empty past the 512 points that seal it, so every batch holds one seal
/// of each series.
const TICK_POINTS: u64 = 6;
const SEAL_CYCLE_TICKS: u64 = 86;
const INSERT_BATCHES: u64 = 10;

/// The `portal_read` store: `PORTAL_HOSTS` hosts × six series, beside the
/// Fig. 5 panels of 200 jobs (six series per job host) — about 5,800
/// series over the default 8 shards. Returns the store and its host
/// series.
fn portal_tsdb() -> (TsDb, Vec<SeriesKey>) {
    const HOST_SERIES: [(&str, &str); 6] = [
        ("mdc", "reqs"),
        ("mdc", "wait"),
        ("llite", "open_close"),
        ("lnet", "bytes"),
        ("cpustat", "user"),
        ("mem", "used"),
    ];
    const PANELS: [&str; 6] = [
        "gflops",
        "mbw_gbs",
        "mem_gb",
        "lustre_mbs",
        "ib_mbs",
        "cpu_user",
    ];
    let db = TsDb::new();
    let hosts: Vec<String> = (0..PORTAL_HOSTS).map(|h| format!("c403-{h:04}")).collect();
    let keys: Vec<SeriesKey> = hosts
        .iter()
        .flat_map(|h| HOST_SERIES.map(|(dt, ev)| SeriesKey::new(h, dt, "all", ev)))
        .collect();
    for i in 0..BACKFILL_POINTS {
        for (k, key) in keys.iter().enumerate() {
            db.insert(key.clone(), i * 600, point_value(k, i));
        }
    }
    for job in 0..200 {
        let jobid = (9_000 + job).to_string();
        for r in 0..1 + job % 8 {
            let host = &hosts[(job * 13 + r) % PORTAL_HOSTS];
            for (e, ev) in PANELS.iter().enumerate() {
                let key = SeriesKey::new(host, "panel", &jobid, ev);
                for i in 0..12 + (job as u64 % 60) {
                    db.insert(key.clone(), i * 600, point_value(e, i));
                }
            }
        }
    }
    (db, keys)
}

fn point_value(k: usize, i: u64) -> f64 {
    (k % 6 + 1) as f64 * 100.0 + (i % 144) as f64 * 0.5
}

/// One stage-table row: what its cases run on, and the cases.
struct Row {
    name: &'static str,
    fixture: String,
    cases: Vec<(&'static str, Cost, Option<Frozen>)>,
}

fn collect_rows() -> Vec<Row> {
    // --- collect.daemon_tick: each node's Sampler refilling its Sample,
    // round-robin over the fleet ---
    let mut fleet = fleet_fixture();
    let jobids = ["3001".to_string()];
    let now = SimTime::from_secs(3000);
    let mut turn = (0..FLEET_NODES).cycle();
    // Every node's first collection sizes its buffers.
    for (node, sampler, sample) in &mut fleet {
        sampler.sample_into(&NodeFs::new(node), now, &jobids, &[], sample);
    }
    let collect = measure(BATCHES, ITERS, || {
        let (node, sampler, sample) = &mut fleet[turn.next().expect("cycle")];
        sampler.sample_into(&NodeFs::new(node), now, &jobids, &[], sample);
        sample.devices.len()
    });
    assert_eq!(fleet[0].2.processes.len(), 16);
    assert_eq!(
        collect.1, 0.0,
        "Sampler::sample_into must not allocate in steady state"
    );
    assert!(
        collect.0 <= COLLECT_BAR_NS,
        "Sampler::sample_into took {:.0} ns on the fleet fixture, bar {COLLECT_BAR_NS:.0}",
        collect.0
    );
    let mut scratch = Scratch::default();
    let mut processes = Vec::with_capacity(16);
    let collect_ps = measure(BATCHES, ITERS, || {
        let (node, _, _) = &fleet[turn.next().expect("cycle")];
        processes.clear();
        PsCollector.collect_ps_into(&NodeFs::new(node), &mut scratch, &mut processes);
        processes.len()
    });
    let mut rendered: Vec<u8> = Vec::new();
    let collect_render = measure(BATCHES, ITERS, || {
        let (_, _, sample) = &fleet[turn.next().expect("cycle")];
        rendered.clear();
        codec::render_sample_into(sample, &mut rendered);
        rendered.len()
    });

    // The whole daemon collection — sample, render, hand over — into a
    // transport that drops the payload, so only the daemon's own
    // allocations are counted.
    let (node, sampler, payload) = node_fixture();
    let fs = NodeFs::new(&node);
    let mut daemon = TaccStatsd::new(
        sampler,
        SimDuration::from_mins(10),
        "stats",
        Box::new(Discard),
        now,
    );
    let mut t = now;
    let daemon_collection = measure(BATCHES, ITERS, || {
        daemon.tick(&fs, t);
        t = t + SimDuration::from_mins(10);
    });
    assert!(
        daemon_collection.1 <= 2.0,
        "a TaccStatsd collection allocates the Bytes it hands over, nothing else: {}",
        daemon_collection.1
    );

    // --- collect.consumer_poll: decode against a warm cache into reused
    // storage, then the bytes to archive ---
    let mut cache = codec::SchemaCache::new();
    let mut decoded = codec::Decoded::default();
    let consume = measure(BATCHES, ITERS, || {
        let envelope = codec::decode_into(&payload, &mut cache, &mut decoded).expect("parses");
        let span = decoded.spans[0];
        assert!(span.canonical, "daemon output is archived verbatim");
        black_box(&payload[span.start..span.end]);
        envelope.hostname
    });
    assert_eq!(consume.1, 0.0, "a warm decode_into must not allocate");

    vec![
        Row {
            name: "collect.daemon_tick",
            fixture: format!(
                "collect, collect_ps and collect_render: {FLEET_NODES} stampede nodes of 16 \
                 processes, one sampler and Sample per node, round-robin (a sample renders to {} \
                 bytes); daemon_collection: one stampede node running wrf.exe. Bars: collect <= \
                 {COLLECT_BAR_NS:.0} ns and 0 allocs, daemon_collection <= 2 allocs",
                rendered.len()
            ),
            cases: vec![
                ("collect", collect, Some(COLLECT_BEFORE)),
                ("collect_ps", collect_ps, Some(COLLECT_PS_BEFORE)),
                (
                    "collect_render",
                    collect_render,
                    Some(COLLECT_RENDER_BEFORE),
                ),
                ("daemon_collection", daemon_collection, None),
            ],
        },
        Row {
            name: "collect.consumer_poll",
            fixture: format!(
                "one {}-byte message of one stampede node, decode_into with a warm SchemaCache \
                 into a reused Decoded plus the span slice. Bar: 0 allocs",
                payload.len()
            ),
            cases: vec![("consume", consume, Some(CONSUME_BEFORE))],
        },
    ]
}

fn query_rows(store: &TsDb) -> Vec<Row> {
    // --- portal.fig4 / portal.search ---
    let jobs_db = jobs_fixture(5000);
    let table = jobs_db.table(JOBS_TABLE).expect("jobs table");
    let spec = SearchSpec {
        exec: Some("wrf.exe".into()),
        min_runtime_secs: Some(600),
        ..SearchSpec::default()
    }
    .field("MetaDataRate__gte", 10_000.0);
    let (watermark, now) = (1u64, 0u64);
    let fused_search_fig4 = measure(QUERY_BATCHES, 1, || {
        let list = spec.run(table).expect("columns exist");
        let panels = list.fig4();
        (list.len(), panels.runtime.total())
    });
    // A cold miss pays the full query; a warm hit at the same watermark
    // is a refcount bump.
    let cold_fig4 = measure(QUERY_BATCHES, 1, || {
        let mut c = QueryCache::default();
        c.fig4(&spec, table, None, watermark, now)
            .expect("columns exist")
            .runtime
            .total()
    });
    // Nearly every row matches (runtime >= 600 s drops one job in 40),
    // so the scan and all four panels run over ~4,900 rows, the log
    // panel's values spanning 0 to 6e5.
    let wide = SearchSpec {
        min_runtime_secs: Some(600),
        ..SearchSpec::default()
    }
    .field("MetaDataRate__gte", 0.0);
    let cold_fig4_wide = measure(QUERY_BATCHES, 1, || {
        let mut c = QueryCache::default();
        c.fig4(&wide, table, None, watermark, now)
            .expect("columns exist")
            .metadata_reqs
            .total()
    });
    let mut warm = QueryCache::default();
    let warm_fig4_hit = measure(QUERY_BATCHES, 1, || {
        warm.fig4(&spec, table, None, watermark, now)
            .expect("columns exist")
            .runtime
            .total()
    });
    let warm_search_hit = measure(QUERY_BATCHES, 1, || {
        warm.search(&spec, table, None, watermark, now)
            .expect("columns exist")
            .len()
    });
    let n_rows = table.rows().len();

    // --- tsdb.aggregate: one host series kind of every host over the
    // four back-filled weeks of the portal_read store, 1 h buckets, an
    // hour-aligned Sum, so sealed blocks fold from their seal-time
    // rollups ---
    let mdc_reqs = TagFilter::any().dev_type("mdc").device("all").event("reqs");
    let matching = store.keys(&mdc_reqs).len();
    let aggregate = measure(QUERY_BATCHES, 1, || {
        store
            .aggregate(&mdc_reqs, Aggregation::Sum, 0, BACKFILL_SECS, 3600)
            .len()
    });

    vec![
        Row {
            name: "portal.fig4 / portal.search",
            fixture: format!(
                "{n_rows} ingested jobs, a third wrf.exe; spec exec=wrf.exe, runtime >= 600 s, \
                 MetaDataRate >= 10000; the wide spec runtime >= 600 s, MetaDataRate >= 0"
            ),
            cases: vec![
                (
                    "fused_search_fig4",
                    fused_search_fig4,
                    Some(SEARCH_FIG4_BEFORE),
                ),
                ("query_cache.cold_fig4", cold_fig4, Some(COLD_FIG4_BEFORE)),
                (
                    "query_cache.cold_fig4_wide",
                    cold_fig4_wide,
                    Some(COLD_FIG4_WIDE_BEFORE),
                ),
                ("query_cache.warm_fig4_hit", warm_fig4_hit, None),
                ("query_cache.warm_search_hit", warm_search_hit, None),
            ],
        },
        Row {
            name: "tsdb.aggregate",
            fixture: format!(
                "the tsdb_insert store before its trickle ({} series, {} points); Sum of the \
                 {matching} mdc/reqs host series over the {BACKFILL_POINTS} back-filled points \
                 into 1 h buckets",
                store.n_series(),
                store.n_points()
            ),
            cases: vec![(
                "tsdb_aggregate_month",
                aggregate,
                Some(AGGREGATE_MONTH_BEFORE),
            )],
        },
    ]
}

fn insert_row(db: TsDb, keys: Vec<SeriesKey>) -> Row {
    // --- tsdb.insert: the live trickle into the portal_read store ---
    let mut i = BACKFILL_POINTS;
    let blocks = db.n_sealed_blocks();
    let tick = measure(INSERT_BATCHES, SEAL_CYCLE_TICKS, || {
        for _ in 0..TICK_POINTS {
            for (k, key) in keys.iter().enumerate() {
                db.insert(key.clone(), i * 600, point_value(k, i));
            }
            i += 1;
        }
    });
    assert!(
        db.n_sealed_blocks() >= blocks + INSERT_BATCHES as usize * keys.len(),
        "every batch seals each host series"
    );
    let per_tick = (keys.len() as u64 * TICK_POINTS) as f64;
    Row {
        name: "tsdb.insert",
        fixture: format!(
            "{} series over {} shards: {PORTAL_HOSTS} hosts x 6 series back-filled with {} \
             points each, plus Fig. 5 panels of 200 jobs; one op is one point of a tick of \
             {per_tick} inserts (an hour on every host series), {SEAL_CYCLE_TICKS} ticks a batch",
            db.n_series(),
            db.n_shards(),
            BACKFILL_POINTS
        ),
        cases: vec![(
            "tsdb_insert",
            (tick.0 / per_tick, tick.1 / per_tick),
            Some(INSERT_BEFORE),
        )],
    }
}

fn main() {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = collect_rows();
    // One portal_read store: aggregated first, then trickled into.
    let (store, keys) = portal_tsdb();
    rows.extend(query_rows(&store));
    rows.push(insert_row(store, keys));

    let cost =
        |(ns, allocs): Cost| format!("\"ns_per_op\": {ns:.1}, \"allocs_per_op\": {allocs:.2}");
    let mut json = format!(
        "{{\n  \"bench\": \"hot_paths\",\n  \"host_cores\": {host_cores},\n  \"method\": \
         \"fastest batch's mean ns per op after warm-up ({BATCHES} x {ITERS} calls per collect \
         case, {QUERY_BATCHES} x 1 per portal and tsdb query case, {INSERT_BATCHES} x \
         {SEAL_CYCLE_TICKS} trickle ticks for tsdb_insert); allocations per op over every \
         batch, counting global allocator; before columns are frozen constants\""
    );
    for row in &rows {
        write!(
            json,
            ",\n  \"{}\": {{\n    \"fixture\": \"{}\"",
            row.name, row.fixture
        )
        .expect("write to String");
        for (name, after, before) in &row.cases {
            write!(json, ",\n    \"{name}\": {{{}", cost(*after)).expect("write to String");
            if let Some((at, before)) = before {
                write!(
                    json,
                    ", \"before\": {{\"frozen_at\": \"{at}\", {}}}, \"speedup\": {:.2}",
                    cost(*before),
                    before.0 / after.0
                )
                .expect("write to String");
            }
            json.push('}');
        }
        json.push_str("\n  }");
    }
    json.push_str("\n}\n");
    print!("{json}");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_hot_paths.json");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
}
