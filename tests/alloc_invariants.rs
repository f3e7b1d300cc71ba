//! Allocation invariants of the steady-state hot paths, asserted where
//! tier-1 runs them. The `*_path` microbenches used to hold these bars
//! in a bench process nobody gated on; speeds are the system
//! benchmark's business (`benchmark/`), these are the deterministic
//! half: an operation that must not touch the heap once it is warm.
//!
//! Counted per thread (as `crates/collect/tests/decode_props.rs` does),
//! so tests running in parallel do not see each other's allocations.
//! Held elsewhere and not repeated: `Sampler::sample_into` 0 and a
//! `TaccStatsd` collection ≤ 2 (`collect_parse_props.rs`), a
//! steady-state `StatsConsumer::poll_with` 0 (`decode_props.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tacc_stats::jobdb::table::Table;
use tacc_stats::jobdb::{TableSchema, Value, ValueType};
use tacc_stats::metrics::flags::FlagRules;
use tacc_stats::metrics::sketch::{QuantileSketch, DEFAULT_EPS};
use tacc_stats::metrics::stream::FlagStreams;
use tacc_stats::metrics::table1::MetricId;
use tacc_stats::portal::fused;
use tacc_stats::portal::{QueryCache, SearchSpec};
use tacc_stats::simnode::intern::Sym;
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::workload::{LustreDemand, NodeDemand};
use tacc_stats::simnode::{SimClock, SimCluster, SimDuration, SimNode};
use tacc_stats::tsdb::{
    Aggregation, DataPoint, DurOptions, MemVfs, SeriesKey, TagFilter, TsDb, SEAL_THRESHOLD,
};

thread_local! {
    /// Allocation events (allocs and reallocs) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct CountingAlloc;

fn count() {
    // Ignored during thread teardown, when the slot is already gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every operation is delegated unchanged to the system
// allocator; the counter is a const-initialised thread-local `Cell`
// that never allocates and has no effect on what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events this thread makes while running `f`.
fn allocs_in<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// Deterministic value scrambler in [0, 1).
fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64)
}

/// A jobs table carrying two metadata columns and the four Fig. 4
/// columns.
fn jobs_table(n: i64) -> Table {
    let mut t = Table::new(TableSchema::new(&[
        ("jobid", ValueType::Int),
        ("exec", ValueType::Str),
        ("user", ValueType::Str),
        ("run_time", ValueType::Float),
        ("nodes", ValueType::Float),
        ("queue_wait", ValueType::Float),
        ("MetaDataRate", ValueType::Float),
    ]));
    for id in 0..n {
        let f = id as f64;
        t.insert(vec![
            Value::Int(id),
            if id % 3 == 0 { "wrf.exe" } else { "namd2" }.into(),
            format!("user{:04}", id % 23).into(),
            Value::Float(300.0 + (f % 40.0) * 600.0),
            Value::Float(1.0 + f % 16.0),
            Value::Float(f % 7200.0),
            Value::Float((f % 1000.0) * 600.0),
        ])
        .expect("schema-shaped row");
    }
    t
}

fn spec() -> SearchSpec {
    SearchSpec::default().field("MetaDataRate__gte", 10_000.0)
}

/// The bars below mean something only if the counter is live.
#[test]
fn counter_sees_this_threads_allocations() {
    assert_eq!(allocs_in(|| Vec::<u64>::with_capacity(64)), 1);
    assert_eq!(allocs_in(|| 64u64.pow(2)), 0);
}

#[test]
fn warm_fused_scan_does_not_allocate() {
    let table = jobs_table(2000);
    let idxs = spec().matched_indices(&table).expect("valid column");
    assert!(idxs.len() > 1000);
    let cfgs = fused::panel_cfgs(&table);
    let cold = fused::scan(&table, &idxs, &cfgs).counts;
    let n = allocs_in(|| {
        for _ in 0..8 {
            assert_eq!(fused::scan(&table, &idxs, &cfgs).counts, cold);
        }
    });
    assert_eq!(n, 0, "fused::scan");
}

/// A cold search allocates its result vector and its predicate tables,
/// and nothing per row: the count is the same on 2,000 and on 20,000
/// rows, for a numeric threshold, a string match and both together.
#[test]
fn cold_matched_indices_allocates_independently_of_row_count() {
    let small = jobs_table(2_000);
    let large = jobs_table(20_000);
    let numeric = spec();
    let string = SearchSpec {
        exec: Some("wrf.exe".into()),
        ..SearchSpec::default()
    };
    let both = SearchSpec {
        user: Some("user0003".into()),
        ..spec()
    }
    .field("run_time__lt", 12_000.0);
    for spec in [numeric, string, both] {
        let count = |t: &Table| {
            let mut len = 0;
            let n = allocs_in(|| len = spec.matched_indices(t).expect("valid columns").len());
            assert!(
                len > 0 && len < t.len(),
                "{spec:?} matches some rows of {}",
                t.len()
            );
            n
        };
        assert_eq!(count(&small), count(&large), "{spec:?}");
    }
}

#[test]
fn warm_query_cache_fig4_hit_does_not_allocate() {
    let table = jobs_table(2000);
    let spec = spec();
    let (watermark, now) = (1, 0);
    let mut cache = QueryCache::default();
    let cold = cache
        .fig4(&spec, &table, None, watermark, now)
        .expect("valid column");
    let n = allocs_in(|| {
        for _ in 0..8 {
            let hit = cache
                .fig4(&spec, &table, None, watermark, now)
                .expect("valid column");
            assert!(
                Arc::ptr_eq(&hit, &cold),
                "a hit hands out the cached panels"
            );
        }
    });
    assert_eq!(n, 0, "QueryCache::fig4 hit at an unchanged watermark");
}

#[test]
fn steady_state_flag_and_sketch_updates_do_not_allocate() {
    const OPS: usize = 20_000;
    let mut streams = FlagStreams::new(FlagRules::default());
    let job = Sym::new("alloc-invariants-job");
    // The one insert that allocates the job's stream slot.
    streams.update(job, MetricId::MetaDataRate, 1.0);
    let ids = [
        MetricId::MetaDataRate,
        MetricId::GigEBW,
        MetricId::Cpi,
        MetricId::VecPercent,
        MetricId::Idle,
        MetricId::CpuUsage,
    ];
    let mut state = 7u64;
    let n = allocs_in(|| {
        (0..OPS)
            .map(|i| {
                let v = lcg(&mut state) * 50_000.0;
                streams.update(job, ids[i % ids.len()], v).len()
            })
            .sum::<usize>()
    });
    assert_eq!(n, 0, "FlagStreams::update on a known job");

    let mut sketch = QuantileSketch::new(DEFAULT_EPS);
    // Past the growth phase of the tuple buffer.
    for _ in 0..50_000 {
        sketch.update(lcg(&mut state) * 1e6);
    }
    let n = allocs_in(|| {
        for _ in 0..OPS {
            sketch.update(lcg(&mut state) * 1e6);
        }
    });
    assert_eq!(n, 0, "QuantileSketch::update past warm-up");
}

#[test]
fn warm_node_advance_does_not_allocate() {
    let busy = NodeDemand {
        active_cores: 16,
        cpu_user_frac: 0.9,
        cpu_sys_frac: 0.02,
        flops_per_sec: 1e11,
        vector_frac: 0.8,
        mem_bw_bytes_per_sec: 4e10,
        mem_used_bytes: 20 << 30,
        ib_bytes_per_sec: 2e8,
        mic_user_frac: 0.3,
        lustre: vec![
            LustreDemand {
                mdc_reqs_per_sec: 100.0,
                osc_reqs_per_sec: 50.0,
                read_bytes_per_sec: 1e7,
                write_bytes_per_sec: 5e6,
                ..LustreDemand::default()
            };
            2
        ],
        ..NodeDemand::default()
    };
    let idle = NodeDemand::idle();
    for (name, topo) in [
        ("Stampede", NodeTopology::stampede()),
        ("Lonestar 5", NodeTopology::lonestar5()),
    ] {
        let mut node = SimNode::new("c401-0000", topo);
        node.spawn_process("wrf.exe", 5000, 16, 0xFFFF);
        node.advance(SimDuration::from_secs(600), &busy);
        for (what, demand) in [("busy", &busy), ("idle", &idle)] {
            let n = allocs_in(|| {
                for _ in 0..8 {
                    node.advance(SimDuration::from_secs(600), demand);
                }
            });
            assert_eq!(n, 0, "SimNode::advance, {what} demand, {name} node");
        }
    }
}

/// The one-chunk path every benchmark workload runs: a 64-node cluster
/// advances inline, so a warm `advance_all` allocates nothing.
#[test]
fn warm_inline_cluster_advance_does_not_allocate() {
    let cluster = SimCluster::homogeneous(SimClock::new(), "c401", 64, NodeTopology::stampede());
    cluster.advance_all(SimDuration::from_secs(600), |_| None);
    let n = allocs_in(|| {
        for _ in 0..4 {
            cluster.advance_all(SimDuration::from_secs(600), |_| None);
        }
    });
    assert_eq!(n, 0, "SimCluster::advance_all, 64 idle Stampede nodes");
}

/// Two weeks of 2 hosts × 4 series at the paper's 10-minute cadence:
/// every series has sealed blocks inside the read window.
fn fortnight(db: &TsDb) {
    for h in 0..2 {
        let host = format!("c401-{h:04}");
        for (e, ev) in ["gflops", "mem_bw", "md_reqs", "cpu_user"]
            .iter()
            .enumerate()
        {
            let key = SeriesKey::new(&host, "job", "table1", ev);
            for i in 0..(14 * 86_400 / 600u64) {
                let v = (h + 1) as f64 * 100.0 + (e + 1) as f64 * (i % 144) as f64 + 0.25;
                db.insert(key.clone(), i * 600, v);
            }
        }
    }
}

/// Points and sum of the second week of every series, and what reading
/// them allocated.
fn read_week(db: &TsDb, keys: &[SeriesKey]) -> ((u64, f64), u64) {
    let mut seen = (0u64, 0.0f64);
    let n = allocs_in(|| {
        for k in keys {
            db.range_for_each(k, 7 * 86_400, 14 * 86_400, |_, v| {
                seen.0 += 1;
                seen.1 += v;
            });
        }
    });
    (seen, n)
}

/// The fortnight in an in-memory store, and in one rebuilt by
/// `TsDb::recover` from the files a durable twin left behind.
fn fortnight_in_memory_and_recovered(shards: usize) -> (TsDb, TsDb) {
    let mem = TsDb::with_shards(shards);
    fortnight(&mem);

    let vfs = Arc::new(MemVfs::new());
    let (durable, _) =
        TsDb::recover(vfs.clone(), shards, DurOptions::default()).expect("fresh store");
    fortnight(&durable);
    durable.flush().expect("clean flush");
    drop(durable);
    let (recovered, report) =
        TsDb::recover(Arc::new(vfs.crash_image()), shards, DurOptions::default())
            .expect("recovers");
    assert!(report.balances(), "conservation accounting must balance");
    assert_eq!(recovered.n_points(), mem.n_points(), "nothing was lost");
    (mem, recovered)
}

#[test]
fn sealed_block_reads_do_not_allocate_in_memory_or_recovered() {
    let (mem, recovered) = fortnight_in_memory_and_recovered(4);
    let keys = mem.keys(&TagFilter::any());
    assert_eq!(keys.len(), 8);

    // The first pass warms whatever a read may lazily set up.
    let (expect, _) = read_week(&mem, &keys);
    assert_eq!(expect.0, 8 * 7 * 144);
    assert_eq!(read_week(&recovered, &keys).0, expect);

    let (seen, n) = read_week(&mem, &keys);
    assert_eq!((seen, n), (expect, 0), "range_for_each, in-memory store");
    let (seen, n) = read_week(&recovered, &keys);
    assert_eq!(
        (seen, n),
        (expect, 0),
        "range_for_each, store rebuilt by TsDb::recover"
    );
}

/// One hour-aligned `Sum` over the fortnight, and what it allocated.
fn hourly_sum(db: &TsDb) -> (Vec<DataPoint>, u64) {
    let f = TagFilter::any().event("md_reqs");
    let mut out = Vec::new();
    let n = allocs_in(|| out = db.aggregate(&f, Aggregation::Sum, 0, 14 * 86_400, 3600));
    (out, n)
}

#[test]
fn hourly_aggregate_over_sealed_blocks_allocates_its_buckets_only() {
    let (mem, recovered) = fortnight_in_memory_and_recovered(4);
    assert!(mem.n_sealed_blocks() >= 24, "the window is mostly sealed");
    assert_eq!(recovered.n_sealed_blocks(), mem.n_sealed_blocks());
    let (want, n) = hourly_sum(&mem);
    assert_eq!(want.len(), 14 * 24);
    // Six samples an hour on each of two hosts.
    let total: f64 = want.iter().map(|p| p.v).sum();
    let expect: f64 = (0..14 * 144u64)
        .map(|i| 2.0 * (3.0 * (i % 144) as f64 + 0.25) + 300.0)
        .sum();
    assert_eq!(total, expect);
    assert_eq!(n, 1, "aggregate from rollups, in-memory store");
    let (got, n) = hourly_sum(&recovered);
    assert_eq!(got, want, "rollups rebuilt at recovery are the sealed ones");
    assert_eq!(
        n, 1,
        "aggregate from rollups, store rebuilt by TsDb::recover"
    );
}

#[test]
fn a_seal_allocates_the_block_and_nothing_else() {
    // The first seal grows the shard's encode scratch and the series'
    // block list; the second is the steady state.
    let n_pts = 2 * SEAL_THRESHOLD as u64;
    let db = TsDb::with_shards(1);
    let key = SeriesKey::new("c401-0000", "job", "table1", "gflops");
    for i in 0..n_pts - 1 {
        db.insert(key.clone(), i * 600, (i % 7) as f64);
    }
    assert_eq!(db.n_sealed_blocks(), 1);
    let sealing = key.clone();
    let n = allocs_in(|| db.insert(sealing, (n_pts - 1) * 600, 1.0));
    assert_eq!(db.n_sealed_blocks(), 2);
    assert_eq!(n, 1, "columns and rollup share the block's one buffer");
}

/// The `portal_read` store's shape: 64 hosts × 6 host series, and the
/// stored Fig. 5 panels of 200 jobs (six series per job host), about
/// 5,800 series over the default 8 shards. Every series holds a few
/// hours of points, far from its first seal.
fn portal_shaped() -> (TsDb, Vec<SeriesKey>) {
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
    let hosts: Vec<String> = (0..64).map(|h| format!("c402-{h:04}")).collect();
    let host_keys: Vec<SeriesKey> = hosts
        .iter()
        .flat_map(|h| HOST_SERIES.map(|(dt, ev)| SeriesKey::new(h, dt, "all", ev)))
        .collect();
    let mut state = 3u64;
    for i in 0..24u64 {
        for key in &host_keys {
            db.insert(key.clone(), i * 600, lcg(&mut state));
        }
    }
    for job in 0..200usize {
        let jobid = format!("{}", 7_000 + job);
        for r in 0..1 + job % 8 {
            let host = &hosts[(job * 13 + r) % hosts.len()];
            for ev in PANELS {
                let key = SeriesKey::new(host, "panel", &jobid, ev);
                for i in 0..12u64 {
                    db.insert(key.clone(), i * 600, lcg(&mut state));
                }
            }
        }
    }
    (db, host_keys)
}

#[test]
fn warm_insert_into_a_seen_series_does_not_allocate() {
    let (db, host_keys) = portal_shaped();
    assert!(db.n_series() > 5_000, "{} series", db.n_series());
    let blocks = db.n_sealed_blocks();
    // One trickle tick: an hour of points on every host series.
    let mut state = 5u64;
    let mut inserted = 0;
    let n = allocs_in(|| {
        for i in 24..30u64 {
            for key in &host_keys {
                db.insert(key.clone(), i * 600, lcg(&mut state));
                inserted += 1;
            }
        }
    });
    assert_eq!(inserted, 2_304);
    assert_eq!(db.n_sealed_blocks(), blocks, "the tick seals nothing");
    assert_eq!(n, 0, "TsDb::insert into seen series, no seal");
}
