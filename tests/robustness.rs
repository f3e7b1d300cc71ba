//! Robustness property tests: the parsers never panic on hostile input,
//! and the scheduler never violates its allocation invariants under
//! random workloads.

use bytes::Bytes;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use tacc_stats::collect::daemon::{Publisher, TaccStatsd};
use tacc_stats::collect::discovery::{discover, BuildOptions};
use tacc_stats::collect::engine::Sampler;
use tacc_stats::collect::record::RawFile;
use tacc_stats::jobdb::Database;
use tacc_stats::scheduler::job::{JobRequest, JobStatus, QueueName};
use tacc_stats::scheduler::sched::{SchedEvent, Scheduler};
use tacc_stats::simnode::apps::AppModel;
use tacc_stats::simnode::pseudofs::NodeFs;
use tacc_stats::simnode::schema::Schema;
use tacc_stats::simnode::topology::NodeTopology;
use tacc_stats::simnode::{SimDuration, SimNode, SimTime};

/// A publisher that plays back a fault script, one byte per publish
/// attempt: 0 = success, 1 = request dropped (nothing arrives), 2 = ack
/// dropped (the message arrives but the sender sees failure). Past the
/// end of the script everything succeeds. Arrivals are logged in order.
struct ScriptedPublisher {
    script: Vec<u8>,
    pos: usize,
    log: Arc<Mutex<Vec<u64>>>,
}

impl Publisher for ScriptedPublisher {
    fn publish(&mut self, _queue: &str, _key: &str, seq: u64, _payload: Bytes) -> bool {
        let action = self.script.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        match action {
            1 => false,
            2 => {
                self.log.lock().unwrap().push(seq);
                false
            }
            _ => {
                self.log.lock().unwrap().push(seq);
                true
            }
        }
    }
}

proptest! {
    /// The raw-stats parser returns Ok or Err on *any* input — it never
    /// panics (the consumer feeds it whatever arrives off the network).
    #[test]
    fn rawfile_parse_never_panics(input in ".{0,400}") {
        let _ = RawFile::parse(&input);
    }

    /// Same with line-structured junk that *looks* like the format.
    #[test]
    fn rawfile_parse_survives_format_shaped_junk(
        lines in proptest::collection::vec(
            prop_oneof![
                Just("$tacc_stats 2.1".to_string()),
                Just("$hostname h".to_string()),
                Just("$arch sandybridge".to_string()),
                Just("!mdc reqs,E,C,64 wait,US,C,64".to_string()),
                Just("1443657600 3001".to_string()),
                Just("mdc scratch 1 2".to_string()),
                Just("mdc scratch 1".to_string()),
                Just("%begin 3001".to_string()),
                Just("ps 1 x 2 3".to_string()),
                "[a-z0-9 .$!%-]{0,40}",
            ],
            0..25,
        )
    ) {
        let text = lines.join("\n");
        let _ = RawFile::parse(&text);
    }

    /// The database parser likewise never panics.
    #[test]
    fn database_parse_never_panics(input in ".{0,400}") {
        let _ = Database::parse(&input);
    }

    /// The schema parser never panics.
    #[test]
    fn schema_parse_never_panics(input in ".{0,200}") {
        let _ = Schema::parse(&input);
    }

    /// Scheduler invariants under random submission streams:
    /// * a node is never allocated to two running jobs at once,
    /// * every started job eventually ends,
    /// * queue waits are non-negative and starts respect submission.
    #[test]
    fn scheduler_never_double_allocates(
        jobs in proptest::collection::vec((1usize..6, 60u64..4000, 0u64..5000), 1..40),
        n_nodes in 4usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = NodeTopology::stampede();
        let mut sched = Scheduler::new(n_nodes, 0);
        let mut submissions: Vec<(u64, JobRequest)> = jobs
            .iter()
            .map(|(n, runtime, submit)| {
                let n = (*n).min(n_nodes);
                let app = AppModel::python().instantiate(&mut rng, n, 16, &topo);
                (
                    *submit,
                    JobRequest {
                        user: "p".into(),
                        uid: 5000,
                        account: "TG".into(),
                        job_name: "p".into(),
                        queue: QueueName::Normal,
                        n_nodes: n,
                        wayness: 16,
                        runtime: SimDuration::from_secs(*runtime),
                        will_fail: false,
                        idle_nodes: 0,
                        app,
                    },
                )
            })
            .collect();
        submissions.sort_by_key(|(t, _)| *t);
        let total = submissions.len();
        let mut iter = submissions.into_iter().peekable();
        let mut started = 0usize;
        let mut ended = 0usize;
        let mut t = 0u64;
        // Step until drained (bounded: total work is finite).
        for _ in 0..100_000 {
            while iter.peek().map(|(st, _)| *st <= t).unwrap_or(false) {
                let (_, req) = iter.next().unwrap();
                sched.submit(req, SimTime::from_secs(t));
            }
            for ev in sched.step(SimTime::from_secs(t)) {
                match ev {
                    SchedEvent::Started(_) => started += 1,
                    SchedEvent::Ended(_) => ended += 1,
                }
            }
            // Invariant: no node hosts two running jobs.
            let mut owner: HashMap<usize, u64> = HashMap::new();
            for j in sched.running() {
                prop_assert!(j.start.as_secs() >= j.submit.as_secs());
                for node in &j.nodes {
                    prop_assert!(
                        owner.insert(*node, j.id).is_none(),
                        "node {node} double-allocated at t={t}"
                    );
                    prop_assert!(*node < n_nodes);
                }
            }
            if iter.peek().is_none() && sched.queued() == 0 && sched.running().next().is_none() {
                break;
            }
            t += 60;
        }
        prop_assert_eq!(started, total, "all jobs must start");
        prop_assert_eq!(ended, total, "all jobs must end");
        for j in sched.drain_finished() {
            prop_assert_eq!(j.status, JobStatus::Completed);
            prop_assert!(j.end >= j.start);
        }
    }

    /// Spool-and-replay invariants under arbitrary fault schedules and
    /// spool capacities:
    /// * messages first arrive in strictly increasing sequence order
    ///   (replays preserve per-host order; duplicates come later),
    /// * after the faults clear and the spool drains, every sequence
    ///   number is accounted for: it arrived at least once, or it sits
    ///   in the overflow-eviction ledger — never silently gone.
    #[test]
    fn spool_replay_conserves_and_orders(
        script in proptest::collection::vec(0u8..3, 0..60),
        capacity in 1usize..8,
        ticks in 1u64..25,
    ) {
        let node = SimNode::new("c401-0001", NodeTopology::stampede());
        let fs = NodeFs::new(&node);
        let cfg = discover(&fs, BuildOptions::default()).unwrap();
        let sampler = Sampler::new("c401-0001", &cfg);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut d = TaccStatsd::new(
            sampler,
            SimDuration::from_mins(10),
            "stats",
            Box::new(ScriptedPublisher { script, pos: 0, log: Arc::clone(&log) }),
            SimTime::from_secs(0),
        );
        d.set_spool_config(capacity).unwrap();
        let mut t = 0u64;
        for _ in 0..ticks {
            d.tick(&fs, SimTime::from_secs(t));
            t += 600;
        }
        // Keep ticking until the script is exhausted (after which every
        // publish succeeds) and the spool drains. Backoff is capped at
        // 5 min < the 10-minute tick, so each tick consumes at least
        // one script byte; 100 ticks covers the longest script.
        for _ in 0..100 {
            if d.spool().is_empty() {
                break;
            }
            d.tick(&fs, SimTime::from_secs(t));
            t += 600;
        }
        prop_assert!(d.spool().is_empty(), "spool must drain once faults clear");

        let log = log.lock().unwrap();
        // Order: first occurrences strictly increasing.
        let mut seen = HashSet::new();
        let mut last_first: Option<u64> = None;
        for &seq in log.iter() {
            if seen.insert(seq) {
                prop_assert!(
                    last_first.map(|p| seq > p).unwrap_or(true),
                    "first arrivals out of order: {:?}",
                    &*log
                );
                last_first = Some(seq);
            }
        }
        // Conservation: every sequence number either arrived or was
        // evicted into the accounted overflow ledger.
        let evicted: HashSet<u64> = d.spool().evicted().iter().copied().collect();
        for seq in 0..d.next_seq() {
            prop_assert!(
                seen.contains(&seq) || evicted.contains(&seq),
                "seq {seq} vanished silently (arrived: {}, evicted: {:?})",
                seen.len(),
                d.spool().evicted(),
            );
        }
        prop_assert_eq!(d.next_seq(), d.collected);
    }
}

// ---------------------------------------------------------------------
// Durable tsdb: kill-anywhere crash recovery
// ---------------------------------------------------------------------

mod durable_tsdb {
    use super::*;
    use tacc_stats::simnode::faults::DiskFaultPlan;
    use tacc_stats::tsdb::{Aggregation, DurOptions, MemVfs, SeriesKey, TagFilter, TsDb};

    const SHARDS: usize = 4;

    fn opts(sync_every: u64) -> DurOptions {
        DurOptions {
            sync_every,
            // Small enough that a full workload compacts several
            // times, so kill offsets land inside compaction too.
            compact_wal_bytes: 2_500,
        }
    }

    /// Fixed key set (interning is global; keep it bounded).
    fn keys() -> Vec<SeriesKey> {
        (0..8)
            .map(|i| {
                SeriesKey::new(
                    &format!("c40{}-00{}", i % 2, i % 4),
                    if i % 2 == 0 { "llite" } else { "ib" },
                    if i % 2 == 0 { "scratch" } else { "mlx4_0" },
                    if i % 3 == 0 { "open" } else { "rx_bytes" },
                )
            })
            .collect()
    }

    /// Ingest `per_series` increasing-t points per key. With
    /// `stop_on_error` the loop ends at the first disk fault (the
    /// kill model: the process dies with the disk); without it the
    /// faults are absorbed and ingest continues (the degraded-disk
    /// model). Returns points applied in memory.
    fn ingest(db: &TsDb, per_series: usize, stop_on_error: bool) -> u64 {
        ingest_every(db, per_series, 7, stop_on_error)
    }

    /// [`ingest`] at a cadence of `step` seconds.
    fn ingest_every(db: &TsDb, per_series: usize, step: u64, stop_on_error: bool) -> u64 {
        let keys = keys();
        let mut applied = 0;
        'outer: for p in 0..per_series {
            for (ki, k) in keys.iter().enumerate() {
                let r = db.try_insert(k.clone(), (p as u64) * step + 3, (p * 13 + ki) as f64);
                applied += 1;
                if r.is_err() && stop_on_error {
                    break 'outer;
                }
            }
        }
        applied
    }

    /// One series' points within `[t0, t1)`, in time order.
    fn range(db: &TsDb, key: &SeriesKey, t0: u64, t1: u64) -> Vec<(u64, f64)> {
        let mut out = Vec::new();
        db.range_for_each(key, t0, t1, |t, v| out.push((t, v)));
        out
    }

    /// Recovered contents must be, per series, an exact prefix of the
    /// never-crashed reference's insertion order. Returns total points.
    fn assert_prefix_of(recovered: &TsDb, reference: &TsDb) -> u64 {
        let mut total = 0;
        for k in reference.keys(&TagFilter::any()) {
            let want = range(reference, &k, 0, u64::MAX);
            let got = range(recovered, &k, 0, u64::MAX);
            assert!(
                got.len() <= want.len(),
                "{k}: more points than were written"
            );
            assert_eq!(got, want[..got.len()], "{k}: not an insertion prefix");
            total += got.len() as u64;
        }
        assert_eq!(total, recovered.n_points() as u64);
        total
    }

    proptest! {
        /// The tentpole property: seeded kill at ANY byte offset
        /// during ingest (appends, seal persists, compactions,
        /// manifest commits), then recovery from the crash image —
        /// under both crash models — loses at most the unsynced tail,
        /// and the conservation accounting balances exactly.
        #[test]
        fn kill_at_any_offset_recovers_all_but_unsynced_tail(
            seed in any::<u64>(),
            sync_every in 1u64..96,
        ) {
            let per_series = 140;
            let reference = TsDb::with_shards(SHARDS);
            ingest(&reference, per_series, false);

            // The workload appends a few tens of KB across WAL,
            // segment, and compaction traffic; offsets drawn past the
            // actual end just mean the disk never dies (the clean
            // case). No probe run needed.
            let kill_at = seed % 48_000;

            let vfs = Arc::new(MemVfs::with_faults(DiskFaultPlan::kill_at(kill_at)));
            let stats = match TsDb::recover(vfs.clone(), SHARDS, opts(sync_every)) {
                Ok((db, _)) => {
                    ingest(&db, per_series, true);
                    db.durability_stats().unwrap()
                }
                // The kill landed inside store creation; recovery
                // from the partial image must still work below.
                Err(_) => Default::default(),
            };

            // Crash model A: everything appended before the kill
            // offset survives, with a torn record at the boundary.
            let img = Arc::new(vfs.crash_image());
            let (back, report) = TsDb::recover(img, SHARDS, opts(sync_every)).unwrap();
            prop_assert!(report.balances(), "kill@{kill_at}: {report:?}");
            let recovered = assert_prefix_of(&back, &reference);
            prop_assert!(recovered >= stats.points_synced);
            prop_assert!(back.verify_segments().unwrap().is_clean());

            // Crash model B: power loss — only fsynced bytes survive,
            // plus a torn sliver of the unsynced tail. Loss is
            // bounded by sync_every per shard.
            let img = Arc::new(vfs.crash_image_dropping_unsynced((seed % 29) as usize));
            let (back, report) = TsDb::recover(img, SHARDS, opts(sync_every)).unwrap();
            prop_assert!(report.balances(), "power-loss@{kill_at}: {report:?}");
            let recovered = assert_prefix_of(&back, &reference);
            prop_assert!(recovered >= stats.points_synced);
            let lost = stats.points_appended.saturating_sub(recovered);
            prop_assert!(
                lost <= (SHARDS as u64) * sync_every + SHARDS as u64,
                "power-loss@{kill_at}: lost {lost} > {} shards x sync_every {sync_every}",
                SHARDS
            );
        }

        /// Rollups are derived, never persisted: after a kill at any
        /// offset, `aggregate` over the recovered store — whose blocks
        /// had their hour cells rebuilt by decoding — equals
        /// `aggregate` over an in-memory store fed exactly the
        /// surviving prefix, which built its cells at seal.
        #[test]
        fn aggregate_after_kill_equals_aggregate_of_surviving_prefix(seed in any::<u64>()) {
            // Long enough for every series to seal a block at the
            // paper's cadence, with a compaction threshold the
            // re-logged heads (≈ 23 B a point) stay under.
            let per_series = 700;
            let o = DurOptions { sync_every: 1 + seed % 64, compact_wal_bytes: 100_000 };
            let reference = TsDb::with_shards(SHARDS);
            ingest_every(&reference, per_series, 600, false);

            let kill_at = (seed >> 8) % 220_000;
            let vfs = Arc::new(MemVfs::with_faults(DiskFaultPlan::kill_at(kill_at)));
            if let Ok((db, _)) = TsDb::recover(vfs.clone(), SHARDS, o) {
                ingest_every(&db, per_series, 600, true);
            }
            let img = Arc::new(vfs.crash_image_dropping_unsynced((seed % 29) as usize));
            let (back, report) = TsDb::recover(img, SHARDS, o).unwrap();
            prop_assert!(report.balances(), "kill@{kill_at}: {report:?}");
            assert_prefix_of(&back, &reference);

            let prefix = TsDb::with_shards(SHARDS);
            for k in back.keys(&TagFilter::any()) {
                for (t, v) in range(&back, &k, 0, u64::MAX) {
                    prefix.insert(k.clone(), t, v);
                }
            }
            let f = TagFilter::any().dev_type("llite");
            for agg in [Aggregation::Sum, Aggregation::Avg, Aggregation::Max] {
                for (t0, t1) in [(0, u64::MAX), (7200, 250_000), (3600, 36_000)] {
                    // Integer values: exact whatever the block layout.
                    prop_assert_eq!(
                        back.aggregate(&f, agg, t0, t1, 3600),
                        prefix.aggregate(&f, agg, t0, t1, 3600),
                        "kill@{}: {:?} [{}, {})", kill_at, agg, t0, t1
                    );
                }
            }
        }

        /// A hostile-but-alive disk (scattered short writes and fsync
        /// failures, no kill): the store absorbs every fault, keeps
        /// serving reads, and a clean flush afterwards makes the whole
        /// history durable.
        #[test]
        fn hostile_disk_never_loses_a_flushed_point(seed in any::<u64>()) {
            let per_series = 140;
            let reference = TsDb::with_shards(SHARDS);
            ingest(&reference, per_series, false);

            let mut plan = DiskFaultPlan::hostile(seed, 1_100);
            // Aim the faults at ingest, not at store creation (which
            // rightly refuses to open when its initial fsyncs fail).
            for o in plan.sync_fail_at.iter_mut() {
                *o += 32;
            }
            for o in plan.short_write_at.iter_mut() {
                *o += 32;
            }
            let vfs = Arc::new(MemVfs::with_faults(plan));
            let (db, _) = TsDb::recover(vfs.clone(), SHARDS, opts(16)).unwrap();
            let applied = ingest(&db, per_series, false);
            prop_assert_eq!(applied, reference.n_points() as u64);
            prop_assert_eq!(db.n_points(), reference.n_points(),
                "short writes and failed syncs must not stop ingest");
            // Faulted syncs may need a retry; the repair path must
            // eventually land every byte.
            let mut flushed = db.flush();
            for _ in 0..8 {
                if flushed.is_ok() {
                    break;
                }
                flushed = db.flush();
            }
            prop_assert!(flushed.is_ok(), "flush must succeed once faults pass");
            drop(db);

            // Restart on the persisted bytes (the plan's remaining
            // fault ordinals died with the process).
            let img = Arc::new(vfs.crash_image());
            let (back, report) = TsDb::recover(img, SHARDS, opts(16)).unwrap();
            prop_assert!(report.balances(), "{report:?}");
            let recovered = assert_prefix_of(&back, &reference);
            prop_assert_eq!(recovered, reference.n_points() as u64,
                "a flushed store reopens with every point");
        }
    }
}
