//! Stampede-scale soak engine (DESIGN.md §17): fleet-wide steady-state
//! throughput under backpressure and a fixed memory budget.
//!
//! [`run_soak`] steps `nodes` simulated hosts on a virtual clock at the
//! paper's daemon cadence. Each tick:
//!
//! 1. every host's `tacc_statsd` renders its sample through the
//!    zero-alloc codec and publishes to one bounded broker queue
//!    (admission control: [`ShedPolicy`] + [`Broker::lag`] watermarks),
//! 2. the consumer drains at a bounded per-tick budget — with periodic
//!    stall windows, so the queue genuinely backs up and the shed /
//!    backpressure machinery is exercised, not just present,
//! 3. consumed samples land in the archive (raw-byte retention cap)
//!    and mirror into the tsdb (per-shard decoded-block caches under
//!    the shared [`MemoryBudget`]),
//! 4. periodically the portal leg runs searches + Fig. 4 panels
//!    through a [`QueryCache`] on the same budget, and tsdb range
//!    queries decode sealed blocks through the governed block caches.
//!
//! After the measured window a **settle phase** runs with the broker
//! healthy, stalls off, and an unbounded consumer budget, so spools
//! replay and queues drain; only then is the conservation ledger
//! snapshotted.
//!
//! # Conservation identities ([`SoakOutcome::check`])
//!
//! Message-level, exact under *all* conditions (clean or faulted):
//!
//! ```text
//! offered   == published + shed_newest            (admission)
//! published == acked + depth + in_flight + shed_oldest
//! acked     == received + duplicates + parse_failures
//! ```
//!
//! Sample-level, exact on clean runs (no duplicate copies in flight):
//!
//! ```text
//! collected == received + shed_oldest + spooled + spool_evicted + lost
//! ```
//!
//! Under fault plans with ack drops, a sample can be retransmitted
//! while its first copy is still queued; a later `DropOldest` can then
//! shed a *copy* of a sample that was (or will be) received, so the
//! sample ledger's `unaccounted` slack is bounded by the overlap
//! candidates (`shed_oldest + spool_evicted + lost`) instead of zero.
//! The message-level identities stay exact either way.
//!
//! Memory governance is asserted, not hoped for: `budget.peak() <=
//! hard` holds by construction ([`MemoryBudget::try_grant`] refuses
//! past-hard grants), and zero `rejected` inserts across the governed
//! caches means eviction — never refusal — absorbed all pressure.

use bytes::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tacc_broker::{Broker, QueueStats, ShedPolicy};
use tacc_collect::consumer::StatsConsumer;
use tacc_collect::daemon::{Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::Sampler;
use tacc_collect::{Archive, RetentionStats, Sample};
use tacc_core::mem::{CacheCounters, MemoryBudget};
use tacc_jobdb::Database;
use tacc_metrics::flags::FlagRules;
use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
use tacc_metrics::table1::{JobMetrics, MetricId};
use tacc_portal::cache::{CacheConfig, CacheStats, QueryCache};
use tacc_portal::search::SearchSpec;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::{FaultPlan, SimClock, SimCluster, SimDuration, SimNode, SimTime};
use tacc_tsdb::{SeriesKey, TsDb};

/// The soak queue name.
const QUEUE: &str = "stats";

/// Soak run configuration. [`FleetConfig::smoke`] is the CI-sized
/// preset; the committed `BENCH_soak.json` uses [`FleetConfig::full`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Simulated hosts, each with its own daemon + spool.
    pub nodes: usize,
    /// Measured ticks (one sample per host per tick).
    pub ticks: u64,
    /// Sampling cadence in simulated seconds (the paper's daemon mode
    /// collects every 10 minutes).
    pub interval_secs: u64,
    /// Bounded ready-backlog of the stats queue, in messages.
    pub queue_capacity: usize,
    /// What the queue does at capacity.
    pub policy: ShedPolicy,
    /// Messages the consumer processes per tick outside stalls. Sized
    /// just above the production rate, so backlogs drain gradually and
    /// queueing latency is real.
    pub consumer_budget: usize,
    /// Every `stall_every` ticks the consumer stalls entirely for
    /// `stall_len` ticks (0 = never): the "consumer falls behind"
    /// scenario that forces admission control to act.
    pub stall_every: u64,
    /// Length of each stall in ticks.
    pub stall_len: u64,
    /// Soft memory threshold (bytes) for the shared cache budget.
    pub soft_bytes: u64,
    /// Hard memory threshold (bytes) — never exceeded.
    pub hard_bytes: u64,
    /// Raw-byte retention cap for the archive (0 = unlimited).
    pub archive_retention_bytes: usize,
    /// Run the portal + tsdb query leg every this many ticks (0 =
    /// never).
    pub query_every: u64,
    /// Distinct hosts whose series each query tick range-scans (sized
    /// so the decoded-block working set overflows the soft budget once
    /// blocks seal).
    pub query_hosts: u64,
    /// Finished jobs in the portal fixture table.
    pub portal_jobs: usize,
    /// Fault plan applied to the run (broker outages, node crashes,
    /// request/ack drops). [`FaultPlan::none`] for the clean leg.
    pub faults: FaultPlan,
    /// Extra settle ticks after the measured window (broker healthy,
    /// stalls off, unbounded consumer budget).
    pub settle_ticks: u64,
    /// Seed for host naming / fixture determinism.
    pub seed: u64,
}

impl FleetConfig {
    /// CI-sized soak: small fleet, short window, tight budget — runs
    /// in seconds, still crosses the soft threshold and sheds.
    pub fn smoke() -> FleetConfig {
        FleetConfig {
            nodes: 64,
            ticks: 48,
            interval_secs: 600,
            queue_capacity: 96,
            policy: ShedPolicy::DropOldest,
            consumer_budget: 80,
            stall_every: 12,
            stall_len: 3,
            soft_bytes: 8 << 10,
            hard_bytes: 64 << 10,
            archive_retention_bytes: 8 << 20,
            query_every: 4,
            query_hosts: 8,
            portal_jobs: 400,
            faults: FaultPlan::none(),
            settle_ticks: 12,
            seed: 42,
        }
    }

    /// The committed-benchmark scale: a Stampede-order fleet for a
    /// multi-day simulated window. Sealed tsdb blocks appear past tick
    /// ~512, so the decoded-block caches are live in the final third.
    pub fn full() -> FleetConfig {
        FleetConfig {
            nodes: 2048,
            ticks: 720,
            interval_secs: 600,
            queue_capacity: 3072,
            policy: ShedPolicy::DropOldest,
            consumer_budget: 2560,
            stall_every: 48,
            stall_len: 4,
            soft_bytes: 2 << 20,
            hard_bytes: 4 << 20,
            archive_retention_bytes: 64 << 20,
            query_every: 8,
            query_hosts: 16,
            portal_jobs: 2000,
            faults: FaultPlan::none(),
            settle_ticks: 24,
            seed: 42,
        }
    }
}

/// Fault-injecting broker transport for the fleet: drops publish
/// requests and acknowledgements per the plan's deterministic
/// per-`(seed, host, seq)` hashes. (Outage windows are driven by the
/// soak loop via [`Broker::stop`]/[`Broker::restart`], matching how
/// `MonitoringSystem` applies them.)
///
/// Drop decisions are pure in `(host, seq)` and the spool replays a
/// message under its *original* seq, so a dropped seq would jam
/// in-order replay forever. The shared `chaos_on` flag models the
/// network healing: the settle phase clears it, letting spools drain
/// so the ledger snapshot sees terminal states, not a stuck retry.
struct ChaosPublisher {
    broker: Broker,
    plan: Arc<FaultPlan>,
    chaos_on: Arc<AtomicBool>,
}

impl Publisher for ChaosPublisher {
    fn publish(&mut self, queue: &str, routing_key: &str, seq: u64, payload: Bytes) -> bool {
        let chaos = self.chaos_on.load(Ordering::Relaxed);
        if chaos && self.plan.drops_request(routing_key, seq) {
            return false;
        }
        let ok = self.broker.publish(queue, routing_key, payload);
        // Ack dropped: the broker kept the message, but the daemon sees
        // a failure and will retransmit — the duplicate the consumer's
        // sequence dedup exists for.
        if ok && chaos && self.plan.drops_ack(routing_key, seq) {
            return false;
        }
        ok
    }
}

/// Throughput over one third of the measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThirdStats {
    /// Samples the consumer processed during this third.
    pub received: u64,
    /// Wall-clock seconds the third took to drive.
    pub wall_secs: f64,
}

impl ThirdStats {
    /// Samples per wall-clock second.
    pub fn samples_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.received as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// End-to-end sample→queryable latency percentiles (simulated seconds
/// from collection to archive/tsdb availability).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50_secs: u64,
    /// 99th percentile.
    pub p99_secs: u64,
    /// Maximum observed.
    pub max_secs: u64,
}

/// Everything a soak run measures. All counters are post-settle.
#[derive(Clone, Debug, Default)]
pub struct SoakOutcome {
    /// Samples collected across the fleet (producer side).
    pub collected: u64,
    /// Unique samples the consumer archived.
    pub received: u64,
    /// Duplicate deliveries skipped by sequence dedup.
    pub duplicates: u64,
    /// Unparseable payloads (should be 0 — the fleet renders its own).
    pub parse_failures: u64,
    /// Arrival-order sequence gaps the consumer observed.
    pub gap_events: u64,
    /// Messages still spooled on nodes at snapshot.
    pub spooled: u64,
    /// Messages evicted from node spools (bounded-spool overflow).
    pub spool_evicted: u64,
    /// Messages wiped from spools by node crashes.
    pub lost: u64,
    /// Final stats of the bounded queue.
    pub queue: QueueStats,
    /// High-watermark ticks: how often [`Broker::lag`] reported high.
    pub high_watermark_ticks: u64,
    /// Peak queue depth observed at tick boundaries.
    pub peak_depth: usize,
    /// Throughput per third of the measured window.
    pub thirds: [ThirdStats; 3],
    /// Sample→queryable latency percentiles.
    pub latency: LatencyPercentiles,
    /// Peak tracked bytes against the budget.
    pub mem_peak: u64,
    /// The budget's soft threshold.
    pub mem_soft: u64,
    /// The budget's hard threshold.
    pub mem_hard: u64,
    /// Times usage first crossed the soft threshold.
    pub soft_events: u64,
    /// tsdb decoded-block cache counters (summed across shards).
    pub tsdb_cache: CacheCounters,
    /// Portal query-cache counters.
    pub portal_cache: CacheStats,
    /// Archive retention accounting.
    pub archive: RetentionStats,
    /// Total tsdb points inserted by the mirror.
    pub tsdb_points: u64,
}

impl SoakOutcome {
    /// Messages shed by admission control (either policy).
    pub fn shed(&self) -> u64 {
        self.queue.shed()
    }

    /// Sample-ledger slack: `collected - (received + shed_oldest +
    /// spooled + spool_evicted + lost)`. Zero on clean runs; under
    /// fault plans bounded by the duplicate-copy overlap (see module
    /// docs).
    pub fn unaccounted(&self) -> i64 {
        self.collected as i64
            - (self.received
                + self.queue.shed_oldest
                + self.spooled
                + self.spool_evicted
                + self.lost) as i64
    }

    /// Verify every identity that must hold for this run; returns the
    /// list of violated identities (empty == conserved). `clean` runs
    /// additionally require the exact sample-level ledger.
    pub fn check(&self, clean: bool) -> Vec<String> {
        let mut bad = Vec::new();
        let q = &self.queue;
        if q.offered != q.published + q.shed_newest {
            bad.push(format!(
                "offered {} != published {} + shed_newest {}",
                q.offered, q.published, q.shed_newest
            ));
        }
        let settled = q.acked + q.depth as u64 + q.in_flight as u64 + q.shed_oldest;
        if q.published != settled {
            bad.push(format!(
                "published {} != acked {} + depth {} + in_flight {} + shed_oldest {}",
                q.published, q.acked, q.depth, q.in_flight, q.shed_oldest
            ));
        }
        if q.acked != self.received + self.duplicates + self.parse_failures {
            bad.push(format!(
                "acked {} != received {} + duplicates {} + parse_failures {}",
                q.acked, self.received, self.duplicates, self.parse_failures
            ));
        }
        let unaccounted = self.unaccounted();
        if clean {
            if unaccounted != 0 {
                bad.push(format!("clean run unaccounted {unaccounted} != 0"));
            }
            if self.duplicates != 0 {
                bad.push(format!("clean run duplicates {} != 0", self.duplicates));
            }
        } else {
            let slack = (q.shed_oldest + self.spool_evicted + self.lost) as i64;
            if unaccounted < -slack || unaccounted > slack {
                bad.push(format!(
                    "faulted run |unaccounted {unaccounted}| > overlap bound {slack}"
                ));
            }
        }
        if self.mem_peak > self.mem_hard {
            bad.push(format!(
                "peak tracked bytes {} > hard {}",
                self.mem_peak, self.mem_hard
            ));
        }
        if self.tsdb_cache.rejected + self.portal_cache.rejected > 0 {
            bad.push(format!(
                "hard-threshold rejections: tsdb {} portal {}",
                self.tsdb_cache.rejected, self.portal_cache.rejected
            ));
        }
        bad
    }
}

/// Exact percentiles from a latency histogram (`delta_secs → count`).
fn percentiles(hist: &HashMap<u64, u64>) -> LatencyPercentiles {
    let total: u64 = hist.values().sum();
    if total == 0 {
        return LatencyPercentiles::default();
    }
    let mut deltas: Vec<(u64, u64)> = hist.iter().map(|(&d, &c)| (d, c)).collect();
    deltas.sort_unstable();
    let rank = |q: f64| -> u64 {
        let want = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(d, c) in &deltas {
            seen += c;
            if seen >= want {
                return d;
            }
        }
        deltas.last().map(|&(d, _)| d).unwrap_or(0)
    };
    LatencyPercentiles {
        p50_secs: rank(0.50),
        p99_secs: rank(0.99),
        max_secs: deltas.last().map(|&(d, _)| d).unwrap_or(0),
    }
}

/// The portal fixture: a finished-jobs table the query leg searches.
fn jobs_fixture(n: usize) -> Database {
    let mut db = Database::new();
    let rules = FlagRules::default();
    for id in 0..n as u64 {
        let job = crate::finished_job(
            id,
            if id % 3 == 0 {
                tacc_simnode::apps::AppModel::wrf()
            } else {
                tacc_simnode::apps::AppModel::namd()
            },
            2,
            30 + (id % 40) * 10,
        );
        let mut m = JobMetrics::new();
        m.set(MetricId::MetaDataRate, (id % 1000) as f64 * 600.0);
        m.set(MetricId::CpuUsage, 0.5 + (id % 50) as f64 * 0.01);
        ingest_job(&mut db, &job, &m, &rules, 34.0);
    }
    db
}

/// Mirror one consumed sample into the tsdb: per-device-type value
/// sums become (host, dev, "all", "sum") series — enough structure for
/// sealed blocks and cross-host aggregation without re-deriving the
/// full Table I pipeline per sample.
fn mirror_sample(tsdb: &TsDb, host: &str, sample: &Sample, points: &mut u64) {
    const MIRRORED: [DeviceType; 3] = [DeviceType::Cpustat, DeviceType::Mdc, DeviceType::Lnet];
    let t = sample.time.as_secs();
    for dt in MIRRORED {
        let mut sum = 0u64;
        let mut any = false;
        for rec in sample.devices_of(dt) {
            any = true;
            sum = sum.wrapping_add(rec.values.iter().copied().fold(0u64, u64::wrapping_add));
        }
        if any {
            let key = SeriesKey::new(host, dt.name(), "all", "sum");
            tsdb.insert(key, t, sum as f64);
            *points += 1;
        }
    }
}

/// Drive one soak run to completion. See the module docs for the
/// phases and the identities the returned [`SoakOutcome`] satisfies.
pub fn run_soak(cfg: &FleetConfig) -> SoakOutcome {
    let start = SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS);
    let interval = SimDuration::from_secs(cfg.interval_secs);
    let plan = Arc::new(cfg.faults.clone());

    // --- Fleet construction -------------------------------------------------
    let topo = NodeTopology::stampede();
    let hostnames: Vec<String> = (0..cfg.nodes)
        .map(|i| format!("c{}-{:04}", 400 + i / 1000, i % 1000))
        .collect();
    let nodes: Vec<SimNode> = hostnames
        .iter()
        .map(|h| SimNode::new(h, topo.clone()))
        .collect();
    let cluster = SimCluster::from_nodes(SimClock::starting_at(start), nodes);

    let broker = Broker::new();
    broker.declare_bounded(QUEUE, cfg.queue_capacity, cfg.policy);

    let archive = Arc::new(Archive::new());
    archive.set_retention_bytes(cfg.archive_retention_bytes);
    let mut consumer = match StatsConsumer::new(&broker, QUEUE, Arc::clone(&archive)) {
        Some(c) => c,
        None => return SoakOutcome::default(),
    };

    let chaos_on = Arc::new(AtomicBool::new(true));
    let mut daemons: Vec<TaccStatsd> = Vec::with_capacity(cfg.nodes);
    for node in cluster.nodes() {
        let guard = node.read();
        let fs = NodeFs::new(&guard);
        let Ok(ncfg) = discover(&fs, BuildOptions::default()) else {
            continue;
        };
        let sampler = Sampler::new(&guard.hostname, &ncfg);
        daemons.push(TaccStatsd::new(
            sampler,
            interval,
            QUEUE,
            Box::new(ChaosPublisher {
                broker: broker.clone(),
                plan: Arc::clone(&plan),
                chaos_on: Arc::clone(&chaos_on),
            }),
            start,
        ));
    }

    // --- Memory governance --------------------------------------------------
    let budget = Arc::new(MemoryBudget::new(cfg.soft_bytes, cfg.hard_bytes));
    let tsdb = TsDb::new();
    tsdb.set_cache_budget(Arc::clone(&budget));
    let mut qcache = QueryCache::new(CacheConfig {
        capacity: 256,
        ttl_secs: cfg.interval_secs * 64,
    });
    qcache.set_budget(Arc::clone(&budget));
    let portal_db = jobs_fixture(cfg.portal_jobs);
    let portal_table = portal_db.table(JOBS_TABLE);

    // --- Soak loop ----------------------------------------------------------
    let mut out = SoakOutcome {
        mem_soft: cfg.soft_bytes,
        mem_hard: cfg.hard_bytes,
        ..SoakOutcome::default()
    };
    let mut lat_hist: HashMap<u64, u64> = HashMap::new();
    let mut node_down: Vec<bool> = vec![false; daemons.len()];
    let third_len = (cfg.ticks / 3).max(1);
    let mut third_walls = [0.0f64; 3];
    let mut third_received = [0u64; 3];

    let consume = |consumer: &mut StatsConsumer,
                   budget_msgs: usize,
                   now: SimTime,
                   lat_hist: &mut HashMap<u64, u64>,
                   tsdb_points: &mut u64|
     -> u64 {
        let mut n = 0u64;
        for _ in 0..budget_msgs {
            let polled = consumer.poll_with(now, std::time::Duration::ZERO, |host, sample| {
                let delta = now.as_secs().saturating_sub(sample.time.as_secs());
                *lat_hist.entry(delta).or_insert(0) += 1;
                mirror_sample(&tsdb, host.as_str(), sample, tsdb_points);
            });
            if !polled {
                break;
            }
            n += 1;
        }
        n
    };

    for tick in 0..cfg.ticks {
        let now = start + SimDuration::from_secs(tick * cfg.interval_secs);
        let third = ((tick / third_len) as usize).min(2);
        let wall = Instant::now();

        // Broker outage windows.
        let down = plan.broker_down(now);
        if down != broker.is_stopped() {
            if down {
                broker.stop();
            } else {
                broker.restart();
            }
        }

        // Node crash / reboot transitions.
        for (daemon, down_flag) in daemons.iter_mut().zip(node_down.iter_mut()) {
            let host = daemon.sampler().header().hostname.as_str();
            let in_outage = plan
                .node_outages
                .iter()
                .any(|o| o.host == host && o.window.contains(now));
            if in_outage && !*down_flag {
                daemon.on_crash();
            } else if !in_outage && *down_flag {
                daemon.on_reboot(now);
            }
            *down_flag = in_outage;
        }

        // Advance the simulated hardware, then collect + publish.
        cluster.advance_all(interval, |_| None);
        for (i, daemon) in daemons.iter_mut().enumerate() {
            if node_down.get(i).copied().unwrap_or(false) {
                continue;
            }
            if let Some(node) = cluster.nodes().get(i) {
                let guard = node.read();
                let fs = NodeFs::new(&guard);
                daemon.tick(&fs, now);
            }
        }

        // Watermarks observed at the tick boundary (what a scheduler
        // would throttle on).
        if let Some(lag) = broker.lag(QUEUE) {
            out.peak_depth = out.peak_depth.max(lag.depth);
            if lag.high() {
                out.high_watermark_ticks += 1;
            }
        }

        // Consumer leg, stalled periodically.
        let stalled = cfg.stall_every > 0 && tick % cfg.stall_every < cfg.stall_len;
        if !stalled {
            let n = consume(
                &mut consumer,
                cfg.consumer_budget,
                now,
                &mut lat_hist,
                &mut out.tsdb_points,
            );
            if let Some(r) = third_received.get_mut(third) {
                *r += n;
            }
        }

        // Query leg: portal searches + tsdb range scans through the
        // budget-governed caches.
        if cfg.query_every > 0 && tick % cfg.query_every == 0 {
            let now_secs = now.as_secs();
            if let Some(table) = portal_table {
                let spec = SearchSpec {
                    exec: Some("wrf.exe".into()),
                    min_runtime_secs: Some(600 + (tick % 7) as i64 * 600),
                    ..Default::default()
                };
                let _ = qcache.search(&spec, table, None, 1, now_secs);
                let _ = qcache.fig4(&spec, table, None, 1, now_secs);
            }
            // Rotate hosts so the decoded-block working set exceeds the
            // budget once blocks seal (~tick 512 at SEAL_THRESHOLD).
            for k in 0..cfg.query_hosts {
                let idx = ((tick * cfg.query_hosts + k) as usize * 31) % hostnames.len().max(1);
                if let Some(host) = hostnames.get(idx) {
                    let key = SeriesKey::new(host, DeviceType::Mdc.name(), "all", "sum");
                    let mut acc = 0.0f64;
                    tsdb.range_for_each(&key, 0, u64::MAX, |_, v| acc += v);
                    std::hint::black_box(acc);
                }
            }
        }

        if let Some(w) = third_walls.get_mut(third) {
            *w += wall.elapsed().as_secs_f64();
        }
    }

    // --- Settle phase -------------------------------------------------------
    // Broker healthy, network healed, stalls off, unbounded consumer
    // budget: spools replay (collections continue at cadence — they
    // are counted), and the queue drains to empty before the ledger
    // snapshot.
    chaos_on.store(false, Ordering::Relaxed);
    if broker.is_stopped() {
        broker.restart();
    }
    for tick in cfg.ticks..cfg.ticks + cfg.settle_ticks {
        let now = start + SimDuration::from_secs(tick * cfg.interval_secs);
        for (i, daemon) in daemons.iter_mut().enumerate() {
            // Crashed-forever nodes stay down only while their outage
            // window lasts; reboot any stragglers for the settle.
            if node_down.get(i).copied().unwrap_or(false) {
                daemon.on_reboot(now);
                if let Some(f) = node_down.get_mut(i) {
                    *f = false;
                }
            }
            if let Some(node) = cluster.nodes().get(i) {
                let guard = node.read();
                let fs = NodeFs::new(&guard);
                daemon.tick(&fs, now);
            }
            // Consume alongside each host's replay burst: the settle
            // models a healthy consumer keeping pace, so replays are
            // not shed against the bounded queue they drained into.
            let _ = consume(
                &mut consumer,
                usize::MAX,
                now,
                &mut lat_hist,
                &mut out.tsdb_points,
            );
        }
    }
    // Final drain: anything the last replays enqueued.
    let drain_t =
        start + SimDuration::from_secs((cfg.ticks + cfg.settle_ticks) * cfg.interval_secs);
    let _ = consume(
        &mut consumer,
        usize::MAX,
        drain_t,
        &mut lat_hist,
        &mut out.tsdb_points,
    );

    // --- Ledger snapshot ----------------------------------------------------
    for daemon in &daemons {
        out.collected += daemon.collected;
        out.spooled += daemon.spool().len() as u64;
        out.spool_evicted += daemon.spool().evicted().len() as u64;
        out.lost += daemon.lost_seqs().len() as u64;
    }
    out.received = consumer.received;
    out.duplicates = consumer.duplicates;
    out.parse_failures = consumer.parse_failures;
    out.gap_events = consumer.gap_events;
    out.queue = broker
        .stats()
        .queues
        .get(QUEUE)
        .copied()
        .unwrap_or_default();
    for (i, w) in third_walls.iter().enumerate() {
        if let Some(t) = out.thirds.get_mut(i) {
            t.wall_secs = *w;
            t.received = third_received.get(i).copied().unwrap_or(0);
        }
    }
    out.latency = percentiles(&lat_hist);
    out.mem_peak = budget.peak();
    out.soft_events = budget.soft_events();
    out.tsdb_cache = tsdb.cache_stats();
    out.portal_cache = qcache.stats();
    out.archive = archive.retention_stats();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_conserves_and_stays_under_budget() {
        let cfg = FleetConfig {
            nodes: 12,
            ticks: 24,
            queue_capacity: 16,
            consumer_budget: 15,
            stall_every: 8,
            stall_len: 2,
            soft_bytes: 64 << 10,
            hard_bytes: 128 << 10,
            portal_jobs: 60,
            settle_ticks: 8,
            ..FleetConfig::smoke()
        };
        let out = run_soak(&cfg);
        assert_eq!(out.check(true), Vec::<String>::new());
        assert_eq!(out.collected, 12 * (24 + 8) as u64);
        assert!(out.received > 0);
        assert_eq!(out.queue.depth, 0, "settle drains the queue");
        assert_eq!(out.queue.in_flight, 0);
        assert!(out.shed() > 0, "stalls against a 16-deep queue must shed");
        assert!(out.latency.p99_secs >= out.latency.p50_secs);
        assert!(out.mem_peak <= cfg.hard_bytes);
    }

    #[test]
    fn reject_newest_pushes_load_into_spools_and_conserves() {
        let cfg = FleetConfig {
            nodes: 12,
            ticks: 24,
            queue_capacity: 16,
            policy: ShedPolicy::RejectNewest,
            consumer_budget: 15,
            stall_every: 8,
            stall_len: 3,
            portal_jobs: 40,
            settle_ticks: 10,
            ..FleetConfig::smoke()
        };
        let out = run_soak(&cfg);
        assert_eq!(out.check(true), Vec::<String>::new());
        assert!(out.queue.shed_newest > 0, "full queue must refuse");
        assert_eq!(out.queue.shed_oldest, 0);
        // Refused publishes spool and replay: nothing is lost, so the
        // only terminal non-received states are spool-side.
        assert_eq!(
            out.collected,
            out.received + out.spooled + out.spool_evicted
        );
    }

    #[test]
    fn faulted_soak_keeps_message_identities_exact() {
        let mut cfg = FleetConfig {
            nodes: 10,
            ticks: 30,
            queue_capacity: 24,
            consumer_budget: 14,
            stall_every: 10,
            stall_len: 2,
            portal_jobs: 40,
            settle_ticks: 12,
            ..FleetConfig::smoke()
        };
        let hosts: Vec<String> = (0..cfg.nodes)
            .map(|i| format!("c{}-{:04}", 400 + i / 1000, i % 1000))
            .collect();
        let start = SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS);
        let span = SimDuration::from_secs(cfg.ticks * cfg.interval_secs);
        cfg.faults = FaultPlan::hostile(7, &hosts, start, span);
        let out = run_soak(&cfg);
        assert_eq!(out.check(false), Vec::<String>::new());
        assert!(
            out.duplicates > 0 || out.lost > 0 || out.spool_evicted > 0,
            "a hostile plan should leave visible scars: {out:?}"
        );
    }
}
