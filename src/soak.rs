//! Stampede-scale soak engine (DESIGN.md §17): fleet-wide steady-state
//! throughput under backpressure and a fixed memory budget.
//! `tests/soak.rs` (tier-1) runs it at [`FleetConfig::smoke`] scale and
//! pins its outcome; `tacc-stats-sim soak` prints [`full_record`], the
//! committed `BENCH_soak.json`.
//!
//! [`run_soak`] drives a daemon-mode [`Pipeline`] (DESIGN.md §18) and
//! wires nothing of its own. On top of the pipeline's stages it adds a
//! consumer budget with periodic stalls (`drain(now, 0, …)`), so the
//! bounded queue backs up and admission control ([`ShedPolicy`],
//! [`tacc_broker::Broker::lag`] watermarks) acts; one [`MemoryBudget`]
//! shared by the tsdb's decoded-block caches and a portal
//! [`QueryCache`], which a query leg exercises every few ticks; and a
//! settle phase after the measured window — [`Pipeline::heal`], no
//! stalls, unbounded drains — so spools replay and the queue drains
//! before the conservation ledger is snapshotted.
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

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tacc_broker::{QueueStats, ShedPolicy};
use tacc_collect::{RetentionStats, Sample};
use tacc_core::{Mode, Pipeline, SystemConfig};
use tacc_jobdb::Database;
use tacc_metrics::flags::FlagRules;
use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
use tacc_metrics::table1::{JobMetrics, MetricId};
use tacc_portal::cache::{CacheConfig, CacheStats, QueryCache};
use tacc_portal::search::SearchSpec;
use tacc_simnode::mem::{CacheCounters, MemoryBudget};
use tacc_simnode::schema::DeviceType;
use tacc_simnode::{FaultPlan, SimDuration, SimTime};
use tacc_tsdb::{SeriesKey, TsDb};

/// The soak's daemon mode: a `stats` queue bounded at `capacity`.
fn stats_queue(capacity: usize, policy: ShedPolicy) -> Mode {
    Mode::Daemon {
        queue: "stats".to_string(),
        capacity,
        policy,
    }
}

/// Soak run configuration. [`FleetConfig::smoke`] is the tier-1
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
    /// The daemon-mode configuration: the stats queue, the bound on its
    /// ready backlog in messages, and what it does at the bound.
    pub mode: Mode,
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
    /// Seed of a [`FaultPlan::hostile`] plan (broker outages, a node
    /// crash, request/ack drops, device faults) over the fleet's
    /// hostnames and the measured window; `None` for the clean leg.
    pub hostile: Option<u64>,
    /// Extra settle ticks after the measured window (pipeline healed,
    /// stalls off, unbounded consumer budget).
    pub settle_ticks: u64,
}

impl FleetConfig {
    /// Test-sized soak: small fleet, short window, tight budget — runs
    /// in seconds, still crosses the soft threshold and sheds.
    pub fn smoke() -> FleetConfig {
        FleetConfig {
            nodes: 64,
            ticks: 48,
            interval_secs: 600,
            mode: stats_queue(96, ShedPolicy::DropOldest),
            consumer_budget: 80,
            stall_every: 12,
            stall_len: 3,
            soft_bytes: 8 << 10,
            hard_bytes: 64 << 10,
            archive_retention_bytes: 8 << 20,
            query_every: 4,
            query_hosts: 8,
            portal_jobs: 400,
            hostile: None,
            settle_ticks: 12,
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
            mode: stats_queue(3072, ShedPolicy::DropOldest),
            consumer_budget: 2560,
            stall_every: 48,
            stall_len: 4,
            soft_bytes: 2 << 20,
            hard_bytes: 4 << 20,
            archive_retention_bytes: 64 << 20,
            query_every: 8,
            query_hosts: 16,
            portal_jobs: 2000,
            hostile: None,
            settle_ticks: 24,
        }
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
    fn samples_per_sec(&self) -> f64 {
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
    /// High-watermark ticks: how often [`tacc_broker::Broker::lag`] reported high.
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
        let job = crate::claims::finished_job(
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

/// Drive one soak run to completion. See the module docs for the
/// phases and the identities the returned [`SoakOutcome`] satisfies.
pub fn run_soak(cfg: &FleetConfig) -> SoakOutcome {
    let interval = SimDuration::from_secs(cfg.interval_secs);
    let sys = SystemConfig {
        interval,
        enable_tsdb: true,
        ..SystemConfig::small(cfg.nodes, cfg.mode.clone())
    };
    let start = SystemConfig::START;
    let mut pipeline = Pipeline::new(&sys);
    let (Some(broker), Some(queue)) = (
        pipeline.broker().cloned(),
        pipeline.consumer().map(|c| c.queue().to_string()),
    ) else {
        return SoakOutcome::default();
    };
    let hostnames: Vec<String> = pipeline
        .headers()
        .iter()
        .map(|h| h.hostname.as_str().to_string())
        .collect();
    if let Some(seed) = cfg.hostile {
        let span = SimDuration::from_secs(cfg.ticks * cfg.interval_secs);
        pipeline.set_fault_plan(FaultPlan::hostile(seed, &hostnames, start, span));
    }
    pipeline
        .archive()
        .set_retention_bytes(cfg.archive_retention_bytes);

    // --- Memory governance --------------------------------------------------
    let budget = Arc::new(MemoryBudget::new(cfg.soft_bytes, cfg.hard_bytes));
    if let Some(tsdb) = pipeline.tsdb() {
        tsdb.set_cache_budget(Arc::clone(&budget));
    }
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
    let mut record = |now: SimTime, sample: &Sample| {
        let delta = now.as_secs().saturating_sub(sample.time.as_secs());
        *lat_hist.entry(delta).or_insert(0) += 1;
    };
    let at = |tick: u64| start + SimDuration::from_secs(tick * cfg.interval_secs);
    let third_len = (cfg.ticks / 3).max(1);
    for tick in 0..cfg.ticks {
        let now = at(tick);
        let wall = Instant::now();
        pipeline.apply_faults(now);
        pipeline.advance(interval, |_| None);
        pipeline.collect(now, |_, _, _| {});
        // Watermarks observed at the tick boundary (what a scheduler
        // would throttle on).
        if let Some(lag) = broker.lag(&queue) {
            out.peak_depth = out.peak_depth.max(lag.depth);
            out.high_watermark_ticks += u64::from(lag.high());
        }
        let stalled = cfg.stall_every > 0 && tick % cfg.stall_every < cfg.stall_len;
        let budget = if stalled { 0 } else { cfg.consumer_budget };
        let n = pipeline.drain(now, budget, |_, _, s| record(now, s));

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
                if let (Some(host), Some(tsdb)) = (hostnames.get(idx), pipeline.tsdb()) {
                    let key = SeriesKey::new(host, DeviceType::Mdc.name(), "all", "reqs");
                    let mut acc = 0.0f64;
                    tsdb.range_for_each(&key, 0, u64::MAX, |_, v| acc += v);
                    std::hint::black_box(acc);
                }
            }
        }

        let third = &mut out.thirds[((tick / third_len) as usize).min(2)];
        third.received += n as u64;
        third.wall_secs += wall.elapsed().as_secs_f64();
    }

    // --- Settle phase -------------------------------------------------------
    // Broker healthy, network healed, crashed nodes back, stalls off:
    // spools replay (collections continue at cadence — they are
    // counted), and a healthy consumer keeps pace with each host's
    // replay burst, so replays are not shed against the bounded queue
    // they drain into.
    pipeline.heal();
    for tick in cfg.ticks..cfg.ticks + cfg.settle_ticks {
        let now = at(tick);
        for i in 0..hostnames.len() {
            pipeline.collect_node(i, now, None, |_, _, _| {});
            pipeline.drain(now, usize::MAX, |_, _, s| record(now, s));
        }
    }
    // Final drain: anything the last replays enqueued.
    let end = at(cfg.ticks + cfg.settle_ticks);
    pipeline.drain(end, usize::MAX, |_, _, s| record(end, s));

    // --- Ledger snapshot ----------------------------------------------------
    for daemon in pipeline.daemons() {
        out.collected += daemon.collected;
        out.spooled += daemon.spool().len() as u64;
        out.spool_evicted += daemon.spool().evicted().len() as u64;
        out.lost += daemon.lost_seqs().len() as u64;
    }
    if let Some(consumer) = pipeline.consumer() {
        out.received = consumer.received;
        out.duplicates = consumer.duplicates;
        out.parse_failures = consumer.parse_failures;
        out.gap_events = consumer.gap_events;
    }
    out.queue = broker
        .stats()
        .queues
        .get(&queue)
        .copied()
        .unwrap_or_default();
    out.latency = percentiles(&lat_hist);
    out.mem_peak = budget.peak();
    out.soft_events = budget.soft_events();
    out.tsdb_cache = pipeline.tsdb().map(TsDb::cache_stats).unwrap_or_default();
    out.tsdb_points = pipeline.tsdb().map_or(0, |t| t.n_points() as u64);
    out.portal_cache = qcache.stats();
    out.archive = pipeline.archive().retention_stats();
    out
}

/// Final-third over first-third throughput: below 0.90 on the clean
/// leg, something slows as the run ages (the decoded-block caches are
/// live in the final third once series seal).
fn steady_state_ratio(out: &SoakOutcome) -> f64 {
    let first = out.thirds[0].samples_per_sec();
    if first > 0.0 {
        out.thirds[2].samples_per_sec() / first
    } else {
        0.0
    }
}

/// Run the committed record's two legs and render it as
/// `BENCH_soak.json`. The legs: `clean`, [`FleetConfig::full`] — 2,048
/// nodes for 720 ticks, five days at the paper's cadence — with
/// periodic consumer stalls so admission control sheds; and `faulted`,
/// the same fleet over half the window under a hostile [`FaultPlan`].
/// The second value lists every violated bar (empty == all held):
/// each leg's [`SoakOutcome::check`], the clean leg's steady-state
/// ratio ≥ 0.90, and shedding actually exercised.
pub fn full_record() -> (String, Vec<String>) {
    let clean_cfg = FleetConfig::full();
    let faulted_cfg = FleetConfig {
        ticks: 360,
        settle_ticks: 30,
        hostile: Some(42),
        ..clean_cfg.clone()
    };
    let leg = |label: &str, cfg: &FleetConfig| {
        let wall = Instant::now();
        let out = run_soak(cfg);
        let json = leg_json(label, cfg, &out, wall.elapsed().as_secs_f64());
        (out, json)
    };
    let (clean, clean_json) = leg("clean", &clean_cfg);
    let (faulted, faulted_json) = leg("faulted", &faulted_cfg);

    let clean_violations = clean.check(true);
    let faulted_violations = faulted.check(false);
    let ratio = steady_state_ratio(&clean);
    let mem_ok = [&clean, &faulted]
        .iter()
        .all(|o| o.mem_peak <= o.mem_hard && o.tsdb_cache.rejected + o.portal_cache.rejected == 0);
    let bars = [
        ("steady_ok", ratio >= 0.90),
        ("mem_ok", mem_ok),
        ("conserved_clean", clean_violations.is_empty()),
        ("conserved_faulted", faulted_violations.is_empty()),
        (
            "shed_exercised",
            clean.shed() > 0 || clean.high_watermark_ticks > 0,
        ),
    ];
    let acceptance: Vec<String> = bars
        .iter()
        .map(|(n, ok)| format!("\"{n}\": {ok}"))
        .collect();
    let json = format!(
        "{{\n  \"command\": \"tacc-stats-sim soak\",\n{clean_json},\n{faulted_json},\n  \"acceptance\": {{\n    \"steady_state_ratio\": {ratio:.3}, {}\n  }}\n}}\n",
        acceptance.join(", ")
    );
    let violations = bars
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(n, _)| format!("{n} is false"))
        .chain(clean_violations.iter().map(|v| format!("clean: {v}")))
        .chain(faulted_violations.iter().map(|v| format!("faulted: {v}")))
        .collect();
    (json, violations)
}

/// JSON object for one leg's outcome.
fn leg_json(label: &str, cfg: &FleetConfig, out: &SoakOutcome, wall_secs: f64) -> String {
    let sustained = if wall_secs > 0.0 {
        out.received as f64 / wall_secs
    } else {
        0.0
    };
    format!(
        "  \"{label}\": {{\n    \"nodes\": {}, \"ticks\": {}, \"interval_secs\": {}, \"wall_secs\": {:.2},\n    \"collected\": {}, \"received\": {}, \"duplicates\": {}, \"gap_events\": {},\n    \"shed_oldest\": {}, \"shed_newest\": {}, \"spooled\": {}, \"spool_evicted\": {}, \"lost\": {},\n    \"offered\": {}, \"published\": {}, \"acked\": {},\n    \"sustained_samples_per_sec\": {:.0},\n    \"thirds_samples_per_sec\": [{:.0}, {:.0}, {:.0}],\n    \"latency_secs\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n    \"queue\": {{\"capacity\": {}, \"peak_depth\": {}, \"high_watermark_ticks\": {}}},\n    \"memory\": {{\"soft\": {}, \"hard\": {}, \"peak\": {}, \"soft_events\": {}}},\n    \"tsdb_cache\": {{\"inserted\": {}, \"hits\": {}, \"evicted_lru\": {}, \"expired\": {}, \"evicted_pressure\": {}, \"rejected\": {}}},\n    \"portal_cache\": {{\"hits\": {}, \"misses\": {}, \"pressure_evicted\": {}, \"rejected\": {}}},\n    \"archive\": {{\"stored_bytes\": {}, \"retention_bytes\": {}, \"evicted_files\": {}, \"evicted_bytes\": {}}},\n    \"tsdb_points\": {}, \"unaccounted\": {}\n  }}",
        cfg.nodes,
        cfg.ticks,
        cfg.interval_secs,
        wall_secs,
        out.collected,
        out.received,
        out.duplicates,
        out.gap_events,
        out.queue.shed_oldest,
        out.queue.shed_newest,
        out.spooled,
        out.spool_evicted,
        out.lost,
        out.queue.offered,
        out.queue.published,
        out.queue.acked,
        sustained,
        out.thirds[0].samples_per_sec(),
        out.thirds[1].samples_per_sec(),
        out.thirds[2].samples_per_sec(),
        out.latency.p50_secs,
        out.latency.p99_secs,
        out.latency.max_secs,
        out.queue.capacity,
        out.peak_depth,
        out.high_watermark_ticks,
        out.mem_soft,
        out.mem_hard,
        out.mem_peak,
        out.soft_events,
        out.tsdb_cache.inserted,
        out.tsdb_cache.hits,
        out.tsdb_cache.evicted_lru,
        out.tsdb_cache.expired,
        out.tsdb_cache.evicted_pressure,
        out.tsdb_cache.rejected,
        out.portal_cache.hits,
        out.portal_cache.misses,
        out.portal_cache.pressure_evicted,
        out.portal_cache.rejected,
        out.archive.stored_bytes,
        out.archive.retention_bytes,
        out.archive.evicted_files,
        out.archive.evicted_bytes,
        out.tsdb_points,
        out.unaccounted(),
    )
}
