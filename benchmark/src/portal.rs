//! `portal_read`: one closed-loop client against a finished-jobs table,
//! a four-week sealed tsdb under a small memory budget, and stored
//! Fig. 5 panel series — `jobdb`, `portal` and the tsdb read side do all
//! the work, and after set-up no ingest layer does any.
//!
//! The mix has cache-fitting and cache-overflowing traffic on both
//! caches: searches and Fig. 4 requests draw Zipf(1.0) from 64
//! specs against a 32-entry `QueryCache`, and the host-week range scans
//! rotate over every host so the decoded-block working set exceeds the
//! shared `MemoryBudget`.
//!
//! Every answer is compared with a reference the harness computes by
//! brute force from the same generated inputs, without going through
//! `jobdb::Filter`, the fused scan, or the block decoder.

use crate::client::PortalClient;
use crate::common::{self, Fnv, Outcome, QueryLog, TickLog};
use crate::reference::{Expected, JobFacts, Spec};
use crate::trace::{self, Stage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use tacc_jobdb::Database;
use tacc_metrics::flags::FlagRules;
use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
use tacc_metrics::table1::{JobMetrics, MetricId};
use tacc_portal::cache::{CacheConfig, QueryCache};
use tacc_portal::detail::{render_job_detail, HostSeries, JobTimeSeries, PanelPoint};
use tacc_portal::search::SearchSpec;
use tacc_scheduler::job::{Job, JobStatus, QueueName};
use tacc_simnode::apps::{AppInstance, AppLibrary};
use tacc_simnode::mem::MemoryBudget;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::SimDuration;
use tacc_tsdb::{Aggregation, SeriesKey, TagFilter, TsDb};

/// The six host-level series kinds `(device type, event)`.
const SERIES: [(&str, &str); 6] = [
    ("mdc", "reqs"),
    ("mdc", "wait"),
    ("llite", "open_close"),
    ("lnet", "bytes"),
    ("cpustat", "user"),
    ("mem", "used"),
];

/// Seconds between points (the daemon cadence).
const STEP: u64 = 600;
/// Operations between two ticks of the live trickle.
const TRICKLE_EVERY: usize = 16;
/// Timestamps one trickle tick appends to every series (one hour).
const TRICKLE_POINTS: u64 = 6;
/// Points in one host-week.
const WEEK_POINTS: u64 = 7 * 24 * 6;
/// Distinct search specs.
const N_SPECS: usize = 64;
/// `QueryCache` entries — half the distinct specs, times two artefact
/// kinds, so the Zipf head fits and the tail evicts.
const CACHE_ENTRIES: usize = 32;
/// The jobs table never changes after set-up, so neither does the
/// ingest watermark the cache keys on.
const WATERMARK: u64 = 1;

#[derive(Clone, Copy)]
enum Kind {
    Search,
    Fig4,
    Detail,
    Range,
    Aggregate,
}

/// The operation mix, as a repeating schedule so every run issues
/// exactly the same share of each kind: 40 % search, 20 % Fig. 4, 25 %
/// host-week range scan, 5 % detail page, 10 % month aggregate. The
/// median operation falls in the middle of the range scans rather than
/// on the boundary between two kinds, where a one-point change in the
/// cache hit rate would move it by an order of magnitude.
const MIX: [Kind; 20] = {
    use Kind::{Aggregate as A, Detail as D, Fig4 as F, Range as R, Search as S};
    [S, F, R, S, A, R, S, F, S, R, D, S, F, R, S, A, S, F, R, S]
};

/// Sizes of one `portal_read` run.
#[derive(Clone, Debug)]
pub struct PortalParams {
    /// Seed for the job table, the spec thresholds and the Zipf draw.
    pub seed: u64,
    /// Finished jobs in the table.
    pub jobs: usize,
    /// Hosts in the tsdb.
    pub hosts: usize,
    /// Points per host series (four weeks at full size).
    pub points: u64,
    /// Jobs with stored Fig. 5 panel series.
    pub detail_jobs: usize,
    /// Untimed operations at the end of set-up.
    pub warmup_ops: usize,
    /// Measured operations.
    pub ops: usize,
    /// Record spans.
    pub traced: bool,
}

impl PortalParams {
    /// Sized for a window of about `seconds` on the reference host.
    pub fn sized(seed: u64, seconds: u64) -> PortalParams {
        PortalParams {
            seed,
            jobs: 20_000,
            hosts: 64,
            points: 4 * WEEK_POINTS,
            detail_jobs: 200,
            warmup_ops: 200,
            ops: (seconds as usize * 800).max(50),
            traced: false,
        }
    }
}

/// Zipf(1.0) over `n` ranks, by inversion of the cumulative weights.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = self.cumulative.last().copied().unwrap_or(1.0);
        let x = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c < x)
            .min(self.cumulative.len() - 1)
    }
}

/// Value of point `i` of series `k` on host `h`: integer-valued, so
/// sums are exact in `f64` whatever order the tsdb adds them in.
fn series_value(seed: u64, h: usize, k: usize, i: u64) -> f64 {
    (common::mix(&[seed, h as u64, k as u64, i]) % 100_000) as f64
}

/// The built fixture.
pub struct Portal {
    p: PortalParams,
    db: Database,
    specs: Vec<(SearchSpec, Expected)>,
    zipf: Zipf,
    tsdb: TsDb,
    budget: Arc<MemoryBudget>,
    client: PortalClient,
    keys: Vec<[SeriesKey; 6]>,
    /// `(job id, hosts)` of the jobs with stored panel series.
    detail_jobs: Vec<(String, usize)>,
    /// First rendered page per detail job, as `(length, checksum)`.
    detail_pages: Vec<Option<(usize, u64)>>,
    /// Expected aggregate per series kind, built on first use.
    aggregates: Vec<Option<Vec<(u64, f64)>>>,
    /// Timestamps the live trickle has appended past the back-fill.
    trickled: u64,
    ingest_us: f64,
    rng: StdRng,
    op: u64,
    detail_us: Vec<f64>,
    aggregate_us: Vec<f64>,
    range_ns: u64,
    range_points: u64,
}

impl Portal {
    /// Build the fixture and run the warm-up operations.
    pub fn setup(p: &PortalParams) -> Portal {
        let seed = p.seed;
        let mut rng = StdRng::seed_from_u64(common::mix(&[seed, 10]));
        let topo = NodeTopology::stampede();
        let lib = AppLibrary::standard();
        let apps: Vec<AppInstance> = lib
            .entries()
            .iter()
            .map(|(m, _)| m.instantiate(&mut rng, 4, topo.n_cores(), &topo))
            .collect();
        let execs: Vec<String> = apps.iter().map(|a| a.exec_name().to_string()).collect();
        let t0 = common::t0();
        let span_secs = p.points * STEP;

        // --- jobs table ----------------------------------------------------
        let rules = FlagRules::default();
        let mut db = Database::new();
        let mut jobs = Vec::with_capacity(p.jobs);
        let job_apps = common::app_mix(&lib, p.jobs, &mut rng);
        let ingest = Instant::now();
        for (i, &exec) in job_apps.iter().enumerate() {
            let n_nodes = 1usize << rng.gen_range(0..7);
            let run_time = rng.gen_range(300..86_400u64);
            let wait = rng.gen_range(0..7_200u64);
            let submit = t0 + SimDuration::from_secs(rng.gen_range(0..span_secs));
            let start = submit + SimDuration::from_secs(wait);
            let status = match rng.gen_range(0..20) {
                0 => JobStatus::Failed,
                1 => JobStatus::Cancelled,
                _ => JobStatus::Completed,
            };
            let queue = match rng.gen_range(0..10) {
                0 => QueueName::LargeMem,
                1 | 2 => QueueName::Development,
                _ => QueueName::Normal,
            };
            let user = (rng.gen::<f64>().powi(2) * 200.0) as u32;
            let mut metrics = JobMetrics::new();
            for m in MetricId::ALL {
                // One job in ten is missing any given metric.
                if rng.gen_range(0..10) != 0 {
                    metrics.set(m, metric_value(m, &mut rng));
                }
            }
            let job = Job {
                id: 1 + i as u64,
                user: user_name(user),
                uid: 5000 + user,
                account: "TG-BENCH".to_string(),
                job_name: format!("job{i}"),
                exec: execs[exec].clone(),
                queue,
                n_nodes,
                wayness: topo.n_cores(),
                submit,
                start,
                end: start + SimDuration::from_secs(run_time),
                status,
                nodes: (0..n_nodes).collect(),
                idle_nodes: 0,
                app: apps[exec].clone(),
            };
            {
                let _span = trace::span(Stage::IngestJob);
                ingest_job(&mut db, &job, &metrics, &rules, 34.0);
            }
            jobs.push(JobFacts {
                id: job.id,
                exec: job.exec,
                user: job.user,
                queue: queue.name().to_string(),
                status: status.name().to_string(),
                start: start.as_secs() as i64,
                run_time: run_time as i64,
                metadata_rate: metrics.get(MetricId::MetaDataRate),
                cpu_usage: metrics.get(MetricId::CpuUsage),
            });
        }
        let ingest_us = ingest.elapsed().as_secs_f64() * 1e6 / p.jobs.max(1) as f64;

        // --- specs and their brute-force answers ---------------------------
        let specs = (0..N_SPECS)
            .map(|rank| {
                let spec = ranked_spec(rank, &mut rng, &execs, t0.as_secs() as i64, span_secs);
                (spec.to_search_spec(), spec.expected(&jobs))
            })
            .collect();

        // --- tsdb: four weeks of back-fill --------------------------------------
        let budget = Arc::new(MemoryBudget::new(1 << 20, 2 << 20));
        let tsdb = TsDb::new();
        tsdb.set_cache_budget(Arc::clone(&budget));
        let host_names = common::hostnames(seed, p.hosts);
        let keys: Vec<[SeriesKey; 6]> = host_names
            .iter()
            .map(|h| SERIES.map(|(dt, ev)| SeriesKey::new(h, dt, "all", ev)))
            .collect();
        for i in 0..p.points {
            let t = t0.as_secs() + i * STEP;
            for (h, host_keys) in keys.iter().enumerate() {
                for (k, key) in host_keys.iter().enumerate() {
                    tsdb.insert(key.clone(), t, series_value(seed, h, k, i));
                }
            }
        }

        // --- stored Fig. 5 panels -------------------------------------------
        let mut detail_jobs = Vec::with_capacity(p.detail_jobs);
        for d in 0..p.detail_jobs {
            let jobid = (1 + rng.gen_range(0..p.jobs.max(1))).to_string();
            let n_hosts = 1 + rng.gen_range(0..8usize).min(p.hosts.saturating_sub(1));
            let first = rng.gen_range(0..p.hosts);
            let n_points = rng.gen_range(12..72u64);
            let hosts = (0..n_hosts)
                .map(|r| {
                    let h = (first + r) % p.hosts;
                    HostSeries {
                        hostname: host_names[h].clone(),
                        points: (0..n_points)
                            .map(|i| {
                                let v = |salt: u64| {
                                    (common::mix(&[seed, d as u64, h as u64, i, salt]) % 10_000)
                                        as f64
                                        / 100.0
                                };
                                PanelPoint {
                                    t: t0.as_secs() + i * STEP,
                                    gflops: v(1),
                                    mbw_gbs: v(2),
                                    mem_gb: v(3),
                                    lustre_mbs: v(4),
                                    ib_mbs: v(5),
                                    cpu_user: v(6) / 100.0,
                                }
                            })
                            .collect(),
                    }
                })
                .collect();
            // A job id may be drawn twice; the second store would merge
            // into the first's series, so keep the first.
            if detail_jobs.iter().any(|(id, _)| *id == jobid) {
                continue;
            }
            JobTimeSeries {
                jobid: jobid.clone(),
                hosts,
            }
            .store(&tsdb);
            detail_jobs.push((jobid, n_hosts));
        }

        // The query cache gets a budget of its own: sharing the tsdb's
        // would let the rotating range scans evict every portal entry
        // under pressure, and the cache-fitting half of the traffic
        // would never hit.
        let mut cache = QueryCache::new(CacheConfig {
            capacity: CACHE_ENTRIES,
            ttl_secs: u64::MAX / 4,
        });
        cache.set_budget(Arc::new(MemoryBudget::new(1 << 20, 2 << 20)));

        let mut portal = Portal {
            p: p.clone(),
            db,
            specs,
            zipf: Zipf::new(N_SPECS),
            tsdb,
            budget,
            client: PortalClient::new(cache),
            keys,
            detail_pages: vec![None; detail_jobs.len()],
            detail_jobs,
            aggregates: vec![None; SERIES.len()],
            trickled: 0,
            ingest_us,
            rng: StdRng::seed_from_u64(common::mix(&[seed, 11])),
            op: 0,
            detail_us: Vec::new(),
            aggregate_us: Vec::new(),
            range_ns: 0,
            range_points: 0,
        };
        let mut scratch = Outcome::default();
        for _ in 0..p.warmup_ops {
            portal.one_op(&mut scratch);
        }
        assert!(
            scratch.violations.is_empty(),
            "warm-up answers differ from the reference: {:?}",
            scratch.violations
        );
        portal.reset_window_stats();
        portal
    }

    fn reset_window_stats(&mut self) {
        self.client.reset();
        self.detail_us.clear();
        self.aggregate_us.clear();
        self.range_ns = 0;
        self.range_points = 0;
    }

    /// One closed-loop operation from the seeded mix; returns its wall
    /// nanoseconds. The answer is checked after the clock stops.
    fn one_op(&mut self, out: &mut Outcome) -> u64 {
        let op = self.op;
        self.op += 1;
        trace::set_trace_id(op as u32);
        let now_secs = common::t0().as_secs() + op;
        match MIX[op as usize % MIX.len()] {
            Kind::Search => self.op_search(now_secs, out),
            Kind::Fig4 => self.op_fig4(now_secs, out),
            Kind::Detail => self.op_detail(out),
            Kind::Range => self.op_range(op, out),
            Kind::Aggregate => self.op_aggregate(op, out),
        }
    }

    fn op_search(&mut self, now_secs: u64, out: &mut Outcome) -> u64 {
        let (spec, want) = &self.specs[self.zipf.sample(&mut self.rng)];
        let table = self.db.table(JOBS_TABLE).expect("set-up ingested jobs");
        self.client
            .search(spec, want, table, WATERMARK, now_secs, out)
    }

    fn op_fig4(&mut self, now_secs: u64, out: &mut Outcome) -> u64 {
        let (spec, want) = &self.specs[self.zipf.sample(&mut self.rng)];
        let table = self.db.table(JOBS_TABLE).expect("set-up ingested jobs");
        self.client
            .fig4(spec, want, table, WATERMARK, now_secs, out)
    }

    fn op_detail(&mut self, out: &mut Outcome) -> u64 {
        out.attempted += 1;
        let d = self.rng.gen_range(0..self.detail_jobs.len().max(1));
        let Some((jobid, n_hosts)) = self.detail_jobs.get(d) else {
            return 0;
        };
        let t = Instant::now();
        let page = {
            let _root = trace::span(Stage::Op);
            let _span = trace::span(Stage::PortalDetail);
            render_job_detail(&self.tsdb, jobid)
        };
        let ns = t.elapsed().as_nanos() as u64;
        self.detail_us.push(ns as f64 / 1e3);
        let mut ck = Fnv::default();
        ck.push_bytes(page.as_bytes());
        let got = (page.len(), ck.0);
        // Title, then per panel a heading and one line per host.
        let lines = page.lines().count();
        let want_lines = 1 + 6 * (1 + n_hosts);
        let stable = *self.detail_pages[d].get_or_insert(got) == got;
        out.check(lines == want_lines && stable, || {
            format!(
                "detail page of job {jobid}: {lines} lines (want {want_lines}), same as first render: {stable}"
            )
        });
        ns
    }

    fn op_range(&mut self, op: u64, out: &mut Outcome) -> u64 {
        out.attempted += 1;
        // Hosts rotate, so successive scans decode different blocks and
        // the working set (every host's sealed blocks) exceeds the budget.
        let h = (op as usize * 7) % self.p.hosts;
        let k = (op as usize / 3) % SERIES.len();
        let weeks = (self.p.points / WEEK_POINTS).max(1);
        let w = op % weeks;
        let lo_i = w * WEEK_POINTS;
        let hi_i = (lo_i + WEEK_POINTS).min(self.p.points);
        let t0 = common::t0().as_secs();
        let (mut sum, mut n) = (0.0f64, 0u64);
        let t = Instant::now();
        {
            let _root = trace::span(Stage::Op);
            let _span = trace::span(Stage::TsdbRange);
            self.tsdb.range_for_each(
                &self.keys[h][k],
                t0 + lo_i * STEP,
                t0 + hi_i * STEP,
                |_, v| {
                    sum += v;
                    n += 1;
                },
            );
        }
        let ns = t.elapsed().as_nanos() as u64;
        self.range_ns += ns;
        self.range_points += n;
        let want: f64 = (lo_i..hi_i)
            .map(|i| series_value(self.p.seed, h, k, i))
            .sum();
        out.check(n == hi_i - lo_i && sum == want, || {
            format!(
                "range {} week {w}: {n} points summing to {sum}, reference {} summing to {want}",
                self.keys[h][k],
                hi_i - lo_i
            )
        });
        ns
    }

    fn op_aggregate(&mut self, op: u64, out: &mut Outcome) -> u64 {
        out.attempted += 1;
        let k = op as usize % SERIES.len();
        let (dt, ev) = SERIES[k];
        let filter = TagFilter::any().dev_type(dt).device("all").event(ev);
        let t0 = common::t0().as_secs();
        let t1 = t0 + self.p.points * STEP;
        let t = Instant::now();
        let got = {
            let _root = trace::span(Stage::Op);
            let _span = trace::span(Stage::TsdbAggregate);
            self.tsdb.aggregate(&filter, Aggregation::Sum, t0, t1, 3600)
        };
        let ns = t.elapsed().as_nanos() as u64;
        self.aggregate_us.push(ns as f64 / 1e3);
        let (seed, hosts, points) = (self.p.seed, self.p.hosts, self.p.points);
        let want = self.aggregates[k].get_or_insert_with(|| {
            // Six points per hour bucket per host, summed over hosts.
            (0..points.div_ceil(6))
                .map(|b| {
                    let sum: f64 = (b * 6..((b + 1) * 6).min(points))
                        .flat_map(|i| (0..hosts).map(move |h| series_value(seed, h, k, i)))
                        .sum();
                    (t0 + b * 3600, sum)
                })
                .collect()
        });
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(want.iter())
                .all(|(g, w)| g.t == w.0 && g.v == w.1);
        out.check(same, || {
            format!(
                "aggregate {dt}/{ev}: {} buckets, reference {}",
                got.len(),
                want.len()
            )
        });
        ns
    }

    /// The live trickle: the store the portal reads is still being written
    /// — one simulated hour of new points lands on every host and series,
    /// past the four weeks the queries look at. It is the only ingest in
    /// the window and touches the tsdb alone.
    fn trickle_tick(&mut self, out: &mut Outcome) {
        let t0 = common::t0().as_secs();
        let wall = Instant::now();
        {
            let _root = trace::span(Stage::Tick);
            let _span = trace::span(Stage::TsdbInsert);
            for i in self.p.points + self.trickled..self.p.points + self.trickled + TRICKLE_POINTS {
                for (h, host_keys) in self.keys.iter().enumerate() {
                    for (k, key) in host_keys.iter().enumerate() {
                        self.tsdb.insert(
                            key.clone(),
                            t0 + i * STEP,
                            series_value(self.p.seed, h, k, i),
                        );
                    }
                }
            }
        }
        self.trickled += TRICKLE_POINTS;
        out.ticks.push(
            wall.elapsed().as_nanos() as u64,
            (self.p.hosts as u64 * TRICKLE_POINTS) as u32,
        );
    }

    /// Run the measured window.
    pub fn run(mut self) -> Outcome {
        let p = self.p.clone();
        let mut out = Outcome {
            queries: QueryLog::with_capacity(p.ops),
            ticks: TickLog::with_capacity(p.ops / TRICKLE_EVERY + 1),
            tick_chunk: 24,
            ..Outcome::default()
        };
        if p.traced {
            trace::install(p.ops * 2 + p.ops / TRICKLE_EVERY * 2 + 16);
        }
        let cache_before = self.client.cache.stats();
        let tsdb_before = self.tsdb.cache_stats();
        let window = Instant::now();
        for i in 0..p.ops {
            if i % TRICKLE_EVERY == 0 {
                self.trickle_tick(&mut out);
            }
            let ns = self.one_op(&mut out);
            out.queries.ns.push(ns);
        }
        out.window_ns = window.elapsed().as_nanos() as u64;
        out.spans = trace::take();

        // Every host sample the back-fill and the trickle inserted must
        // be in the store (the range and aggregate references have been
        // checking the back-filled ones point for point).
        out.collected = p.hosts as u64 * (p.points + self.trickled);
        out.queryable =
            (self.tsdb.n_points() as u64).saturating_sub(self.panel_points()) / SERIES.len() as u64;
        let (queryable, collected) = (out.queryable, out.collected);
        out.check(queryable == collected, || {
            format!("tsdb holds {queryable} host samples, {collected} were inserted")
        });

        let cache = self.client.cache.stats();
        let tsdb_cache = self.tsdb.cache_stats();
        let median = crate::stats::median;
        let l = &mut out.layer;
        l.insert("metrics.ingest_job.us_per_job", self.ingest_us);
        self.client.layer(l);
        l.insert("portal.detail.us_p50", median(&self.detail_us));
        let (hits, misses) = (
            cache.hits - cache_before.hits,
            cache.misses - cache_before.misses,
        );
        l.insert(
            "portal.cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        l.insert(
            "portal.cache.pressure_evicted",
            (cache.pressure_evicted - cache_before.pressure_evicted) as f64,
        );
        l.insert(
            "tsdb.range.ns_per_point",
            self.range_ns as f64 / self.range_points.max(1) as f64,
        );
        l.insert("tsdb.aggregate.us_per_query", median(&self.aggregate_us));
        let (th, tm) = (
            tsdb_cache.hits - tsdb_before.hits,
            tsdb_cache.misses - tsdb_before.misses,
        );
        l.insert("tsdb.cache.hit_rate", th as f64 / (th + tm).max(1) as f64);
        l.insert(
            "tsdb.cache.evicted_pressure",
            (tsdb_cache.evicted_pressure - tsdb_before.evicted_pressure) as f64,
        );
        l.insert(
            "tsdb.cache.rejected",
            (tsdb_cache.rejected + cache.rejected) as f64,
        );
        l.insert("mem.budget.peak_bytes", self.budget.peak() as f64);
        l.insert("tsdb.seal.blocks", self.tsdb.n_sealed_blocks() as f64);
        l.insert(
            "tsdb.storage_bytes_per_point",
            self.tsdb.storage_bytes() as f64 / self.tsdb.n_points().max(1) as f64,
        );
        l.insert(
            "tsdb.insert.ns_per_point",
            out.ticks.total_ns() as f64
                / (out.ticks.total_samples() * SERIES.len() as u64).max(1) as f64,
        );
        l.insert("tsdb.seal.tick_ms_max", out.ticks.max_ms());
        out
    }

    /// Points the stored Fig. 5 panels added to the tsdb.
    fn panel_points(&self) -> u64 {
        let filter = TagFilter::any().dev_type("panel");
        self.tsdb
            .keys(&filter)
            .iter()
            .map(|k| self.tsdb.range_for_each(k, 0, u64::MAX, |_, _| {}) as u64)
            .sum()
    }
}

fn user_name(u: u32) -> String {
    format!("user{u:04}")
}

/// A plausible value for a Table I metric: log-uniform over a few
/// decades for rates, a fraction for the usage metrics.
fn metric_value(m: MetricId, rng: &mut StdRng) -> f64 {
    match m {
        MetricId::CpuUsage | MetricId::Idle | MetricId::MicUsage | MetricId::Catastrophe => {
            rng.gen::<f64>()
        }
        MetricId::VecPercent => rng.gen::<f64>() * 100.0,
        _ => 10f64.powf(rng.gen::<f64>() * 6.0),
    }
}

/// The spec of popularity rank `rank`. Its *shape* — which predicates,
/// and roughly what share of the table they pass — is a function of the
/// rank alone, so the Zipf head costs the same whatever the seed; the
/// seed jitters the thresholds (hence the fingerprints) and decides
/// which jobs satisfy them.
fn ranked_spec(rank: usize, rng: &mut StdRng, execs: &[String], t0: i64, span_secs: u64) -> Spec {
    let tier = rank / 8;
    let jitter = 1.0 + (rng.gen::<f64>() - 0.5) * 0.04;
    let exec = Some(execs[tier % execs.len()].clone());
    let metadata = Some(10f64.powf(1.0 + 0.5 * tier as f64) * jitter);
    let runtime = Some((600.0 * (1 + 4 * tier) as f64 * jitter) as i64);
    let mut s = Spec::default();
    match rank % 8 {
        0 => s.min_runtime = runtime,
        1 => s.exec = exec,
        2 => {
            s.queue = Some(QueueName::Normal.name().to_string());
            s.min_runtime = runtime;
        }
        3 => s.metadata_gte = metadata,
        4 => {
            s.status = Some(JobStatus::Completed.name().to_string());
            s.cpu_lt = Some((0.3 + 0.08 * tier as f64) * jitter);
        }
        5 => {
            s.start_after = Some(t0 + (span_secs as f64 * (tier + 1) as f64 / 10.0 * jitter) as i64)
        }
        6 => {
            s.exec = exec;
            s.metadata_gte = metadata;
        }
        _ => s.user = Some(user_name(tier as u32)),
    }
    s
}
