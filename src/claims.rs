//! The paper's claims, as one checked table: every table, figure and
//! headline number this repository reproduces is one [`Claim`] row of
//! [`CLAIMS`], measured over fixtures built once per process.
//! `tests/paper_claims.rs` checks every row ([`failures`]) and that the
//! committed EXPERIMENTS.md is exactly [`render_markdown`], which
//! `tacc-stats-sim experiments` prints; the CLI's `characterize` and the
//! examples call the same measures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::OnceLock;
use tacc_broker::Broker;
use tacc_collect::daemon::{LocalPublisher, SignalOutcome, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_core::config::{Mode, SystemConfig};
use tacc_core::online::{Alert, AlertKind, OnlineConfig};
use tacc_core::pipeline::sampler_for;
use tacc_core::population::{simulate_job, PopulationRunner};
use tacc_core::{AdaptiveConfig, MonitoringSystem};
use tacc_jobdb::{Database, Query, Row, Table};
use tacc_metrics::accum::JobAccum;
use tacc_metrics::flags::{Flag, FlagRules};
use tacc_metrics::ingest::{ingest_job, JOBS_TABLE};
use tacc_metrics::table1::{JobMetrics, MetricId};
use tacc_portal::detail::{JobTimeSeries, PanelPoint};
use tacc_portal::search::{JobList, SearchSpec};
use tacc_scheduler::job::{Job, JobRequest, JobStatus, QueueName};
use tacc_scheduler::procevents::{generate_churn, ChurnConfig, ProcEventKind};
use tacc_simnode::apps::AppModel;
use tacc_simnode::pool::WorkerPool;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::topology::{CpuArch, NodeTopology};
use tacc_simnode::workload::NodeDemand;
use tacc_simnode::{SimDuration, SimNode, SimTime};
use tacc_tsdb::stats::pearson;
use tacc_tsdb::{Aggregation, TagFilter};

/// Whether a row's measure must land inside its band (`Reproduced`) or
/// outside it (`Diverges`: a known divergence from the paper, so a change
/// that closes the gap fails loudly and the row is promoted on purpose).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Reproduced,
    Diverges,
}

/// The values a claim accepts: `Within(lo, hi)` is `lo <= v < hi`, the
/// others compare `v` with one bound.
#[derive(Clone, Copy, Debug)]
pub enum Band {
    Within(f64, f64),
    Above(f64),
    Below(f64),
    AtLeast(f64),
    AtMost(f64),
    Exactly(f64),
}

impl Band {
    /// Whether `v` is inside the band (never for NaN).
    pub fn holds(self, v: f64) -> bool {
        match self {
            Band::Within(lo, hi) => lo <= v && v < hi,
            Band::Above(x) => v > x,
            Band::Below(x) => v < x,
            Band::AtLeast(x) => v >= x,
            Band::AtMost(x) => v <= x,
            Band::Exactly(x) => v == x,
        }
    }

    fn render(self, unit: Unit) -> String {
        let f = |x| unit.render(x);
        match self {
            Band::Within(lo, hi) => format!("[{}, {})", f(lo), f(hi)),
            Band::Above(x) => format!("> {}", f(x)),
            Band::Below(x) => format!("< {}", f(x)),
            Band::AtLeast(x) => format!("≥ {}", f(x)),
            Band::AtMost(x) => format!("≤ {}", f(x)),
            Band::Exactly(x) => format!("= {}", f(x)),
        }
    }
}

/// How a value and its band are printed: `Num(d)` with `d` decimals and
/// thousands grouped, `Pct(d)` a fraction as a percentage.
#[derive(Clone, Copy, Debug)]
pub enum Unit {
    Num(usize),
    Pct(usize),
}

impl Unit {
    /// `v` as EXPERIMENTS.md prints it.
    pub fn render(self, v: f64) -> String {
        match self {
            Unit::Num(d) => grouped(v, d),
            Unit::Pct(d) => format!("{} %", grouped(v * 100.0, d)),
        }
    }
}

/// One checked claim: a stable `id`, the key of the EXPERIMENTS.md
/// `section` it is printed under, the `quantity` measured (with unit), what the
/// `paper` says, the `measure` recomputing it on the simulated cluster,
/// the `band` of accepted values, how it prints, and its `status`.
pub struct Claim {
    pub id: &'static str,
    pub section: &'static str,
    pub quantity: &'static str,
    pub paper: &'static str,
    pub measure: fn() -> f64,
    pub band: Band,
    pub unit: Unit,
    pub status: Status,
}

impl Claim {
    /// `Ok` when `value` is inside the band of a reproduced row or outside
    /// that of a divergence; a NaN (nothing measured) always fails.
    pub fn check(&self, value: f64) -> Result<(), String> {
        let (inside, status) = (self.band.holds(value), self.status);
        if !value.is_nan() && inside == (status == Status::Reproduced) {
            return Ok(());
        }
        let (id, band) = (self.id, self.band.render(self.unit));
        let place = if inside { "inside" } else { "outside" };
        let measured = format!("measured {} ({value})", self.unit.render(value));
        Err(format!(
            "{id}: {measured} is {place} its band {band}, but the row is {status:?}"
        ))
    }
}

/// `$init`, evaluated once per process.
macro_rules! memo {
    ($ty:ty, $init:expr) => {{
        static CELL: OnceLock<$ty> = OnceLock::new();
        CELL.get_or_init(|| $init)
    }};
}

/// Every claim's measured value, in [`CLAIMS`] order, computed once; the
/// largest fixture builds on its own thread while the others run.
pub fn measured() -> &'static [f64] {
    memo!(Vec<f64>, {
        std::thread::scope(|s| {
            s.spawn(q4_population);
            CLAIMS.iter().map(|c| (c.measure)()).collect()
        })
    })
}

/// One message per row whose measure is not where its status says.
pub fn failures() -> Vec<String> {
    let checks = CLAIMS.iter().zip(measured()).map(|(c, v)| c.check(*v));
    checks.filter_map(Result::err).collect()
}

// ---- Measures shared with the CLI and the examples ----

/// The user whose WRF jobs storm the metadata server (§V-B, Figs. 4–5).
pub const STORM_USER: &str = "user9999";

/// The five §V-A searches: label, the paper's share, and the Django
/// keyword and threshold of the portal search.
pub const CHARACTERIZATION: [(&str, &str, &str, f64); 5] = [
    ("MIC use > 1 % of CPU time", "1.3 %", "MIC_Usage__gt", 0.01),
    ("vectorized FP > 1 %", "52 %", "VecPercent__gt", 1.0),
    ("vectorized FP > 50 %", "25 %", "VecPercent__gt", 50.0),
    ("memory use > 20 GB of 32 GB", "3 %", "MemUsage__gt", 20.0),
    ("jobs with idle nodes", "over 2 %", "idle__lt", 0.05),
];

/// Share of the jobs in `t` matching `keyword threshold`.
pub fn share(t: &Table, keyword: &str, threshold: f64) -> f64 {
    let matching = Query::new(t).filter_kw(keyword, threshold).count();
    matching.unwrap_or(0) as f64 / t.len() as f64
}

/// The §V-B correlation metrics and the paper's r(CPU_Usage, metric).
pub const CORRELATIONS: [(&str, f64); 3] =
    [("MDCReqs", -0.11), ("OSCReqs", -0.20), ("LnetAveBW", -0.19)];

/// §V-B: the number of production jobs in `t` (completed, production
/// queues, runtime ≥ 1 h) and r(CPU_Usage, metric) over them for each of
/// [`CORRELATIONS`] (NaN where undefined).
pub fn lustre_correlations(t: &Table) -> (usize, [f64; 3]) {
    let rows = Query::new(t)
        .filter_kw("status", "completed")
        .filter_kw("queue__ne", "development")
        .filter_kw("run_time__gte", 3600i64)
        .rows()
        .unwrap_or_default();
    let col = |name: &str| t.schema().index_of(name);
    let r = CORRELATIONS.map(|(metric, _)| {
        let (Some(cpu), Some(m)) = (col("CPU_Usage"), col(metric)) else {
            return f64::NAN;
        };
        let pair = |r: &&Row| Some((r.get(cpu).as_f64()?, r.get(m).as_f64()?));
        let pairs: Vec<(f64, f64)> = rows.iter().filter_map(pair).collect();
        pearson(&pairs).unwrap_or(f64::NAN)
    });
    (rows.len(), r)
}

/// §V-B's ORM aggregation: the mean of `column` over [`STORM_USER`]'s
/// jobs and over every other WRF job (NaN where empty).
pub fn user_vs_population(t: &Table, column: &str) -> (f64, f64) {
    let avg = |q: Query| q.avg(column).ok().flatten().unwrap_or(f64::NAN);
    let user = Query::new(t).filter_kw("user", STORM_USER);
    let others = Query::new(t).filter_kw("exec", "wrf.exe");
    (avg(user), avg(others.filter_kw("user__ne", STORM_USER)))
}

/// The two-week WRF population of Fig. 4: 558 jobs over 10 minutes, the
/// last four from [`STORM_USER`] (seed 558).
pub fn wrf_population() -> &'static Database {
    memo!(Database, {
        let (topo, mut rng) = (NodeTopology::stampede(), StdRng::seed_from_u64(558));
        let models = [AppModel::wrf(), AppModel::wrf_metadata_storm()];
        let job = |i: u64| {
            let storm = i >= 554;
            let n_nodes = if storm { 4 } else { 1 << rng.gen_range(0..5) };
            let runtime = rng.gen_range(15..600);
            let model = models[usize::from(storm)].clone();
            let mut job = finished_job(i, model, n_nodes, runtime);
            if storm {
                (job.user, job.uid) = (STORM_USER.to_string(), 9999);
            }
            (job, (runtime / 10).clamp(3, 30) as usize)
        };
        let jobs: Vec<(Job, usize)> = (0..558).map(job).collect();
        // Jobs share nothing: simulate chunks on the pool, ingest in order.
        let pool = WorkerPool::new(std::thread::available_parallelism().map_or(1, |p| p.get()));
        let chunk = jobs.len().div_ceil(pool.workers());
        let metrics = pool.map_parts(jobs.len().div_ceil(chunk), |part, _| {
            let mine = jobs.chunks(chunk).nth(part).unwrap_or_default();
            let simulate = |(job, interior): &(Job, usize)| simulate_job(job, &topo, *interior);
            mine.iter().map(simulate).collect::<Vec<_>>()
        });
        let (mut db, mem_gb) = (Database::new(), topo.memory_bytes as f64 / 1e9);
        for ((job, _), m) in jobs.iter().zip(metrics.iter().flatten()) {
            ingest_job(&mut db, job, m, &FlagRules::default(), mem_gb);
        }
        db
    })
}

/// The Q4-2015-shaped population of §V-A: 3,000 jobs, seed 51.
pub fn q4_population() -> &'static Database {
    memo!(Database, PopulationRunner::q4_2015(51, 3000).run().db)
}

// ---- Fixtures ----

fn jobs(db: &Database) -> &Table {
    db.table(JOBS_TABLE).expect("population has a jobs table")
}

fn t0() -> SimTime {
    SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS)
}

fn after_hours(hours: u64) -> SimTime {
    t0() + SimDuration::from_hours(hours)
}

fn request(seed: u64, model: AppModel, n_nodes: usize, runtime_mins: u64) -> JobRequest {
    let (mut rng, topo) = (StdRng::seed_from_u64(seed), NodeTopology::stampede());
    JobRequest {
        user: format!("user{seed:04}"),
        uid: 5000 + (seed % 1000) as u32,
        account: "TG-B".to_string(),
        job_name: "bench".to_string(),
        queue: QueueName::Normal,
        n_nodes,
        wayness: topo.n_cores(),
        runtime: SimDuration::from_mins(runtime_mins),
        will_fail: false,
        idle_nodes: 0,
        app: model.instantiate(&mut rng, n_nodes, topo.n_cores(), &topo),
    }
}

fn storm_request(seed: u64, n_nodes: usize, runtime_mins: u64) -> JobRequest {
    let mut req = request(seed, AppModel::wrf_metadata_storm(), n_nodes, runtime_mins);
    req.user = STORM_USER.to_string();
    req
}

/// A job that already ran from `t0()` (skips the scheduler).
pub(crate) fn finished_job(seed: u64, model: AppModel, n_nodes: usize, runtime_mins: u64) -> Job {
    let req = request(seed, model, n_nodes, runtime_mins);
    Job {
        id: 4000 + seed,
        exec: req.app.exec_name().to_string(),
        submit: t0(),
        start: t0(),
        end: t0() + req.runtime,
        status: JobStatus::Completed,
        nodes: (0..n_nodes).collect(),
        user: req.user,
        uid: req.uid,
        account: req.account,
        job_name: req.job_name,
        queue: req.queue,
        n_nodes: req.n_nodes,
        wayness: req.wayness,
        idle_nodes: req.idle_nodes,
        app: req.app,
    }
}

/// A small system running `jobs` from `t0()` for `hours`.
fn run_system(cfg: SystemConfig, jobs: Vec<(SimTime, JobRequest)>, hours: u64) -> MonitoringSystem {
    let mut sys = MonitoringSystem::new(cfg);
    sys.enqueue_jobs(jobs);
    sys.run_until(after_hours(hours));
    sys
}

fn table1_present() -> f64 {
    let job = finished_job(1, AppModel::wrf(), 4, 120);
    let metrics = simulate_job(&job, &NodeTopology::stampede(), 12);
    let present = MetricId::ALL.iter().filter(|m| metrics.get(**m).is_some());
    present.count() as f64
}

/// Figs. 1–2: two small jobs on 4 nodes for 30 h under each mode, and a
/// node crash after 3 h. `[cron mean lag h, cron max lag h, daemon mean
/// lag s, samples lost in cron mode, in daemon mode]`.
fn modes() -> &'static [f64; 5] {
    memo!([f64; 5], {
        let run = |mode: Mode, hours| {
            let namd = (t0(), request(1, AppModel::namd(), 2, 90));
            let python = (t0(), request(2, AppModel::python(), 1, 120));
            run_system(SystemConfig::small(4, mode), vec![namd, python], hours)
        };
        let cron = run(Mode::cron(), 30).archive().latency_stats();
        let daemon = run(Mode::daemon(), 30).archive().latency_stats().mean_secs;
        let lost = |mode| run(mode, 3).crash_node(0) as f64;
        let (mean, max) = (cron.mean_secs / 3600.0, cron.max_secs / 3600.0);
        [mean, max, daemon, lost(Mode::cron()), lost(Mode::daemon())]
    })
}

fn wrf_list() -> JobList<'static> {
    let mut spec = SearchSpec::default();
    (spec.exec, spec.min_runtime_secs) = (Some("wrf.exe".to_string()), Some(600));
    spec.run(jobs(wrf_population())).expect("WRF search runs")
}

/// Fig. 3: share of the storm user's WRF jobs on the query's
/// `HighMetadataRate` flagged sublist.
fn fig3_flagged() -> f64 {
    let list = wrf_list();
    let user = jobs(wrf_population()).schema().index_of("user");
    let storm = |rows: &[&Row]| {
        let is_storm = |r: &&&Row| user.and_then(|u| r.get(u).as_str()) == Some(STORM_USER);
        rows.iter().filter(is_storm).count() as f64
    };
    storm(&list.flagged_with(Flag::HighMetadataRate)) / storm(list.rows())
}

/// Fig. 4: `[metadata-rate outliers (> 1e5 req/s), peak ÷ bulk peak,
/// distinct outlier users]`.
fn fig4_outliers() -> [f64; 3] {
    let list = wrf_list();
    let (md, users) = (list.column("MetaDataRate"), list.column_str("user"));
    let (mut outliers, mut bulk, mut peak) = (Vec::new(), 0.0, 0.0);
    for (v, user) in md.iter().zip(&users) {
        if *v > 100_000.0 {
            outliers.push(user);
        } else {
            bulk = f64::max(bulk, *v);
        }
        peak = f64::max(peak, *v);
    }
    let distinct_users = outliers.iter().collect::<BTreeSet<_>>().len() as f64;
    let ratio = peak / f64::max(bulk, 1.0);
    [outliers.len() as f64, ratio, distinct_users]
}

/// Fig. 5: the 4-node storm job's detail page, `[hosts, max CPU user
/// fraction, max Lustre MB/s]`.
fn fig5() -> &'static [f64; 3] {
    memo!([f64; 3], {
        let jobs = vec![(t0(), storm_request(5, 4, 180))];
        let sys = run_system(SystemConfig::small(4, Mode::daemon()), jobs, 4);
        let raw = sys.archive().parse_all().expect("archive parses");
        let ts = JobTimeSeries::extract(&raw, "3000");
        let points = || ts.hosts.iter().flat_map(|h| &h.points);
        let max = |f: fn(&PanelPoint) -> f64| points().map(f).fold(0.0, f64::max);
        let hosts = ts.hosts.len() as f64;
        [hosts, max(|p| p.cpu_user), max(|p| p.lustre_mbs)]
    })
}

/// §III-B: `[architectures identified with the right RAPL presence,
/// IB/Phi/Lustre device types probed with all three options off]`.
fn discovery() -> [f64; 2] {
    use DeviceType::{Ib, Llite, Lnet, Mdc, Mic, Osc};
    let identified = |&&arch: &&CpuArch| {
        let hyperthreaded = matches!(arch, CpuArch::Nehalem | CpuArch::Haswell);
        let mut topo = NodeTopology::stampede();
        (topo.arch, topo.threads_per_core) = (arch, 1 + usize::from(hyperthreaded));
        topo.mic_cards = usize::from(arch == CpuArch::SandyBridge);
        topo.lustre_filesystems.truncate(1);
        let node = SimNode::new("probe", topo);
        let found = discover(&NodeFs::new(&node), BuildOptions::default());
        let rapl = |types: Vec<DeviceType>| types.contains(&DeviceType::Rapl);
        found.is_ok_and(|cfg| cfg.arch == arch && rapl(cfg.device_types()) == arch.has_rapl())
    };
    let node = SimNode::new("probe", NodeTopology::stampede());
    let mut off = BuildOptions::default();
    (off.infiniband, off.xeon_phi, off.lustre) = (false, false, false);
    let optional = [Ib, Mic, Llite, Mdc, Osc, Lnet];
    let gated = discover(&NodeFs::new(&node), off).map_or(f64::NAN, |cfg| {
        let types = cfg.device_types();
        types.iter().filter(|d| optional.contains(d)).count() as f64
    });
    let archs = CpuArch::HOST_ARCHS.iter().filter(|a| identified(a));
    [archs.count() as f64, gated]
}

/// §IV-A: one 5-hour WRF trajectory at 10-minute cadence, re-accumulated
/// from every 2nd, 5th and 15th sample (first and last kept). `[ARC
/// values not bit-identical to the full stream's, MetaDataRate at
/// 150-min windows ÷ at 10-min windows]`.
fn sampling_ablation() -> &'static [f64; 2] {
    memo!([f64; 2], {
        let (topo, mut rng) = (NodeTopology::stampede(), StdRng::seed_from_u64(31));
        let app = AppModel::wrf().instantiate(&mut rng, 1, topo.n_cores(), &topo);
        let mut node = SimNode::new("c1", topo);
        let mut sampler = sampler_for(&node);
        let (runtime, jobids, start) = (5 * 3600u64, ["1".to_string()], SimTime::from_secs(0));
        let mut samples = vec![sampler.sample(&NodeFs::new(&node), start, &jobids, &[])];
        for minute in 1..=runtime / 60 {
            let demand = app.demand(0, (minute * 60) as f64 / runtime as f64);
            node.advance(SimDuration::from_secs(60), &demand);
            if minute % 10 == 0 {
                let now = start + SimDuration::from_mins(minute);
                samples.push(sampler.sample(&NodeFs::new(&node), now, &jobids, &[]));
            }
        }
        let with_stride = |stride: usize| {
            let (mut acc, last) = (JobAccum::new(), samples.len() - 1);
            for (i, s) in samples.iter().enumerate() {
                if i % stride == 0 || i == last {
                    acc.feed(sampler.header(), s);
                }
            }
            acc.finalize()
        };
        let full = with_stride(1);
        let arc = [MetricId::MDCReqs, MetricId::CpuUsage, MetricId::VecPercent];
        let strided = [2, 5, 15].map(with_stride);
        let changed = |m: &JobMetrics| arc.map(|id| m.get(id) != full.get(id));
        let drifted = strided.iter().flat_map(changed).filter(|d| *d).count();
        let max_rate = |m: &JobMetrics| m.get(MetricId::MetaDataRate).unwrap_or(f64::NAN);
        [drifted as f64, max_rate(&strided[2]) / max_rate(&full)]
    })
}

/// Collection overhead on a Lonestar 5-class node: `[modelled cost of
/// one collection in s, overhead at 10-min sampling, at 500 ms]`.
fn overhead() -> &'static [f64; 3] {
    memo!([f64; 3], {
        let one_hour = |interval_ms: u64| {
            let mut node = SimNode::new("bench", NodeTopology::lonestar5());
            let mut s = sampler_for(&node);
            let interval = SimDuration::from_millis(interval_ms);
            let hour = SimDuration::from_hours(1);
            let mut busy = NodeDemand::default();
            (busy.active_cores, busy.cpu_user_frac) = (24, 0.8);
            for k in 1..=hour.as_nanos() / interval.as_nanos() {
                node.advance(interval, &busy);
                let at = SimTime::from_secs(0) + interval * k;
                s.sample(&NodeFs::new(&node), at, &[], &[]);
            }
            s.account().overhead_fraction(hour)
        };
        let mut node = SimNode::new("bench", NodeTopology::lonestar5());
        node.spawn_process("app.x", 5000, 1, u64::MAX);
        let mut s = sampler_for(&node);
        s.sample(&NodeFs::new(&node), SimTime::from_secs(0), &[], &[]);
        let cost = s.account().mean_cost().as_secs_f64();
        [cost, one_hour(600_000), one_hour(500)]
    })
}

/// §VI-A: three hours on six nodes, a storm in the second hour.
/// `[r(cluster MDC reqs, cluster MDC wait), hour holding the peak]`.
fn interference() -> &'static [f64; 2] {
    memo!([f64; 2], {
        let mut cfg = SystemConfig::small(6, Mode::daemon());
        cfg.enable_tsdb = true;
        let jobs = vec![
            (t0(), request(1, AppModel::namd(), 2, 170)),
            (t0(), request(2, AppModel::wrf(), 2, 170)),
            (after_hours(1), storm_request(3, 2, 55)),
        ];
        let sys = run_system(cfg, jobs, 3);
        let tsdb = sys.tsdb().expect("tsdb enabled");
        let reqs = TagFilter::any().dev_type("mdc").event("reqs");
        let wait = TagFilter::any().dev_type("mdc").event("wait");
        let (ts, te, sum) = (t0().as_secs(), after_hours(3).as_secs(), Aggregation::Sum);
        let pairs = tsdb.aligned((&reqs, sum), (&wait, sum), ts, te, 600);
        let series = tsdb.aggregate(&reqs, sum, ts, te, 600);
        let peak = series.iter().max_by(|a, b| a.v.total_cmp(&b.v));
        let peak_hour = peak.map_or(f64::NAN, |p| ((p.t - ts) / 3600 + 1) as f64);
        [pearson(&pairs).unwrap_or(f64::NAN), peak_hour]
    })
}

/// §VI-B: a storm on 2 nodes detected and suspended; the cron-mode
/// floor; and adaptive against fixed 5-minute cadence on 4 nodes, three
/// quiet hours then a storm. `[storm start → storm alert s, jobs
/// suspended, cron mean lag ÷ detection, samples saved, storm submit →
/// first alert s at fixed cadence, at adaptive cadence]`.
fn realtime() -> &'static [f64; 6] {
    memo!([f64; 6], {
        let secs_since = |t: SimTime, since| t.duration_since(since).as_secs_f64();
        let mut sys = MonitoringSystem::new(SystemConfig::small(2, Mode::daemon()));
        sys.enable_online(OnlineConfig::default(), true);
        sys.enqueue_jobs(vec![(t0(), storm_request(1, 2, 600))]);
        sys.run_until(after_hours(2));
        let storm_alert = |a: &&Alert| a.kind == AlertKind::MetadataStorm;
        let alert = sys.alerts().iter().find(storm_alert);
        let detect = alert.map_or(f64::NAN, |a| secs_since(a.time, t0()));
        let storm = vec![(t0(), storm_request(1, 2, 600))];
        let cron = run_system(SystemConfig::small(2, Mode::cron()), storm, 30);
        let cron_lag = cron.archive().latency_stats().mean_secs;
        // Onset → first alert is the alert's time minus the storm's
        // submission, not the alerting sample's sample → flag latency.
        let onset = after_hours(3);
        let arm = |adaptive: bool| {
            let mut cfg = SystemConfig::small(4, Mode::daemon());
            cfg.interval = SimDuration::from_mins(5);
            let mut sys = MonitoringSystem::new(cfg);
            sys.enable_online(OnlineConfig::default(), true);
            if adaptive {
                sys.enable_adaptive(AdaptiveConfig::default());
            }
            let storm = request(17, AppModel::wrf_metadata_storm(), 2, 120);
            sys.enqueue_jobs(vec![(onset, storm)]);
            sys.run_until(after_hours(4));
            let first = sys.alerts().first();
            let first = first.map_or(f64::NAN, |a| secs_since(a.time, onset));
            (sys.delivery_report().collected as f64, first)
        };
        let ((fixed, fixed_at), (adaptive, adaptive_at)) = (arm(false), arm(true));
        let (suspended, saved) = (sys.suspended().len() as f64, 1.0 - adaptive / fixed);
        let vs_cron = cron_lag / detect;
        [detect, suspended, vs_cron, saved, fixed_at, adaptive_at]
    })
}

/// §VI-C: one shared node under an hour of process churn at 50, 500 and
/// 4,000 processes: `[missed signals, collected-or-queued share,
/// overhead]` per rate.
fn churn() -> &'static [[f64; 3]; 3] {
    memo!([[f64; 3]; 3], {
        [50usize, 500, 4000].map(|n_processes| {
            let (start, hour) = (SimTime::from_secs(0), SimDuration::from_hours(1));
            let mut node = SimNode::new("shared-01", NodeTopology::stampede());
            let broker = Broker::new();
            broker.declare("stats");
            let publish = Box::new(LocalPublisher(broker.clone()));
            let cadence = SimDuration::from_mins(10);
            let mut daemon = TaccStatsd::new(sampler_for(&node), cadence, "stats", publish, start);
            let events = generate_churn(ChurnConfig {
                seed: n_processes as u64,
                start,
                span: hour,
                n_processes,
                mean_lifetime: SimDuration::from_secs(90),
                n_jobs: 3,
            });
            let (mut caught, mut missed) = (0.0, 0.0);
            for ev in &events {
                daemon.tick(&NodeFs::new(&node), ev.time);
                let procs = node.processes();
                let running = procs.iter().find(|p| p.comm == ev.comm).map(|p| p.pid);
                if ev.kind == ProcEventKind::Start {
                    node.spawn_process(&ev.comm, ev.uid, 1, u64::MAX);
                } else if let Some(pid) = running {
                    node.end_process(pid);
                }
                match daemon.signal(&NodeFs::new(&node), ev.time, &ev.mark()) {
                    SignalOutcome::Collected | SignalOutcome::Queued => caught += 1.0,
                    SignalOutcome::Missed => missed += 1.0,
                }
            }
            let overhead = daemon.sampler().account().overhead_fraction(hour);
            [missed, caught / (caught + missed), overhead]
        })
    })
}

fn q4_share(i: usize) -> f64 {
    let (_, _, keyword, threshold) = CHARACTERIZATION[i];
    share(jobs(q4_population()), keyword, threshold)
}

fn q4_correlations() -> &'static (usize, [f64; 3]) {
    memo!(
        (usize, [f64; 3]),
        lustre_correlations(jobs(q4_population()))
    )
}

fn wrf_avg(column: &str) -> (f64, f64) {
    user_vs_population(jobs(wrf_population()), column)
}

// ---- The table ----

use Band::*;
use Status::*;
use Unit::*;

/// Each section's key (the `section` of its rows), title, and the note
/// printed under its rows.
#[rustfmt::skip]
const SECTIONS: [(&str, &str, &str); 13] = [
    ("table1", "Table I — the per-job metric set", "The full table (values, units, definitions) is printed by `tacc-stats-sim table1`. Metrics for hardware a node lacks (no Phi, no Lustre, no IB) are absent, not zero."),
    ("modes", "Figs. 1–2 — operation modes", "Two small jobs on 4 nodes for 30 simulated hours, then a node crash after 3 hours. Both modes compute identical metrics for identical workloads: integration test `modes_agree_on_metrics_but_not_latency` (`tests/pipeline.rs`)."),
    ("fig3", "Fig. 3 — portal front page", "Metadata filters plus up to three `metric__op threshold` fields (`portal::SearchSpec`) return the job list with the portal's columns and the flagged sublist; `cargo run --release --example quickstart` prints one."),
    ("fig4", "Fig. 4 — WRF query histograms", "WRF population: 558 finished jobs (seed 558), the last 4 from the storm user, ingested through `simulate_job` + `ingest_job`. `cargo run --release --example wrf_case_study` prints the four panels."),
    ("fig5", "Fig. 5 — job detail view", "The storm job (4 nodes, 3 h) run through the daemon-mode pipeline; the six panels are extracted from the archived raw files."),
    ("sec3b", "§III-B — auto-configuration", "Probe nodes are 2 × 8 cores with Infiniband and one Lustre filesystem, hyperthreaded on Nehalem and Haswell, with one Xeon Phi on Sandy Bridge."),
    ("sec4a", "§IV-A — sampling interval (ablation)", "One 5-hour WRF trajectory sampled every 10 minutes, re-accumulated from every 2nd, 5th and 15th sample (first and last always kept)."),
    ("sec5a", "§V-A — population characterization", "Q4-2015 population: `PopulationRunner::q4_2015(51, 3000)`, scaled from the paper's 404,002 jobs with proportions preserved."),
    ("sec5b", "§V-B — Lustre I/O case study", "User vs population: the Fig. 4 WRF population. Correlations: the §V-A population's production jobs. The sign of each correlation reproduces; the paper's ordering, with MDC the weakest, does not: MDC is the strongest of the three here. The generator also runs more long, completed production jobs than Q4 2015 did. Neither divergence is tuned away: no model constant, seed or population size is chosen to move a row into its band."),
    ("overhead", "§I, §VI-C — collection overhead", "The per-collection cost is modelled (base + per device instance) after the paper's production cost, including off-node transmission; this implementation's real collection cost is the benchmark's `collect.sample.ns_per_sample`."),
    ("sec6a", "§VI-A — time-series analysis", "Samples are mirrored into the tagged time-series store as (host, device type, device, event) series; the query aggregates along the host tag."),
    ("sec6b", "§VI-B — automated real-time analysis", "Onset → first alert is the alert's time minus the storm's submission. Adaptive cadence trades detection time for samples: quiet nodes back off to 20-minute sampling, so the storm is first seen up to one backed-off interval late."),
    ("sec6c", "§VI-C — shared nodes", "The simultaneous-start policy (collect one, queue one, miss the rest) and ≥ 2 collections per tracked process are held by the daemon unit tests `second_signal_during_busy_window_queues_third_misses` and `every_process_gets_at_least_two_collections`."),
];

#[rustfmt::skip]
macro_rules! claim {
    ($id:literal, $section:expr, $quantity:expr, $paper:expr, $measure:expr, $band:expr, $unit:expr, $status:expr) => {
        Claim { id: $id, section: $section, quantity: $quantity, paper: $paper, measure: $measure, band: $band, unit: $unit, status: $status }
    };
}

/// Every checked claim, in EXPERIMENTS.md order.
#[rustfmt::skip]
pub static CLAIMS: &[Claim] = &[
    claim!("table1.metrics", "table1", "Table I metrics computed for a 4-node WRF job", "27 metrics in 4 groups, for every job", table1_present, AtLeast(25.0), Num(0), Reproduced),
    claim!("modes.cron_lag_mean", "modes", "cron mode: sample → archive latency, mean (h)", "up to ~1 day (daily staggered rsync)", || modes()[0], Within(1.0, 24.0), Num(1), Reproduced),
    claim!("modes.cron_lag_max", "modes", "cron mode: sample → archive latency, max (h)", "~1 day", || modes()[1], Within(12.0, 36.0), Num(1), Reproduced),
    claim!("modes.daemon_lag_mean", "modes", "daemon mode: sample → archive latency, mean (s)", "as soon as it is available", || modes()[2], Below(60.0), Num(1), Reproduced),
    claim!("modes.lag_ratio", "modes", "cron mean latency ÷ daemon mean latency (daemon floored at 1 s)", "hours vs real time", || modes()[0] * 3600.0 / modes()[2].max(1.0), Above(100.0), Num(0), Reproduced),
    claim!("modes.crash_loss_cron", "modes", "samples lost to a node crash, cron mode", "a node failure may lose data", || modes()[3], Above(0.0), Num(0), Reproduced),
    claim!("modes.crash_loss_daemon", "modes", "samples lost to a node crash, daemon mode", "none: data leaves the node at once", || modes()[4], Exactly(0.0), Num(0), Reproduced),
    claim!("fig3.flagged_sublist", "fig3", "storm-user jobs of the WRF query that are on its `HighMetadataRate` flagged sublist", "every search also returns the flagged sublist", fig3_flagged, Exactly(1.0), Pct(0), Reproduced),
    claim!("fig4.wrf_jobs", "fig4", "jobs matching exec = wrf.exe, runtime > 10 min", "558", || wrf_list().len() as f64, Exactly(558.0), Num(0), Reproduced),
    claim!("fig4.runtime_panel", "fig4", "jobs counted by the runtime panel", "every listed job", || wrf_list().fig4().runtime.total() as f64, Exactly(558.0), Num(0), Reproduced),
    claim!("fig4.outliers", "fig4", "metadata-rate outlier jobs (> 1e5 req/s)", "outliers are visible", || fig4_outliers()[0], AtLeast(3.0), Num(0), Reproduced),
    claim!("fig4.outlier_ratio", "fig4", "peak MetaDataRate ÷ the bulk's peak", "orders of magnitude", || fig4_outliers()[1], Above(10.0), Num(0), Reproduced),
    claim!("fig4.outlier_users", "fig4", "distinct users among the outlier jobs", "attributed to a particular user", || fig4_outliers()[2], Exactly(1.0), Num(0), Reproduced),
    claim!("fig5.hosts", "fig5", "per-node series on the storm job's detail page", "one per node of the 4-node job", || fig5()[0], Exactly(4.0), Num(0), Reproduced),
    claim!("fig5.cpu_user_max", "fig5", "CPU user fraction of the storm job, max over nodes and time", "low (CPU_Usage 67 %)", || fig5()[1], Below(0.85), Num(2), Reproduced),
    claim!("fig5.lustre_max", "fig5", "Lustre data bandwidth of the storm job, max (MB/s)", "small: the load is requests, not data", || fig5()[2], Below(50.0), Num(2), Reproduced),
    claim!("sec3b.archs", "sec3b", "architectures identified from /proc/cpuinfo, with RAPL only from Sandy Bridge on", "Nehalem … Haswell identified at runtime", || discovery()[0], Exactly(CpuArch::HOST_ARCHS.len() as f64), Num(0), Reproduced),
    claim!("sec3b.options_off", "sec3b", "IB / Phi / Lustre device types probed with all three build options off", "build-time options gate probing", || discovery()[1], Exactly(0.0), Num(0), Reproduced),
    claim!("sec4a.arc_drift", "sec4a", "ARC values (MDCReqs, CPU_Usage, VecPercent × 2, 5, 15× sub-sampling) not bit-identical to the full stream", "infrequent sampling does not prevent an accurate ARC", || sampling_ablation()[0], Exactly(0.0), Num(0), Reproduced),
    claim!("sec4a.max_smear", "sec4a", "MetaDataRate at 150-min windows ÷ at 10-min windows", "Maximum metrics are an approximation", || sampling_ablation()[1], Below(1.0), Num(2), Reproduced),
    claim!("sec5a.mic", "sec5a", CHARACTERIZATION[0].0, CHARACTERIZATION[0].1, || q4_share(0), Within(0.004, 0.04), Pct(1), Reproduced),
    claim!("sec5a.vec1", "sec5a", CHARACTERIZATION[1].0, CHARACTERIZATION[1].1, || q4_share(1), Within(0.35, 0.68), Pct(1), Reproduced),
    claim!("sec5a.vec50", "sec5a", CHARACTERIZATION[2].0, CHARACTERIZATION[2].1, || q4_share(2), Within(0.15, 0.40), Pct(1), Reproduced),
    claim!("sec5a.mem20", "sec5a", CHARACTERIZATION[3].0, CHARACTERIZATION[3].1, || q4_share(3), Within(0.01, 0.07), Pct(1), Reproduced),
    claim!("sec5a.idle", "sec5a", CHARACTERIZATION[4].0, CHARACTERIZATION[4].1, || q4_share(4), Above(0.012), Pct(1), Reproduced),
    claim!("sec5b.cpu_user", "sec5b", "CPU_Usage, storm user", "67 %", || wrf_avg("CPU_Usage").0, Within(0.5, 0.8), Pct(0), Reproduced),
    claim!("sec5b.cpu_popn", "sec5b", "CPU_Usage, WRF population", "80 %", || wrf_avg("CPU_Usage").1, Within(0.7, 0.9), Pct(0), Reproduced),
    claim!("sec5b.cpu_ratio", "sec5b", "CPU_Usage, user ÷ population", "0.84", || { let (u, p) = wrf_avg("CPU_Usage"); u / p }, Below(1.0), Num(2), Reproduced),
    claim!("sec5b.md_user", "sec5b", "MetaDataRate, storm user (req/s)", "563,905", || wrf_avg("MetaDataRate").0, Within(1e5, 1e6), Num(0), Reproduced),
    claim!("sec5b.md_popn", "sec5b", "MetaDataRate, WRF population (req/s)", "3,870", || wrf_avg("MetaDataRate").1, Within(1e3, 1e4), Num(0), Reproduced),
    claim!("sec5b.md_ratio", "sec5b", "MetaDataRate, user ÷ population", "146", || { let (u, p) = wrf_avg("MetaDataRate"); u / p }, Above(50.0), Num(0), Reproduced),
    claim!("sec5b.oc_user", "sec5b", "LLiteOpenClose, storm user (1/s)", "30,884", || wrf_avg("LLiteOpenClose").0, Within(1e4, 1e5), Num(0), Reproduced),
    claim!("sec5b.oc_popn", "sec5b", "LLiteOpenClose, WRF population (1/s)", "2", || wrf_avg("LLiteOpenClose").1, Within(0.0, 10.0), Num(1), Reproduced),
    claim!("sec5b.oc_ratio", "sec5b", "LLiteOpenClose, user ÷ population (population floored at 0.1)", "15,442", || { let (u, p) = wrf_avg("LLiteOpenClose"); u / p.max(0.1) }, Above(1000.0), Num(0), Reproduced),
    claim!("sec5b.production", "sec5b", "production jobs (completed, production queues, ≥ 1 h), share of the population", "110,438 of 404,002 (27 %)", || q4_correlations().0 as f64 / jobs(q4_population()).len() as f64, Within(0.15, 0.45), Pct(1), Diverges),
    claim!("sec5b.corr_mdc", "sec5b", "r(CPU_Usage, MDCReqs) over production jobs", "-0.11", || q4_correlations().1[0], Below(0.0), Num(3), Reproduced),
    claim!("sec5b.corr_osc", "sec5b", "r(CPU_Usage, OSCReqs) over production jobs", "-0.20", || q4_correlations().1[1], Below(0.0), Num(3), Reproduced),
    claim!("sec5b.corr_lnet", "sec5b", "r(CPU_Usage, LnetAveBW) over production jobs", "-0.19", || q4_correlations().1[2], Below(0.0), Num(3), Reproduced),
    claim!("sec5b.mdc_weakest", "sec5b", "\\|r(MDCReqs)\\| ÷ the smaller of \\|r(OSCReqs)\\|, \\|r(LnetAveBW)\\|", "0.58: MDC is the weakest of the three", || { let r = q4_correlations().1; r[0].abs() / r[1].abs().min(r[2].abs()) }, Below(1.0), Num(2), Diverges),
    claim!("overhead.cost", "overhead", "modelled cost of one collection, Lonestar 5 node (s)", "~0.09 s of one core", || overhead()[0], Within(0.07, 0.11), Num(3), Reproduced),
    claim!("overhead.at_10min", "overhead", "overhead at 10-min sampling, one core of a Lonestar 5 node", "estimated to be 0.02 %", || overhead()[1], Within(0.8e-4, 3.0e-4), Pct(4), Reproduced),
    claim!("overhead.at_500ms", "overhead", "overhead at 500 ms sampling", "capable of subsecond sampling, at the overhead one accepts", || overhead()[2], Below(1.0), Pct(1), Reproduced),
    claim!("overhead.scaling", "overhead", "overhead at 500 ms ÷ overhead at 10 min", "grows with the sampling rate (1,200× the collections)", || overhead()[2] / overhead()[1], Within(1080.0, 1320.0), Num(0), Reproduced),
    claim!("sec6a.corr", "sec6a", "r(cluster MDC reqs, cluster MDC wait), 10-min windows over 3 h", "one user's metadata requests relate to others' wait times", || interference()[0], Above(0.9), Num(3), Reproduced),
    claim!("sec6a.peak_hour", "sec6a", "hour holding the cluster's metadata-request peak", "the storm's hour (2nd)", || interference()[1], Exactly(2.0), Num(0), Reproduced),
    claim!("sec6b.detect", "sec6b", "storm start → MetadataStorm alert, 10-min cadence (s)", "quickly identified", || realtime()[0], AtMost(1200.0), Num(0), Reproduced),
    claim!("sec6b.suspended", "sec6b", "jobs suspended automatically", "identified and suspended", || realtime()[1], Exactly(1.0), Num(0), Reproduced),
    claim!("sec6b.vs_cron", "sec6b", "cron-mode mean data lag ÷ daemon-mode detection time", "before system-wide slowdowns, not a day later", || realtime()[2], Above(20.0), Num(0), Reproduced),
    claim!("sec6b.adaptive_saved", "sec6b", "samples saved by adaptive cadence vs a fixed 5-min cadence (4 nodes, 3 quiet hours, then a storm on 2)", "— (extension)", || realtime()[3], Above(0.0), Pct(0), Reproduced),
    claim!("sec6b.alert_fixed", "sec6b", "storm submit → first alert, fixed 5-min cadence (s)", "quickly identified (≤ one 10-min interval)", || realtime()[4], AtMost(600.0), Num(0), Reproduced),
    claim!("sec6b.alert_adaptive", "sec6b", "storm submit → first alert, adaptive cadence (s)", "quickly identified (≤ one 10-min interval)", || realtime()[5], AtMost(600.0), Num(0), Diverges),
    claim!("sec6c.missed_low", "sec6c", "signals missed at 50 process starts/ends per hour", "two simultaneous processes are handled", || churn()[0][0], Exactly(0.0), Num(0), Reproduced),
    claim!("sec6c.overhead_low", "sec6c", "overhead at 50 processes per hour", "long-running processes add little overhead", || churn()[0][2], Below(0.005), Pct(4), Reproduced),
    claim!("sec6c.overhead_growth", "sec6c", "smallest overhead step up across 50 → 500 → 4,000 processes per hour", "overhead grows with process churn", || { let c = churn(); (c[1][2] / c[0][2]).min(c[2][2] / c[1][2]) }, Above(1.0), Num(2), Reproduced),
    claim!("sec6c.capture_high", "sec6c", "signals collected or queued at 4,000 processes per hour", "bursts inside the ~0.09 s window are missed", || churn()[2][1], Below(1.0), Pct(1), Reproduced),
];

const INTRO: &str = "\
# EXPERIMENTS — paper vs measured

generated by `tacc-stats-sim experiments`; do not edit.

Every claim of *Understanding Application and System Performance Through
System-Wide Monitoring* (IPPS 2016) that this repository reproduces, one
row of `src/claims.rs` each, measured on a deterministic simulated
cluster: the targets are **shapes**, not the authors' absolute numbers. A
*Reproduced* row is inside its band; a *Diverges* row is outside it, on
the record. `tests/paper_claims.rs` asserts both, and that this file is
what `cargo run --release --bin tacc-stats-sim -- experiments` prints.

Speeds are not claims; they are the system benchmark's per-layer metrics
(`BENCHMARK.json`, `benchmark/REFERENCE.md`): `core.step.ns_per_node_step`
and `metrics.accum_feed.ns_per_sample` for simulating and accumulating a
job, `collect.sample.ns_per_sample` for one collection,
`broker.publish.ns_per_msg` and `collect.codec_parse.ns_per_sample` for
broker and codec capacity.
";

/// EXPERIMENTS.md: every section's rows with their measured values.
pub fn render_markdown() -> String {
    let diverging = CLAIMS.iter().filter(|c| c.status == Diverges).count();
    let (n, reproduced) = (CLAIMS.len(), CLAIMS.len() - diverging);
    let mut out = format!("{INTRO}\n{n} claims: {reproduced} reproduced, {diverging} diverging.\n");
    for (key, title, note) in SECTIONS {
        out += &format!("\n## {title}\n\n| id | quantity | paper | measured | band | status |\n");
        out += "|---|---|---|---|---|---|\n";
        let rows = CLAIMS.iter().zip(measured());
        for (c, v) in rows.filter(|(c, _)| c.section == key) {
            let (value, band) = (c.unit.render(*v), c.band.render(c.unit));
            let (id, quantity, paper, status) = (c.id, c.quantity, c.paper, c.status);
            out += &format!("| `{id}` | {quantity} | {paper} | {value} | {band} | {status:?} |\n");
        }
        out += &format!("\n{note}\n");
    }
    out
}

/// `v` with `decimals` decimals and the integer part grouped by
/// thousands.
fn grouped(v: f64, decimals: usize) -> String {
    let s = format!("{v:.decimals$}");
    let (sign, s) = s.strip_prefix('-').map_or(("", s.as_str()), |s| ("-", s));
    let (int, frac) = s.split_at(s.find('.').unwrap_or(s.len()));
    let mut out = String::from(sign);
    for (k, ch) in int.chars().enumerate() {
        if k > 0 && (int.len() - k) % 3 == 0 {
            out.push(',');
        }
        out.push(ch);
    }
    out + frac
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(measure: fn() -> f64, status: Status) -> Claim {
        let (band, unit) = (Within(0.35, 0.68), Pct(1));
        claim!("t.row", "t", "q", "p", measure, band, unit, status)
    }

    #[test]
    fn a_reproduced_row_outside_its_band_fails_naming_id_value_and_band() {
        let c = row(|| 0.2, Reproduced);
        let err = c.check((c.measure)()).unwrap_err();
        assert!(err.contains("t.row: measured 20.0 %"), "{err}");
        assert!(err.contains("outside its band [35.0 %, 68.0 %)"), "{err}");
        assert!(c.check(0.5).is_ok() && c.check(f64::NAN).is_err());
    }

    #[test]
    fn a_diverging_row_that_comes_back_inside_its_band_fails() {
        let c = row(|| 0.5, Diverges);
        let err = c.check((c.measure)()).unwrap_err();
        assert!(err.contains("t.row: measured 50.0 %"), "{err}");
        assert!(err.contains("inside its band [35.0 %, 68.0 %)"), "{err}");
        assert!(c.check(0.9).is_ok() && c.check(f64::NAN).is_err());
    }
}
