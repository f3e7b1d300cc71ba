//! `system_live`: the `core::system` assembly end to end, in the shape
//! of `tacc-stats-sim monitor` — a 64-node daemon-mode
//! `MonitoringSystem` with the tsdb mirror and online analysis on,
//! seeded jobs from the production library, driven one `step_once()` at
//! a time, with one portal client querying beside the writes.
//!
//! It is the only workload through the scheduler, `metrics::accum` /
//! `table1` / `stream`, jobdb ingest and `core::online`. It is
//! dominated by `simnode` advance (ten 60 s node-steps per 600 s
//! sample) rather than by the text path, and because ingest advances
//! the watermark the query cache keys on, it exercises invalidation
//! where `portal_read` exercises eviction.

use crate::client::PortalClient;
use crate::common::{self, Outcome, QueryLog, TickLog};
use crate::reference::{JobFacts, Spec};
use crate::trace::{self, Stage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;
use tacc_collect::RawFile;
use tacc_core::config::{Mode, SystemConfig};
use tacc_core::online::OnlineConfig;
use tacc_core::MonitoringSystem;
use tacc_metrics::ingest::JOBS_TABLE;
use tacc_metrics::HostAccum;
use tacc_portal::cache::{CacheConfig, QueryCache};
use tacc_portal::detail::{render_job_detail, JobTimeSeries};
use tacc_scheduler::job::{JobId, JobRequest, QueueName};
use tacc_simnode::apps::AppLibrary;
use tacc_simnode::topology::NodeTopology;
use tacc_simnode::workload::NodeDemand;
use tacc_simnode::{SimClock, SimCluster, SimDuration, SimTime};

/// Steps between two visits of the query client.
const QUERY_EVERY: u64 = 10;
/// Page views in one visit.
const VIEWS_PER_VISIT: usize = 16;
/// Visits between two detail-page requests.
const DETAIL_EVERY_VISITS: usize = 16;
/// Steps per throughput chunk: one simulated hour.
const TICK_CHUNK: usize = 60;
/// One job template in this many has its Fig. 5 panels extracted from
/// the archive and stored when it finishes, as the portal's job-end
/// ingest would. Choosing by template, not by job id, stores the same
/// mix of widths and runtimes for every seed.
const DETAIL_ONE_IN: u32 = 4;
/// `uid` of job template 0.
const UID_BASE: u32 = 5000;
/// One step in this many also advances the probe twin cluster (traced).
const ADVANCE_PROBE_ONE_IN: u64 = 16;
/// Host-day archive files the post-window probes parse and accumulate.
const ARCHIVE_PROBE_FILES: usize = 12;

/// Sizes of one `system_live` run.
#[derive(Clone, Debug)]
pub struct LiveParams {
    /// Seed for host naming, the job mix and the query draw.
    pub seed: u64,
    /// Nodes in the monitored cluster.
    pub nodes: usize,
    /// Untimed steps at the end of set-up.
    pub warmup_steps: u64,
    /// Measured `step_once()` calls (60 simulated seconds each).
    pub steps: u64,
    /// Jobs submitted over the simulated period.
    pub jobs: usize,
    /// Record spans and run the probe legs.
    pub traced: bool,
    /// The committed counts for this seed and size, when there are any.
    pub expected: Option<ExpectedCounts>,
}

impl LiveParams {
    /// Sized for a window of about `seconds` on the reference host: the
    /// `monitor --nodes 64 --hours 48 --jobs 200` shape, scaled.
    pub fn sized(seed: u64, seconds: u64) -> LiveParams {
        let steps = (seconds * 288).max(60);
        LiveParams {
            seed,
            nodes: 64,
            warmup_steps: 30,
            steps,
            // 200 jobs per 48 simulated hours.
            jobs: ((steps * 200).div_ceil(2880) as usize).max(4),
            traced: false,
            expected: EXPECTED_COUNTS
                .iter()
                .find(|e| (e.0, e.1) == (seed, steps))
                .map(|e| e.2),
        }
    }
}

/// Counts a finished run must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpectedCounts {
    /// Samples archived.
    pub samples: u64,
    /// Jobs ingested into the jobs table.
    pub jobs: u64,
    /// Alerts the online analyzer raised.
    pub alerts: u64,
}

/// The committed counts, for the default seed (42) and the held-out
/// seed (2015) at the default (`--seconds 20`) and the `--quick` size:
/// `(seed, steps, counts)`. The simulation is deterministic, so these
/// repeat exactly; any other seed or size is checked against the
/// harness's own arithmetic only.
const EXPECTED_COUNTS: &[(u64, u64, ExpectedCounts)] = &[
    (
        42,
        5760,
        ExpectedCounts {
            samples: 37_496,
            jobs: 68,
            alerts: 199,
        },
    ),
    (
        42,
        288,
        ExpectedCounts {
            samples: 2_133,
            jobs: 18,
            alerts: 37,
        },
    ),
    (
        2015,
        5760,
        ExpectedCounts {
            samples: 37_443,
            jobs: 60,
            alerts: 186,
        },
    ),
    (
        2015,
        288,
        ExpectedCounts {
            samples: 2_132,
            jobs: 16,
            alerts: 35,
        },
    ),
];

/// The built fixture.
pub struct Live {
    p: LiveParams,
    sys: MonitoringSystem,
    client: PortalClient,
    specs: Vec<Spec>,
    host_prefix: String,
    /// Nodes, start and template of every job seen running, for the
    /// job-end panel extract.
    job_nodes: HashMap<JobId, (Vec<usize>, SimTime, u32)>,
    /// Watermark at which `job_nodes` finished jobs were last handled.
    handled_watermark: u64,
    /// Job ids with stored panels, and their node counts.
    stored_details: Vec<(String, usize)>,
    /// Detail pages rendered so far (they rotate over the stored jobs).
    detail_ops: usize,
    /// Visits of the query client so far.
    visits: usize,
    /// A second cluster the traced run advances beside the real one.
    twin: Option<SimCluster>,
    step: u64,
    op: u32,
    detail_us: Vec<f64>,
    marked_expected: u64,
    probe_parsed: u64,
    probe_fed: u64,
}

/// The submitted jobs. Job *templates* — application, width (1/2/4
/// nodes) and runtime (20 minutes to 5/6 of the period) — are the same
/// multiset for every seed (see [`common::app_mix`]), so every seed
/// loads the cluster alike; the seed decides the submission order, who
/// submits, and when within each slot. A job's `uid` carries its
/// template number.
fn job_requests(p: &LiveParams, rng: &mut StdRng) -> Vec<(SimTime, JobRequest)> {
    let lib = AppLibrary::standard();
    let topo = NodeTopology::stampede();
    let t0 = common::t0();
    let minutes = p.warmup_steps + p.steps;
    let n = p.jobs.max(1) as u64;
    let longest = (minutes * 5 / 6).max(21);
    let apps = common::app_mix(&lib, p.jobs, rng);
    let mut templates: Vec<usize> = (0..p.jobs).collect();
    common::shuffle(&mut templates, rng);
    let slot = ((minutes * 5 / 8) / n).max(1);
    templates
        .into_iter()
        .enumerate()
        .map(|(order, template)| {
            let width = (1usize << (template % 3)).min(p.nodes);
            let app =
                lib.entries()[apps[template]]
                    .0
                    .instantiate(rng, width, topo.n_cores(), &topo);
            (
                t0 + SimDuration::from_mins(order as u64 * slot + rng.gen_range(0..slot)),
                JobRequest {
                    user: format!("user{:04}", rng.gen_range(0..50)),
                    uid: UID_BASE + template as u32,
                    account: "TG-BENCH".to_string(),
                    job_name: format!("job{template}"),
                    queue: QueueName::Normal,
                    n_nodes: width,
                    wayness: topo.n_cores(),
                    runtime: SimDuration::from_mins(20 + (longest - 20) * template as u64 / n),
                    will_fail: false,
                    idle_nodes: 0,
                    app,
                },
            )
        })
        .collect()
}

impl Live {
    /// Build the system, queue the jobs, and run the warm-up steps.
    pub fn setup(p: &LiveParams) -> Live {
        let mut rng = StdRng::seed_from_u64(common::mix(&[p.seed, 20]));
        let host_prefix = format!("c{}", 401 + common::mix(&[p.seed, 1]) % 500);
        let mut sys = MonitoringSystem::new(SystemConfig {
            host_prefix: host_prefix.clone(),
            enable_tsdb: true,
            seed: p.seed,
            ..SystemConfig::small(p.nodes, Mode::daemon())
        });
        sys.enable_online(OnlineConfig::default(), false);
        let requests = job_requests(p, &mut rng);
        let execs: Vec<String> = requests
            .iter()
            .map(|(_, r)| r.app.exec_name().to_string())
            .collect();
        sys.enqueue_jobs(requests);

        // Eight specs over what this seed's jobs will look like.
        let pick = |rng: &mut StdRng| execs[rng.gen_range(0..execs.len())].clone();
        let specs = vec![
            Spec::default(),
            Spec {
                queue: Some(QueueName::Normal.name().to_string()),
                min_runtime: Some(1800),
                ..Spec::default()
            },
            Spec {
                exec: Some(pick(&mut rng)),
                ..Spec::default()
            },
            Spec {
                exec: Some(pick(&mut rng)),
                min_runtime: Some(3600),
                ..Spec::default()
            },
            Spec {
                metadata_gte: Some(10.0),
                ..Spec::default()
            },
            Spec {
                status: Some("completed".to_string()),
                cpu_lt: Some(0.5),
                ..Spec::default()
            },
            Spec {
                user: Some(format!("user{:04}", rng.gen_range(0..50))),
                ..Spec::default()
            },
            Spec {
                min_runtime: Some(7200),
                metadata_gte: Some(1.0),
                ..Spec::default()
            },
        ];

        let twin = p.traced.then(|| {
            SimCluster::homogeneous(
                SimClock::starting_at(common::t0()),
                "twin",
                p.nodes,
                NodeTopology::stampede(),
            )
        });

        let mut live = Live {
            p: p.clone(),
            sys,
            client: PortalClient::new(QueryCache::new(CacheConfig {
                capacity: 64,
                ttl_secs: 3600,
            })),
            specs,
            host_prefix,
            job_nodes: HashMap::new(),
            handled_watermark: 0,
            stored_details: Vec::new(),
            detail_ops: 0,
            visits: 0,
            twin,
            step: 0,
            op: 0,
            detail_us: Vec::new(),
            marked_expected: 0,
            probe_parsed: 0,
            probe_fed: 0,
        };
        let mut scratch = Outcome::default();
        for _ in 0..p.warmup_steps {
            live.one_step(&mut scratch);
        }
        live
    }

    fn hostname(&self, node: usize) -> String {
        format!("{}-{node:04}", self.host_prefix)
    }

    /// One `step_once()` plus the job-end panel extract for jobs that
    /// finished in it. Returns the samples archived by the step.
    fn one_step(&mut self, out: &mut Outcome) -> u32 {
        let before = self.sys.archive().total_samples();
        {
            let _span = trace::span(Stage::CoreStep);
            self.sys.step_once();
        }
        self.step += 1;
        // Remember where running jobs run: the jobs table records only
        // a node count, and the extract needs the hosts.
        for job in self.sys.scheduler().running() {
            self.job_nodes
                .entry(job.id)
                .or_insert_with(|| (job.nodes.clone(), job.start, job.uid - UID_BASE));
        }
        if self.sys.ingest_watermark() != self.handled_watermark {
            self.handled_watermark = self.sys.ingest_watermark();
            self.store_finished_details(out);
        }
        if self.step.is_multiple_of(ADVANCE_PROBE_ONE_IN) {
            if let Some(twin) = &self.twin {
                // The same per-node demands the scheduler has placed, so
                // the twin's advance costs what the real one does.
                let now = self.sys.clock().now();
                let mut demands: Vec<Option<NodeDemand>> = vec![None; self.p.nodes];
                for job in self.sys.scheduler().running() {
                    for (rank, &node) in job.nodes.iter().enumerate() {
                        if let Some(slot) = demands.get_mut(node) {
                            *slot = Some(job.app.demand(rank, job.t_frac(now)));
                        }
                    }
                }
                let _span = trace::span(Stage::ProbeAdvance);
                twin.advance_all(SimDuration::from_secs(60), |i| demands[i].clone());
            }
        }
        (self.sys.archive().total_samples() - before) as u32
    }

    /// For every tracked job that is no longer running: count its
    /// prolog/epilog collections into the sample reference, and for one
    /// in [`DETAIL_ONE_IN`] extract the Fig. 5 panels from the job's
    /// host-day archive files and store them in the tsdb.
    fn store_finished_details(&mut self, out: &mut Outcome) {
        let running: Vec<JobId> = self.sys.scheduler().running().map(|j| j.id).collect();
        let mut finished: Vec<JobId> = self
            .job_nodes
            .keys()
            .copied()
            .filter(|id| !running.contains(id))
            .collect();
        finished.sort_unstable();
        let now = self.sys.clock().now();
        for id in finished {
            let Some((nodes, start, template)) = self.job_nodes.remove(&id) else {
                continue;
            };
            // One `begin` and one `end` collection per node.
            self.marked_expected += 2 * nodes.len() as u64;
            if template % DETAIL_ONE_IN != 0 {
                continue;
            }
            let _span = trace::span(Stage::PortalExtract);
            let mut raw: Vec<RawFile> = Vec::new();
            for &node in &nodes {
                let host = self.hostname(node);
                let mut day = start.start_of_day();
                while day <= now {
                    match self.sys.archive().parse(&host, day) {
                        Some(Ok(rf)) => raw.push(rf),
                        Some(Err(e)) => out.violation(format!("archive {host}/{day}: {e}")),
                        None => {}
                    }
                    day = day + SimDuration::from_hours(24);
                }
            }
            let jobid = id.to_string();
            let series = JobTimeSeries::extract(&raw, &jobid);
            out.check(series.hosts.len() == nodes.len(), || {
                format!(
                    "job {jobid} ran on {} nodes, its panels cover {}",
                    nodes.len(),
                    series.hosts.len()
                )
            });
            if let Some(tsdb) = self.sys.tsdb() {
                series.store(tsdb);
            }
            self.stored_details.push((jobid, nodes.len()));
        }
    }

    /// One visit of the query client: a burst of [`VIEWS_PER_VISIT`] views
    /// of one page — every spec's search and Fig. 4 panels, keyed on the
    /// live watermark; every [`DETAIL_EVERY_VISITS`]th visit also the
    /// detail page of one stored job (they take turns). Every job that
    /// finishes between two visits invalidates the whole cache, so about
    /// a fifth of the visits recompute in their first view — by
    /// invalidation, where `portal_read` recomputes by LRU eviction.
    ///
    /// The visit is the operation the query log holds: the time spent in
    /// its calls, summed (the tail is still read off the single calls).
    /// A single call that hits is half a microsecond of CPU cache misses
    /// (ten steps of a 64-node simulation ran since the last one), and
    /// the median of those read 0.44–0.57 µs from one run of the same
    /// code to the next; of a burst only the first view runs cold, and
    /// its sum moves with the host about as much as the step times do.
    fn query_round(&mut self, out: &mut Outcome) {
        let watermark = self.sys.ingest_watermark();
        let now_secs = self.sys.clock().now().as_secs();
        if let Some(table) = self.sys.db().table(JOBS_TABLE) {
            let facts = JobFacts::from_table(table).unwrap_or_default();
            let page: Vec<_> = self
                .specs
                .iter()
                .map(|s| (s.to_search_spec(), s.expected(&facts)))
                .collect();
            let mut visit_ns = 0u64;
            for _ in 0..VIEWS_PER_VISIT {
                for (spec, want) in &page {
                    for fig4 in [false, true] {
                        trace::set_trace_id(self.op);
                        self.op += 1;
                        let ns = if fig4 {
                            self.client
                                .fig4(spec, want, table, watermark, now_secs, out)
                        } else {
                            self.client
                                .search(spec, want, table, watermark, now_secs, out)
                        };
                        out.queries.calls_ns.push(ns);
                        visit_ns += ns;
                    }
                }
            }
            out.queries.ns.push(visit_ns);
        }
        self.visits += 1;
        let stored = self
            .visits
            .is_multiple_of(DETAIL_EVERY_VISITS)
            .then(|| {
                self.stored_details
                    .get(self.detail_ops % self.stored_details.len().max(1))
                    .cloned()
            })
            .flatten();
        if let (Some((jobid, n_hosts)), Some(tsdb)) = (stored, self.sys.tsdb()) {
            self.detail_ops += 1;
            trace::set_trace_id(self.op);
            self.op += 1;
            let t = Instant::now();
            let page = {
                let _root = trace::span(Stage::Op);
                let _span = trace::span(Stage::PortalDetail);
                render_job_detail(tsdb, &jobid)
            };
            let ns = t.elapsed().as_nanos() as u64;
            out.queries.calls_ns.push(ns);
            out.attempted += 1;
            self.detail_us.push(ns as f64 / 1e3);
            let lines = page.lines().count();
            let want_lines = 1 + 6 * (1 + n_hosts);
            out.check(lines == want_lines, || {
                format!("detail page of job {jobid}: {lines} lines, want {want_lines}")
            });
        }
    }

    /// Run the measured window and the post-window checks and probes.
    pub fn run(mut self) -> Outcome {
        let p = self.p.clone();
        let visits = (p.steps / QUERY_EVERY) as usize;
        let calls_per_visit = 2 * self.specs.len() * VIEWS_PER_VISIT + 1;
        let mut out = Outcome {
            ticks: TickLog::with_capacity(p.steps as usize),
            tick_chunk: TICK_CHUNK,
            queries: QueryLog {
                drifting: true,
                calls_ns: Vec::with_capacity(visits * calls_per_visit),
                ..QueryLog::with_capacity(visits)
            },
            ..Outcome::default()
        };
        if p.traced {
            // Two spans per call (root and stage), a handful per step.
            trace::install(visits * 2 * calls_per_visit + p.steps as usize * 8 + 4096);
        }
        let window = Instant::now();
        for m in 0..p.steps {
            trace::set_trace_id(m as u32);
            let t = Instant::now();
            let made = {
                let _root = trace::span(Stage::Tick);
                self.one_step(&mut out)
            };
            out.ticks.push(t.elapsed().as_nanos() as u64, made);
            if (m + 1) % QUERY_EVERY == 0 {
                self.query_round(&mut out);
            }
        }
        out.window_ns = window.elapsed().as_nanos() as u64;
        self.check_counts(&mut out);
        if p.traced {
            self.archive_probes(&mut out);
        }
        out.spans = trace::take();
        self.layer(&mut out);
        out
    }

    /// The run's counts against the harness's brute-force reference and
    /// (for the committed seeds and sizes) the committed constants.
    fn check_counts(&self, out: &mut Outcome) {
        let sys = &self.sys;
        let archived = sys.archive().total_samples() as u64;
        let report = sys.delivery_report();
        // Every node collects at the start and then every tenth step;
        // each job adds a `begin` and an `end` collection per node.
        let steps = self.step;
        let interval = self.p.nodes as u64 * (steps / 10 + 1);
        let running: u64 = sys.scheduler().running().map(|j| j.n_nodes as u64).sum();
        let want = interval + self.marked_expected + running;
        out.check(report.collected == want, || {
            format!(
                "{} samples collected, the reference counts {want} ({interval} interval + {} job marks)",
                report.collected,
                self.marked_expected + running
            )
        });
        out.check(
            archived == report.collected && report.delivered == report.collected,
            || {
                format!(
                    "{} collected, {} delivered, {archived} archived",
                    report.collected, report.delivered
                )
            },
        );
        let rows = sys.db().table(JOBS_TABLE).map_or(0, |t| t.len()) as u64;
        out.check(rows == sys.ingest_watermark(), || {
            format!(
                "jobs table has {rows} rows at watermark {}",
                sys.ingest_watermark()
            )
        });
        let alerts = sys.alerts().len() as u64;
        if let Some(want) = self.p.expected {
            let got = ExpectedCounts {
                samples: archived,
                jobs: rows,
                alerts,
            };
            out.check(got == want, || {
                format!(
                    "seed {} at {} steps: {got:?}, committed {want:?}",
                    self.p.seed, self.p.steps
                )
            });
        }
        out.collected = report.collected;
        out.queryable = archived;
        out.attempted += report.collected;
    }

    /// Post-window probes on real `system_live` samples: parse a seeded
    /// choice of host-day archive files and feed them to a `HostAccum`.
    fn archive_probes(&mut self, out: &mut Outcome) {
        let mut keys = self.sys.archive().keys();
        keys.sort_by_key(|(h, d)| common::mix(&[self.p.seed, d.as_secs(), u64::from(h.id())]));
        let (mut parsed, mut fed) = (0u64, 0u64);
        for (host, day) in keys.into_iter().take(ARCHIVE_PROBE_FILES) {
            let rf = {
                let _span = trace::span(Stage::ProbeParse);
                self.sys.archive().parse(host.as_str(), day)
            };
            let Some(Ok(rf)) = rf else {
                out.violation(format!("archive file {host}/{day} does not parse"));
                continue;
            };
            parsed += rf.samples.len() as u64;
            let mut acc = HostAccum::new(&rf.header);
            for sample in &rf.samples {
                let _span = trace::span(Stage::ProbeAccum);
                acc.feed(sample);
                fed += 1;
            }
        }
        self.probe_parsed = parsed;
        self.probe_fed = fed;
    }

    fn layer(&self, out: &mut Outcome) {
        let median = crate::stats::median;
        let node_steps = (self.p.nodes as u64 * self.p.steps).max(1) as f64;
        let parsed = self.probe_parsed as f64;
        let fed = self.probe_fed as f64;
        let rows = trace::summarize(&out.spans);
        let row = |s| trace::row(&rows, s);
        let wall_ns = out.ticks.total_ns().max(1) as f64;
        let l = &mut out.layer;
        l.insert("core.jobs_ingested", self.sys.ingested as f64);
        l.insert("core.online.alerts", self.sys.alerts().len() as f64);
        self.client.layer(l);
        l.insert("portal.detail.us_p50", median(&self.detail_us));
        let cache = self.client.cache.stats();
        l.insert(
            "portal.cache.hit_rate",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        if let Some(tsdb) = self.sys.tsdb() {
            l.insert("tsdb.seal.blocks", tsdb.n_sealed_blocks() as f64);
            l.insert(
                "tsdb.storage_bytes_per_point",
                tsdb.storage_bytes() as f64 / tsdb.n_points().max(1) as f64,
            );
        }
        if !self.p.traced {
            return;
        }
        l.insert(
            "core.step.ns_per_node_step",
            row(Stage::CoreStep).total_ns as f64 / node_steps,
        );
        // The twin cluster's advance, scaled from the probed steps to
        // every step: the share of the window `SimCluster::advance_all`
        // accounts for inside `step_once`, which no outside span can see.
        let adv = row(Stage::ProbeAdvance);
        let per_node_step = adv.total_ns as f64 / (adv.calls.max(1) as f64 * self.p.nodes as f64);
        l.insert("simnode.advance.ns_per_node_step", per_node_step);
        l.insert(
            "simnode.advance.share",
            per_node_step * node_steps / wall_ns,
        );
        l.insert(
            "collect.codec_parse.ns_per_sample",
            row(Stage::ProbeParse).total_ns as f64 / parsed.max(1.0),
        );
        l.insert(
            "collect.codec_parse.allocs_per_sample",
            row(Stage::ProbeParse).allocs as f64 / parsed.max(1.0),
        );
        l.insert(
            "metrics.accum_feed.ns_per_sample",
            row(Stage::ProbeAccum).total_ns as f64 / fed.max(1.0),
        );
        l.insert(
            "metrics.accum_feed.allocs_per_sample",
            row(Stage::ProbeAccum).allocs as f64 / fed.max(1.0),
        );
    }
}
