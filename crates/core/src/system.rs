//! The assembled monitoring system.
//!
//! [`MonitoringSystem`] is the paper's job-level view on top of the
//! [`Pipeline`] (simulated cluster, per-node collectors in either §III-A
//! operation mode, broker, consumer, archive, the optional §VI-A
//! time-series mirror): the batch scheduler with prolog/epilog hooks,
//! the streaming Table I metric pipeline, the job database the portal
//! queries, XALT, the shared metadata server, and the §VI-B online
//! analyzer with automated job suspension and adaptive cadence.

use crate::config::{Mode, SystemConfig};
use crate::online::{AdaptiveConfig, Alert, OnlineAnalyzer, OnlineConfig};
use crate::pipeline::{DeliveryReport, Pipeline};
use std::collections::{HashMap, VecDeque};
use tacc_broker::Broker;
use tacc_collect::engine::OverheadAccount;
use tacc_collect::record::{HostHeader, Sample};
use tacc_collect::spool::SpoolConfig;
use tacc_collect::Archive;
use tacc_jobdb::Database;
use tacc_metrics::accum::JobAccum;
use tacc_metrics::flags::{FlagContext, FlagRules};
use tacc_metrics::ingest::ingest_job;
use tacc_scheduler::job::{JobId, JobRequest, JobStatus};
use tacc_scheduler::sched::{SchedEvent, Scheduler};
use tacc_scheduler::xalt::XaltDb;
use tacc_simnode::faults::FaultPlan;
use tacc_simnode::lustre_server::MdsModel;
use tacc_simnode::workload::NodeDemand;
use tacc_simnode::{SimClock, SimDuration, SimTime};
use tacc_tsdb::TsDb;

/// Feed one sample into the accumulator of every job it is tagged with.
fn feed_accums(accums: &mut HashMap<JobId, JobAccum>, header: &HostHeader, sample: &Sample) {
    for jid in &sample.jobids {
        if let Ok(id) = jid.parse::<JobId>() {
            accums.entry(id).or_default().feed(header, sample);
        }
    }
}

/// The full monitoring system over a simulated cluster.
pub struct MonitoringSystem {
    cfg: SystemConfig,
    pipeline: Pipeline,
    scheduler: Scheduler,
    db: Database,
    online: Option<OnlineAnalyzer>,
    /// Automatically cancel jobs the online analyzer blames.
    pub auto_suspend: bool,
    /// Adaptive per-node sampling policy, if enabled.
    adaptive: Option<AdaptiveConfig>,
    /// Current sampling cadence per node (daemon mode).
    cadence: Vec<SimDuration>,
    /// When each node's cadence last changed (backoff timer).
    cadence_changed: Vec<SimTime>,
    /// Every cadence change: (when, node index, new interval).
    cadence_log: Vec<(SimTime, usize, SimDuration)>,
    rules: FlagRules,
    pending: VecDeque<(SimTime, JobRequest)>,
    accums: HashMap<JobId, JobAccum>,
    node_assign: Vec<Option<(JobId, usize)>>,
    job_pids: HashMap<JobId, Vec<(usize, u32)>>,
    /// Jobs ingested into the database so far.
    pub ingested: usize,
    suspended: Vec<JobId>,
    xalt: XaltDb,
    /// Shared metadata-server latency model (§VI-A interference).
    pub mds: MdsModel,
}

impl MonitoringSystem {
    /// Build the system: the [`Pipeline`] of `cfg.mode` plus the
    /// scheduler and the job-level state on top of it.
    pub fn new(cfg: SystemConfig) -> MonitoringSystem {
        MonitoringSystem {
            pipeline: Pipeline::new(&cfg),
            scheduler: Scheduler::new(cfg.n_nodes, cfg.n_largemem),
            db: Database::new(),
            online: None,
            auto_suspend: false,
            adaptive: None,
            cadence: Vec::new(),
            cadence_changed: Vec::new(),
            cadence_log: Vec::new(),
            rules: FlagRules::default(),
            pending: VecDeque::new(),
            accums: HashMap::new(),
            node_assign: vec![None; cfg.total_nodes()],
            job_pids: HashMap::new(),
            ingested: 0,
            suspended: Vec::new(),
            xalt: XaltDb::new(cfg.enable_xalt),
            mds: MdsModel::default(),
            cfg,
        }
    }

    /// Install a [`FaultPlan`] (daemon mode only; see
    /// [`Pipeline::set_fault_plan`]): every step applies it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.pipeline.set_fault_plan(plan);
    }

    /// Reconfigure every daemon's spool ([`Pipeline::set_spool`]).
    pub fn set_spool(&mut self, cfg: SpoolConfig) {
        self.pipeline.set_spool(cfg);
    }

    /// Enable §VI-B online analysis (daemon mode only; cron mode has no
    /// real-time stream to analyze).
    pub fn enable_online(&mut self, cfg: OnlineConfig, auto_suspend: bool) {
        assert!(
            matches!(self.cfg.mode, Mode::Daemon { .. }),
            "online analysis requires the daemon mode's real-time stream"
        );
        self.online = Some(OnlineAnalyzer::new(cfg));
        self.auto_suspend = auto_suspend;
    }

    /// Enable adaptive per-node sampling (§VI-B closing the loop):
    /// after each step, every daemon's cadence is retuned from the
    /// online analyzer's per-node anomaly score — stable nodes back
    /// off toward `cfg.max_interval`, anomalous nodes snap to
    /// `cfg.min_interval`. Requires daemon mode with online analysis
    /// enabled.
    pub fn enable_adaptive(&mut self, cfg: AdaptiveConfig) {
        assert!(
            matches!(self.cfg.mode, Mode::Daemon { .. }),
            "adaptive sampling retunes the daemon schedule; use daemon mode"
        );
        assert!(
            self.online.is_some(),
            "adaptive sampling is driven by the online analyzer; call enable_online first"
        );
        let now = self.clock().now();
        let n = self.pipeline.headers().len();
        self.cadence = vec![self.cfg.interval; n];
        self.cadence_changed = vec![now; n];
        self.adaptive = Some(cfg);
    }

    /// Current sampling cadence of one node (the configured interval
    /// until adaptive sampling changes it).
    pub fn cadence_of(&self, node_idx: usize) -> SimDuration {
        self.cadence
            .get(node_idx)
            .copied()
            .unwrap_or(self.cfg.interval)
    }

    /// Every adaptive cadence change so far: (when, node, new interval).
    pub fn cadence_log(&self) -> &[(SimTime, usize, SimDuration)] {
        &self.cadence_log
    }

    /// Queue job submissions (time-ordered or not; they are sorted).
    pub fn enqueue_jobs(&mut self, mut jobs: Vec<(SimTime, JobRequest)>) {
        jobs.sort_by_key(|(t, _)| *t);
        for j in jobs {
            self.pending.push_back(j);
        }
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        self.pipeline.clock()
    }

    /// The job database (portal queries run against this).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The ingest watermark: a monotonic count of jobs ingested into
    /// the database, i.e. a version number for its contents. The
    /// portal's [`tacc_portal::cache::QueryCache`] keys entries on
    /// this — the first query at a newer watermark drops every result
    /// cached at an older one.
    pub fn ingest_watermark(&self) -> u64 {
        self.ingested as u64
    }

    /// The central raw-stats archive.
    pub fn archive(&self) -> &Archive {
        self.pipeline.archive()
    }

    /// The broker (daemon mode only).
    pub fn broker(&self) -> Option<&Broker> {
        self.pipeline.broker()
    }

    /// The time-series database, if enabled.
    pub fn tsdb(&self) -> Option<&TsDb> {
        self.pipeline.tsdb()
    }

    /// Crash-recovery accounting from opening a durable tsdb
    /// ([`SystemConfig::tsdb_dir`]); `None` for in-memory mirrors.
    pub fn tsdb_recovery(&self) -> Option<&tacc_tsdb::RecoveryReport> {
        self.pipeline.tsdb_recovery()
    }

    /// Why the configured durable tsdb fell back to memory, if it did.
    pub fn tsdb_open_error(&self) -> Option<&str> {
        self.pipeline.tsdb_open_error()
    }

    /// Fsync the durable tsdb's write-ahead logs, making every point
    /// mirrored so far crash-proof. No-op (Ok) for in-memory mirrors.
    pub fn flush_tsdb(&self) -> Result<(), tacc_tsdb::DiskError> {
        match self.tsdb() {
            Some(db) if db.is_durable() => db.flush(),
            _ => Ok(()),
        }
    }

    /// The scheduler (running/queued inspection).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Alerts raised by the online analyzer.
    pub fn alerts(&self) -> &[Alert] {
        self.online.as_ref().map(|o| o.alerts()).unwrap_or(&[])
    }

    /// Jobs suspended by automated response.
    pub fn suspended(&self) -> &[JobId] {
        &self.suspended
    }

    /// The XALT environment database (§IV-B).
    pub fn xalt(&self) -> &XaltDb {
        &self.xalt
    }

    /// Aggregate collection-overhead accounting across all nodes.
    pub fn overhead(&self) -> OverheadAccount {
        self.pipeline.overhead()
    }

    /// Crash a node ([`Pipeline::crash_node`]); returns samples lost.
    pub fn crash_node(&mut self, node_idx: usize) -> usize {
        self.pipeline.crash_node(node_idx)
    }

    /// Reboot a crashed node ([`Pipeline::reboot_node`]).
    pub fn reboot_node(&mut self, node_idx: usize) {
        self.pipeline.reboot_node(node_idx);
    }

    /// End-to-end delivery accounting ([`Pipeline::delivery_report`]).
    pub fn delivery_report(&self) -> DeliveryReport {
        self.pipeline.delivery_report()
    }

    fn set_jobs_on(&mut self, node_idx: usize) {
        let ids: Vec<String> = self
            .scheduler
            .running_on(node_idx)
            .into_iter()
            .map(|j| j.to_string())
            .collect();
        self.pipeline.set_jobs(node_idx, ids);
    }

    fn collect_marked_on(&mut self, node_idx: usize, now: SimTime, mark: &str) {
        let accums = &mut self.accums;
        self.pipeline
            .collect_node(node_idx, now, Some(mark), |_, header, sample| {
                feed_accums(accums, header, sample)
            });
    }

    fn handle_started(&mut self, id: JobId, now: SimTime) {
        let job = self.scheduler.job(id).expect("started job exists").clone();
        self.xalt.record_launch(id, &job.exec);
        let mut pids = Vec::new();
        for (rank, &node_idx) in job.nodes.iter().enumerate() {
            self.node_assign[node_idx] = Some((id, rank));
            let idle = rank >= job.n_nodes.saturating_sub(job.idle_nodes);
            if !idle {
                let node = self.pipeline.cluster().node(node_idx);
                let mut guard = node.write();
                let n_procs = job.wayness.min(guard.topology.n_cores()).max(1);
                for _ in 0..n_procs {
                    let pid = guard.spawn_process(&job.exec, job.uid, 1, u64::MAX);
                    pids.push((node_idx, pid));
                }
            }
            self.set_jobs_on(node_idx);
            self.collect_marked_on(node_idx, now, &format!("begin {id}"));
        }
        self.job_pids.insert(id, pids);
    }

    fn handle_ended(&mut self, id: JobId, now: SimTime, mark: &str) {
        let job = self.scheduler.job(id).expect("ended job exists").clone();
        for &node_idx in &job.nodes {
            // Epilog collection first (captures the final counters with
            // the job still attributed), then clean up.
            self.collect_marked_on(node_idx, now, &format!("{mark} {id}"));
            self.node_assign[node_idx] = None;
            self.set_jobs_on(node_idx);
        }
        if let Some(pids) = self.job_pids.remove(&id) {
            for (node_idx, pid) in pids {
                self.pipeline
                    .cluster()
                    .node(node_idx)
                    .write()
                    .end_process(pid);
            }
        }
    }

    fn ingest_finished(&mut self) {
        for job in self.scheduler.drain_finished() {
            let metrics = self
                .accums
                .remove(&job.id)
                .map(|a| a.finalize())
                .unwrap_or_default();
            let topo = if job.queue.name() == "largemem" {
                &self.cfg.largemem_topology
            } else {
                &self.cfg.topology
            };
            let mem_gb = topo.memory_bytes as f64 / 1e9;
            // Close out the job's streaming flag state: the streamed
            // verdict replays the batch metrics, so it equals what
            // ingest_job is about to store (and the per-job state is
            // dropped, bounding analyzer memory by live jobs).
            if let Some(online) = &mut self.online {
                let ctx = FlagContext {
                    queue_name: job.queue.name().to_string(),
                    node_memory_gb: mem_gb,
                };
                online.finish_job(&job.id.to_string(), &ctx, &metrics);
            }
            ingest_job(&mut self.db, &job, &metrics, &self.rules, mem_gb);
            self.ingested += 1;
        }
    }

    /// Retune every daemon's sampling cadence from the analyzer's
    /// per-node anomaly score: a hot node (score ≥ `hot_score`) snaps
    /// to `min_interval`; a node that completed a full quiet period at
    /// its current cadence backs off multiplicatively toward
    /// `max_interval`.
    fn adapt_cadence(&mut self, now: SimTime) {
        let (Some(acfg), Some(online)) = (self.adaptive, &self.online) else {
            return;
        };
        let slots = self.cadence.iter_mut().zip(&mut self.cadence_changed);
        for (i, (cur, since)) in slots.enumerate() {
            let score = online.anomaly_score(self.pipeline.headers()[i].hostname);
            let quiet = now.duration_since(*since) >= *cur;
            let desired = if score >= acfg.hot_score {
                acfg.min_interval
            } else if quiet {
                // One full quiet period at the current cadence: back
                // off one multiplicative step.
                let next = (cur.as_secs() as f64 * acfg.backoff).round() as u64;
                SimDuration::from_secs(next).min(acfg.max_interval)
            } else {
                *cur
            };
            if desired != *cur {
                *cur = desired;
                *since = now;
                self.pipeline.set_interval(i, now, desired);
                self.cadence_log.push((now, i, desired));
            } else if quiet {
                // At the ceiling (or floor): restart the quiet timer so
                // the elapsed check stays meaningful.
                *since = now;
            }
        }
    }

    /// One driver step: fault state → submissions → scheduler events
    /// (prolog/epilog collections) → cluster advance → collector ticks
    /// → consumer drain with online analysis (daemon) → adaptive
    /// cadence → ingest finished jobs.
    pub fn step_once(&mut self) {
        let now = self.clock().now();
        // Fault-plan state for this instant (broker outages, node
        // crash/reboot edges, device degradation).
        self.pipeline.apply_faults(now);
        // Submissions due.
        while self.pending.front().is_some_and(|(t, _)| *t <= now) {
            let (_, req) = self.pending.pop_front().expect("checked nonempty");
            self.scheduler.submit(req, now);
        }
        // Scheduler events.
        let events = self.scheduler.step(now);
        for ev in events {
            match ev {
                SchedEvent::Started(id) => self.handle_started(id, now),
                SchedEvent::Ended(id) => self.handle_ended(id, now, "end"),
            }
        }
        // Demands for the coming step.
        let mut demands: Vec<Option<NodeDemand>> = self
            .node_assign
            .iter()
            .map(|slot| {
                let (id, rank) = (*slot)?;
                let job = self.scheduler.job(id)?;
                if job.status != JobStatus::Running {
                    return None;
                }
                if rank >= job.n_nodes.saturating_sub(job.idle_nodes) {
                    return Some(NodeDemand::idle());
                }
                Some(job.app.demand(rank, job.t_frac(now)))
            })
            .collect();
        // Shared-MDS interference (§VI-A): per-request wait scales with
        // the cluster-wide aggregate request rate, so one job's metadata
        // storm raises every other job's MDCWait.
        let aggregate_reqs: f64 = demands
            .iter()
            .flatten()
            .flat_map(|d| d.lustre.iter())
            .map(|l| l.mdc_reqs_per_sec)
            .sum();
        let factor = self.mds.wait_factor(aggregate_reqs);
        if factor > 1.0 {
            for d in demands.iter_mut().flatten() {
                for l in &mut d.lustre {
                    l.mdc_wait_us *= factor;
                }
            }
        }
        let now2 = self.pipeline.advance(self.cfg.step, |i| demands[i].clone());
        // Collector ticks: samples a cron sync brings in feed their jobs.
        let accums = &mut self.accums;
        self.pipeline.collect(now2, |_, header, sample| {
            feed_accums(accums, header, sample)
        });
        // Consumer drain + online analysis (daemon mode).
        let mut to_suspend: Vec<JobId> = Vec::new();
        let (accums, online) = (&mut self.accums, &mut self.online);
        let auto_suspend = self.auto_suspend;
        self.pipeline.drain(now2, usize::MAX, |_, header, sample| {
            feed_accums(accums, header, sample);
            let Some(online) = online.as_mut() else {
                return;
            };
            for alert in online.observe(now2, header, sample) {
                if auto_suspend {
                    to_suspend.extend(alert.jobids.iter().filter_map(|j| j.parse::<JobId>().ok()));
                }
            }
        });
        if let Some(online) = &mut self.online {
            online.check_silence(now2);
        }
        for id in to_suspend {
            self.suspend_job(id, now2);
        }
        // Adaptive sampling: retune daemon cadences from the analyzer's
        // per-node anomaly scores.
        self.adapt_cadence(now2);
        // Ingest whatever finished this step.
        self.ingest_finished();
    }

    /// Suspend (cancel) a job — the §VI-B automated response.
    pub fn suspend_job(&mut self, id: JobId, now: SimTime) -> bool {
        if !self.scheduler.cancel(id, now) {
            return false;
        }
        self.suspended.push(id);
        self.handle_ended(id, now, "cancel");
        true
    }

    /// Drive the system until the clock reaches `end`.
    pub fn run_until(&mut self, end: SimTime) {
        while self.clock().now() < end {
            self.step_once();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::AlertKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tacc_jobdb::Query;
    use tacc_metrics::ingest::JOBS_TABLE;
    use tacc_scheduler::job::QueueName;
    use tacc_simnode::apps::AppModel;
    use tacc_simnode::topology::NodeTopology;
    use tacc_simnode::SimDuration;

    fn request(model: AppModel, n_nodes: usize, runtime_mins: u64) -> JobRequest {
        let mut rng = StdRng::seed_from_u64(runtime_mins);
        let topo = NodeTopology::stampede();
        let app = model.instantiate(&mut rng, n_nodes, 16, &topo);
        JobRequest {
            user: "alice".into(),
            uid: 5001,
            account: "TG-1".into(),
            job_name: "t".into(),
            queue: QueueName::Normal,
            n_nodes,
            wayness: 16,
            runtime: SimDuration::from_mins(runtime_mins),
            will_fail: false,
            idle_nodes: 0,
            app,
        }
    }

    fn t0() -> SimTime {
        SimTime::from_secs(tacc_simnode::clock::Q4_2015_START_SECS)
    }

    #[test]
    fn daemon_mode_end_to_end_job_metrics() {
        let mut sys = MonitoringSystem::new(SystemConfig::small(2, crate::config::Mode::daemon()));
        sys.enqueue_jobs(vec![(t0(), request(AppModel::namd(), 2, 60))]);
        sys.run_until(t0() + SimDuration::from_mins(90));
        assert_eq!(sys.ingested, 1);
        let t = sys.db().table(JOBS_TABLE).unwrap();
        assert_eq!(t.len(), 1);
        let cpu = Query::new(t).avg("CPU_Usage").unwrap().unwrap();
        assert!(cpu > 0.5, "CPU_Usage {cpu}");
        let vec = Query::new(t).avg("VecPercent").unwrap().unwrap();
        assert!(vec > 10.0, "VecPercent {vec}");
        // Samples reached the archive in real time.
        let lat = sys.archive().latency_stats();
        assert!(lat.count > 0);
        assert!(lat.max_secs <= sys.cfg.step.as_secs_f64() + 1.0);
        // ≥2 samples per job (prolog + epilog at least).
        assert!(lat.count >= 2);
    }

    #[test]
    fn portal_query_cache_tracks_ingest_watermark() {
        use tacc_portal::cache::QueryCache;
        use tacc_portal::SearchSpec;

        let mut sys = MonitoringSystem::new(SystemConfig::small(2, crate::config::Mode::daemon()));
        sys.enqueue_jobs(vec![(t0(), request(AppModel::namd(), 2, 60))]);
        sys.run_until(t0() + SimDuration::from_mins(90));
        assert_eq!(sys.ingest_watermark(), 1);

        let mut cache = QueryCache::default();
        let spec = SearchSpec::default();
        let wm = sys.ingest_watermark();
        {
            let t = sys.db().table(JOBS_TABLE).unwrap();
            let cold = cache.search(&spec, t, None, wm, 0).unwrap();
            assert_eq!(cold.len(), 1);
            let panels_cold = cache.fig4(&spec, t, None, wm, 0).unwrap();
            // Warm hits: identical results, no rescans (hit counters move).
            let warm = cache.search(&spec, t, None, wm, 1).unwrap();
            assert_eq!(warm.rows(), cold.rows());
            let panels_warm = cache.fig4(&spec, t, None, wm, 1).unwrap();
            assert!(
                std::sync::Arc::ptr_eq(&panels_cold, &panels_warm),
                "warm fig4 must be the cached panel set, not a rebuild"
            );
            // 3 hits: the fig4 miss reused the cached search indices,
            // plus the two warm lookups above.
            assert_eq!(cache.stats().hits, 3);
            assert_eq!(*panels_cold, spec.run(t).unwrap().fig4());
        }

        // A second ingest advances the watermark; cached entries are
        // stale by construction and must be recomputed, seeing the new
        // job.
        sys.enqueue_jobs(vec![(
            sys.clock().now() + SimDuration::from_mins(1),
            request(AppModel::namd(), 2, 30),
        )]);
        sys.run_until(sys.clock().now() + SimDuration::from_mins(90));
        let wm2 = sys.ingest_watermark();
        assert_eq!(wm2, 2);
        let t = sys.db().table(JOBS_TABLE).unwrap();
        let fresh = cache.search(&spec, t, None, wm2, 2).unwrap();
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh.rows(), spec.run(t).unwrap().rows());
        assert!(cache.stats().invalidated >= 1);
        let panels_fresh = cache.fig4(&spec, t, None, wm2, 2).unwrap();
        assert_eq!(*panels_fresh, spec.run(t).unwrap().fig4());
    }

    #[test]
    fn cron_mode_end_to_end_with_latency() {
        let mut sys = MonitoringSystem::new(SystemConfig::small(2, Mode::cron()));
        sys.enqueue_jobs(vec![(t0(), request(AppModel::namd(), 1, 30))]);
        // Run past the next day's sync window.
        sys.run_until(t0() + SimDuration::from_hours(30));
        assert_eq!(sys.ingested, 1);
        // Metrics computed even though archive data arrived a day late.
        let t = sys.db().table(JOBS_TABLE).unwrap();
        assert!(Query::new(t).avg("CPU_Usage").unwrap().unwrap() > 0.5);
        let lat = sys.archive().latency_stats();
        assert!(
            lat.mean_secs > 3600.0,
            "cron latency should be hours, got {}",
            lat.mean_secs
        );
    }

    #[test]
    fn online_analyzer_detects_and_suspends_storm_job() {
        let mut sys = MonitoringSystem::new(SystemConfig::small(2, crate::config::Mode::daemon()));
        sys.enable_online(OnlineConfig::default(), true);
        sys.enqueue_jobs(vec![(
            t0(),
            request(AppModel::wrf_metadata_storm(), 2, 240),
        )]);
        sys.run_until(t0() + SimDuration::from_mins(40));
        assert!(
            !sys.alerts().is_empty(),
            "storm must be detected within a few intervals"
        );
        assert_eq!(sys.suspended().len(), 1);
        // The suspended job is in the DB with cancelled status.
        let t = sys.db().table(JOBS_TABLE).unwrap();
        let cancelled = Query::new(t)
            .filter_kw("status", "cancelled")
            .count()
            .unwrap();
        assert_eq!(cancelled, 1);
        // Detection latency: first alert within 2 sampling intervals of
        // job start.
        let first = &sys.alerts()[0];
        let latency = first.time.duration_since(t0());
        assert!(
            latency.as_secs() <= 2 * 600 + sys.cfg.step.as_secs(),
            "latency {}s",
            latency.as_secs()
        );
    }

    #[test]
    fn adaptive_cadence_backs_off_quiet_nodes_and_speeds_up_hot_ones() {
        let mut cfg = SystemConfig::small(3, crate::config::Mode::daemon());
        cfg.interval = SimDuration::from_mins(5);
        let mut sys = MonitoringSystem::new(cfg);
        sys.enable_online(OnlineConfig::default(), false);
        sys.enable_adaptive(AdaptiveConfig::default());
        // Two nodes run an app whose CPU collapses mid-run; node 2
        // stays idle throughout.
        sys.enqueue_jobs(vec![(t0(), request(AppModel::failing(), 2, 180))]);
        sys.run_until(t0() + SimDuration::from_hours(4));
        // Quiet node backed off to the ceiling.
        assert_eq!(
            sys.cadence_of(2),
            AdaptiveConfig::default().max_interval,
            "idle node should be at the backoff ceiling"
        );
        // The collapse spiked the z-score: a job host snapped to the
        // adaptive floor at some point.
        let floor = AdaptiveConfig::default().min_interval;
        assert!(
            sys.cadence_log()
                .iter()
                .any(|(_, node, i)| *node < 2 && *i == floor),
            "no job host ever reached the adaptive floor: {:?}",
            sys.cadence_log()
        );
        // The drop was alerted, and adaptive cadence still collected
        // fewer samples than the fixed 5-min cadence would have
        // (3 nodes x 4 h x 12/h = 144).
        assert!(sys
            .alerts()
            .iter()
            .any(|a| matches!(a.kind, AlertKind::SuddenDrop)));
        let collected = sys.delivery_report().collected;
        assert!(collected < 144, "collected {collected} of fixed 144");
    }

    #[test]
    fn queued_jobs_wait_for_nodes() {
        let mut sys = MonitoringSystem::new(SystemConfig::small(1, crate::config::Mode::daemon()));
        sys.enqueue_jobs(vec![
            (t0(), request(AppModel::python(), 1, 30)),
            (t0(), request(AppModel::python(), 1, 30)),
        ]);
        sys.run_until(t0() + SimDuration::from_mins(90));
        assert_eq!(sys.ingested, 2);
        let t = sys.db().table(JOBS_TABLE).unwrap();
        let waits: Vec<f64> = Query::new(t)
            .values("queue_wait")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_f64())
            .collect();
        assert!(waits.iter().any(|w| *w >= 1700.0), "waits {waits:?}");
    }
}
