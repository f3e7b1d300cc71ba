//! The assembled monitoring system.
//!
//! [`MonitoringSystem`] wires the whole paper together: a simulated
//! cluster, the batch scheduler with prolog/epilog hooks, a per-node
//! collector in either §III-A operation mode, the broker + consumer of
//! daemon mode, the central archive, the streaming Table I metric
//! pipeline, the job database the portal queries, the optional §VI-A
//! time-series mirror, and the §VI-B online analyzer with automated job
//! suspension.

use crate::config::{Mode, SystemConfig};
use crate::online::{AdaptiveConfig, Alert, OnlineAnalyzer, OnlineConfig};
use crate::pool::WorkerPool;
use bytes::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use tacc_broker::Broker;
use tacc_collect::consumer::StatsConsumer;
use tacc_collect::cron::{CronCollector, CronConfig};
use tacc_collect::daemon::{LocalPublisher, Publisher, TaccStatsd};
use tacc_collect::discovery::{discover, BuildOptions};
use tacc_collect::engine::{OverheadAccount, Sampler};
use tacc_collect::record::{HostHeader, Sample};
use tacc_collect::spool::SpoolConfig;
use tacc_collect::Archive;
use tacc_jobdb::Database;
use tacc_metrics::accum::JobAccum;
use tacc_metrics::flags::{FlagContext, FlagRules};
use tacc_metrics::ingest::ingest_job;
use tacc_metrics::sketch::SketchRegistry;
use tacc_scheduler::job::{JobId, JobRequest, JobStatus};
use tacc_scheduler::sched::{SchedEvent, Scheduler};
use tacc_scheduler::xalt::XaltDb;
use tacc_simnode::counter::wrapping_delta;
use tacc_simnode::faults::{fault_path, DeviceFaultKind, FaultPlan, ReadFault, ReadFaultMode};
use tacc_simnode::intern::Sym;
use tacc_simnode::lustre_server::MdsModel;
use tacc_simnode::pseudofs::NodeFs;
use tacc_simnode::schema::DeviceType;
use tacc_simnode::workload::NodeDemand;
use tacc_simnode::{SimClock, SimCluster, SimDuration, SimNode, SimTime};
use tacc_tsdb::{SeriesKey, TsDb};

/// Mirrors selected per-host rates into the time-series database
/// (§VI-A): cumulative counters become bucketed rate series tagged
/// (host, device type, device name, event).
struct TsdbMirror {
    prev: HashMap<SeriesKey, (u64, u64)>,
}

impl TsdbMirror {
    fn new() -> TsdbMirror {
        TsdbMirror {
            prev: HashMap::new(),
        }
    }

    fn feed(&mut self, header: &HostHeader, sample: &Sample, tsdb: &TsDb) {
        let t = sample.time.as_secs();
        let host = header.hostname.as_str();
        let mut track = |dt: DeviceType, event: &str, value: u64| {
            let key = SeriesKey::new(host, dt.name(), "all", event);
            if let Some((pt, pv)) = self.prev.get(&key).copied() {
                let dtime = t.saturating_sub(pt) as f64;
                if dtime > 0.0 {
                    let rate = wrapping_delta(pv, value, 64) as f64 / dtime;
                    tsdb.insert(key.clone(), t, rate);
                }
            }
            self.prev.insert(key, (t, value));
        };
        let sum_of = |dt: DeviceType, ev: &str| -> u64 {
            let Some(schema) = header.schemas.get(&dt) else {
                return 0;
            };
            let Some(i) = schema.index_of(ev) else {
                return 0;
            };
            sample.devices_of(dt).map(|r| r.values[i]).sum()
        };
        if header.schemas.contains_key(&DeviceType::Mdc) {
            track(DeviceType::Mdc, "reqs", sum_of(DeviceType::Mdc, "reqs"));
            track(DeviceType::Mdc, "wait", sum_of(DeviceType::Mdc, "wait"));
        }
        if header.schemas.contains_key(&DeviceType::Llite) {
            track(
                DeviceType::Llite,
                "open_close",
                sum_of(DeviceType::Llite, "open") + sum_of(DeviceType::Llite, "close"),
            );
        }
        if header.schemas.contains_key(&DeviceType::Lnet) {
            track(
                DeviceType::Lnet,
                "bytes",
                sum_of(DeviceType::Lnet, "tx_bytes") + sum_of(DeviceType::Lnet, "rx_bytes"),
            );
        }
        track(
            DeviceType::Cpustat,
            "user",
            sum_of(DeviceType::Cpustat, "user"),
        );
    }
}

enum NodeCollectors {
    Cron(Vec<CronCollector>),
    Daemon(Vec<TaccStatsd>),
}

/// Fault-injecting broker transport: consults the [`FaultPlan`] for
/// deterministic per-message network drops. A dropped *request* never
/// reaches the broker; a dropped *acknowledgement* is delivered but the
/// sender sees a failure and will replay it later (the at-least-once
/// duplicate source).
struct ChaosPublisher {
    broker: Broker,
    plan: FaultPlan,
    host: String,
}

impl Publisher for ChaosPublisher {
    fn publish(&mut self, queue: &str, routing_key: &str, seq: u64, payload: Bytes) -> bool {
        if self.plan.drops_request(&self.host, seq) {
            return false;
        }
        let ok = self.broker.publish(queue, routing_key, payload);
        if ok && self.plan.drops_ack(&self.host, seq) {
            return false;
        }
        ok
    }
}

/// End-to-end delivery reconciliation for daemon mode: every sequence
/// number any node ever assigned is classified into exactly one bucket,
/// so `collected == delivered + dropped + lost + in_spool` holds by
/// construction and the interesting assertions are about which bucket
/// each fate lands in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryReport {
    /// Samples collected across all nodes (== sequence numbers issued).
    pub collected: u64,
    /// Archived by the consumer (at least once).
    pub delivered: u64,
    /// Evicted from a full spool — bounded-buffer overflow, accounted.
    pub dropped: u64,
    /// Wiped from a spool by a node crash (or otherwise vanished).
    pub lost: u64,
    /// Still spooled awaiting replay.
    pub in_spool: u64,
    /// Redelivered duplicates the consumer skipped.
    pub duplicates: u64,
    /// Sequence-gap events the consumer observed on arrival.
    pub gap_events: u64,
    /// Device instances missing from samples due to failed pseudofs
    /// reads (cumulative across nodes).
    pub degraded_reads: u64,
    /// Unique messages the consumer processed.
    pub received: u64,
    /// Unparseable messages routed to the dead-letter queue.
    pub dead_lettered: u64,
}

/// The full monitoring system over a simulated cluster.
pub struct MonitoringSystem {
    cfg: SystemConfig,
    clock: SimClock,
    cluster: SimCluster,
    scheduler: Scheduler,
    collectors: NodeCollectors,
    headers: Vec<HostHeader>,
    archive: Arc<Archive>,
    broker: Option<Broker>,
    consumer: Option<StatsConsumer>,
    db: Database,
    tsdb: Option<TsDb>,
    /// Recovery accounting from opening a durable tsdb
    /// ([`SystemConfig::tsdb_dir`]); `None` for in-memory stores.
    tsdb_recovery: Option<tacc_tsdb::RecoveryReport>,
    /// Why a requested durable tsdb could not be opened (the system
    /// falls back to an in-memory mirror rather than refusing to run).
    tsdb_open_error: Option<String>,
    mirror: TsdbMirror,
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
    /// Per-metric quantile sketches fed at job ingest (portal
    /// histogram/threshold defaults read these instead of rescanning
    /// columns).
    sketches: SketchRegistry,
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
    fault_plan: Option<FaultPlan>,
    /// Which nodes the fault plan currently holds down (to fire
    /// crash/reboot exactly once per window edge).
    plan_node_down: Vec<bool>,
}

impl MonitoringSystem {
    /// Build the system (cluster, scheduler, per-node collectors, and —
    /// in daemon mode — broker and consumer).
    pub fn new(cfg: SystemConfig) -> MonitoringSystem {
        let clock = SimClock::starting_at(cfg.start);
        let mut nodes = Vec::with_capacity(cfg.total_nodes());
        for i in 0..cfg.n_nodes {
            nodes.push(SimNode::new(
                format!("{}-{i:04}", cfg.host_prefix),
                cfg.topology.clone(),
            ));
        }
        for i in 0..cfg.n_largemem {
            nodes.push(SimNode::new(
                format!("{}-lm{i:02}", cfg.host_prefix),
                cfg.largemem_topology.clone(),
            ));
        }
        // Discover and build a sampler per node.
        let mut samplers = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let fs = NodeFs::new(node);
            let dcfg = discover(&fs, BuildOptions::default()).expect("fresh node discovers");
            samplers.push(Sampler::new(&node.hostname, &dcfg));
        }
        let headers: Vec<HostHeader> = samplers.iter().map(|s| s.header().clone()).collect();
        let cluster = SimCluster::from_nodes(clock.clone(), nodes);
        let scheduler = Scheduler::new(cfg.n_nodes, cfg.n_largemem);
        let mut broker = None;
        let mut consumer = None;
        let archive = Arc::new(Archive::new());
        let collectors = match &cfg.mode {
            Mode::Cron {
                rotate_second,
                sync_second,
                sync_spread_secs,
            } => NodeCollectors::Cron(
                samplers
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| {
                        // Deterministic per-node stagger within the window.
                        let offset = (i as u64).wrapping_mul(0x9E37_79B9).wrapping_add(cfg.seed)
                            % (*sync_spread_secs).max(1);
                        CronCollector::new(
                            s,
                            CronConfig {
                                interval: cfg.interval,
                                rotate_second: *rotate_second,
                                sync_second: sync_second + offset,
                            },
                            cfg.start,
                        )
                    })
                    .collect(),
            ),
            Mode::Daemon { queue } => {
                let b = Broker::new();
                b.declare(queue);
                let mut c = StatsConsumer::new(&b, queue, Arc::clone(&archive))
                    .expect("queue just declared");
                c.set_dead_letter(&format!("{queue}.dead_letter"));
                consumer = Some(c);
                let ds = samplers
                    .into_iter()
                    .map(|s| {
                        TaccStatsd::new(
                            s,
                            cfg.interval,
                            queue,
                            Box::new(LocalPublisher(b.clone())),
                            cfg.start,
                        )
                    })
                    .collect();
                broker = Some(b);
                NodeCollectors::Daemon(ds)
            }
        };
        // The tsdb mirror: in-memory by default; durable (WAL +
        // segment files, crash-recovered on open) when a directory is
        // configured. A durable store that fails to open degrades to
        // in-memory — the monitor must keep running (§III "always
        // on") — with the reason kept for inspection.
        let mut tsdb_recovery = None;
        let mut tsdb_open_error = None;
        let tsdb = if cfg.enable_tsdb {
            match &cfg.tsdb_dir {
                Some(dir) => {
                    let opened = tacc_tsdb::FsVfs::open(dir.clone()).and_then(|vfs| {
                        TsDb::recover(
                            Arc::new(vfs),
                            tacc_tsdb::DEFAULT_SHARDS,
                            tacc_tsdb::DurOptions::default(),
                        )
                    });
                    match opened {
                        Ok((db, report)) => {
                            tsdb_recovery = Some(report);
                            Some(db)
                        }
                        Err(e) => {
                            tsdb_open_error = Some(format!("{}: {e}", dir.display()));
                            Some(TsDb::new())
                        }
                    }
                }
                None => Some(TsDb::new()),
            }
        } else {
            None
        };
        let n_total = cfg.total_nodes();
        let enable_xalt = cfg.enable_xalt;
        MonitoringSystem {
            cfg,
            clock,
            cluster,
            scheduler,
            collectors,
            headers,
            archive,
            broker,
            consumer,
            db: Database::new(),
            tsdb,
            tsdb_recovery,
            tsdb_open_error,
            mirror: TsdbMirror::new(),
            online: None,
            auto_suspend: false,
            adaptive: None,
            cadence: Vec::new(),
            cadence_changed: Vec::new(),
            cadence_log: Vec::new(),
            sketches: SketchRegistry::default(),
            rules: FlagRules::default(),
            pending: VecDeque::new(),
            accums: HashMap::new(),
            node_assign: vec![None; n_total],
            job_pids: HashMap::new(),
            ingested: 0,
            suspended: Vec::new(),
            xalt: XaltDb::new(enable_xalt),
            mds: MdsModel::default(),
            fault_plan: None,
            plan_node_down: vec![false; n_total],
        }
    }

    /// Install a [`FaultPlan`] (daemon mode only): every daemon's
    /// transport is swapped for a fault-injecting one, and from now on
    /// [`MonitoringSystem::step_once`] consults the plan for broker
    /// outages, node crash/reboot windows, and device degradation.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let NodeCollectors::Daemon(ds) = &mut self.collectors else {
            panic!("fault plans drive the daemon pipeline; use daemon mode");
        };
        let broker = self.broker.as_ref().expect("daemon mode has a broker");
        for (i, d) in ds.iter_mut().enumerate() {
            d.set_publisher(Box::new(ChaosPublisher {
                broker: broker.clone(),
                plan: plan.clone(),
                host: self.headers[i].hostname.to_string(),
            }));
        }
        self.fault_plan = Some(plan);
    }

    /// Reconfigure every daemon's spool (daemon mode only; call before
    /// driving the system).
    pub fn set_spool(&mut self, cfg: SpoolConfig) {
        let NodeCollectors::Daemon(ds) = &mut self.collectors else {
            panic!("spools exist only in daemon mode");
        };
        for (i, d) in ds.iter_mut().enumerate() {
            let seed = self.headers[i]
                .hostname
                .as_str()
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                });
            d.set_spool_config(cfg, seed)
                .expect("set_spool is called before any message is spooled");
        }
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
        let now = self.clock.now();
        self.cadence = vec![self.cfg.interval; self.headers.len()];
        self.cadence_changed = vec![now; self.headers.len()];
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

    /// The per-metric quantile sketches maintained at job ingest.
    pub fn sketches(&self) -> &SketchRegistry {
        &self.sketches
    }

    /// Attach a worker pool to the time-series mirror (if enabled): its
    /// dense aggregate folds run as parallel per-shard scans, with
    /// results identical to the sequential path.
    pub fn set_pool(&mut self, pool: Arc<WorkerPool>) {
        if let Some(tsdb) = &mut self.tsdb {
            tsdb.set_pool(pool);
        }
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
        &self.clock
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
        &self.archive
    }

    /// The broker (daemon mode only).
    pub fn broker(&self) -> Option<&Broker> {
        self.broker.as_ref()
    }

    /// The time-series database, if enabled.
    pub fn tsdb(&self) -> Option<&TsDb> {
        self.tsdb.as_ref()
    }

    /// Crash-recovery accounting from opening a durable tsdb
    /// ([`SystemConfig::tsdb_dir`]); `None` for in-memory mirrors.
    pub fn tsdb_recovery(&self) -> Option<&tacc_tsdb::RecoveryReport> {
        self.tsdb_recovery.as_ref()
    }

    /// Why the configured durable tsdb fell back to memory, if it did.
    pub fn tsdb_open_error(&self) -> Option<&str> {
        self.tsdb_open_error.as_deref()
    }

    /// Fsync the durable tsdb's write-ahead logs, making every point
    /// mirrored so far crash-proof. No-op (Ok) for in-memory mirrors.
    pub fn flush_tsdb(&self) -> Result<(), tacc_tsdb::DiskError> {
        match &self.tsdb {
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
        let mut total = OverheadAccount::default();
        let accounts: Vec<OverheadAccount> = match &self.collectors {
            NodeCollectors::Cron(cs) => cs.iter().map(|c| c.sampler().account()).collect(),
            NodeCollectors::Daemon(ds) => ds.iter().map(|d| d.sampler().account()).collect(),
        };
        for a in accounts {
            total.busy = total.busy + a.busy;
            total.collections += a.collections;
            total.real_nanos += a.real_nanos;
        }
        total
    }

    /// Crash a node: the hardware stops responding; in cron mode the
    /// unsynced local log is lost, in daemon mode the in-memory spool
    /// is wiped into the lost-sequence ledger. Returns samples lost.
    pub fn crash_node(&mut self, node_idx: usize) -> usize {
        self.cluster.node(node_idx).write().crash();
        match &mut self.collectors {
            NodeCollectors::Cron(cs) => cs[node_idx].on_crash(),
            NodeCollectors::Daemon(ds) => ds[node_idx].on_crash(),
        }
    }

    /// Reboot a crashed node: the collector resumes its schedule from
    /// the present (the dead window is not backfilled).
    pub fn reboot_node(&mut self, node_idx: usize) {
        self.cluster.node(node_idx).write().reboot();
        let now = self.clock.now();
        match &mut self.collectors {
            NodeCollectors::Cron(cs) => cs[node_idx].skip_to(now),
            NodeCollectors::Daemon(ds) => ds[node_idx].on_reboot(now),
        }
    }

    /// Apply the fault plan's state for instant `now`: broker outage
    /// windows, node crash/reboot at window edges, and per-device
    /// degradation (missing/truncated pseudo-files, stuck counters).
    fn apply_faults(&mut self, now: SimTime) {
        let Some(plan) = self.fault_plan.clone() else {
            return;
        };
        if let Some(broker) = &self.broker {
            let down = plan.broker_down(now);
            if down && !broker.is_stopped() {
                broker.stop();
            } else if !down && broker.is_stopped() {
                broker.restart();
            }
        }
        for outage in &plan.node_outages {
            let Some(idx) = self.host_index(&outage.host) else {
                continue;
            };
            let down = outage.window.contains(now);
            if down && !self.plan_node_down[idx] {
                self.plan_node_down[idx] = true;
                self.crash_node(idx);
            } else if !down && self.plan_node_down[idx] {
                self.plan_node_down[idx] = false;
                self.reboot_node(idx);
            }
        }
        // Device faults are reasserted every step: a reboot thaws frozen
        // counters and clears read faults, so whatever window is still
        // open must be reinstalled.
        let mut read_faults: HashMap<usize, Vec<ReadFault>> = HashMap::new();
        let mut faulted_nodes: HashSet<usize> = HashSet::new();
        for df in &plan.device_faults {
            let Some(idx) = self.host_index(&df.host) else {
                continue;
            };
            match df.kind {
                DeviceFaultKind::StuckCounter => {
                    self.cluster.node(idx).write().set_frozen(
                        df.dev_type,
                        &df.instance,
                        df.window.contains(now),
                    );
                }
                DeviceFaultKind::MissingFile | DeviceFaultKind::TruncatedRead => {
                    faulted_nodes.insert(idx);
                    if df.window.contains(now) {
                        if let Some(prefix) = fault_path(df.dev_type, &df.instance) {
                            read_faults.entry(idx).or_default().push(ReadFault {
                                prefix,
                                mode: match df.kind {
                                    DeviceFaultKind::MissingFile => ReadFaultMode::Missing,
                                    _ => ReadFaultMode::Truncated,
                                },
                            });
                        }
                    }
                }
            }
        }
        for idx in faulted_nodes {
            self.cluster
                .node(idx)
                .write()
                .set_read_faults(read_faults.remove(&idx).unwrap_or_default());
        }
    }

    /// Reconcile end-to-end delivery accounting (daemon mode only):
    /// every sequence number is classified exactly once.
    pub fn delivery_report(&self) -> DeliveryReport {
        let NodeCollectors::Daemon(ds) = &self.collectors else {
            panic!("delivery accounting requires daemon mode");
        };
        let consumer = self.consumer.as_ref().expect("daemon mode has a consumer");
        let mut r = DeliveryReport::default();
        for (i, d) in ds.iter().enumerate() {
            let host = self.headers[i].hostname.as_str();
            r.collected += d.collected;
            r.degraded_reads += d.sampler().degraded_reads();
            for seq in 0..d.next_seq() {
                if consumer.has_seen(host, seq) {
                    r.delivered += 1;
                } else if d.spool().contains(seq) {
                    r.in_spool += 1;
                } else if d.spool().evicted().contains(&seq) {
                    r.dropped += 1;
                } else {
                    // Crash-wiped (in the lost ledger) or otherwise
                    // vanished — lost either way.
                    r.lost += 1;
                }
            }
        }
        r.duplicates = consumer.duplicates;
        r.gap_events = consumer.gap_events;
        r.received = consumer.received;
        r.dead_lettered = consumer.dead_lettered;
        r
    }

    fn feed_sample(
        headers: &[HostHeader],
        accums: &mut HashMap<JobId, JobAccum>,
        mirror: &mut TsdbMirror,
        tsdb: Option<&TsDb>,
        node_idx: usize,
        sample: &Sample,
    ) {
        let header = &headers[node_idx];
        for jid in &sample.jobids {
            if let Ok(id) = jid.parse::<JobId>() {
                accums.entry(id).or_default().feed(header, sample);
            }
        }
        if let Some(tsdb) = tsdb {
            mirror.feed(header, sample, tsdb);
        }
    }

    fn host_index(&self, host: &str) -> Option<usize> {
        self.headers.iter().position(|h| h.hostname == host)
    }

    fn set_jobs_on(&mut self, node_idx: usize) {
        let ids: Vec<String> = self
            .scheduler
            .running_on(node_idx)
            .into_iter()
            .map(|j| j.to_string())
            .collect();
        match &mut self.collectors {
            NodeCollectors::Cron(cs) => cs[node_idx].set_jobs(ids),
            NodeCollectors::Daemon(ds) => ds[node_idx].set_jobs(ids),
        }
    }

    fn collect_marked_on(&mut self, node_idx: usize, now: SimTime, mark: &str) {
        let node = self.cluster.node(node_idx);
        let guard = node.read();
        if guard.is_crashed() {
            return; // no daemon, no cron job: a dead node collects nothing
        }
        let fs = NodeFs::new(&guard);
        match &mut self.collectors {
            NodeCollectors::Cron(cs) => {
                let sample = cs[node_idx].collect_marked(&fs, now, mark);
                drop(guard);
                Self::feed_sample(
                    &self.headers,
                    &mut self.accums,
                    &mut self.mirror,
                    self.tsdb.as_ref(),
                    node_idx,
                    &sample,
                );
            }
            NodeCollectors::Daemon(ds) => {
                ds[node_idx].collect_marked(&fs, now, mark);
            }
        }
    }

    fn handle_started(&mut self, id: JobId, now: SimTime) {
        let job = self.scheduler.job(id).expect("started job exists").clone();
        self.xalt.record_launch(id, &job.exec);
        let mut pids = Vec::new();
        for (rank, &node_idx) in job.nodes.iter().enumerate() {
            self.node_assign[node_idx] = Some((id, rank));
            let idle = rank >= job.n_nodes.saturating_sub(job.idle_nodes);
            if !idle {
                let node = self.cluster.node(node_idx);
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
                self.cluster.node(node_idx).write().end_process(pid);
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
            let mem_gb = self.cfg.largemem_topology.memory_bytes as f64 / 1e9;
            let mem_gb = if job.queue.name() == "largemem" {
                mem_gb
            } else {
                self.cfg.topology.memory_bytes as f64 / 1e9
            };
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
            // Feed the portal's quantile sketches.
            self.sketches.observe_job(&metrics);
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
        let Some(acfg) = self.adaptive else {
            return;
        };
        let Some(online) = &self.online else {
            return;
        };
        let NodeCollectors::Daemon(ds) = &mut self.collectors else {
            return;
        };
        for (i, d) in ds.iter_mut().enumerate() {
            let Some(header) = self.headers.get(i) else {
                continue;
            };
            let (Some(&cur), Some(&since)) = (self.cadence.get(i), self.cadence_changed.get(i))
            else {
                continue;
            };
            let score = online.anomaly_score(header.hostname);
            let desired = if score >= acfg.hot_score {
                acfg.min_interval
            } else if now.duration_since(since) >= cur {
                // One full quiet period at the current cadence: back
                // off one multiplicative step.
                let next =
                    SimDuration::from_secs((cur.as_secs() as f64 * acfg.backoff).round() as u64);
                if next > acfg.max_interval {
                    acfg.max_interval
                } else {
                    next
                }
            } else {
                cur
            };
            if desired != cur {
                if let Some(slot) = self.cadence.get_mut(i) {
                    *slot = desired;
                }
                if let Some(slot) = self.cadence_changed.get_mut(i) {
                    *slot = now;
                }
                d.set_interval(now, desired);
                self.cadence_log.push((now, i, desired));
            } else if now.duration_since(since) >= cur {
                // At the ceiling (or floor): restart the quiet timer so
                // the elapsed check stays meaningful.
                if let Some(slot) = self.cadence_changed.get_mut(i) {
                    *slot = now;
                }
            }
        }
    }

    /// One driver step: submissions → scheduler events (prolog/epilog
    /// collections) → cluster advance → collector ticks → consumer
    /// drain (daemon) → online analysis → ingest finished jobs.
    pub fn step_once(&mut self) {
        let now = self.clock.now();
        // Fault-plan state for this instant (broker outages, node
        // crash/reboot edges, device degradation).
        self.apply_faults(now);
        // Submissions due.
        while self
            .pending
            .front()
            .map(|(t, _)| *t <= now)
            .unwrap_or(false)
        {
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
        self.cluster
            .advance_all(self.cfg.step, |i| demands[i].clone());
        let now2 = self.clock.now();
        // Collector ticks.
        match &mut self.collectors {
            NodeCollectors::Cron(cs) => {
                for (i, c) in cs.iter_mut().enumerate() {
                    let node = self.cluster.node(i);
                    let guard = node.read();
                    if guard.is_crashed() {
                        continue;
                    }
                    let fs = NodeFs::new(&guard);
                    let samples = c.tick(&fs, now2, &self.archive);
                    drop(guard);
                    for s in samples {
                        Self::feed_sample(
                            &self.headers,
                            &mut self.accums,
                            &mut self.mirror,
                            self.tsdb.as_ref(),
                            i,
                            &s,
                        );
                    }
                }
            }
            NodeCollectors::Daemon(ds) => {
                for (i, d) in ds.iter_mut().enumerate() {
                    let node = self.cluster.node(i);
                    let guard = node.read();
                    if guard.is_crashed() {
                        continue;
                    }
                    let fs = NodeFs::new(&guard);
                    d.tick(&fs, now2);
                }
            }
        }
        // Consumer drain + online analysis (daemon mode).
        let mut to_suspend: Vec<JobId> = Vec::new();
        if let Some(consumer) = &mut self.consumer {
            let headers = &self.headers;
            let auto_suspend = self.auto_suspend;
            let mut on_sample = |host: Sym, sample: &Sample| {
                let Some(idx) = headers.iter().position(|h| h.hostname == host) else {
                    return;
                };
                Self::feed_sample(
                    headers,
                    &mut self.accums,
                    &mut self.mirror,
                    self.tsdb.as_ref(),
                    idx,
                    sample,
                );
                if let Some(online) = &mut self.online {
                    for alert in online.observe(now2, &headers[idx], sample) {
                        if auto_suspend {
                            for jid in &alert.jobids {
                                if let Ok(id) = jid.parse::<JobId>() {
                                    to_suspend.push(id);
                                }
                            }
                        }
                    }
                }
            };
            // Each sample is lent from the consumer's own storage:
            // nothing is collected into a Vec first.
            while consumer.poll_with(now2, Duration::ZERO, &mut on_sample) {}
            if let Some(online) = &mut self.online {
                online.check_silence(now2);
            }
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
        while self.clock.now() < end {
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
    fn daemon_mode_with_pool_matches_sequential() {
        // The same workload through a pooled system and a plain one:
        // the sharded-tsdb scans must not change a single ingested
        // metric or archive byte count.
        let run = |pool: Option<Arc<WorkerPool>>| {
            let mut cfg = SystemConfig::small(3, crate::config::Mode::daemon());
            cfg.enable_tsdb = true;
            let mut sys = MonitoringSystem::new(cfg);
            if let Some(p) = pool {
                sys.set_pool(p);
            }
            sys.enqueue_jobs(vec![
                (t0(), request(AppModel::namd(), 2, 60)),
                (
                    t0() + SimDuration::from_mins(10),
                    request(AppModel::wrf(), 1, 45),
                ),
            ]);
            sys.run_until(t0() + SimDuration::from_mins(120));
            sys
        };
        let plain = run(None);
        let pooled = run(Some(Arc::new(WorkerPool::new(4))));
        assert_eq!(pooled.ingested, plain.ingested);
        let tp = plain.db().table(JOBS_TABLE).unwrap();
        let tq = pooled.db().table(JOBS_TABLE).unwrap();
        assert_eq!(tq.len(), tp.len());
        for col in ["CPU_Usage", "VecPercent", "flops", "cpi"] {
            let a = Query::new(tp).avg(col).unwrap();
            let b = Query::new(tq).avg(col).unwrap();
            assert_eq!(a, b, "{col} must match the sequential pipeline");
        }
        assert_eq!(
            pooled.archive().latency_stats().count,
            plain.archive().latency_stats().count
        );
        let (a, b) = (plain.tsdb().unwrap(), pooled.tsdb().unwrap());
        assert_eq!(a.n_points(), b.n_points());
        assert_eq!(a.n_series(), b.n_series());
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
    fn overhead_accounting_accumulates() {
        let mut sys = MonitoringSystem::new(SystemConfig::small(2, crate::config::Mode::daemon()));
        sys.run_until(t0() + SimDuration::from_hours(2));
        let acct = sys.overhead();
        // 2 nodes × 13 interval samples.
        assert!(acct.collections >= 24, "collections {}", acct.collections);
        let per_node_elapsed = SimDuration::from_hours(2);
        let ov = OverheadAccount {
            busy: SimDuration::from_nanos(acct.busy.as_nanos() / 2),
            collections: acct.collections / 2,
            real_nanos: 0,
        }
        .overhead_fraction(per_node_elapsed);
        assert!(ov < 1e-3, "overhead {ov}");
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
    fn node_crash_loses_cron_data_but_not_daemon_data() {
        // Cron mode.
        let mut cron = MonitoringSystem::new(SystemConfig::small(1, Mode::cron()));
        cron.run_until(t0() + SimDuration::from_hours(2));
        let lost = cron.crash_node(0);
        assert!(lost >= 12, "unsynced samples lost: {lost}");
        // Daemon mode: same scenario, nothing lost.
        let mut daemon =
            MonitoringSystem::new(SystemConfig::small(1, crate::config::Mode::daemon()));
        daemon.run_until(t0() + SimDuration::from_hours(2));
        let lost = daemon.crash_node(0);
        assert_eq!(lost, 0);
        assert!(daemon.archive().total_samples() >= 12);
    }

    #[test]
    fn tsdb_mirror_populates_series() {
        let mut cfg = SystemConfig::small(2, crate::config::Mode::daemon());
        cfg.enable_tsdb = true;
        let mut sys = MonitoringSystem::new(cfg);
        sys.enqueue_jobs(vec![(t0(), request(AppModel::io_heavy(), 2, 60))]);
        sys.run_until(t0() + SimDuration::from_mins(90));
        let tsdb = sys.tsdb().unwrap();
        assert!(tsdb.n_series() > 0);
        let f = tacc_tsdb::TagFilter::any().dev_type("mdc").event("reqs");
        assert!(!tsdb.keys(&f).is_empty());
        assert!(tsdb.n_points() > 0);
    }

    #[test]
    fn durable_tsdb_mirror_survives_a_restart() {
        // Two system lifetimes over the same store directory: the
        // second must recover every point the first flushed.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(format!("tacc-sys-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = SystemConfig::small(2, crate::config::Mode::daemon());
        cfg.enable_tsdb = true;
        cfg.tsdb_dir = Some(dir.clone());
        let mut sys = MonitoringSystem::new(cfg.clone());
        assert!(sys.tsdb_open_error().is_none());
        let report = sys.tsdb_recovery().expect("durable store opened");
        assert_eq!(report.fresh_shards, tacc_tsdb::DEFAULT_SHARDS as u64);
        sys.enqueue_jobs(vec![(t0(), request(AppModel::io_heavy(), 2, 60))]);
        sys.run_until(t0() + SimDuration::from_mins(90));
        let points = sys.tsdb().unwrap().n_points();
        let series = sys.tsdb().unwrap().n_series();
        assert!(points > 0);
        sys.flush_tsdb().unwrap();
        drop(sys);

        let sys = MonitoringSystem::new(cfg);
        let report = *sys.tsdb_recovery().expect("durable store reopened");
        assert!(report.balances(), "{report:?}");
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(sys.tsdb().unwrap().n_points(), points);
        assert_eq!(sys.tsdb().unwrap().n_series(), series);
        drop(sys);
        let _ = std::fs::remove_dir_all(&dir);
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
